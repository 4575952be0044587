import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vortexbsde.biot_savart import (
    LAMBDA_1,
    apply_K,
    closed_form_c0,
    curl,
    divergence,
    verify_elliptic_estimates,
)
from vortexbsde.errors import ConfigurationError, DomainError
from vortexbsde.torus_field import (
    ScalarField,
    field_from_mode_list,
    l2_norm,
    modes_to_grid,
    partial_derivative,
    translate,
)

from conftest import random_mean_zero_field
from oracles import measure_c0, sobolev_norm

N = 32
X = np.arange(N) / N


def sin1(n=N):
    return field_from_mode_list(n, [(1, 0, -0.5j)])


class TestApplyK:
    def test_zero(self):
        u = apply_K(ScalarField(np.zeros((N, N))))
        assert l2_norm(u.component1) == 0.0
        assert l2_norm(u.component2) == 0.0

    def test_single_mode_velocity(self):
        # Lap u2 = d(sin)/dx1 = 2 pi cos solves as u2 = -cos/(2 pi); u1 = 0.
        u = apply_K(sin1())
        assert l2_norm(u.component1) == 0.0
        grid = modes_to_grid(u.component2.modes)
        analytic = -np.cos(2 * np.pi * X)[:, None] / (2 * np.pi) * np.ones(N)
        assert np.max(np.abs(grid - analytic)) < 1e-10

    def test_poisson_residual_on_grid(self):
        # Independent residual check: Lap u2 - d1(omega) must vanish.
        omega = random_mean_zero_field(N, 37)
        u = apply_K(omega)
        lap_u2 = partial_derivative(partial_derivative(u.component2, 1), 1) + (
            partial_derivative(partial_derivative(u.component2, 2), 2)
        )
        resid = lap_u2 - partial_derivative(omega, 1)
        assert l2_norm(resid) < 1e-10 * l2_norm(omega)
        lap_u1 = partial_derivative(partial_derivative(u.component1, 1), 1) + (
            partial_derivative(partial_derivative(u.component1, 2), 2)
        )
        resid1 = lap_u1 + partial_derivative(omega, 2)
        assert l2_norm(resid1) < 1e-10 * l2_norm(omega)

    def test_curl_recovery(self):
        omega = random_mean_zero_field(N, 41)
        back = curl(apply_K(omega))
        assert l2_norm(back - omega) < 1e-12 * l2_norm(omega)

    def test_divergence_free_modewise(self):
        omega = random_mean_zero_field(N, 43)
        div = divergence(apply_K(omega))
        assert float(np.sum(np.abs(div.modes) ** 2)) < 1e-20

    def test_rejects_nonzero_mean(self):
        modes = np.zeros((N, N), complex)
        modes[0, 0] = 0.5
        with pytest.raises(DomainError):
            apply_K(ScalarField(modes))

    @settings(max_examples=15, deadline=None)
    @given(a=st.floats(-2, 2), b=st.floats(-2, 2))
    def test_linearity(self, a, b):
        f = random_mean_zero_field(16, 47)
        g = random_mean_zero_field(16, 48)
        lhs = apply_K(ScalarField(a * f.modes + b * g.modes))
        rhs_1 = ScalarField(a * apply_K(f).component1.modes + b * apply_K(g).component1.modes)
        rhs_2 = ScalarField(a * apply_K(f).component2.modes + b * apply_K(g).component2.modes)
        scale = max(l2_norm(rhs_1), l2_norm(rhs_2), 1e-30)
        assert l2_norm(lhs.component1 - rhs_1) < 1e-12 * scale + 1e-15
        assert l2_norm(lhs.component2 - rhs_2) < 1e-12 * scale + 1e-15

    @settings(max_examples=15, deadline=None)
    @given(a1=st.floats(-1, 1), a2=st.floats(-1, 1))
    def test_commutes_with_translate(self, a1, a2):
        omega = random_mean_zero_field(16, 53)
        lhs = apply_K(translate(omega, (a1, a2)))
        rhs = apply_K(omega)
        for lc, rc in ((lhs.component1, rhs.component1), (lhs.component2, rhs.component2)):
            diff = lc - translate(rc, (a1, a2))
            assert l2_norm(diff) < 1e-12 * max(l2_norm(rc), 1e-30) + 1e-15


class TestEllipticEstimates:
    def test_single_mode_saturates_poincare(self):
        rep = verify_elliptic_estimates(sin1())
        assert rep["grad_bound_ok"] and rep["poincare_ok"]
        # u2 multiplier at |k| = 1 achieves the Poincare constant exactly
        assert rep["ratios"]["poincare"][1] == pytest.approx(1 / (2 * np.pi), rel=1e-12)
        assert rep["ratios"]["poincare"][1] * np.sqrt(LAMBDA_1) == pytest.approx(1.0, rel=1e-12)

    def test_higher_mode_halves_ratio(self):
        base = verify_elliptic_estimates(sin1())["ratios"]["poincare"][1]
        f = field_from_mode_list(N, [(0, 2, 0.5)])  # cos(4 pi x2), |k| = 2
        rep = verify_elliptic_estimates(f)
        assert rep["ratios"]["poincare"][0] == pytest.approx(base / 2, rel=1e-12)

    def test_random_fields_pass(self):
        for seed in range(5):
            rep = verify_elliptic_estimates(random_mean_zero_field(N, 100 + seed))
            assert rep["grad_bound_ok"] and rep["poincare_ok"]

    def test_zero_field_rejected(self):
        with pytest.raises(DomainError):
            verify_elliptic_estimates(ScalarField(np.zeros((N, N))))


class TestC0:
    def test_single_mode_matches_closed_form(self):
        # For f = sin(2 pi x1) only K_2 is active at |k| = 1, where the
        # per-mode ratio attains the grid supremum.
        f = sin1()
        ratio = sobolev_norm(apply_K(f).component2, 1) / sobolev_norm(f, 0)
        assert ratio == pytest.approx(closed_form_c0(1, N), rel=1e-12)
        assert closed_form_c0(1, N) == pytest.approx(np.sqrt(1 + 1 / (4 * np.pi**2)), rel=1e-12)

    def test_scaling_invariance(self):
        f = random_mean_zero_field(N, 61)
        r1 = sobolev_norm(apply_K(f).component1, 1) / sobolev_norm(f, 0)
        g = ScalarField(7.3 * f.modes)
        r2 = sobolev_norm(apply_K(g).component1, 1) / sobolev_norm(g, 0)
        assert r1 == pytest.approx(r2, rel=1e-12)

    def test_measured_below_closed_form(self):
        for order in (1, 2, 3):
            measured = measure_c0(order, trials=100, n=16, seed=5)
            assert measured <= closed_form_c0(order, 16) * (1 + 1e-12)

    def test_order_range(self):
        with pytest.raises(ConfigurationError):
            closed_form_c0(4, N)

