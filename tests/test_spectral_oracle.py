import numpy as np
import pytest

from vortexbsde import brownian, bsde_engine
from vortexbsde.bsde_engine import bsde_residual_profile
from vortexbsde.errors import ConfigurationError, DomainError
from vortexbsde.spectral_oracle import (
    VorticityTrajectory,
    _AdvectionKernel,
    _cfl_or_raise,
    enstrophy,
    evolve,
    kinetic_energy,
    modes_at,
)
from vortexbsde.torus_field import (
    ScalarField,
    _heat_factor,
    embed_modes,
    field_from_mode_list,
    l2_norm,
    modes_to_grid,
)

from conftest import random_mean_zero_field
from oracles import advection_reference, series_sum_brute

N = 32


def sin1(n=N):
    return field_from_mode_list(n, [(1, 0, -0.5j)])


def two_mode(n=N):
    return field_from_mode_list(n, [(1, 0, -0.5j), (0, 2, 0.5)])


def advection(omega: ScalarField) -> ScalarField:
    """u . grad(omega) as the integrator forms it (dealiased, mean-zero)."""
    return ScalarField(_AdvectionKernel(omega.grid_size)(omega.modes)[0])


class TestNonlinearTerm:
    def test_single_mode_vanishes(self):
        # u = (0, -cos/(2 pi)) while grad(omega) = (2 pi cos, 0): orthogonal.
        assert l2_norm(advection(sin1())) < 1e-14

    def test_zero_field(self):
        z = ScalarField(np.zeros((N, N)))
        assert l2_norm(advection(z)) == 0.0

    def test_two_mode_analytic(self):
        # By hand: u.grad(omega) = (3/2) cos(2 pi x1) sin(4 pi x2), whose
        # L2 norm is 1.5/2 = 0.75.
        adv = advection(two_mode())
        assert l2_norm(adv) == pytest.approx(0.75, rel=1e-12)

    def test_advection_orthogonal_to_field(self):
        # int (u.grad omega) * omega = 0 by parts; Riemann quadrature oracle
        # on oversampled physical values.
        omega = random_mean_zero_field(N, 71)
        adv = advection(omega)
        ov_omega = modes_to_grid(embed_modes(omega.modes, 4 * N))
        ov_adv = modes_to_grid(embed_modes(adv.modes, 4 * N))
        integral = float(np.mean(ov_adv * ov_omega))
        assert abs(integral) < 1e-10

    def test_result_mean_zero(self):
        adv = advection(random_mean_zero_field(N, 73))
        assert adv.modes[0, 0] == 0.0


class TestAdvectionKernel:
    """The kernel built once per grid equals the per-call formula it
    replaces (``oracles.advection_reference``) bit for bit."""

    @pytest.mark.parametrize("n", [6, 8, 12, 16, 24, 28, 32])
    def test_matches_reference_formula(self, n):
        kernel = _AdvectionKernel(n)
        for seed in range(3):  # the buffer is reused from call to call
            modes = random_mean_zero_field(n, 90 + seed, decay=0.5).modes
            adv, max_u = kernel(modes)
            ref, ref_u = advection_reference(modes)
            assert np.array_equal(adv, ref) and max_u == ref_u

    def test_evolve_is_a_heun_loop_over_the_reference(self):
        psi, nu, horizon, steps = two_mode(16), 0.05, 0.25, 8
        dt = horizon / steps
        decay = _heat_factor(16, nu, dt)
        w = psi.modes
        expected = [w]
        for _ in range(steps):
            adv1, max_u = advection_reference(w)
            _cfl_or_raise(dt, max_u, 16, horizon)
            adv2, _ = advection_reference(decay * (w + dt * -adv1))
            w = decay * w + 0.5 * dt * (decay * -adv1 + -adv2)
            expected.append(w)
        # the trajectory symmetrises its stack, as ScalarField does
        expected = VorticityTrajectory(np.stack(expected), nu=nu, dt=dt)
        assert np.array_equal(evolve(psi, nu, horizon, steps).modes, expected.modes)

    def test_residual_profile_with_the_reference(self, monkeypatch):
        traj = evolve(two_mode(16), 0.05, 0.25, 8)
        increments = np.stack([brownian.simulate(1000 + p, 8, 0.25) for p in range(3)])
        got = bsde_residual_profile(traj.modes, traj.nu, traj.dt, increments)
        monkeypatch.setattr(bsde_engine, "_AdvectionKernel", lambda n: advection_reference)
        ref = bsde_residual_profile(traj.modes, traj.nu, traj.dt, increments)
        assert np.array_equal(got, ref)


class TestEvolve:
    def test_single_mode_exact_decay(self):
        traj = evolve(sin1(), 0.1, 0.5, 128)
        amp = 2 * abs(traj.fields[-1].modes[1, 0])
        exact = np.exp(-2 * np.pi**2 / 10)
        assert abs(amp - exact) / exact < 1e-6

    def test_heat_decay_exact_on_n24(self):
        # (7, 0) is advected by nothing; its decay needs k1 = 7, which the
        # float fftfreq(24) * 24 truncated to 6
        nu, horizon, steps = 0.1, 0.1, 4
        traj = evolve(field_from_mode_list(24, [(7, 0, -0.5j)]), nu, horizon, steps)
        for m in range(steps + 1):
            exact = -0.5j * np.exp(-4 * np.pi**2 * nu * 49 * m * traj.dt)
            assert traj.modes[m, 7, 0] == pytest.approx(exact, rel=1e-12, abs=0.0)
        assert np.count_nonzero(traj.modes[-1]) == 2

    def test_zero_initial_data(self):
        z = ScalarField(np.zeros((N, N)))
        traj = evolve(z, 0.3, 0.2, 8)
        assert all(l2_norm(f) == 0.0 for f in traj.fields)

    def test_enstrophy_decreases(self):
        traj = evolve(two_mode(), 0.05, 0.25, 64)
        ens = enstrophy(traj.modes)
        assert ens.shape == (traj.steps + 1,)
        assert ens[-1] == l2_norm(traj.fields[-1]) ** 2
        assert all(ens[i + 1] <= ens[i] + 1e-12 for i in range(len(ens) - 1))

    def test_energy_decreases(self):
        traj = evolve(two_mode(), 0.05, 0.25, 64)
        en = kinetic_energy(traj.modes)
        assert en.shape == (traj.steps + 1,)
        assert en[-1] == kinetic_energy(traj.modes[-1])
        assert all(en[i + 1] <= en[i] + 1e-12 for i in range(len(en) - 1))

    def test_mean_zero_conserved_exactly(self):
        traj = evolve(two_mode(), 0.05, 0.25, 32)
        assert all(f.modes[0, 0] == 0.0 for f in traj.fields)

    def test_self_convergence_second_order(self):
        # ||w_L - w_2L|| / ||w_2L - w_4L|| -> 4 for an order-2 scheme.
        psi = two_mode()
        ends = {
            steps: evolve(psi, 0.05, 0.25, steps).fields[-1] for steps in (32, 64, 128)
        }
        num = l2_norm(ends[32] - ends[64])
        den = l2_norm(ends[64] - ends[128])
        assert 3.5 <= num / den <= 4.5

    def test_single_mode_zero_nonlinear_residual_along_path(self):
        traj = evolve(sin1(), 0.1, 0.5, 32)
        assert all(l2_norm(advection(f)) < 1e-10 for f in traj.fields)

    def test_cfl_guard_raises_with_suggestion(self):
        psi = ScalarField(40.0 * two_mode().modes)
        with pytest.raises(ConfigurationError, match="L ="):
            evolve(psi, 0.01, 1.0, 4)

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            evolve(sin1(), -0.1, 0.5, 8)
        with pytest.raises(ConfigurationError):
            evolve(sin1(), 0.1, 0.5, 0)

    @pytest.mark.parametrize(
        "nu, horizon",
        [(float("nan"), 0.5), (float("inf"), 0.5), (0.1, float("nan")), (0.1, float("inf"))],
    )
    def test_non_finite_parameters(self, nu, horizon):
        with pytest.raises(ConfigurationError, match="finite"):
            evolve(sin1(), nu, horizon, 8)

    def test_rejects_nonzero_nyquist_mode(self):
        # evolve cannot carry the (N/2, 0) mode, and no omega0 holds one
        modes = field_from_mode_list(16, [(0, 2, 0.25), (0, 4, 0.1)]).modes.copy()
        modes[8, 0] = 0.05
        with pytest.raises(DomainError, match=r"Nyquist mode at index \(8, 0\)"):
            ScalarField(modes)

    def test_rejects_nonzero_mean(self):
        modes = np.zeros((N, N), complex)
        modes[0, 0] = 1.0
        with pytest.raises(DomainError):
            evolve(ScalarField(modes), 0.1, 0.5, 8)


def point_value(traj, tau: float, x) -> float:
    """omega(tau, x) by the literal Fourier sum of the interpolated field."""
    return float(series_sum_brute(modes_at(traj, tau), np.array([x]))[0])


class TestEvaluate:
    def test_initial_time_exact(self):
        traj = evolve(sin1(), 0.1, 0.5, 16)
        node = modes_at(traj, 0.0)
        assert np.shares_memory(node, traj.modes) and not node.flags.writeable
        assert np.array_equal(node, traj.modes[0])
        assert point_value(traj, 0.0, (0.25, 0.1)) == pytest.approx(1.0, abs=1e-12)

    def test_single_mode_decay_between_nodes(self):
        traj = evolve(sin1(), 0.1, 0.5, 64)
        tau = 0.1234  # off-node
        got = point_value(traj, tau, (0.25, 0.0))
        exact = np.exp(-4 * np.pi**2 * 0.1 * tau)
        dt = traj.dt
        assert abs(got - exact) < 2 * (4 * np.pi**2 * 0.1 * dt) ** 2

    def test_out_of_range(self):
        traj = evolve(sin1(), 0.1, 0.5, 16)
        with pytest.raises(DomainError):
            modes_at(traj, 0.6)
        with pytest.raises(DomainError):
            modes_at(traj, -0.1)

    def test_node_interpolation_consistency(self):
        traj = evolve(two_mode(), 0.05, 0.25, 16)
        f = modes_at(traj, 3 * traj.dt)
        assert np.max(np.abs(f - traj.modes[3])) == 0.0
