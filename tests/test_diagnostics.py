import numpy as np
import pytest

from vortexbsde.bsde_engine import SolverConfig, picard_solve, select_alpha
from vortexbsde.diagnostics import (
    assert_alpha_conditions,
    contraction_check,
    full_json_report,
    max_principle_check,
    z_bmo_bound,
    z_bmo_check,
)
from vortexbsde.errors import ConfigurationError
from vortexbsde.torus_field import field_from_mode_list


@pytest.fixture(scope="module")
def small_solution():
    psi = field_from_mode_list(16, [(1, 0, -0.5j)])
    cfg = SolverConfig(
        N=16, L=32, M_inner=400, nu=0.1, T=0.4,
        picard_tol=2.0, max_iter=4,
    )
    return picard_solve(psi, cfg)


class TestBoundFormula:
    def test_collapses_at_zero_horizon(self):
        # T = 0 removes C0 from the formula entirely
        assert z_bmo_bound(1.0, 1.0, 0.0, 123.456) == pytest.approx(1.0, rel=1e-15)

    def test_hand_value(self):
        # C1=2, nu=0.5, T=0.25, C0=1: (2/0.5)*sqrt(0.5 + 0.25*1*4) = 4*sqrt(1.5)
        assert z_bmo_bound(2.0, 0.5, 0.25, 1.0) == pytest.approx(4 * np.sqrt(1.5), rel=1e-15)

    def test_monotone_in_horizon(self):
        vals = [z_bmo_bound(1.0, 0.1, t, 1.01) for t in (0.0, 0.5, 1.0, 2.0)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            z_bmo_bound(1.0, -1.0, 0.1, 1.0)


class TestAlphaConditions:
    @pytest.mark.parametrize("c0", [1.0126, 1.013])
    @pytest.mark.parametrize(
        "c1, nu, horizon", [(1.0, 0.1, 0.5), (2.0, 0.5, 0.25), (0.3, 1.0, 1.0)]
    )
    def test_selected_alpha_passes_both(self, c1, nu, horizon, c0):
        # select_alpha is the smallest passing weight: the binding condition
        # sits at its printed limit, and any smaller weight fails
        alpha = select_alpha(c0, c1, nu, horizon)
        res = assert_alpha_conditions(alpha, c0, c1, nu, horizon)
        assert res["ok"]
        binding = max(res["condition1"] / (1 / 16), res["condition2"] / (nu / 4))
        assert binding == pytest.approx(1.0, rel=1e-15, abs=0.0)
        assert not assert_alpha_conditions(alpha * (1 - 1e-9), c0, c1, nu, horizon)["ok"]

    def test_too_small_alpha_fails(self):
        res = assert_alpha_conditions(0.01, 1.0, 1.0, 0.1, 0.5)
        assert not res["ok"]

    def test_zero_data(self):
        assert assert_alpha_conditions(0.0, 1.0, 0.0, 0.1, 0.5)["ok"]

    def test_zero_alpha_with_data_fails(self):
        res = assert_alpha_conditions(0.0, 1.0, 1.0, 0.1, 0.5)
        assert res == {"condition1": np.inf, "condition2": np.inf, "ok": False}


class TestMaxPrinciple:
    def test_real_solution_passes(self, small_solution):
        rep = max_principle_check(small_solution, small_solution.norms["c1"])
        assert rep["pass"]
        assert rep["margin"] >= 0.0

    def test_margins_are_the_solves(self, small_solution):
        # the diagnostics and the solve share one margin rule, to the bit
        rep = max_principle_check(small_solution, small_solution.norms["c1"])
        assert len(rep["per_iteration"]) == len(small_solution.history) > 0
        for got, rec in zip(rep["per_iteration"], small_solution.history):
            assert got["margin"] == rec["max_principle_margin"]

    def test_single_mode_strict_decay_margin(self, small_solution):
        # every interior node decays below C1 = sup|psi|
        rep = max_principle_check(small_solution, 1.0)
        assert rep["margin"] > 0.0

    def test_adversarial_iterate_flagged(self):
        # hand-built sup profile at twice the bound must yield negative margin
        fake_history = (
            {"iteration": 1, "eps_mc": 0.01, "sup_lattice": [2.0, 2.0]},
        )

        class Fake:
            history = fake_history

        rep = max_principle_check(Fake(), 1.0)
        assert rep["margin"] < 0.0
        assert not rep["pass"]

    def test_trivial_zero_data(self):
        class Empty:
            history = ()

        rep = max_principle_check(Empty(), 0.0)
        assert rep["pass"]


class TestZBmo:
    def test_single_mode_matches_closed_form(self, small_solution):
        cfg = small_solution.config
        rep = z_bmo_check(small_solution)
        closed = (1 - np.exp(-8 * np.pi**2 * cfg.nu * cfg.T)) / (4 * cfg.nu)
        assert abs(rep["measured_sq"] - closed) <= 3 * rep["se_sq"]
        assert rep["pass"]

    def test_below_printed_bound(self, small_solution):
        rep = z_bmo_check(small_solution)
        assert rep["measured"] - 3 * rep["se"] <= rep["bound"]

    def test_pointwise_claim_flagged_unverified(self, small_solution):
        assert z_bmo_check(small_solution)["pointwise_claim_verified"] is False


class TestContraction:
    def _rec(self, it, norm, se, floor, ratio=None, above=None):
        rec = {
            "iteration": it,
            "delta_norm": norm,
            "delta_norm_se": se,
            "delta_noise_floor": floor,
        }
        if ratio is not None:
            rec["contraction_ratio"] = ratio
            rec["ratio_above_noise"] = above
        return rec

    def test_decreasing_sequence_passes(self):
        hist = (
            self._rec(1, 1.0, 0.01, 0.05),
            self._rec(2, 0.4, 0.004, 0.02, ratio=0.4, above=True),
            self._rec(3, 0.12, 0.001, 0.006, ratio=0.3, above=True),
        )
        rep = contraction_check(hist, alpha=10.0)
        assert rep["status"] == "pass"
        assert rep["all_below_one"]

    def test_divergent_sequence_fails(self):
        hist = (
            self._rec(1, 1.0, 0.01, 0.05),
            self._rec(2, 1.5, 0.01, 0.05, ratio=1.5, above=True),
            self._rec(3, 2.5, 0.01, 0.05, ratio=1.67, above=True),
        )
        assert contraction_check(hist, alpha=10.0)["status"] == "fail"

    def test_insufficient_data_inconclusive(self):
        hist = (
            self._rec(1, 1.0, 0.01, 0.05),
            self._rec(2, 0.01, 0.004, 0.05, ratio=0.01, above=False),
        )
        rep = contraction_check(hist, alpha=10.0)
        assert rep["status"] == "inconclusive"
        assert rep["status"] != "fail"

    def test_single_mode_inconclusive_but_converged(self, small_solution):
        rep = contraction_check(small_solution.history, small_solution.norms["alpha"])
        assert rep["status"] == "inconclusive"


class TestReports:
    def test_full_report_sections(self, small_solution):
        doc = full_json_report(small_solution)
        assert doc["schema_version"] == 1
        assert set(doc) >= {"constants", "z_bmo", "max_principle", "contraction"}
        assert doc["constants"]["alpha_conditions"]["ok"]
        assert doc["max_principle"]["pass"]
        assert doc["z_bmo"]["pass"]
