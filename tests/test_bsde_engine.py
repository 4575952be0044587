import dataclasses
import re
import warnings

import numpy as np
import pytest

from vortexbsde import brownian, bsde_engine
from vortexbsde.biot_savart import velocity_modes
from vortexbsde.bsde_engine import (
    SolverConfig,
    _SubBlock,
    _DRIFTED_CHUNK,
    _WEIGHTED_BLOCK,
    _bilinear,
    _bilinear_tables,
    _cell,
    _half_plane_modes,
    _linear_solve,
    _on_cell,
    _spectral_point_values,
    _velocity_tables,
    _weighted_estimator,
    bsde_residual_profile,
    heat_iterate,
    heat_mode_stack,
    picard_solve,
    solve_drifted_with_stats,
    solve_weighted_with_stats,
    y_alpha_sup,
    z_alpha_bmo_sq,
)
from vortexbsde.errors import (
    ConfigurationError,
    DomainError,
    NonConvergenceError,
    NumericalError,
)
from vortexbsde.spectral_oracle import VorticityTrajectory
from vortexbsde.torus_field import (
    ScalarField,
    _nyquist_mask,
    field_from_mode_list,
    grid_to_modes,
    l2_norm,
    modes_to_complex_grid,
    modes_to_grid,
    translate,
    wavenumbers,
)

from conftest import random_mean_zero_field
from oracles import (
    bilinear_reference,
    drifted_estimator_one_chunk,
    girsanov_weight,
    picard_group_statistics,
    series_sum_brute,
    terminal_value,
    weighted_estimator_two_transform,
)


def sin1(n=16):
    return field_from_mode_list(n, [(1, 0, -0.5j)])


def two_mode(n=16):
    return field_from_mode_list(n, [(1, 0, -0.5j), (0, 2, 0.5)])


def zero_field(n):
    return ScalarField(np.zeros((n, n)))


def iterate_with_zero_interior(psi, cfg):
    """prev with psi at the terminal slice and zero fields after: h == 0."""
    stack = np.zeros((cfg.L + 1,) + psi.modes.shape, dtype=complex)
    stack[0] = psi.modes
    return VorticityTrajectory(stack, nu=cfg.nu, dt=cfg.dt)


class TestTerminalValue:
    def test_zero_displacement(self):
        psi = sin1()
        xi = terminal_value(psi, np.zeros((4, 2)), nu=0.3)
        assert np.max(np.abs(xi.modes - psi.modes)) == 0.0

    def test_quarter_period_shift(self):
        # sqrt(2 nu) B_T = (0.25, 0) turns sin(2 pi x1) into cos(2 pi x1)
        nu = 0.5
        inc = np.zeros((4, 2))
        inc[0, 0] = 0.25  # B_T = (0.25, 0); sqrt(2 nu) = 1
        xi = terminal_value(sin1(), inc, nu=nu)
        cos = field_from_mode_list(16, [(1, 0, 0.5)])
        assert np.max(np.abs(xi.modes - cos.modes)) < 1e-14

    def test_mean_stays_zero(self):
        psi = random_mean_zero_field(16, 3)
        path = brownian.simulate(7, 8, 0.4)
        xi = terminal_value(psi, path, nu=0.2)
        assert xi.modes[0, 0] == 0.0

    def test_translation_isometry_of_sup(self):
        from vortexbsde.torus_field import sup_norm

        psi = two_mode()
        path = brownian.simulate(8, 8, 0.4)
        xi = terminal_value(psi, path, nu=0.2)
        # sup_norm is a lattice approximation: translation moves the true
        # maximum off-lattice, so equality holds only up to oversampling slack.
        assert sup_norm(xi) == pytest.approx(sup_norm(psi), rel=1e-2)
        assert sup_norm(xi) <= sup_norm(psi) * (1 + 1e-12)


class TestGirsanovWeight:
    def test_zero_drift(self):
        assert girsanov_weight(np.zeros((5, 2)), np.ones((5, 2)), 0.1) == 1.0

    def test_single_step_arithmetic(self):
        w = girsanov_weight([[1.0, 0.0]], [[0.1, 0.0]], 0.01)
        assert w == pytest.approx(np.exp(-0.1 - 0.005), rel=1e-14)

    def test_martingale_property(self):
        # E[weight] = 1 for deterministic bounded h: Monte Carlo oracle over
        # 1e5 fresh branches, tolerance 3 standard errors.
        steps, dt = 8, 0.05
        t = np.arange(steps) * dt
        h = np.stack([np.sin(t) + 0.5, np.cos(2 * t)], axis=1)
        inc = brownian.ensemble_increments(31, brownian.TAG_INNER, 100_000, steps, dt)
        expo = -(inc * h[None]).sum(axis=(1, 2)) - 0.5 * float(np.sum(h * h)) * dt
        weights = np.exp(expo)
        se = weights.std(ddof=1) / np.sqrt(len(weights))
        assert abs(weights.mean() - 1.0) < 3 * se
        # spot check the scalar routine against the vectorized oracle
        for b in (0, 17, 99):
            assert girsanov_weight(h, inc[b], dt) == pytest.approx(weights[b], rel=1e-12)

    def test_overflow_fails_loudly(self):
        with pytest.raises(NumericalError):
            girsanov_weight([[1e9, 0.0]], [[-1.0, 0.0]], 1.0)

    def test_shape_mismatch(self):
        with pytest.raises(ConfigurationError):
            girsanov_weight(np.zeros((4, 2)), np.zeros((5, 2)), 0.1)

    def test_nonfinite_h(self):
        with pytest.raises(NumericalError):
            girsanov_weight([[np.nan, 0.0]], [[0.0, 0.0]], 0.1)


class TestLinearSolve:
    def test_zero_prev_reduces_to_heat(self):
        cfg = SolverConfig(N=16, L=8, M_inner=50, nu=0.3, T=0.2, alpha=0.0)
        prev = iterate_with_zero_interior(two_mode(), cfg)
        it, stats = solve_weighted_with_stats(prev, cfg)
        heat = heat_mode_stack(two_mode().modes, cfg.nu, cfg.dt, cfg.L)
        for m in range(cfg.L + 1):
            assert np.max(np.abs(it.fields[m].modes - heat[m])) < 1e-15
        assert np.all(stats.se_grid == 0.0)

    def test_terminal_slice_exact(self):
        cfg = SolverConfig(N=16, L=8, M_inner=50, nu=0.3, T=0.2, alpha=0.0)
        prev = heat_iterate(two_mode(), cfg)
        it, _ = solve_weighted_with_stats(prev, cfg)
        assert np.array_equal(it.fields[0].modes, prev.fields[0].modes)

    def test_fast_path_matches_direct_translation_oracle(self):
        """The sparse-mode/FFT-convolution estimator must agree with a
        literal implementation of the weighted-branch formula."""
        n, steps = 8, 6
        cfg = SolverConfig(
            N=n, L=steps, M_inner=5, nu=0.3, T=0.3, alpha=0.0, groups=2
        )
        psi = field_from_mode_list(n, [(1, 0, -0.5j), (0, 2, 0.5)])
        base = heat_mode_stack(psi.modes, cfg.nu, cfg.dt, steps)
        extra = field_from_mode_list(n, [(1, 1, 0.25)]).modes
        stack = base + 0.3 * np.stack(
            [extra * np.exp(-3.0 * m * cfg.dt) for m in range(steps + 1)]
        )
        stack[0] = psi.modes
        prev = VorticityTrajectory(stack, nu=cfg.nu, dt=cfg.dt)
        it, _ = solve_weighted_with_stats(prev, cfg)

        dt, nu = cfg.dt, cfg.nu
        s2n = np.sqrt(2 * nu)
        db = brownian.ensemble_increments(
            cfg.base_seed, brownian.TAG_INNER, cfg.M_inner, steps, dt
        )
        u1m, u2m = velocity_modes(stack)
        u1f = [ScalarField(m) for m in u1m]
        u2f = [ScalarField(m) for m in u2m]
        heat = heat_mode_stack(psi.modes, nu, dt, steps)
        for m in range(1, steps + 1):
            acc = np.zeros((n, n))
            for b in range(cfg.M_inner):
                d = np.vstack([[0, 0], np.cumsum(db[b], axis=0)]) * s2n
                expo = np.zeros((n, n))
                for j in range(m):
                    ell = m - j
                    uu1 = modes_to_grid(translate(u1f[ell], d[j]).modes)
                    uu2 = modes_to_grid(translate(u2f[ell], d[j]).modes)
                    expo += (uu1 * db[b, j, 0] + uu2 * db[b, j, 1]) / s2n
                    expo += (uu1**2 + uu2**2) * dt / (4 * nu)
                psib = modes_to_grid(translate(psi, d[m]).modes)
                acc += psib * (np.exp(-expo) - 1.0)
            mc = grid_to_modes(acc / cfg.M_inner)
            mc[0, 0] = 0.0
            mc[_nyquist_mask(n)] = 0.0
            expect = heat[m] + mc
            assert np.max(np.abs(expect - it.fields[m].modes)) < 1e-12

    def test_single_mode_fixed_point_within_noise(self):
        cfg = SolverConfig(N=16, L=16, M_inner=400, nu=0.1, T=0.4, alpha=0.0)
        prev = heat_iterate(sin1(), cfg)
        it, stats = solve_weighted_with_stats(prev, cfg)
        for m in range(1, cfg.L + 1):
            diff = l2_norm(it.fields[m] - prev.fields[m])
            allowance = 4.0 * stats.pooled_se[m] + 1e-12
            assert diff < allowance

    def test_outputs_mean_zero(self):
        cfg = SolverConfig(N=16, L=8, M_inner=60, nu=0.3, T=0.2, alpha=0.0)
        it, _ = solve_weighted_with_stats(heat_iterate(two_mode(), cfg), cfg)
        assert all(f.modes[0, 0] == 0.0 for f in it.fields)

    def test_weight_overflow_fails_loudly(self, monkeypatch):
        # Increments scaled by 4e4 keep the exponent finite but overflow
        # expm1(-exponent): a non-finite weight is a numerical failure (exit
        # 3), not a NaN iterate that later reads as non-convergence (exit 4).
        # Scaled by 5e3 they overflow first at a later node of the block.
        ensemble = brownian.ensemble_increments
        cfg = SolverConfig(N=16, L=8, M_inner=16, nu=0.3, T=0.2, alpha=0.0, groups=2)
        prev = heat_iterate(two_mode(), cfg)
        for scale in (4e4, 5e3):
            monkeypatch.setattr(
                brownian, "ensemble_increments", lambda *args: scale * ensemble(*args)
            )
            errors, blocks = [], []
            # the overflow is reported by the error alone, not by numpy warnings
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                for node_block in (_WEIGHTED_BLOCK, 1):
                    monkeypatch.setattr(bsde_engine, "_WEIGHTED_BLOCK", node_block)
                    blocks.append(record_weighted_blocks(monkeypatch))
                    with pytest.raises(NumericalError, match="non-finite") as exc:
                        solve_weighted_with_stats(prev, cfg)
                    errors.append(exc.value)
                with pytest.raises(NumericalError, match="non-finite"):
                    picard_solve(two_mode(), cfg)
            # one block of every node, then one node per block
            assert blocks[0][0] == (1, cfg.L) and blocks[1][0] == (1, 1)
            blocked, single = errors
            assert blocked.exit_code == single.exit_code == 3
            assert blocked.diagnostics["node"] == single.diagnostics["node"]
            assert (blocked.diagnostics["node"] > 1) == (scale == 5e3)

    def test_drift_guard(self):
        cfg = SolverConfig(N=16, L=2, M_inner=8, nu=1e-5, T=2.0, alpha=0.0, groups=2)
        prev = heat_iterate(ScalarField(40.0 * two_mode().modes), cfg)
        with pytest.raises(NumericalError):
            solve_weighted_with_stats(prev, cfg)

    def test_grid_mismatch(self):
        cfg = SolverConfig(N=32, L=8, M_inner=8, nu=0.3, T=0.2, groups=2)
        with pytest.raises(ConfigurationError):
            solve_weighted_with_stats(heat_iterate(two_mode(16), SolverConfig(
                N=16, L=8, M_inner=8, nu=0.3, T=0.2, groups=2)), cfg)

    @pytest.mark.parametrize("key, value, what", [("nu", 0.31, "nu"), ("T", 0.4, "dt")])
    def test_iterate_parameters_disagree_with_config(self, key, value, what):
        # same grid and step count, but the iterate was built with another
        # viscosity or time step than the solve would use
        cfg = SolverConfig(N=16, L=8, M_inner=8, nu=0.3, T=0.2, groups=2)
        prev = heat_iterate(two_mode(), dataclasses.replace(cfg, **{key: value}))
        with pytest.raises(ConfigurationError, match=f"iterate {what} .* disagrees"):
            solve_weighted_with_stats(prev, cfg)


def record_weighted_blocks(monkeypatch, single_nodes=False) -> list:
    """Wraps the weighted estimator so that each node block it yields
    appends (first node, nodes) to the returned list.  With
    ``single_nodes`` the block is passed on one node at a time, as the
    zero-drift branch's one block is not sized by ``_WEIGHTED_BLOCK``."""
    blocks = []

    def recording(*args):
        chunk, cell, samples = _weighted_estimator(*args)

        def recorded(db, disp):
            for m, sample in samples(db, disp):
                blocks.append((m, sample.shape[1]))
                if not single_nodes:
                    yield m, sample
                    continue
                for i in range(sample.shape[1]):
                    yield m + i, sample[:, i : i + 1]

        return chunk, cell, recorded

    monkeypatch.setattr(bsde_engine, "_weighted_estimator", recording)
    return blocks


def solve_arrays(solve) -> list:
    """The mode stack and every ``SolveStats`` array of a linear solve."""
    it, stats = solve
    return [it.modes] + [getattr(stats, f.name) for f in dataclasses.fields(stats)]


def node_block_case(case):
    """(prev, config, blocks) of a weighted step whose node blocks are
    ``blocks``, (first node, nodes) per block, chunk by chunk."""
    cfg = SolverConfig(N=32, L=8, M_inner=64, nu=0.3, T=0.2, alpha=0.0)
    if case == "single_mode":
        # cell (32, 1): 16 nodes per block, so L = 20 leaves a block of 4
        cfg = dataclasses.replace(cfg, L=20)
        return heat_iterate(sin1(32), cfg), cfg, [(1, 16), (17, 4)]
    if case == "partial_chunk":
        # chunks of 64 and 36 branches; the second takes 32768 // (36 * 32)
        # = 28 nodes per block, one block of all 20
        cfg = dataclasses.replace(cfg, L=20, M_inner=100)
        return heat_iterate(sin1(32), cfg), cfg, [(1, 16), (17, 4), (1, 20)]
    if case == "even_modes":
        psi = field_from_mode_list(32, [(2, 0, -0.5j), (0, 2, 0.5)])  # cell (16, 16)
        return heat_iterate(psi, cfg), cfg, [(m, 2) for m in range(1, 9, 2)]
    if case == "two_mode":
        # cell (32, 16): one node per block, as before blocks
        return heat_iterate(two_mode(32), cfg), cfg, [(m, 1) for m in range(1, 9)]
    # zero drift: one block of zeros holding every node
    return iterate_with_zero_interior(two_mode(32), cfg), cfg, [(1, 8)]


def assert_solve_matches_reference(solve, reference):
    """Mode stacks and every ``SolveStats`` entry of two linear solves agree
    to 1e-12 of the reference's scale, group modes on the (N, N) layout."""
    (it, stats), (it_ref, stats_ref) = solve, reference
    lattice = (it.fields[0].grid_size,) * 2
    pairs = [(it.modes, it_ref.modes)]
    for f in dataclasses.fields(stats):
        got, ref = getattr(stats, f.name), getattr(stats_ref, f.name)
        if f.name == "group_modes":
            got, ref = _on_cell(got, lattice), _on_cell(ref, lattice)
        pairs.append((got, ref))
    for got, ref in pairs:
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def weighted_case(case, n=16):
    """(prev, config, cell) of an edge case of the weighted step: ``cell``
    is the lattice cell the step runs on, its sub-block's or, with zero
    drift and no sub-block, psi's."""
    cfg = SolverConfig(N=n, L=8, M_inner=32, nu=0.3, T=0.2, alpha=0.0)
    psi, cell = two_mode(n), (n, n // 2)  # period 1/2 in x2
    if case == "three_chunks":
        # chunks of 64, 64 and 22 branches; 16 groups of 9-10 straddle them
        cfg = dataclasses.replace(cfg, M_inner=150)
    elif case == "full_support":
        # every non-Nyquist mode of psi is nonzero, and with no threshold
        # every mode of u_n and |u_n|^2 is active: the sub-block is the grid
        cfg = dataclasses.replace(cfg, mode_threshold_rel=0.0)
        psi, cell = ScalarField(2.0 * random_mean_zero_field(n, 21).modes), (n, n)
        assert np.count_nonzero(psi.modes) == (n - 1) ** 2 - 1
    elif case == "zero_drift":
        return iterate_with_zero_interior(psi, cfg), cfg, cell
    elif case == "single_mode":
        psi, cell = sin1(n), (n, 1)  # constant along x2
    elif case == "even_modes":
        psi = field_from_mode_list(n, [(2, 0, -0.5j), (0, 2, 0.5)])
        cell = (n // 2, n // 2)
    elif case == "nyquist_fold":
        # |u|^2 of the (N/4, 0) mode folds onto the Nyquist row: rows 0,
        # N/4, N/2 and 3N/4, period 1/4 in x1
        psi = field_from_mode_list(n, [(n // 4, 0, -0.5j), (0, 1, 0.5)])
        cell = (4, n)
    elif case == "noise_lifted":
        # psi repeats with period 1/2 in x2, but noise on every mode of the
        # interior nodes makes the velocity fill the lattice; with no
        # threshold the reference keeps exactly the engine's modes
        cfg = dataclasses.replace(cfg, mode_threshold_rel=0.0)
        stack = heat_iterate(psi, cfg).modes.copy()
        for m in range(1, cfg.L + 1):
            stack[m] += 1e-3 * random_mean_zero_field(n, 30 + m).modes
        prev = VorticityTrajectory(stack, nu=cfg.nu, dt=cfg.dt)
        return prev, cfg, (n, n)
    return heat_iterate(psi, cfg), cfg, cell


class TestHotLoopKernels:
    """The estimators' inner kernels against their plain references."""

    @staticmethod
    def _assert_weighted_matches_reference(prev, cfg):
        """The weighted step against its reference; returns the step's stats."""
        solve = solve_weighted_with_stats(prev, cfg)
        reference = _linear_solve(prev, cfg, brownian.TAG_INNER, weighted_estimator_two_transform)
        assert_solve_matches_reference(solve, reference)
        return solve[1]

    def test_packed_weighted_step_matches_two_transform_reference(self):
        cfg = SolverConfig(N=16, L=8, M_inner=32, nu=0.3, T=0.2, alpha=0.0)
        # The reference keeps every mode, so prev must have no modes near
        # the active-mode threshold: the exact heat iterate has none.
        self._assert_weighted_matches_reference(heat_iterate(two_mode(), cfg), cfg)

    @pytest.mark.parametrize(
        "case",
        [
            "three_chunks",
            "full_support",
            "zero_drift",
            "single_mode",
            "even_modes",
            "nyquist_fold",
            "noise_lifted",
        ],
    )
    def test_packed_weighted_step_matches_reference_edge_cases(self, case, monkeypatch):
        prev, cfg, cell = weighted_case(case)
        blocks = []
        build = _SubBlock.build
        monkeypatch.setattr(
            _SubBlock, "build", classmethod(lambda cls, *a: blocks.append(build(*a)) or blocks[-1])
        )
        stats = self._assert_weighted_matches_reference(prev, cfg)
        assert [b.cell for b in blocks] == ([] if case == "zero_drift" else [cell])
        assert stats.group_modes.shape == (cfg.groups, cfg.L + 1) + cell

    @pytest.mark.parametrize(
        "case", ["single_mode", "partial_chunk", "even_modes", "two_mode", "zero_drift"]
    )
    def test_node_blocks_match_one_node_per_block(self, case, monkeypatch):
        prev, cfg, expected = node_block_case(case)
        # Picard iterates from the heat iterate, whose velocity is not zero,
        # so the zero-drift case compares the step alone
        picard = case != "zero_drift"
        runs = []
        for node_block, single_nodes in ((_WEIGHTED_BLOCK, False), (1, True)):
            monkeypatch.setattr(bsde_engine, "_WEIGHTED_BLOCK", node_block)
            blocks = record_weighted_blocks(monkeypatch, single_nodes)
            solve = solve_weighted_with_stats(prev, cfg)
            step_blocks = list(blocks)  # before the Picard solve adds its own
            runs.append((solve, step_blocks, picard_solve(prev.fields[0], cfg) if picard else None))
        (solve, got_blocks, sol), (ref_solve, ref_blocks, ref_sol) = runs
        assert got_blocks == expected
        chunks = -(-cfg.M_inner // 64)
        assert ref_blocks == ([(m, 1) for m in range(1, cfg.L + 1)] * chunks if picard else expected)
        for got, ref in zip(solve_arrays(solve), solve_arrays(ref_solve), strict=True):
            assert np.array_equal(got, ref)
        if picard:
            assert np.array_equal(sol.y.modes, ref_sol.y.modes)
            assert sol.history == ref_sol.history
            assert sol.norms == ref_sol.norms

    @pytest.mark.parametrize("seed", range(6))
    def test_sub_block_synthesis_matches_ifft2(self, seed):
        n = 16
        rng = np.random.default_rng(seed)
        k = wavenumbers(n)
        # modes whose wavenumbers share the factor f_a along axis a, and
        # include f_a itself, repeat on the cell (N / f1, N / f2); (8, 16)
        # occupies only the Nyquist row and row 0, and column 0
        for f1, f2 in [(1, 1), (2, 1), (1, 4), (4, 2), (8, 16)]:
            rows, cols = np.flatnonzero(k % f1 == 0), np.flatnonzero(k % f2 == 0)
            size = rng.integers(1, 40)
            flat = rng.choice(rows, size) * n + rng.choice(cols, size)
            flat = np.r_[flat, (f1 % n) * n + f2 % n]
            # the Nyquist row and column, which folded |u|^2 targets can reach
            if (n // 2) % f1 == 0:
                flat = np.r_[flat, (n // 2) * n + rng.choice(cols)]
            if (n // 2) % f2 == 0:
                flat = np.r_[flat, rng.choice(rows) * n + n // 2]
            flat = np.unique(flat)
            values = rng.standard_normal((5, flat.size)) + 1j * rng.standard_normal((5, flat.size))
            dense = np.zeros((5, n * n), dtype=np.complex128)
            dense[:, flat] = values
            block = _SubBlock.build(flat, n)
            assert block.cell == (n // f1, n // f2)
            z = np.zeros((5, block.rows.size * block.cols.size), dtype=np.complex128)
            z[:, block.slots(flat, n)] = values
            ref = modes_to_complex_grid(dense.reshape(5, n, n))
            got = np.tile(block.synthesise(z), (1, f1, f2))
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize(
        "n, cell",
        [(16, (16, 1)), (16, (4, 16)), (16, (8, 8)), (12, (3, 12))],
        ids=["16x1", "4x16", "8x8", "3x12_on_12"],
    )
    def test_cell_modes_on_lattice_match_tiled_lattice_modes(self, n, cell):
        # (3, 12) on N = 12: stride 4 rows reach no Nyquist row
        values = np.random.default_rng(sum(cell)).standard_normal((2, 3) + cell)
        tiled = np.tile(values, (1, 1, n // cell[0], n // cell[1]))
        got = _on_cell(grid_to_modes(values), (n, n))
        assert got.shape == (2, 3, n, n)
        assert np.max(np.abs(got - grid_to_modes(tiled))) <= 1e-15 * np.max(np.abs(got))
        assert np.max(np.abs(modes_to_grid(got) - tiled)) <= 1e-13 * np.max(np.abs(tiled))

    def test_padded_bilinear_matches_reference(self):
        rng = np.random.default_rng(3)
        p = 64
        grids = rng.standard_normal((2, p, p))
        nodes = np.arange(-3 * p, 3 * p) / p
        pos = np.concatenate([
            rng.uniform(-3.0, 3.0, size=(4000, 2)),
            np.stack(np.meshgrid(nodes, nodes[::7]), axis=-1).reshape(-1, 2),
            [[-1e-18, 0.5], [0.25, -1e-18], [-1e-18, -1e-18]],
        ])
        tables = [_bilinear_tables(np.pad(g, ((0, 1), (0, 1)), mode="wrap")) for g in grids]
        got = _bilinear(tables, pos[:, 0] * p, pos[:, 1] * p)
        for g, grid in zip(got, grids):
            assert np.max(np.abs(g - bilinear_reference(grid, pos))) < 1e-14

    def test_bilinear_wraps_any_grid_size(self):
        # P = 48 wraps cell indices by a remainder, not a bit mask
        rng = np.random.default_rng(8)
        p = 48
        grid = rng.standard_normal((p, p))
        x, y = rng.integers(0, 64 * p, size=(2, 2000)) / 64.0  # exact under shifts
        tables = [_bilinear_tables(np.pad(grid, ((0, 1), (0, 1)), mode="wrap"))]
        (got,) = _bilinear(tables, x, y)
        for shift in (-3 * p, -p, p, 2 * p):
            assert np.array_equal(_bilinear(tables, x + shift, y - shift)[0], got)
        # dividing by 48 rounds the reference's positions
        ref = bilinear_reference(grid, np.stack([x, y], axis=-1) / p)
        assert np.max(np.abs(got - ref)) < 1e-13

    @pytest.mark.parametrize("n", [16, 32])
    def test_lattice_read_is_bilinear_at_lattice_points(self, n):
        # the drifted estimator's first Euler step reads these values in
        # place of interpolating at the lattice points of its cell
        stack = random_mean_zero_field(n, 5).modes * np.linspace(1.0, 0.5, 5)[:, None, None]
        k = wavenumbers(n)
        for f1, f2 in [(1, 1), (1, 2), (4, 1)]:
            # modes whose k_a are multiples of f_a repeat on (N / f1, N / f2)
            kept = stack * ((k[:, None] % f1 == 0) & (k[None, :] % f2 == 0))
            cell = (n // f1, n // f2)
            assert _cell(np.flatnonzero(kept[0]), n) == cell
            u1, u2 = velocity_modes(kept)
            tables, lattice = _velocity_tables(u1, u2, cell)
            zx = np.repeat(4.0 * np.arange(cell[0]), cell[1])
            zy = np.tile(4.0 * np.arange(cell[1]), cell[0])
            assert lattice[0].shape == lattice[1].shape == (5, cell[0] * cell[1])
            for m in range(5):
                got = _bilinear([(padded[m], diff[m]) for padded, diff in tables], zx, zy)
                assert np.array_equal(lattice[0][m], got[0])
                assert np.array_equal(lattice[1][m], got[1])

    @pytest.mark.parametrize(
        "case", ["heat", "weighted_iterate", "n12", "single_mode", "full_spectrum"]
    )
    def test_drifted_step_matches_one_chunk_reference(self, case):
        # 37 branches: chunks of 16, 16 and 5, with 16 groups of 2-3
        # branches straddling the chunk boundaries.  The reference runs on
        # the whole lattice, the step on the cell psi and u repeat on.
        n = 12 if case == "n12" else 16  # 12: grid units are not exact scalings
        cfg = SolverConfig(N=n, L=8, M_inner=37, nu=0.3, T=0.2, alpha=0.0)
        assert _DRIFTED_CHUNK == 16
        psi, cell = two_mode(n), (n, n // 2)  # period 1/2 in x2
        if case == "single_mode":
            psi, cell = sin1(n), (n, 1)  # constant along x2
        elif case == "full_spectrum":
            psi, cell = ScalarField(2.0 * random_mean_zero_field(n, 21).modes), (n, n)
        prev = heat_iterate(psi, cfg)
        if case == "weighted_iterate":
            # noise lifts the velocity modes on the weighted step's cell
            prev = solve_weighted_with_stats(prev, dataclasses.replace(cfg, M_inner=64))[0]
        solve = solve_drifted_with_stats(prev, cfg)
        assert solve[1].group_modes.shape == (cfg.groups, cfg.L + 1) + cell
        assert_solve_matches_reference(
            solve, _linear_solve(prev, cfg, brownian.TAG_DRIFT, drifted_estimator_one_chunk)
        )

    def test_half_plane_point_values_match_all_modes(self):
        modes = random_mean_zero_field(16, 9).modes
        pos = np.random.default_rng(4).uniform(-2.0, 2.0, size=(500, 2))
        got = _spectral_point_values(_half_plane_modes(modes), pos[:, 0], pos[:, 1])
        ref = series_sum_brute(modes, pos)
        assert np.max(np.abs(got - ref)) < 1e-13 * np.max(np.abs(ref))


class TestDriftedSolve:
    def test_zero_prev_identical_to_weighted(self):
        cfg = SolverConfig(N=16, L=8, M_inner=40, nu=0.3, T=0.2, alpha=0.0)
        prev = iterate_with_zero_interior(two_mode(), cfg)
        it_w, _ = solve_weighted_with_stats(prev, cfg)
        it_d, _ = solve_drifted_with_stats(prev, cfg)
        for m in range(cfg.L + 1):
            assert np.max(np.abs(it_w.fields[m].modes - it_d.fields[m].modes)) < 1e-15

    def test_non_mean_zero_terminal_slice_rejected(self):
        # fhat(0) = 1e-11 is beyond roundoff, so no such slice can be built
        modes = two_mode().modes.copy()
        modes[0, 0] = 1e-11
        with pytest.raises(DomainError, match="mean-zero"):
            ScalarField(modes)

    def test_agreement_with_weighted_small(self):
        prev_psi = two_mode()
        cfg_w = SolverConfig(N=16, L=16, M_inner=400, nu=0.5, T=0.25, alpha=0.0)
        cfg_d = SolverConfig(N=16, L=16, M_inner=160, nu=0.5, T=0.25, alpha=0.0)
        prev = heat_iterate(prev_psi, cfg_w)
        it_w, st_w = solve_weighted_with_stats(prev, cfg_w)
        it_d, st_d = solve_drifted_with_stats(prev, cfg_d)
        for m in range(1, cfg_w.L + 1):
            diff = l2_norm(it_w.fields[m] - it_d.fields[m])
            comb = np.sqrt(np.mean(st_w.se_grid[m] ** 2 + st_d.se_grid[m] ** 2))
            assert diff <= 4.0 * comb + 1e-12

    def test_variance_recorded_not_asserted(self):
        cfg = SolverConfig(N=16, L=8, M_inner=60, nu=0.5, T=0.2, alpha=0.0)
        prev = heat_iterate(two_mode(), cfg)
        _, st_w = solve_weighted_with_stats(prev, cfg)
        _, st_d = solve_drifted_with_stats(prev, cfg)
        # both estimators expose comparable variance summaries for reporting
        assert st_w.pooled_se.shape == st_d.pooled_se.shape
        assert np.all(np.isfinite(st_w.pooled_se)) and np.all(np.isfinite(st_d.pooled_se))


class TestPicardSolve:
    def test_zero_data_trivial_solution(self):
        cfg = SolverConfig(N=16, L=8, M_inner=40, nu=0.3, T=0.2)
        sol = picard_solve(zero_field(16), cfg)
        assert all(l2_norm(f) == 0.0 for f in sol.y.fields)
        assert sol.norms["z_bmo_sq"] == 0.0
        assert sol.norms["y_sup"] == 0.0
        assert sol.norms["alpha"] == 0.0

    def test_single_mode_converges_fast(self):
        cfg = SolverConfig(
            N=16, L=16, M_inner=300, nu=0.1, T=0.4,
            picard_tol=2.0, max_iter=4,
        )
        sol = picard_solve(sin1(), cfg)
        assert len(sol.history) <= 2

    def test_non_convergence_carries_history(self):
        cfg = SolverConfig(
            N=16, L=16, M_inner=200, nu=0.5, T=0.25,
            picard_tol=1e-9, max_iter=1,
        )
        with pytest.raises(NonConvergenceError) as exc:
            picard_solve(two_mode(), cfg)
        assert exc.value.history and "delta_norm" in exc.value.history[0]

    def test_deterministic_rerun(self):
        cfg = SolverConfig(
            N=16, L=16, M_inner=200, nu=0.5, T=0.25,
            picard_tol=2.0, max_iter=4,
        )
        a = picard_solve(two_mode(), cfg)
        b = picard_solve(two_mode(), cfg)
        assert np.array_equal(a.y.modes, b.y.modes)
        assert a.history == b.history

    def test_fixed_point_consistency(self):
        cfg = SolverConfig(
            N=16, L=16, M_inner=300, nu=0.5, T=0.25,
            picard_tol=2.0, max_iter=4,
        )
        sol = picard_solve(two_mode(), cfg)
        again, stats = solve_weighted_with_stats(sol.y, cfg)
        delta = again.modes - sol.y.modes
        from vortexbsde.bsde_engine import noise_floor

        alpha = sol.norms["alpha"]
        norm = y_alpha_sup(modes_to_grid(delta), alpha, cfg.dt) + np.sqrt(
            z_alpha_bmo_sq(delta, alpha, cfg.dt)
        )
        assert norm < noise_floor(stats.pooled_se, alpha, cfg.dt)

    def test_group_statistics_match_oracle(self):
        # replay the solve's two Picard steps (same config, same increments)
        # and restate every batch-means entry group by group
        cfg = SolverConfig(N=16, L=16, M_inner=32, nu=0.5, T=0.25, max_iter=2)
        sol = picard_solve(two_mode(), cfg)
        assert len(sol.history) == 2
        iterate = heat_iterate(two_mode(), cfg)
        group_stacks = [iterate.modes[None]]
        for _ in sol.history:
            iterate, stats = solve_weighted_with_stats(iterate, cfg)
            group_stacks.append(stats.group_modes)
        stack = sol.y.modes
        assert np.array_equal(iterate.modes, stack)
        want = picard_group_statistics(group_stacks, stack, sol.norms["alpha"], cfg.dt)
        for rec, ref in zip(sol.history, want["history"]):
            for key in ("delta_norm_se", "delta_noise_floor"):
                assert rec[key] == pytest.approx(ref[key], rel=1e-12, abs=0.0)
        for key in ("z_bmo_group_values", "z_bmo_sq_se", "z_bmo_sq_debiased"):
            assert sol.norms[key] == pytest.approx(want[key], rel=1e-12, abs=0.0)

    def test_grid_mismatch(self):
        cfg = SolverConfig(N=32, L=8, M_inner=8, nu=0.3, T=0.2, groups=2)
        with pytest.raises(
            ConfigurationError, match=re.escape("psi grid size 16 disagrees with its config (32)")
        ):
            picard_solve(sin1(), cfg)

    def test_nyquist_mode_of_psi_rejected(self):
        # the heat iterate keeps psi's (N/2, 0) mode and the linear step
        # cannot, so the solve would lose it and read it as a Picard delta
        n = 16
        modes = field_from_mode_list(n, [(0, 2, 0.25), (0, 4, 0.1)]).modes.copy()
        modes[n // 2, 0] = 0.05
        psi = ScalarField(modes)
        cfg = SolverConfig(N=n, L=8, M_inner=40, nu=0.3, T=0.2)
        match = r"Nyquist mode at index \(8, 0\)"
        with pytest.raises(ConfigurationError, match=match):
            picard_solve(psi, cfg)
        with pytest.raises(ConfigurationError, match=match):
            solve_drifted_with_stats(heat_iterate(psi, cfg), cfg)

    def test_feynman_kac_identity_pointwise(self):
        # Y(t, x) read as omega(T - t, x + sqrt(2 nu) B_t) from the solver
        # agrees with the deterministic reference evaluated the same way.
        from vortexbsde.spectral_oracle import evolve, modes_at

        cfg = SolverConfig(
            N=16, L=32, M_inner=500, nu=0.1, T=0.4,
            picard_tol=2.0, max_iter=4,
        )
        sol = picard_solve(sin1(), cfg)
        traj = evolve(sin1(), cfg.nu, cfg.T, cfg.L)
        inc = brownian.simulate(77, cfg.L, cfg.T)
        b = np.vstack([np.zeros((1, 2)), np.cumsum(inc, axis=0)])  # B at the nodes
        for j in (0, 7, 19, 32):
            tau = cfg.T - j * cfg.dt
            pts = np.array([(0.0, 0.0), (0.3, 0.7)]) + np.sqrt(2 * cfg.nu) * b[j]
            got = series_sum_brute(modes_at(sol.y, tau), pts)
            ref = series_sum_brute(modes_at(traj, tau), pts)
            assert np.max(np.abs(got - ref)) < 5e-3


class TestWeightedNorms:
    def test_alpha_zero_matches_plain_norms(self):
        stack = heat_mode_stack(two_mode().modes, 0.3, 0.05, 8)
        plain_sup = float(np.max(np.abs(modes_to_grid(stack))))
        assert y_alpha_sup(modes_to_grid(stack), 0.0, 0.05) == pytest.approx(plain_sup, rel=1e-12)
        # alpha = 0 BMO equals the unweighted max-window gradient integral
        from vortexbsde.bsde_engine import grad_norm_sq_profile, _prefix_quadrature

        manual = float(np.max(_prefix_quadrature(grad_norm_sq_profile(stack), 0.05)))
        assert z_alpha_bmo_sq(stack, 0.0, 0.05) == pytest.approx(manual, rel=1e-12)

    def test_weighting_discounts_late_tau(self):
        stack = heat_mode_stack(two_mode().modes, 0.3, 0.05, 8)
        vals = modes_to_grid(stack)
        assert y_alpha_sup(vals, 50.0, 0.05) <= y_alpha_sup(vals, 0.0, 0.05)


class TestResidual:
    def _exact_stack(self, n=16, steps=64, nu=0.1, horizon=0.4):
        cfg = SolverConfig(
            N=n, L=steps, M_inner=16, nu=nu, T=horizon, alpha=0.0
        )
        return heat_iterate(sin1(n), cfg).modes, cfg

    def test_zero_solution_zero_residual(self):
        cfg = SolverConfig(N=16, L=8, M_inner=8, nu=0.3, T=0.2, groups=2)
        stack = heat_iterate(zero_field(16), cfg).modes
        inc = brownian.simulate(5, cfg.L, cfg.T)
        assert np.max(bsde_residual_profile(stack, cfg.nu, cfg.dt, inc[None])) == 0.0

    def test_terminal_node_exact_zero(self):
        stack, cfg = self._exact_stack()
        inc = brownian.simulate(6, cfg.L, cfg.T)
        (prof,) = bsde_residual_profile(stack, cfg.nu, cfg.dt, inc[None])
        assert prof[-1] == 0.0

    def test_residual_shrinks_with_refinement(self):
        # ensemble-rms of the per-node profile contracts by ~sqrt(2) per
        # dyadic refinement (order 1/2); loose band at this small scale.
        stack, cfg = self._exact_stack(steps=128)
        inc = np.stack([brownian.simulate(100 + p, 128, cfg.T) for p in range(12)])
        sq_f = bsde_residual_profile(stack, cfg.nu, cfg.dt, inc) ** 2
        coarse_inc = inc.reshape(12, 64, 2, 2).sum(axis=2)
        sq_c = bsde_residual_profile(stack[::2], cfg.nu, cfg.T / 64, coarse_inc) ** 2
        rms_f = np.sqrt(np.mean([s.max() for s in sq_f]))
        rms_c = np.sqrt(np.mean([s.max() for s in sq_c]))
        assert 1.15 <= rms_c / rms_f <= 1.8

    def test_grid_mismatch(self):
        stack, cfg = self._exact_stack()
        short = brownian.simulate(5, 32, cfg.T)
        with pytest.raises(DomainError):
            bsde_residual_profile(stack, cfg.nu, cfg.dt, np.stack([short, short]))
        with pytest.raises(DomainError):  # one path without its paths axis
            bsde_residual_profile(stack, cfg.nu, cfg.dt, brownian.simulate(5, 64, cfg.T))

    def test_each_profile_independent_of_the_others(self):
        # a path's profile is the same alone and among other paths
        stack, cfg = self._exact_stack(steps=32)
        stack = stack.copy()
        stack[1:, 1, 1] = stack[1:, -1, -1] = 0.05  # a nonzero advection term
        inc = np.stack([brownian.simulate(40 + p, 32, cfg.T) for p in range(3)])
        together = bsde_residual_profile(stack, cfg.nu, cfg.dt, inc)
        assert together.shape == (3, 33)
        for path, row in zip(inc, together):
            alone = bsde_residual_profile(stack, cfg.nu, cfg.dt, path[None])
            assert np.array_equal(alone[0], row)


class TestConfigValidation:
    def test_bad_values(self):
        with pytest.raises(ConfigurationError):
            SolverConfig(N=15, L=8, M_inner=8, nu=0.1, T=0.1)
        with pytest.raises(ConfigurationError):
            SolverConfig(N=16, L=0, M_inner=8, nu=0.1, T=0.1)
        with pytest.raises(ConfigurationError):
            SolverConfig(N=16, L=8, M_inner=8, nu=-0.1, T=0.1)
        with pytest.raises(ConfigurationError):
            SolverConfig(N=16, L=8, M_inner=8, nu=0.1, T=0.1, alpha=-1.0)
        # any integer fits an int field and any real number a float field
        cfg = SolverConfig(N=np.int64(16), L=8, M_inner=16, nu=1, T=np.float64(0.1), alpha=0)
        assert (cfg.N, cfg.nu, cfg.alpha) == (16, 1, 0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("nu", float("nan")),
            ("nu", float("inf")),
            ("T", float("nan")),
            ("T", float("inf")),
            ("picard_tol", float("nan")),
            ("picard_tol", float("inf")),
            ("alpha", float("nan")),
            ("alpha", float("inf")),
            ("mode_threshold_rel", float("nan")),
            ("mode_threshold_rel", 1.0),
            ("mode_threshold_rel", -0.1),
            ("N", 16.0),
            ("L", 8.0),
            ("M_inner", 64.0),
            ("groups", 4.0),
            ("max_iter", 2.0),
            ("base_seed", 1.5),
            ("groups", True),
            ("nu", "0.1"),
            ("T", True),
            ("picard_tol", None),
            ("alpha", "0"),
            ("alpha", False),
        ],
    )
    def test_non_finite_or_out_of_range_float_rejected(self, field, value):
        # NaN passes every ordered comparison: a NaN threshold selected no
        # velocity mode and a NaN tolerance never converged (exit 4), an
        # infinite tolerance converged after one iteration; an ill-typed
        # value used to get as far as picard_solve and die there with a
        # bare TypeError or ValueError
        base = dict(N=16, L=8, M_inner=16, nu=0.1, T=0.1)
        with pytest.raises(ConfigurationError, match=field):
            SolverConfig(**{**base, field: value})

    def test_iterate_validation(self):
        # every trajectory -- oracle run, Picard iterate or checkpoint --
        # is validated once, when it is built; a mixed-grid ``.vbst`` is
        # the reader's case (tests/test_checkpoint.py)
        two = np.stack([sin1().modes] * 2)
        cases = [
            (two[:1], 0.1, 0.1, "two time nodes"),
            (two[0], 0.1, 0.1, r"\(L\+1, N, N\) mode stack"),
            (two[None], 0.1, 0.1, r"\(L\+1, N, N\) mode stack"),
        ]
        for bad in (float("nan"), float("inf"), 0.0, -0.1):
            cases += [(two, bad, 0.1, "finite positive"), (two, 0.1, bad, "finite positive")]
        for modes, nu, dt, match in cases:
            with pytest.raises(ConfigurationError, match=match):
                VorticityTrajectory(modes, nu=nu, dt=dt)
        assert VorticityTrajectory(two, nu=0.1, dt=0.1).steps == 1

    @pytest.mark.parametrize(
        "entry, value, match",
        [
            ((1, 0), np.nan, "node 2: mode array has non-finite entries"),
            ((1, 0), 1.0, "node 2: mode array breaks Hermitian symmetry"),
            ((0, 0), 1e-3, "node 2: field must be mean-zero"),
        ],
    )
    def test_stack_validation_names_the_node(self, entry, value, match):
        # the ScalarField rule, applied to each node of the stack at once
        stack = heat_mode_stack(two_mode().modes, 0.3, 0.05, 4)
        stack[2][entry] += value
        with pytest.raises(DomainError, match=match):
            VorticityTrajectory(stack, nu=0.3, dt=0.05)
        with pytest.raises(DomainError, match=match.removeprefix("node 2: ")):
            ScalarField(stack[2])

    def test_stack_read_only_and_fields_agree(self):
        traj = heat_iterate(two_mode(), SolverConfig(N=16, L=4, M_inner=8, nu=0.3, T=0.2, groups=2))
        with pytest.raises(ValueError):
            traj.modes[1, 1, 0] = 1.0
        assert traj.fields is traj.fields  # built once, on first use
        assert len(traj.fields) == traj.steps + 1
        for m, f in enumerate(traj.fields):
            assert np.array_equal(f.modes, traj.modes[m])

    def test_solve_builds_no_scalar_field(self, monkeypatch, tmp_path):
        # the solver, the oracle and the bundle writer work on mode stacks,
        # and the CLI builds a field only for a psi that enters the program
        from vortexbsde import cli
        from vortexbsde.checkpoint import write_solution_bundle
        from vortexbsde.spectral_oracle import evolve

        psi = two_mode()
        cfg = SolverConfig(N=16, L=16, M_inner=200, nu=0.5, T=0.25, max_iter=4)
        built = []
        post_init = ScalarField.__post_init__
        monkeypatch.setattr(
            ScalarField, "__post_init__", lambda self: post_init(self) or built.append(self.modes)
        )
        sol = picard_solve(psi, cfg)
        evolve(psi, cfg.nu, cfg.T, cfg.L)
        write_solution_bundle(tmp_path / "bundle", sol)
        assert built == []

        oracle = tmp_path / "oracle.cfg"
        oracle.write_text(
            f"outdir = {tmp_path / 'oracle'}\nN = 16\nL = 16\nnu = 0.5\nT = 0.25\n"
            "psi_modes = 1 0 0 -0.5 ; 0 2 0.5 0\n"
        )
        compare = tmp_path / "compare.cfg"
        compare.write_text(
            f"outdir = {tmp_path / 'compare'}\nsolution_bundle = {tmp_path / 'bundle'}\n"
            f"trajectory = {tmp_path / 'oracle' / 'trajectory.vbst'}\n"
        )
        for command, path in (("oracle", oracle), ("compare", compare)):
            assert cli.main([command, str(path)]) == 0
            # the oracle's config psi, then the bundle's psi.vbsf
            assert len(built) == 1 and np.array_equal(built.pop(), psi.modes)
