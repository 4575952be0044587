"""Acceptance suite: one test per criterion, each printing a PASS line.

Fixture catalogue
-----------------
single-mode:  psi = sin(2*pi*x1),                nu = 0.1, T = 0.5, N = 32
two-mode:     psi = 0.5 sin(2*pi*x1) + 0.5 cos(4*pi*x2)   (C1 = 1, distinct
              |k| so the advection term is genuinely nonzero),
              nu = 0.5, T = 0.25, N = 32

Statistical conventions documented where they matter: field-level
comparisons aggregate standard errors in L2 over the lattice, and the
pathwise-residual criterion aggregates the 32-path ensemble per time node
as a root mean square before maximizing over nodes (the L2-over-paths
residual norm; a max over independent paths would grow with the path
count rather than measure the discretization error).
"""

import time

import numpy as np
import pytest

from vortexbsde import brownian, cli
from vortexbsde.biot_savart import (
    LAMBDA_1,
    apply_K,
    curl,
    divergence,
    verify_elliptic_estimates,
)
from vortexbsde.bsde_engine import (
    SolverConfig,
    bsde_residual_profile,
    heat_iterate,
    heat_mode_stack,
    picard_solve,
    solve_drifted_with_stats,
    solve_weighted_with_stats,
)
from vortexbsde.diagnostics import contraction_check, max_principle_check, z_bmo_check
from vortexbsde.spectral_oracle import evolve
from vortexbsde.torus_field import field_from_mode_list, l2_norm, sup_norm

from conftest import random_mean_zero_field

N = 32


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, detail


def single_mode_psi():
    return field_from_mode_list(N, [(1, 0, -0.5j)])


def two_mode_psi():
    return field_from_mode_list(N, [(1, 0, -0.25j), (0, 2, 0.25)])


@pytest.fixture(scope="module")
def single_mode_run():
    psi = single_mode_psi()
    cfg = SolverConfig(
        N=N, L=128, M_inner=2000, nu=0.1, T=0.5,
        picard_tol=2.0,
        max_iter=8, base_seed=42,
    )
    start = time.perf_counter()
    solution = picard_solve(psi, cfg)
    elapsed = time.perf_counter() - start
    oracle = evolve(psi, cfg.nu, cfg.T, cfg.L)
    return solution, oracle, elapsed


@pytest.fixture(scope="module")
def two_mode_run():
    psi = two_mode_psi()
    cfg = SolverConfig(
        N=N, L=128, M_inner=1000, nu=0.5, T=0.25,
        picard_tol=2.0,
        max_iter=8, base_seed=42,
    )
    return picard_solve(psi, cfg)


@pytest.fixture(scope="module")
def two_mode_deep_run():
    # tighter tolerance multiple: keeps iterating past the stopping point of
    # the 2x-noise-floor run so several contraction ratios are measurable
    psi = two_mode_psi()
    cfg = SolverConfig(
        N=N, L=128, M_inner=1000, nu=0.5, T=0.25,
        picard_tol=1e-3,
        max_iter=8, base_seed=42,
    )
    return picard_solve(psi, cfg)


@pytest.fixture(scope="module")
def single_mode_512_run():
    psi = single_mode_psi()
    cfg = SolverConfig(
        N=N, L=512, M_inner=2000, nu=0.1, T=0.5,
        picard_tol=2.0,
        max_iter=4, base_seed=42,
    )
    return picard_solve(psi, cfg)


def test_criterion_1_spectral_operator_identities():
    start = time.perf_counter()
    for seed in range(100):
        omega = random_mean_zero_field(N, 9000 + seed)
        u = apply_K(omega)
        div_sq = float(np.sum(np.abs(divergence(u).modes) ** 2))
        assert div_sq < 1e-20
        assert l2_norm(curl(u) - omega) < 1e-12 * l2_norm(omega)
        rep = verify_elliptic_estimates(omega)
        assert rep["grad_bound_ok"] and rep["poincare_ok"]
        assert max(rep["ratios"]["poincare"]) * np.sqrt(LAMBDA_1) <= 1 + 1e-12
    elapsed = time.perf_counter() - start
    report(
        1,
        elapsed < 5.0,
        f"div K = 0, curl K = id, elliptic bounds with lambda1 = 4 pi^2 "
        f"over 100 random fields in {elapsed:.2f} s (< 5 s)",
    )


def test_criterion_2_single_mode_fixture(single_mode_run):
    solution, oracle, elapsed = single_mode_run
    amp = 2 * abs(oracle.fields[-1].modes[1, 0])
    exact = np.exp(-2 * np.pi**2 / 10)
    amp_ok = abs(amp - exact) / exact < 1e-5
    errs = [
        l2_norm(solution.y.fields[m] - oracle.fields[m])
        for m in range(solution.config.L + 1)
    ]
    field_ok = max(errs) < 5e-3
    time_ok = elapsed < 300.0
    report(
        2,
        amp_ok and field_ok and time_ok,
        f"oracle amplitude {amp:.6f} vs exp(-2 pi^2/10) = {exact:.6f} "
        f"(rel {abs(amp-exact)/exact:.2e} < 1e-5); max node L2 error "
        f"{max(errs):.2e} < 5e-3; solve took {elapsed:.0f} s (< 300 s)",
    )


def test_criterion_3_heat_equation_reduction():
    from vortexbsde.spectral_oracle import VorticityTrajectory
    from vortexbsde.torus_field import ScalarField

    start = time.perf_counter()
    psi = two_mode_psi()
    cfg = SolverConfig(
        N=N, L=128, M_inner=1000, nu=0.5, T=0.25, alpha=0.0, base_seed=42
    )
    stack = np.zeros((cfg.L + 1, N, N), dtype=complex)
    stack[0] = psi.modes
    prev = VorticityTrajectory(stack, nu=cfg.nu, dt=cfg.dt)
    it, stats = solve_weighted_with_stats(prev, cfg)
    heat = heat_mode_stack(psi.modes, cfg.nu, cfg.dt, cfg.L)
    worst = 0.0
    for m in range(cfg.L + 1):
        err = l2_norm(it.fields[m] - ScalarField(heat[m]))
        allowance = max(3.0 * stats.pooled_se[m], 1e-12)
        worst = max(worst, err / allowance)
        assert err <= allowance
    elapsed = time.perf_counter() - start
    report(
        3,
        elapsed < 120.0,
        f"h = 0 solve equals exact mode-wise heat decay (worst error/allowance "
        f"{worst:.2e}; the heat control variate makes the h = 0 case exact); "
        f"{elapsed:.0f} s (< 120 s)",
    )


def test_criterion_4_girsanov_equivalence():
    psi = two_mode_psi()
    cfg_w = SolverConfig(
        N=N, L=64, M_inner=1000, nu=0.5, T=0.25, alpha=0.0, base_seed=42
    )
    cfg_d = SolverConfig(
        N=N, L=64, M_inner=300, nu=0.5, T=0.25, alpha=0.0, base_seed=42
    )
    prev = heat_iterate(psi, cfg_w, 0.0)
    it_w, st_w = solve_weighted_with_stats(prev, cfg_w)
    it_d, st_d = solve_drifted_with_stats(prev, cfg_d)
    worst = 0.0
    for m in range(1, cfg_w.L + 1):
        diff = l2_norm(it_w.fields[m] - it_d.fields[m])
        combined = np.sqrt(np.mean(st_w.se_grid[m] ** 2 + st_d.se_grid[m] ** 2))
        worst = max(worst, diff / (4.0 * combined))
    var_note = (
        f"pooled-SE max weighted {st_w.pooled_se.max():.2e} vs drifted "
        f"{st_d.pooled_se.max():.2e} (recorded, not asserted)"
    )
    report(
        4,
        worst <= 1.0,
        f"weighted and drifted estimators agree at every node; worst "
        f"diff/(4 combined SE) = {worst:.2f} <= 1; {var_note}",
    )


def test_criterion_5_maximum_principle_five_seeds():
    psi = two_mode_psi()
    c1 = sup_norm(psi)
    violations = 0
    worst_margin = np.inf
    for seed in (1, 2, 3, 4, 5):
        cfg = SolverConfig(
            N=N, L=64, M_inner=600, nu=0.5, T=0.25,
            picard_tol=2.0,
            max_iter=8, base_seed=seed,
        )
        solution = picard_solve(psi, cfg)
        rep = max_principle_check(solution, c1)
        worst_margin = min(worst_margin, rep["margin"])
        if not rep["pass"]:
            violations += 1
    report(
        5,
        violations == 0,
        f"sup|omega_n| <= sup|psi| + 4 SE across all iterates and 5 seeds; "
        f"0 violations, worst margin {worst_margin:.4f} >= 0",
    )


def test_criterion_6_bmo_bound(single_mode_run, two_mode_run):
    single, _, _ = single_mode_run
    results = []
    for name, solution in (("single-mode", single), ("two-mode", two_mode_run)):
        rep = z_bmo_check(solution)
        results.append((name, rep))
        assert rep["pass"], f"{name}: {rep}"
    cfg = single.config
    closed = (1 - np.exp(-8 * np.pi**2 * cfg.nu * cfg.T)) / (4 * cfg.nu)
    rep = results[0][1]
    match = abs(rep["measured_sq"] - closed) <= 3 * rep["se_sq"]
    detail = "; ".join(
        f"{name}: measured {r['measured']:.4f} - 3 SE <= bound {r['bound']:.4f}"
        for name, r in results
    )
    report(
        6,
        match,
        f"{detail}; single-mode proxy {rep['measured_sq']:.5f} matches closed "
        f"form {closed:.5f} within 3 SE ({3 * rep['se_sq']:.1e})",
    )


def test_criterion_7_contraction(two_mode_run, two_mode_deep_run):
    # convergence clause: the 2x-noise-floor run stops within max_iter = 8
    converged_within = len(two_mode_run.history)
    assert converged_within <= 8
    # ratio clause: the deep run exposes the ratio sequence
    rep = contraction_check(two_mode_deep_run.history, two_mode_deep_run.norms["alpha"])
    usable = rep["usable_ratios"]
    ratios_ok = rep["status"] == "pass" and all(r < 1.0 for r in usable)
    report(
        7,
        ratios_ok and converged_within <= 8,
        f"above-noise ratios {['%.2e' % r for r in usable]} all < 1 "
        f"(alpha = {two_mode_deep_run.norms['alpha']:.1f} from the printed "
        f"conditions); tol = 2 x noise floor reached in {converged_within} "
        f"iterations (<= 8)",
    )


def test_criterion_8_pathwise_residual(single_mode_512_run):
    solution = single_mode_512_run
    cfg = solution.config
    stack = solution.y.modes
    paths = np.stack([brownian.simulate(1000 + p, cfg.L, cfg.T) for p in range(32)])
    coarse_paths = paths.reshape(32, cfg.L // 2, 2, 2).sum(axis=2)
    sq_fine = bsde_residual_profile(stack, cfg.nu, cfg.dt, paths) ** 2
    sq_coarse = (
        bsde_residual_profile(stack[::2], cfg.nu, cfg.T / (cfg.L // 2), coarse_paths) ** 2
    )
    # ensemble rms per node, maximized over nodes (L2-over-paths residual)
    ens_fine = float(np.max(np.sqrt(np.mean(sq_fine, axis=0))))
    ens_coarse = float(np.max(np.sqrt(np.mean(sq_coarse, axis=0))))
    bound = 0.05 * sup_norm(solution.psi)
    ratio = ens_coarse / ens_fine
    report(
        8,
        ens_fine < bound and 1.3 <= ratio <= 1.7,
        f"ensemble residual {ens_fine:.4f} < {bound:.4f} at L = 512 over 32 "
        f"paths; dyadic refinement ratio {ratio:.3f} in [1.3, 1.7] "
        f"(order 1/2)",
    )


def test_criterion_9_determinism(tmp_path):
    # engine level: identical configs give bit-identical solutions
    psi = two_mode_psi()
    cfg = SolverConfig(
        N=16, L=16, M_inner=200, nu=0.5, T=0.25,
        picard_tol=2.0,
        max_iter=4, base_seed=2024,
    )
    a = picard_solve(field_from_mode_list(16, [(1, 0, -0.25j), (0, 2, 0.25)]), cfg)
    b = picard_solve(field_from_mode_list(16, [(1, 0, -0.25j), (0, 2, 0.25)]), cfg)
    engine_ok = bool(
        np.array_equal(a.y.modes, b.y.modes) and a.history == b.history
    )
    # CLI level: rerunning a config reproduces every output file bit for bit
    out = tmp_path / "out"
    cfg_path = tmp_path / "o.cfg"
    cfg_path.write_text(
        f"outdir = {out}\nN = 32\nL = 64\nnu = 0.1\nT = 0.5\n"
        "psi_modes = 1 0 0 -0.5\n"
    )
    assert cli.main(["oracle", str(cfg_path)]) == 0
    first = {
        p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"
    }
    assert cli.main(["oracle", str(cfg_path)]) == 0
    second = {
        p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"
    }
    cli_ok = first == second
    report(
        9,
        engine_ok and cli_ok,
        "rerun with identical config is bit-identical (engine mode stacks, "
        "history, and all CLI data outputs)",
    )
