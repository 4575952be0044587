"""Compare the fixed-seed solver outputs of two source trees.

    python3 scripts/parity.py OLD_TREE NEW_TREE

Imports the ``vortexbsde`` package of each tree in turn (from its ``src``
directory) and, for base seeds 42, 1 and 7, runs on the two-mode and the
single-mode config in this directory, at the benchmark's sizes (two-mode
L = 32, M_inner = 250; single-mode L = 16, M_inner = 1000), and on the
two-mode config with psi on the modes (2,0) and (0,2), whose weighted step
repeats with period 1/2 along both axes:

* ``picard_solve``, and for the two-mode config at seed 42 the
  ``bsde_residual_profile`` of its solution along the 8 paths
  ``brownian.simulate(1000 + p, L, T)``, p = 0..7 (the residual runs the
  oracle's advection kernel);
* ``solve_weighted_with_stats`` from the heat iterate, and again from the
  iterate that step returns (iterate 1: on the two-mode config the widest
  active-mode sets, which the heat iterate does not reach);
* ``solve_drifted_with_stats`` with M_inner = 50 from the heat iterate,
  and again from iterate 1, whose velocity carries noise-lifted modes;
  and with L = 16, M_inner = 300 from that config's heat iterate, whose
  branches run in several chunks;
* for the two shipped solve configs at seed 42 only, ``vortexbsde solve``
  through ``cli.main``, keeping the bytes of its ``solution.json``,
  ``y_fields.vbst`` (whose node 0 is psi) and ``diagnostics.json``;
* ``vortexbsde oracle`` on ``oracle_single_mode.cfg`` (at its own L and
  at L = 16 and 24) and on the two-mode config's data at L = 32, keeping
  the bytes of its ``trajectory.vbst`` and ``oracle_series.csv``: the
  spectral oracle shares the Fourier symbols of the solvers;
* ``vortexbsde compare`` of the single-mode solve bundle at seed 42
  against the oracle at L = 16 (every node of the bundle is an oracle
  node) and at L = 24 (every other node is interpolated), keeping the
  bytes of ``comparison.csv`` and ``summary.json``, and ``vortexbsde
  diagnose`` of that bundle, keeping the bytes of ``diagnostics.json``.

Prints, for every mode stack, every ``SolveStats`` array, the residual
profile, every numeric entry of each Picard history record (keyed by iteration) and every entry
of the solution's ``norms``, the largest difference between the trees
relative to the entry's largest magnitude, and compares the Picard
iteration counts of the histories, and prints whether each CLI output
file is byte-identical between the trees; the last line names the worst
entry and counts the CLI files whose bytes differ.  Exits 1 if a relative
difference exceeds 1e-12, an entry of OLD_TREE is missing from NEW_TREE,
an iteration count or a CLI exit code differs.  Differing bytes alone do
not fail: a change that only reorders arithmetic moves the last bits of
the stored numbers.  Group modes kept on a lattice cell are compared in
the (N, N) layout.

A statistics array whose largest magnitude in OLD_TREE is below 1e-13 of
its solve's mode stack holds rounding error only (the standard errors of a
correction that is zero in exact arithmetic, as in the single-mode drifted
solve, whose drift is orthogonal to grad psi); it is marked
``roundoff-only`` and its difference is taken relative to the mode stack.
"""

from __future__ import annotations

import dataclasses
import importlib
import sys
import tempfile
from pathlib import Path

import numpy as np

SCRIPTS = Path(__file__).resolve().parent
SEEDS = (42, 1, 7)
CONFIGS = {
    "two_mode": ("solve_two_mode.cfg", {"L": "32", "M_inner": "250"}),
    "single_mode": ("solve_single_mode.cfg", {"L": "16", "M_inner": "1000"}),
    "even_modes": (
        "solve_two_mode.cfg",
        {"L": "32", "M_inner": "250", "psi_modes": "2 0 0 -0.25 ; 0 2 0.25 0"},
    ),
}
CLI_CASES = ("two_mode", "single_mode")
ORACLE_CASES = {
    "single_mode": ("oracle_single_mode.cfg", {}),
    "single_mode_L16": ("oracle_single_mode.cfg", {"L": "16"}),
    "single_mode_L24": ("oracle_single_mode.cfg", {"L": "24"}),
    "two_mode": ("solve_two_mode.cfg", {"L": "32"}),
}
#: The ``vortexbsde compare`` runs of the single-mode bundle: the oracle case
#: each one reads its trajectory from.
COMPARE_CASES = ("single_mode_L16", "single_mode_L24")
ORACLE_KEYS = ("N", "L", "nu", "T", "psi_modes")
CLI_FILES = {
    "solve": (
        "solution/solution.json",
        "solution/y_fields.vbst",
        "diagnostics.json",
    ),
    "oracle": ("trajectory.vbst", "oracle_series.csv"),
    "compare": ("comparison.csv", "summary.json"),
    "diagnose": ("diagnostics.json",),
}
DRIFTED_M = 50
#: Step count and path count of the many-chunk drifted case.
DRIFTED_WIDE = {"L": 16, "M_inner": 300}
#: The (config, seed) whose solution's pathwise residual is compared, and
#: the number of paths.
RESIDUAL_CASE = ("two_mode", 42)
RESIDUAL_PATHS = 8
REL_TOL = 1e-12
ROUNDOFF = 1e-13


def load_package(tree: Path):
    """``bsde_engine`` and ``cli`` of ``tree/src``, dropping any loaded copy first."""
    for name in [n for n in sys.modules if n == "vortexbsde" or n.startswith("vortexbsde.")]:
        del sys.modules[name]
    sys.path.insert(0, str(tree / "src"))
    try:
        engine = importlib.import_module("vortexbsde.bsde_engine")
        return engine, importlib.import_module("vortexbsde.cli")
    finally:
        sys.path.pop(0)


def _solve_arrays(engine, prefix: str, iterate, stats) -> dict:
    """The mode stack and every statistics array, each with the stack's
    scale; cell group modes go onto the (N, N) layout by ``engine``'s rule."""
    modes = iterate.modes
    field_scale = float(np.max(np.abs(modes)))
    out = {f"{prefix}.modes": (modes, field_scale)}
    for f in dataclasses.fields(stats):
        value = getattr(stats, f.name)
        if f.name == "group_modes":
            value = engine._on_cell(value, modes.shape[-2:])
        out[f"{prefix}.{f.name}"] = (value, field_scale)
    return out


def _report_arrays(prefix: str, solution) -> dict:
    """Every numeric history entry, per iteration, and every norms entry,
    each as an array with its own scale."""
    entries = {f"{prefix}.norms.{key}": value for key, value in solution.norms.items()}
    for rec in solution.history:
        for key, value in rec.items():
            entries[f"{prefix}.history{rec['iteration']}.{key}"] = value
    out = {}
    for name, value in entries.items():
        if isinstance(value, (int, float, list)):
            a = np.asarray(value, dtype=np.float64)
            out[name] = (a, float(np.max(np.abs(a), initial=0.0)))
    return out


def _cli_run(cli, command: str, text: dict, out: Path) -> tuple[int, dict]:
    """Exit code of ``vortexbsde COMMAND`` on the config ``text`` (key to
    value) with outdir ``out``, and the bytes of each of its ``CLI_FILES``
    (None if absent)."""
    cfg = out.with_suffix(".cfg")
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in {**text, "outdir": out}.items()))
    code = cli.main([command, str(cfg)])
    files = {
        name: (out / name).read_bytes() if (out / name).is_file() else None
        for name in CLI_FILES[command]
    }
    return code, files


def cli_outputs(cli) -> dict:
    """Exit code and output bytes of every CLI case, by name."""
    outputs = {}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for label, (cfg_name, overrides) in ORACLE_CASES.items():
            text = {**cli._parse_kv_text((SCRIPTS / cfg_name).read_text()), **overrides}
            text = {key: text[key] for key in ORACLE_KEYS}
            outputs[f"{label}.oracle"] = _cli_run(cli, "oracle", text, work / f"{label}.oracle")
        for label in CLI_CASES:
            cfg_name, overrides = CONFIGS[label]
            text = cli._parse_kv_text((SCRIPTS / cfg_name).read_text())
            text_42 = {**text, **overrides, "base_seed": "42"}
            outputs[f"{label}.cli"] = _cli_run(cli, "solve", text_42, work / f"{label}.cli")
        bundle = {"solution_bundle": work / "single_mode.cli" / "solution"}
        for label in COMPARE_CASES:
            text = {**bundle, "trajectory": work / f"{label}.oracle" / "trajectory.vbst"}
            outputs[f"{label}.compare"] = _cli_run(cli, "compare", text, work / f"{label}.compare")
        outputs["single_mode.diagnose"] = _cli_run(
            cli, "diagnose", bundle, work / "single_mode.diagnose"
        )
    return outputs


def run_tree(tree: Path) -> tuple[dict, dict, dict]:
    """Output arrays, Picard iteration counts and CLI exit codes and
    output bytes of every case, by name."""
    engine, cli = load_package(tree)
    names = [f.name for f in dataclasses.fields(engine.SolverConfig)]
    arrays, iterations = {}, {}
    outputs = cli_outputs(cli)
    for label, (cfg_name, overrides) in CONFIGS.items():
        text = cli._parse_kv_text((SCRIPTS / cfg_name).read_text())
        parsed = cli.SOLVE_SCHEMA.parse({**text, **overrides})
        psi = cli._build_psi(parsed)
        for seed in SEEDS:
            case = f"{label}.seed{seed}"
            kwargs = {n: parsed[n] for n in names if n in parsed}
            config = engine.SolverConfig(**{**kwargs, "base_seed": seed})
            solution = engine.picard_solve(psi, config)
            modes = solution.y.modes
            arrays[f"{case}.picard.modes"] = (modes, float(np.max(np.abs(modes))))
            iterations[f"{case}.picard"] = [rec["iteration"] for rec in solution.history]
            arrays.update(_report_arrays(f"{case}.picard", solution))
            if (label, seed) == RESIDUAL_CASE:
                increments = np.stack(
                    [engine.brownian.simulate(1000 + p, config.L, config.T)
                     for p in range(RESIDUAL_PATHS)]
                )
                profile = engine.bsde_residual_profile(modes, config.nu, config.dt, increments)
                arrays[f"{case}.residual_profile"] = (profile, float(np.max(profile)))

            heat = engine.heat_iterate(psi, config)
            first = engine.solve_weighted_with_stats(heat, config)
            drifted = dataclasses.replace(config, M_inner=DRIFTED_M)
            solves = {
                "weighted": first,
                "weighted_from_1": engine.solve_weighted_with_stats(first[0], config),
                "drifted": engine.solve_drifted_with_stats(heat, drifted),
                "drifted_from_1": engine.solve_drifted_with_stats(first[0], drifted),
            }
            wide = dataclasses.replace(config, **DRIFTED_WIDE)
            solves["drifted_wide"] = engine.solve_drifted_with_stats(
                engine.heat_iterate(psi, wide), wide
            )
            for name, solve in solves.items():
                arrays.update(_solve_arrays(engine, f"{case}.{name}", *solve))
    return arrays, iterations, outputs


def compare(a: np.ndarray, b: np.ndarray, field_scale: float) -> tuple[float, str]:
    """Largest difference relative to the array's (or the field's) magnitude."""
    if a.shape != b.shape:
        return float("inf"), "shape differs"
    diff = float(np.max(np.abs(a - b), initial=0.0))
    scale = float(np.max(np.abs(a), initial=0.0))
    if scale < ROUNDOFF * field_scale:
        return diff / field_scale, f"roundoff-only (max {scale:.1e}, relative to field)"
    return (diff / scale if scale > 0.0 else diff), ""


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    old, new = (run_tree(Path(p).resolve()) for p in argv)
    bad, worst, worst_name = 0, 0.0, "none"
    for name, (a, field_scale) in old[0].items():
        if name not in new[0]:
            bad += 1
            print(f"{name:48s} missing from {argv[1]}")
            continue
        rel, note = compare(a, new[0][name][0], field_scale)
        bad += rel > REL_TOL
        if rel > worst:
            worst, worst_name = rel, name
        print(f"{name:48s} {rel:.3e} {note}")
    for name, counts in old[1].items():
        same = counts == new[1][name]
        bad += not same
        print(f"{name:48s} iterations {counts} {'==' if same else '!='} {new[1][name]}")
    differing = 0
    for name, (code, files) in old[2].items():
        new_code, new_files = new[2][name]
        bad += code != new_code
        print(f"{name:48s} exit {code} {'==' if code == new_code else '!='} {new_code}")
        for file, data in files.items():
            same = data is not None and data == new_files[file]
            differing += not same
            print(f"{name + '.' + file:48s} bytes {'identical' if same else 'differ'}")
    print(
        f"worst relative difference {worst:.3e} at {worst_name} "
        f"(tolerance {REL_TOL:.0e}); {bad} failing; "
        f"{differing} CLI output files differ in bytes"
    )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
