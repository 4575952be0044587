"""Batch front-end: ``oracle``, ``solve``, ``compare`` and ``diagnose``.

Runs are driven by flat key-value config files (``key = value`` lines,
``#`` comments); the only positional arguments are the subcommand and the
config path.  If the config path does not resolve directly, it is looked
up under ``$VORTEXBSDE_CONFIG_DIR``.

Every run writes ``manifest.json`` into its output directory -- also on
error paths -- listing the config echo, a content hash of the inputs,
per-phase wall-clock timings, and every emitted file with its checksum.
Given the same config, all data outputs are bit-identical across reruns.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 non-convergence.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np

from . import checkpoint, diagnostics
from .bsde_engine import SolverConfig, _check_agrees, picard_solve
from .errors import ConfigurationError, NonConvergenceError, VortexError
from .spectral_oracle import enstrophy, evolve, kinetic_energy, modes_at
from .torus_field import ScalarField, _lattice_sup, field_from_mode_list, l2_norms
from .torus_field import translate  # noqa: F401  (perfbench/spans.py traces cli.translate)

ENV_CONFIG_DIR = "VORTEXBSDE_CONFIG_DIR"
MANIFEST_SCHEMA_VERSION = 1
CSV_SCHEMA_VERSION = 2


# ---------------------------------------------------------------------------
# config parsing


def _parse_kv_text(text: str) -> dict:
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if not key or not val:
            raise ConfigurationError(f"config line {lineno}: empty key or value")
        if key in values:
            raise ConfigurationError(f"config line {lineno}: duplicate key {key!r}")
        values[key] = val
    return values


class _Schema:
    """Typed key table; unknown keys are configuration errors."""

    def __init__(self, spec: dict):
        self.spec = spec

    def parse(self, raw: dict) -> dict:
        out = {}
        for key, value in raw.items():
            if key not in self.spec:
                raise ConfigurationError(f"unknown config key {key!r}")
            kind, _ = self.spec[key]
            try:
                out[key] = kind(value)
            except (TypeError, ValueError) as exc:
                raise ConfigurationError(f"config key {key!r}: {exc}") from exc
        for key, (_, default) in self.spec.items():
            if key not in out:
                if default is _REQUIRED:
                    raise ConfigurationError(f"missing required config key {key!r}")
                out[key] = default
        return out


_REQUIRED = object()


def _float_or_auto(v: str):
    if v.lower() == "auto":
        return None
    return float(v)


def _parse_modes(v: str):
    entries = []
    for part in v.split(";"):
        part = part.strip()
        if not part:
            continue
        bits = part.split()
        if len(bits) != 4:
            raise ValueError(f"mode entry {part!r} must be 'k1 k2 re im'")
        entries.append((int(bits[0]), int(bits[1]), float(bits[2]) + 1j * float(bits[3])))
    if not entries:
        raise ValueError("empty mode list")
    return entries


def _solver_keys() -> dict:
    """Solve keys taken from ``SolverConfig``: defaults from its fields,
    parsers from their annotations."""
    parsers = {"int": int, "float": float, "float | None": _float_or_auto}
    return {
        f.name: (parsers[f.type], _REQUIRED if f.default is MISSING else f.default)
        for f in fields(SolverConfig)
    }


ORACLE_SCHEMA = _Schema(
    {
        "outdir": (str, _REQUIRED),
        "N": (int, _REQUIRED),
        "L": (int, _REQUIRED),
        "nu": (float, _REQUIRED),
        "T": (float, _REQUIRED),
        "psi_modes": (_parse_modes, _REQUIRED),
    }
)

SOLVE_SCHEMA = _Schema(
    {
        "outdir": (str, _REQUIRED),
        "psi_modes": (_parse_modes, _REQUIRED),
        **_solver_keys(),
    }
)

COMPARE_SCHEMA = _Schema(
    {
        "outdir": (str, _REQUIRED),
        "solution_bundle": (str, _REQUIRED),
        "trajectory": (str, _REQUIRED),
        # unread; accepted because perfbench/workloads.py writes it into its compare config
        "base_seed": (int, 0),
    }
)

DIAGNOSE_SCHEMA = _Schema(
    {
        "outdir": (str, _REQUIRED),
        "solution_bundle": (str, _REQUIRED),
    }
)


def resolve_config_path(arg: str) -> Path:
    p = Path(arg)
    if p.exists():
        return p
    env_dir = os.environ.get(ENV_CONFIG_DIR)
    if env_dir and not p.is_absolute():
        candidate = Path(env_dir) / arg
        if candidate.exists():
            return candidate
    raise ConfigurationError(f"config file not found: {arg}")


# ---------------------------------------------------------------------------
# manifest


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class RunManifest:
    """Accumulates the run record; written even when the run fails."""

    def __init__(self, command: str, outdir: Path, config_echo: dict, content_hash: str):
        self.doc = {
            "schema_version": MANIFEST_SCHEMA_VERSION,
            "command": command,
            "config": config_echo,
            "content_hash": content_hash,
            "timings": {},
            "outputs": [],
            "status": "running",
        }
        self.outdir = outdir

    @contextmanager
    def time_phase(self, name: str):
        """Records the wall time of the block, also when it raises."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.doc["timings"][name] = time.perf_counter() - start

    def add_output(self, path: Path):
        self.doc["outputs"].append(
            {
                "path": str(path.relative_to(self.outdir)),
                "sha256": _sha256_file(path),
                "bytes": path.stat().st_size,
            }
        )

    def finish(self, status: str, error: dict | None = None):
        self.doc["status"] = status
        if error is not None:
            self.doc["error"] = error
        self.outdir.mkdir(parents=True, exist_ok=True)
        _write_json(self.outdir / "manifest.json", self.doc)


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _content_hash(config_text: str, extra_files=()) -> str:
    h = hashlib.sha256()
    h.update(config_text.encode())
    for f in extra_files:
        h.update(Path(f).read_bytes())
    return h.hexdigest()


def _config_echo(parsed: dict) -> dict:
    echo = {}
    for key, value in sorted(parsed.items()):
        if key == "psi_modes":
            echo[key] = [[k1, k2, amp.real, amp.imag] for k1, k2, amp in value]
        else:
            echo[key] = value
    return echo


def _write_json(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc, sort_keys=True, indent=1, default=_json_default) + "\n")
    return path


def _write_csv(path: Path, header: str, rows) -> Path:
    """Schema line, ``header``, then one line of comma-separated reprs per row."""
    with open(path, "w") as fh:
        fh.write(f"# schema_version={CSV_SCHEMA_VERSION}\n{header}\n")
        fh.writelines(",".join(map(repr, row)) + "\n" for row in rows)
    return path


def _build_psi(parsed: dict) -> ScalarField:
    return field_from_mode_list(parsed["N"], parsed["psi_modes"])


# ---------------------------------------------------------------------------
# subcommands


def cmd_oracle(parsed: dict, manifest: RunManifest) -> None:
    outdir = manifest.outdir
    psi = _build_psi(parsed)
    with manifest.time_phase("evolve"):
        traj = evolve(psi, parsed["nu"], parsed["T"], parsed["L"])
    with manifest.time_phase("write"):
        traj_path = outdir / "trajectory.vbst"
        checkpoint.write_trajectory(traj_path, traj)
        manifest.add_output(traj_path)
        ens = enstrophy(traj.modes).tolist()
        energy = kinetic_energy(traj.modes).tolist()
        rows = [(m * traj.dt, ens[m], energy[m], _lattice_sup(w)) for m, w in enumerate(traj.modes)]
        header = "tau,enstrophy,energy,sup_omega"
        manifest.add_output(_write_csv(outdir / "oracle_series.csv", header, rows))


def cmd_solve(parsed: dict, manifest: RunManifest) -> None:
    outdir = manifest.outdir
    psi = _build_psi(parsed)
    config = SolverConfig(**{f.name: parsed[f.name] for f in fields(SolverConfig)})
    with manifest.time_phase("picard_solve"):
        solution = picard_solve(psi, config)
    with manifest.time_phase("write"):
        bundle_dir = outdir / "solution"
        for name in checkpoint.write_solution_bundle(bundle_dir, solution):
            manifest.add_output(bundle_dir / name)
        report = diagnostics.full_json_report(solution)
        manifest.add_output(_write_json(outdir / "diagnostics.json", report))


def cmd_compare(parsed: dict, manifest: RunManifest) -> None:
    """L2(x) distance, per node t_j, between Y(t_j, .) and omega(T - t_j, .).

    The representation Y(t, x) = omega(T - t, x + sqrt(2 nu) B_t) shifts
    both sides by the same path, and a shift preserves the L2 norm, so
    the distance is the same along every path and is measured once.  It
    is taken on the mode stacks: the solution's, node by node backwards,
    against the oracle's read through ``modes_at``, which interpolates
    linearly where the oracle has no node at T - t_j.
    """
    outdir = manifest.outdir
    with manifest.time_phase("load"):
        solution = checkpoint.read_solution_bundle(parsed["solution_bundle"])
        traj = checkpoint.read_trajectory(parsed["trajectory"])
    config = solution.config
    # the oracle is read through modes_at, so its step count may differ
    found = {
        "grid size": (traj.modes.shape[-1], config.N),
        "nu": (traj.nu, config.nu),
        "horizon": (traj.horizon, config.T),
    }
    _check_agrees("trajectory", found)
    with manifest.time_phase("compare"):
        times = [j * config.dt for j in range(config.L + 1)]
        oracle = np.stack([modes_at(traj, config.T - t) for t in times])
        diffs = l2_norms(solution.y.modes[::-1] - oracle).tolist()
    rows = zip(times, diffs)
    with manifest.time_phase("write"):
        manifest.add_output(_write_csv(outdir / "comparison.csv", "t,l2_diff", rows))
        summary = {
            "schema_version": CSV_SCHEMA_VERSION,
            "max_l2_diff": max(diffs),
            "mean_l2_diff": sum(diffs) / len(diffs),
        }
        manifest.add_output(_write_json(outdir / "summary.json", summary))


def cmd_diagnose(parsed: dict, manifest: RunManifest) -> None:
    outdir = manifest.outdir
    with manifest.time_phase("load"):
        solution = checkpoint.read_solution_bundle(parsed["solution_bundle"])
    with manifest.time_phase("write"):
        report = diagnostics.full_json_report(solution)
        manifest.add_output(_write_json(outdir / "diagnostics.json", report))


_COMMANDS = {
    "oracle": (ORACLE_SCHEMA, cmd_oracle),
    "solve": (SOLVE_SCHEMA, cmd_solve),
    "compare": (COMPARE_SCHEMA, cmd_compare),
    "diagnose": (DIAGNOSE_SCHEMA, cmd_diagnose),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="vortexbsde",
        description="Probabilistic and spectral solvers for the 2D torus vorticity equation",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("config", help="flat key-value config file")
    args = parser.parse_args(argv)

    schema, runner = _COMMANDS[args.command]
    manifest = None
    try:
        config_path = resolve_config_path(args.config)
        text = config_path.read_text()
        parsed = schema.parse(_parse_kv_text(text))
        outdir = Path(parsed["outdir"])
        outdir.mkdir(parents=True, exist_ok=True)
        extra = []
        for key in ("solution_bundle", "trajectory"):
            if key in parsed:
                p = Path(parsed[key])
                extra.extend(sorted(p.rglob("*")) if p.is_dir() else [p])
        manifest = RunManifest(
            args.command,
            outdir,
            _config_echo(parsed),
            _content_hash(text, [f for f in extra if Path(f).is_file()]),
        )
        runner(parsed, manifest)
        manifest.finish("success")
        return 0
    except VortexError as exc:
        error = {"type": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, NonConvergenceError) and exc.history:
            error["history"] = list(exc.history)
        if manifest is not None:
            manifest.finish("error", error)
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
