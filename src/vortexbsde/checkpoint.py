"""Binary trajectory checkpoint and the on-disk solution bundle.

Trajectory checkpoint (``.vbst``, format version 2), little-endian: a
28-byte header, then the (L+1, N, N) mode stack as one complex128 array.

    bytes 0..3   magic "VBST"
    bytes 4..5   version u16 (2)
    bytes 6..9   step count L, u32
    bytes 10..11 grid size N, u16
    bytes 12..19 dt, f64
    bytes 20..27 nu, f64

The body holds 16 (L+1) N^2 bytes, one (re, im) f64 pair per mode, in
numpy C order of the stack: node slowest, then rows; entry (m, i1, i2) is
fhat(tau_m, k) with k_a = fftfreq(N)[i_a] * N.

A solution bundle is a directory holding ``solution.json`` (config echo,
norms, iteration history) and ``y_fields.vbst``, whose node 0 is psi.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import MISSING, asdict, fields
from pathlib import Path

import numpy as np

from .bsde_engine import BsdeSolution, SolverConfig, _check_trajectory_config
from .errors import ConfigurationError
from .spectral_oracle import VorticityTrajectory

TRAJ_MAGIC = b"VBST"
FORMAT_VERSION = 2

_TRAJ_HEADER = struct.Struct("<4sHIHdd")


def _read_bytes(path) -> bytes:
    """Contents of a checkpoint file; a path naming no readable file is a
    configuration error, like any other bad input path."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise ConfigurationError(f"cannot read {path}: {exc.strerror or exc}") from exc


def write_trajectory(path, traj: VorticityTrajectory) -> None:
    n = traj.modes.shape[-1]
    header = _TRAJ_HEADER.pack(TRAJ_MAGIC, FORMAT_VERSION, traj.steps, n, traj.dt, traj.nu)
    Path(path).write_bytes(header + traj.modes.astype("<c16", copy=False).tobytes())


def read_trajectory(path) -> VorticityTrajectory:
    buf = _read_bytes(path)
    if len(buf) < _TRAJ_HEADER.size:
        raise ConfigurationError("truncated trajectory checkpoint (incomplete header)")
    magic, version, steps, n, dt, nu = _TRAJ_HEADER.unpack_from(buf, 0)
    if magic != TRAJ_MAGIC:
        raise ConfigurationError("not a trajectory checkpoint (bad magic)")
    if version != FORMAT_VERSION:
        raise ConfigurationError(f"unsupported trajectory format version {version}")
    declared = 16 * (steps + 1) * n * n
    present = len(buf) - _TRAJ_HEADER.size
    if present != declared:
        raise ConfigurationError(
            f"trajectory checkpoint body has {present} bytes; its header (L={steps}, N={n}) "
            f"declares {declared}"
        )
    modes = np.frombuffer(buf, dtype="<c16", offset=_TRAJ_HEADER.size)
    return VorticityTrajectory(modes.reshape(steps + 1, n, n), nu=nu, dt=dt)


# ---------------------------------------------------------------------------
# solution bundle


#: Top-level keys of ``solution.json`` and the JSON types of their values;
#: a JSON boolean fits none of them.
_BUNDLE_KEYS = {
    "schema_version": int,
    "config": dict,
    "norms": dict,
    "history": list,
    "iteration_index": int,
    "alpha": (int, float),
}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


#: Entries of ``norms`` the diagnostics read; each must be a finite number.
_NORM_KEYS = ("c1", "c0", "alpha", "y_sup", "z_bmo_sq_debiased", "z_bmo_sq_se")
#: Entries of every ``history`` record the diagnostics read, and the checks
#: their values must pass; the optional ones are checked only when present.
#: ``sup_lattice`` must also hold one number per time node.
_RECORD_KEYS = {
    "iteration": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "eps_mc": _is_number,
    "sup_lattice": lambda v: isinstance(v, list) and all(map(_is_number, v)),
    "delta_norm": _is_number,
}
_OPTIONAL_RECORD_KEYS = {
    "contraction_ratio": _is_number,
    "delta_norm_se": _is_number,
    "ratio_above_noise": lambda v: isinstance(v, bool),
}


def _config_from_dict(d: dict) -> SolverConfig:
    unknown = sorted(set(d) - {f.name for f in fields(SolverConfig)})
    if unknown:
        raise ConfigurationError(f"solution config has unknown keys {unknown}")
    missing = [f.name for f in fields(SolverConfig) if f.default is MISSING and f.name not in d]
    if missing:
        raise ConfigurationError(f"solution config lacks required keys {missing}")
    return SolverConfig(**d)


def _check_report(where: Path, norms: dict, history: list, steps: int) -> None:
    """The norms and history records must hold what the diagnostics read."""
    bad = [key for key in _NORM_KEYS if not _is_number(norms.get(key))]
    if bad:
        raise ConfigurationError(f"{where} norms need finite numbers at {bad}")
    for i, rec in enumerate(history):
        if not isinstance(rec, dict):
            raise ConfigurationError(f"{where} history record {i} is not an object")
        bad = [key for key, ok in _RECORD_KEYS.items() if key not in rec or not ok(rec[key])]
        bad += [key for key, ok in _OPTIONAL_RECORD_KEYS.items() if key in rec and not ok(rec[key])]
        if bad:
            raise ConfigurationError(f"{where} history record {i} has missing or ill-typed {bad}")
        if len(rec["sup_lattice"]) != steps + 1:
            raise ConfigurationError(
                f"{where} history record {i} sup_lattice has {len(rec['sup_lattice'])} "
                f"entries, not L+1 = {steps + 1}"
            )


def write_solution_bundle(directory, solution: BsdeSolution) -> list:
    """Write the bundle; returns the list of files written (relative names)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    doc = {
        "schema_version": FORMAT_VERSION,
        "config": asdict(solution.config),
        "norms": solution.norms,
        "history": list(solution.history),
        "iteration_index": len(solution.history),
        "alpha": solution.norms["alpha"],
    }
    (directory / "solution.json").write_text(
        json.dumps(doc, sort_keys=True, indent=1) + "\n"
    )
    write_trajectory(directory / "y_fields.vbst", solution.y)
    return ["solution.json", "y_fields.vbst"]


def read_solution_bundle(directory) -> BsdeSolution:
    directory = Path(directory)
    where = directory / "solution.json"
    try:
        doc = json.loads(_read_bytes(where))
    except ValueError as exc:
        raise ConfigurationError(f"{where} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{where} is not a JSON object")
    missing = [key for key in _BUNDLE_KEYS if key not in doc]
    if missing:
        raise ConfigurationError(f"{where} lacks keys {missing}")
    for key, kind in _BUNDLE_KEYS.items():
        if isinstance(doc[key], bool) or not isinstance(doc[key], kind):
            raise ConfigurationError(f"{where} key {key!r} has ill-typed value {doc[key]!r}")
    if doc["schema_version"] != FORMAT_VERSION:
        version = doc["schema_version"]
        raise ConfigurationError(f"{where} has schema_version {version}, not {FORMAT_VERSION}")
    config = _config_from_dict(doc["config"])
    traj = read_trajectory(directory / "y_fields.vbst")
    _check_trajectory_config(traj, config, "bundle trajectory")
    _check_report(where, doc["norms"], doc["history"], config.L)
    return BsdeSolution(
        y=traj,
        config=config,
        norms=doc["norms"],
        history=tuple(doc["history"]),
    )
