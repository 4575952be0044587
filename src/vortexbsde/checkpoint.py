"""Binary trajectory checkpoint and the on-disk solution bundle.

Trajectory checkpoint (``.vbst``), little-endian throughout: a trajectory
header followed by L+1 self-contained field blocks, one per time node:

    bytes 0..3   magic "VBST"
    bytes 4..5   version u16
    bytes 6..9   step count L, u32
    bytes 10..17 dt, f64
    bytes 18..25 nu, f64

Field block (node 0 starts at byte 26):

    bytes 0..3   magic "VBSF"
    bytes 4..5   format version, u16 (currently 1)
    bytes 6..7   grid size N, u16
    byte  8      mean-zero byte, u8: always 1 (every field is mean-zero)
    then N*N coefficients as f64 (re, im) pairs in row-major k-order:
    entry (i1, i2) is fhat(k) with k_a = fftfreq(N)[i_a] * N, rows varying
    slowest (numpy C order of the mode array).

A solution bundle is a directory holding ``solution.json`` (config echo,
norms, iteration history) and ``y_fields.vbst``, whose node 0 is psi.  A
``psi.vbsf`` left in a bundle by an earlier version is ignored.
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

FIELD_MAGIC = b"VBSF"
TRAJ_MAGIC = b"VBST"
FORMAT_VERSION = 1

_FIELD_HEADER = struct.Struct("<4sHHB")
_TRAJ_HEADER = struct.Struct("<4sHIdd")


def _modes_to_bytes(modes: np.ndarray) -> bytes:
    """The field block of an (N, N) mode array."""
    header = _FIELD_HEADER.pack(FIELD_MAGIC, FORMAT_VERSION, modes.shape[-1], 1)
    return header + modes.astype("<c16", copy=False).tobytes()


def _read_bytes(path) -> bytes:
    """Contents of a checkpoint file; a path naming no readable file is a
    configuration error, like any other bad input path."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise ConfigurationError(f"cannot read {path}: {exc.strerror or exc}") from exc


def _modes_from_bytes(buf: bytes, offset: int) -> tuple[np.ndarray, int]:
    """The unvalidated (N, N) modes of the field block at ``offset``, and the offset past it."""
    if len(buf) - offset < _FIELD_HEADER.size:
        raise ConfigurationError("truncated field block (incomplete header)")
    magic, version, n, mean_zero = _FIELD_HEADER.unpack_from(buf, offset)
    if magic != FIELD_MAGIC:
        raise ConfigurationError("not a field block (bad magic)")
    if version != FORMAT_VERSION:
        raise ConfigurationError(f"unsupported field block version {version}")
    if mean_zero != 1:
        raise ConfigurationError(f"field block mean-zero byte is {mean_zero}, not 1")
    offset += _FIELD_HEADER.size
    count = n * n
    if len(buf) - offset < 16 * count:
        raise ConfigurationError(
            f"truncated field block: N={n} needs {16 * count} coefficient bytes, "
            f"{len(buf) - offset} present"
        )
    flat = np.frombuffer(buf, dtype="<f8", count=2 * count, offset=offset).reshape(count, 2)
    return (flat[:, 0] + 1j * flat[:, 1]).reshape(n, n), offset + 16 * count


def write_trajectory(path, traj: VorticityTrajectory) -> None:
    header = _TRAJ_HEADER.pack(TRAJ_MAGIC, FORMAT_VERSION, traj.steps, traj.dt, traj.nu)
    blocks = b"".join(_modes_to_bytes(modes) for modes in traj.modes)
    Path(path).write_bytes(header + blocks)


def read_trajectory(path) -> VorticityTrajectory:
    buf = _read_bytes(path)
    if len(buf) < _TRAJ_HEADER.size:
        raise ConfigurationError("truncated trajectory checkpoint (incomplete header)")
    magic, version, steps, dt, nu = _TRAJ_HEADER.unpack_from(buf, 0)
    if magic != TRAJ_MAGIC:
        raise ConfigurationError("not a trajectory checkpoint (bad magic)")
    if version != FORMAT_VERSION:
        raise ConfigurationError(f"unsupported trajectory format version {version}")
    offset = _TRAJ_HEADER.size
    blocks = []
    for _ in range(steps + 1):
        modes, offset = _modes_from_bytes(buf, offset)
        if blocks and modes.shape != blocks[0].shape:
            raise ConfigurationError("trajectory fields disagree on grid size")
        blocks.append(modes)
    if offset != len(buf):
        extra = len(buf) - offset
        raise ConfigurationError(f"trajectory checkpoint has {extra} bytes past its end")
    return VorticityTrajectory(np.stack(blocks), nu=nu, dt=dt)


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
