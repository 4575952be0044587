"""Write ``tests/data/golden.json``, the fixed-seed outputs of three small
runs that ``tests/test_golden.py`` recomputes and compares.

    PYTHONPATH=src python3 scripts/write_golden.py

All three runs use psi of ``solve_two_mode.cfg`` (modes (1,0) and (0,2)),
nu = 0.5 and T = 0.25 on an N = 8 grid with L = 8 steps:

* ``picard_solve`` with M_inner = 64, groups = 4, picard_tol = 0.5 and base
  seed 42, which takes two Picard steps: the mode stack, every numeric
  entry of each history record (keyed by iteration), every ``norms`` entry
  and the iteration count;
* one ``solve_drifted_with_stats`` step with M_inner = 16 from the heat
  iterate: the mode stack, ``pooled_se`` and ``sup_lattice``;
* one ``evolve`` of psi: the mode stack.

A complex array is stored by its nonzero entries, a real one whole; JSON
floats round-trip exactly.  Regenerate the file only for a change that is
meant to move solver outputs, and give that change's ``scripts/parity.py``
numbers with the reason.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

from vortexbsde.bsde_engine import (
    SolverConfig,
    heat_iterate,
    picard_solve,
    solve_drifted_with_stats,
)
from vortexbsde.spectral_oracle import evolve
from vortexbsde.torus_field import field_from_mode_list

GOLDEN = Path(__file__).resolve().parents[1] / "tests" / "data" / "golden.json"
CONFIG = SolverConfig(
    N=8, L=8, M_inner=64, nu=0.5, T=0.25, picard_tol=0.5, base_seed=42, groups=4
)
DRIFTED_M = 16
PSI_MODES = [(1, 0, -0.25j), (0, 2, 0.25)]


def golden_outputs() -> tuple[dict, int]:
    """Every pinned array by name, and the Picard iteration count."""
    psi = field_from_mode_list(CONFIG.N, PSI_MODES)
    solution = picard_solve(psi, CONFIG)
    arrays = {"picard.modes": solution.y.modes}
    entries = {f"picard.norms.{key}": value for key, value in solution.norms.items()}
    for rec in solution.history:
        for key, value in rec.items():
            entries[f"picard.history{rec['iteration']}.{key}"] = value
    for name, value in entries.items():
        if isinstance(value, (int, float, list)):  # a bool is an int
            arrays[name] = np.asarray(value, dtype=np.float64)

    drifted = dataclasses.replace(CONFIG, M_inner=DRIFTED_M)
    step, stats = solve_drifted_with_stats(heat_iterate(psi, drifted), drifted)
    arrays["drifted.modes"] = step.modes
    arrays["drifted.pooled_se"] = stats.pooled_se
    arrays["drifted.sup_lattice"] = stats.sup_lattice

    arrays["evolve.modes"] = evolve(psi, CONFIG.nu, CONFIG.T, CONFIG.L).modes
    return arrays, len(solution.history)


def encode(a: np.ndarray) -> dict:
    if np.iscomplexobj(a):
        index = np.flatnonzero(a)
        values = a.flat[index]
        return {
            "shape": list(a.shape),
            "index": index.tolist(),
            "re": values.real.tolist(),
            "im": values.imag.tolist(),
        }
    return {"shape": list(a.shape), "values": a.ravel().tolist()}


def decode(doc: dict) -> np.ndarray:
    if "index" in doc:
        a = np.zeros(doc["shape"], dtype=np.complex128)
        a.flat[doc["index"]] = np.asarray(doc["re"]) + 1j * np.asarray(doc["im"])
        return a
    return np.asarray(doc["values"], dtype=np.float64).reshape(doc["shape"])


def main() -> None:
    arrays, iterations = golden_outputs()
    doc = {
        "iterations": iterations,
        "arrays": {name: encode(a) for name, a in arrays.items()},
    }
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {GOLDEN} ({GOLDEN.stat().st_size} bytes, {len(arrays)} arrays)")


if __name__ == "__main__":
    main()
