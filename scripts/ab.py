"""Paired A/B timing of one solver operation in two source trees.

    python3 scripts/ab.py TREE_A TREE_B --op picard --rounds 20

Starts one worker process per tree.  Each worker imports ``vortexbsde``
from its tree's ``src`` directory, builds the operation's inputs once and
runs it once untimed.  Every round then runs the operation once in each
worker, A first in even rounds and B first in odd ones, so that a phase of
host speed (the shared host's speed moves by up to about 1.4x over seconds
to minutes) falls on both trees alike: alternation, after Kalibera & Jones,
"Rigorous benchmarking in reasonable time" (ISMM 2013).  BLAS and OpenMP
are pinned to one thread in both workers.

Operations, at the benchmark's sizes and, but for ``single_mode``, on the
two-mode data of ``solve_two_mode.cfg`` (N = 32, nu = 0.5, T = 0.25, psi
on the modes (1,0) and (0,2)):

* ``weighted``: one weighted Picard step from the heat iterate, L = 32,
  M_inner = 250;
* ``drifted``: one drifted step from the heat iterate, L = 16,
  M_inner = 50;
* ``drifted_wide``: one drifted step from the heat iterate, L = 32,
  M_inner = 300, in several chunks of branches;
* ``picard``: the whole ``picard_solve``, L = 32, M_inner = 250;
* ``single_mode``: the solve of ``run_single_mode_study.sh`` at the
  benchmark's size, ``picard_solve`` of psi = sin 2 pi x1 (the data of
  ``solve_single_mode.cfg``: N = 32, nu = 0.1, T = 0.5), L = 16,
  M_inner = 1000, whose weighted step runs one-column sub-blocks;
* ``evolve``: the spectral oracle's ``evolve`` of psi, L = 32;
* ``residual``: ``bsde_residual_profile`` of that oracle trajectory along
  the 8 paths ``brownian.simulate(1000 + p, L, T)``, p = 0..7, L = 32;
* ``tiny``: a weighted step at N = 8, L = 4, M_inner = 16, a smoke test
  of the harness.

Prints one JSON object: each tree's wall seconds per round, their
medians, the median over rounds of the per-round ratio B / A (below 1 when
B is faster), the rounds each tree won (ties count for neither), the
two-sided sign-test p-value of those wins, each tree's median minor page
faults per operation and its ``ru_maxrss`` growth over the timed rounds
and the untimed run, in MB (what the operation's own peak memory adds to
the worker's set-up).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
OPS = (
    "weighted", "drifted", "drifted_wide", "picard", "single_mode", "evolve", "residual", "tiny"
)
#: Paths of the ``residual`` op.
RESIDUAL_PATHS = 8


def build_op(name: str):
    """The operation ``name`` as a function of no arguments, its inputs
    built by the ``vortexbsde`` on ``sys.path``."""
    import numpy as np
    from vortexbsde import brownian, bsde_engine
    from vortexbsde.spectral_oracle import evolve
    from vortexbsde.torus_field import field_from_mode_list

    n = 8 if name == "tiny" else 32
    steps, m_inner = {"drifted": (16, 50), "drifted_wide": (32, 300), "tiny": (4, 16)}.get(
        name, (32, 250)
    )
    psi = field_from_mode_list(n, [(1, 0, -0.25j), (0, 2, 0.25)])
    config = bsde_engine.SolverConfig(
        N=n, L=steps, M_inner=m_inner, nu=0.5, T=0.25, base_seed=42, groups=min(16, m_inner)
    )
    if name == "picard":
        return lambda: bsde_engine.picard_solve(psi, config)
    if name == "single_mode":
        psi = field_from_mode_list(n, [(1, 0, -0.5j)])
        config = bsde_engine.SolverConfig(N=n, L=16, M_inner=1000, nu=0.1, T=0.5, base_seed=42)
        return lambda: bsde_engine.picard_solve(psi, config)
    if name == "evolve":
        return lambda: evolve(psi, config.nu, config.T, config.L)
    if name == "residual":
        traj = evolve(psi, config.nu, config.T, config.L)
        increments = np.stack(
            [brownian.simulate(1000 + p, config.L, config.T) for p in range(RESIDUAL_PATHS)]
        )
        return lambda: bsde_engine.bsde_residual_profile(traj.modes, traj.nu, traj.dt, increments)
    heat = bsde_engine.heat_iterate(psi, config)
    solve = bsde_engine.solve_drifted_with_stats if name.startswith("drifted") else (
        bsde_engine.solve_weighted_with_stats
    )
    return lambda: solve(heat, config)


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def worker(tree: Path, op: str) -> None:
    """Serve ``run`` requests on stdin, one JSON line per run on stdout."""
    sys.path.insert(0, str(tree / "src"))
    run = build_op(op)
    base_rss = _maxrss_mb()
    run()  # untimed: first-use costs of the imports and the allocator
    print(json.dumps({"ready": True}), flush=True)
    for line in sys.stdin:
        if line.strip() != "run":
            break
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = perf_counter()
        run()
        seconds = perf_counter() - t0
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        doc = {"s": seconds, "minflt": faults, "maxrss_delta_mb": _maxrss_mb() - base_rss}
        print(json.dumps(doc), flush=True)


class Worker:
    """A worker process of ``tree`` for ``op``, ready after construction."""

    def __init__(self, tree: Path, op: str):
        env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--worker", str(tree), "--op", op],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
        )
        self._read()

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def run(self) -> dict:
        self.proc.stdin.write("run\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def sign_test_p(wins: int, losses: int) -> float:
    """Two-sided sign-test p-value of ``wins`` against ``losses``."""
    n = wins + losses
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1)) / 2.0**n
    return min(1.0, 2.0 * tail)


def compare(tree_a: Path, tree_b: Path, op: str, rounds: int) -> dict:
    workers = {"a": Worker(tree_a, op), "b": Worker(tree_b, op)}
    runs = {"a": [], "b": []}
    try:
        for r in range(rounds):
            for side in ("a", "b") if r % 2 == 0 else ("b", "a"):
                runs[side].append(workers[side].run())
    finally:
        for w in workers.values():
            w.close()
    secs = {side: [run["s"] for run in runs[side]] for side in runs}
    ratios = [b / a for a, b in zip(secs["a"], secs["b"])]
    b_wins = sum(b < a for a, b in zip(secs["a"], secs["b"]))
    a_wins = sum(a < b for a, b in zip(secs["a"], secs["b"]))
    doc = {"op": op, "rounds": rounds, "tree_a": str(tree_a), "tree_b": str(tree_b)}
    for side in ("a", "b"):
        doc[f"{side}_s"] = secs[side]
        doc[f"{side}_median_s"] = statistics.median(secs[side])
        doc[f"{side}_minflt_median"] = statistics.median(run["minflt"] for run in runs[side])
        doc[f"{side}_maxrss_delta_mb"] = runs[side][-1]["maxrss_delta_mb"]
    doc.update(
        ratio_median=statistics.median(ratios),
        a_wins=a_wins,
        b_wins=b_wins,
        sign_test_p=sign_test_p(b_wins, a_wins),
    )
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree_a", nargs="?", type=Path)
    parser.add_argument("tree_b", nargs="?", type=Path)
    parser.add_argument("--op", choices=OPS, default="picard")
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker is not None:
        worker(args.worker.resolve(), args.op)
        return 0
    if args.tree_a is None or args.tree_b is None or args.rounds < 1:
        parser.error("need TREE_A, TREE_B and --rounds >= 1")
    doc = compare(args.tree_a.resolve(), args.tree_b.resolve(), args.op, args.rounds)
    print(json.dumps(doc, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
