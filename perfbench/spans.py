"""In-memory span recorder for the traced benchmark run.

The timing wrappers live here, in the benchmark, not in the package: each
is installed in the namespace where its caller looks the name up and is
removed again when the traced op ends.  Spans stay in memory; the
per-layer metrics and the trace file are derived from them afterwards.

A span's self time is its duration minus the durations of its direct
child spans.  Transforms are keyed by the span that called them, so the
weighted and the drifted estimator's FFT work are told apart.

Expected links to the end-to-end metrics: weighted synthesis
(``modes_to_grid.weighted``) and weighted self time move
``norm_time_to_solution_s`` and ``norm_samples_per_s`` on
``solve_two_mode`` and ``study_single_mode``, and less on
``girsanov_crosscheck``, where the weighted step is about 30% of the op; the drifted span moves
``girsanov_crosscheck`` only; checkpoint, compare, oracle and diagnose
spans move ``study_single_mode`` only; chunking changes show in
``peak_rss_mb``, most on ``study_single_mode``.  Philox increments take
under 0.1% everywhere, so no end-to-end metric can show a gain there.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from time import perf_counter

from vortexbsde import bsde_engine, brownian, checkpoint, cli, diagnostics

#: Short names of the parent spans that transform and translate calls are
#: keyed by (metric names are limited to 64 characters).
PARENT_ALIASES = {
    "bsde_engine.solve_weighted_with_stats": "weighted",
    "bsde_engine.solve_drifted_with_stats": "drifted",
    "bsde_engine.picard_solve": "picard",
    "cli.compare": "compare",
}
KEYED_BY_PARENT = ("torus_field.modes_to_grid", "torus_field.grid_to_modes", "torus_field.translate")


def _transform_counts(args, out):
    """Elements transformed and bytes read plus written (computed from array sizes)."""
    return {"elems": args[0].size, "bytes_computed": args[0].nbytes + out.nbytes}


def _philox_words(args, out):
    """Philox words drawn: four 64-bit words per step and member (computed)."""
    _, _, count, steps, _ = args
    return {"words": 4 * count * steps}


#: (namespace, attribute, span name, counter) for every wrapped call site.
#: ``cli`` and ``bsde_engine`` import these names directly, so the wrapper
#: goes into their namespaces; the rest are looked up as module attributes.
TARGETS = (
    (cli, "picard_solve", "bsde_engine.picard_solve", None),
    (cli, "evolve", "spectral_oracle.evolve", None),
    (cli, "translate", "torus_field.translate", None),
    (bsde_engine, "solve_weighted_with_stats", "bsde_engine.solve_weighted_with_stats", None),
    (bsde_engine, "solve_drifted_with_stats", "bsde_engine.solve_drifted_with_stats", None),
    (bsde_engine, "modes_to_grid", "torus_field.modes_to_grid", _transform_counts),
    (bsde_engine, "grid_to_modes", "torus_field.grid_to_modes", _transform_counts),
    (bsde_engine, "velocity_modes", "biot_savart.velocity_modes", None),
    (brownian, "ensemble_increments", "brownian.ensemble_increments", _philox_words),
    (checkpoint, "write_solution_bundle", "checkpoint.write_solution_bundle", None),
    (checkpoint, "read_solution_bundle", "checkpoint.read_solution_bundle", None),
    (checkpoint, "write_trajectory", "checkpoint.write_trajectory", None),
    (checkpoint, "read_trajectory", "checkpoint.read_trajectory", None),
    (diagnostics, "full_json_report", "diagnostics.full_json_report", None),
)


class NullTracer:
    """Tracer stand-in for untimed ops: spans cost one no-op context."""

    @contextmanager
    def span(self, name):
        yield


class Tracer:
    """Records spans as [name, parent index, start, end, child seconds, counts]."""

    def __init__(self):
        self.spans = []
        self._open = []

    def _begin(self, name):
        parent = self._open[-1] if self._open else -1
        rec = [name, parent, 0.0, 0.0, 0.0, None]
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        rec[2] = perf_counter()
        return rec

    def _end(self, rec):
        rec[3] = perf_counter()
        self._open.pop()
        if rec[1] >= 0:
            self.spans[rec[1]][4] += rec[3] - rec[2]

    @contextmanager
    def span(self, name):
        rec = self._begin(name)
        try:
            yield
        finally:
            self._end(rec)

    def wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._end(rec)
            if counter is not None:
                rec[5] = counter(args, out)
            return out

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        saved = []
        try:
            for namespace, attr, name, counter in TARGETS:
                original = getattr(namespace, attr)
                saved.append((namespace, attr, original))
                setattr(namespace, attr, self.wrap(name, original, counter))
            yield
        finally:
            for namespace, attr, original in reversed(saved):
                setattr(namespace, attr, original)

    def key(self, rec) -> str:
        name = rec[0]
        if name in KEYED_BY_PARENT:
            parent = self.spans[rec[1]][0] if rec[1] >= 0 else "root"
            return f"{name}.{PARENT_ALIASES.get(parent, parent)}"
        return name

    def aggregate(self) -> dict:
        """Per span key: calls, total seconds, self seconds and summed counts."""
        out = {}
        for rec in self.spans:
            entry = out.setdefault(self.key(rec), {"calls": 0, "s": 0.0, "self_s": 0.0})
            duration = rec[3] - rec[2]
            entry["calls"] += 1
            entry["s"] += duration
            entry["self_s"] += duration - rec[4]
            for count, value in (rec[5] or {}).items():
                entry[count] = entry.get(count, 0) + int(value)
        return out

    def top_level_seconds(self) -> float:
        return sum(rec[3] - rec[2] for rec in self.spans if rec[1] < 0)

    def dump(self) -> list:
        """Raw spans relative to the first start, for the trace file."""
        t0 = self.spans[0][2] if self.spans else 0.0
        return [
            {"name": r[0], "parent": r[1], "start": r[2] - t0, "end": r[3] - t0, "counts": r[5]}
            for r in self.spans
        ]
