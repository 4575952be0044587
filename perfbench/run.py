"""End-to-end and per-layer benchmark of the vortexbsde Picard solvers.

Run from the repository root:

    python3 perfbench/run.py --workload solve_two_mode --seed 1 --seconds 40 --trace 0

``--workload`` is one of the names in ``BENCHMARK.json`` (or ``all``, which
runs them in turn in this process).  The seed feeds the solvers'
``base_seed``.  ``setup_s`` is the median time a fresh interpreter takes to
import the package plus the median of several set-ups of the workload.
One warm-up op then runs untimed, and timed ops follow until the next one
would end after ``--seconds`` (at least one).  Every op's outputs are
checked, the warm-up's too; a failed check, an exception or a nonzero exit
code counts as a failed op.

The shared host's effective CPU speed changes by up to about 1.4x between
phases of seconds to minutes, so raw wall times of runs of the same code
spread by 20-30%.  The calibration kernel of ``calibrate.py`` therefore
runs before the first op and after every op, and each op's wall time is
rescaled to the reference host speed by the mean of the kernel times on
either side of it: ``norm_time_to_solution_s`` is the median of these
normalised op times and ``norm_samples_per_s`` the median of the sample
rates they give.  The raw medians (``time_to_solution_s``,
``samples_per_s``) and the kernel's median time are printed as well.

With ``--trace 0`` the end-to-end metrics of ``BENCHMARK.json`` are
reported.  With ``--trace 1`` a warm-up op runs, then one op with timing
wrappers around each layer (see ``spans.py``) between two untraced ops;
the per-layer metrics come from the traced op, and
``tracing_overhead_frac`` is its normalised time over the mean of the
untraced ops'.  The raw spans are written to
``.perfbench/trace-<workload>-seed<seed>.json``.

Stdout carries a machine record, one ``name value unit`` line per metric,
and as its last line one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  BLAS and OpenMP are pinned to
one thread each.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 5
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

#: Timing of a package import in a fresh interpreter (imports cannot be
#: repeated inside one process).
IMPORT_PROBE = "from time import perf_counter as c; t = c(); import vortexbsde; print(c() - t)"

#: Span fields a per-layer metric name may end in.
SPAN_FIELDS = ("calls", "s", "self_s", "elems", "bytes_computed", "words")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_record(args) -> dict:
    import numpy
    import scipy
    from calibrate import REFERENCE_SECONDS

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "calibration_reference_s": REFERENCE_SECONDS,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def import_seconds() -> float:
    """Median time a fresh interpreter takes to import the package."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            cwd=ROOT, env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(float(probe.stdout))
    return statistics.median(times)


def run_op(workload, host: list, tracer=None) -> dict:
    """One timed op, traced if a tracer is given, then its untimed checks.

    ``host`` holds the calibration kernel times so far (at least one); the
    kernel runs again after the op, and the mean of the times on either
    side of the op is its ``host_s``.
    """
    from calibrate import kernel_seconds
    from spans import NullTracer

    workload.prepare()
    failures = []
    start = perf_counter()
    try:
        if tracer is None:
            workload.op(NullTracer())
        else:
            with tracer.installed():
                workload.op(tracer)
    except Exception:  # a failing op is counted, not fatal
        failures.append(traceback.format_exc())
    seconds = perf_counter() - start
    values = {}
    if not failures:
        try:
            values, failures = workload.check()
        except Exception:
            failures.append(traceback.format_exc())
    for failure in failures:
        print(f"op failed: {failure}", file=sys.stderr)
    host.append(kernel_seconds())
    host_s = (host[-2] + host[-1]) / 2
    return {"seconds": seconds, "host_s": host_s, "values": values, "failures": failures}


def normalised_seconds(op) -> float:
    """An op's wall time rescaled to the reference host speed."""
    from calibrate import REFERENCE_SECONDS

    return op["seconds"] * REFERENCE_SECONDS / op["host_s"]


def _median(values):
    values = list(values)
    return statistics.median(values) if values else None


def end_to_end(ops, setup_s, host) -> dict:
    """The end-to-end metrics, and the raw timings printed next to them."""
    good = [op for op in ops if not op["failures"]]
    return {
        "setup_s": setup_s,
        "norm_time_to_solution_s": _median(normalised_seconds(op) for op in good),
        "norm_samples_per_s": _median(
            op["values"]["samples"] / normalised_seconds(op) for op in good
        ),
        "time_to_solution_s": _median(op["seconds"] for op in good),
        "samples_per_s": _median(op["values"]["samples"] / op["seconds"] for op in good),
        "host.calibration_s": statistics.median(host),
        "picard_iters": _median(op["values"]["picard_iters"] for op in good),
        "max_pooled_se": _median(op["values"]["max_pooled_se"] for op in good),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(names, tracer, traced, untraced, host) -> dict:
    extras = {
        "tracing_overhead_frac": normalised_seconds(traced)
        / statistics.mean(normalised_seconds(op) for op in untraced),
        "host.calibration_s": statistics.median(host),
        "trace.coverage_frac": tracer.top_level_seconds() / traced["seconds"],
        "checkpoint.bytes_written": traced["values"].get("checkpoint_bytes", 0),
    }
    spans = tracer.aggregate()
    out = {}
    for name in names:
        if name in extras:
            out[name] = extras[name]
            continue
        key, field = name.rsplit(".", 1)
        if field not in SPAN_FIELDS:
            raise KeyError(f"per-layer metric {name!r} has no source")
        out[name] = spans.get(key, {}).get(field, 0)
    return out


def run_workload(cls, args, spec):
    from calibrate import kernel_seconds
    from spans import Tracer

    WORK.mkdir(exist_ok=True)
    workdirs = []
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            workdirs.append(Path(tempfile.mkdtemp(prefix=f"{cls.name}-", dir=WORK)))
            start = perf_counter()
            workload = cls(args.seed, workdirs[-1])
            setup_times.append(perf_counter() - start)

        kernel_seconds()  # warms the kernel's FFT plans and allocations
        host = [kernel_seconds()]
        if args.trace:
            # After a warm-up op, the traced op runs between two untraced
            # ones, and its overhead is taken against their mean.
            tracer = Tracer()
            ops = [run_op(workload, host) for _ in range(2)]
            ops += [run_op(workload, host, tracer), run_op(workload, host)]
            trace_path = WORK / f"trace-{cls.name}-seed{args.seed}.json"
            trace_path.write_text(
                json.dumps({"aggregate": tracer.aggregate(), "spans": tracer.dump()}) + "\n"
            )
            names = [m["name"] for m in spec["per_layer"]]
            metrics = per_layer(names, tracer, ops[2], [ops[1], ops[3]], host)
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            unbounded = {}
        else:
            setup_s = import_seconds() + statistics.median(setup_times)
            run_start = perf_counter()
            warm_up = run_op(workload, host)
            timed = []
            while not timed or perf_counter() - run_start + statistics.median(
                op["seconds"] + op["host_s"] for op in timed
            ) <= args.seconds:
                timed.append(run_op(workload, host))
            ops = [warm_up] + timed
            metrics = end_to_end(timed, setup_s, host)
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
            unbounded = {
                "time_to_solution_s": "s",
                "samples_per_s": "1/s",
                "host.calibration_s": "s",
            }
    finally:
        for workdir in workdirs:
            shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for op in ops if op["failures"])
    print(f"workload {cls.name}: {len(ops)} ops, {failed} failed, fail_frac {failed / len(ops)}")
    print(f"  op_seconds {[op['seconds'] for op in ops]}")
    print(f"  host_seconds {host}")
    good = [op for op in ops if not op["failures"]]
    for key in sorted({k for op in good for k in op["values"]}):
        print(f"  {key} {_median(op['values'][key] for op in good if key in op['values'])!r}")
    for name, unit in unbounded.items():
        print(f"  {name} {metrics[name]!r} {unit} (not bounded)")
    for name, unit in units.items():
        print(f"{name} {metrics[name]!r} {unit}")
    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = [w["name"] for w in spec["workloads"]]
    if args.workload not in known + ["all"]:
        parser.error(f"unknown workload {args.workload!r}; choose from {known} or all")
    if not (SRC / "vortexbsde" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2

    for var in THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import vortexbsde
    from workloads import WORKLOADS

    if Path(vortexbsde.__file__).resolve().parent != (SRC / "vortexbsde").resolve():
        print(f"error: imported vortexbsde from {vortexbsde.__file__}", file=sys.stderr)
        return 2

    print("machine " + json.dumps(machine_record(args), sort_keys=True))
    names = known if args.workload == "all" else [args.workload]
    results = [run_workload(WORKLOADS[name], args, spec) for name in names]
    if len(results) == 1:
        final = results[0]
    else:
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {
                f"{name}.{metric}": entry
                for name, r in zip(names, results)
                for metric, entry in r["metrics"].items()
            },
        }
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
