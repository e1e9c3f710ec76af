#!/usr/bin/env python3
"""nlboson benchmark: four workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload haar-linear --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

One run is a single process with BLAS and OpenMP pinned to one thread.  It
imports the package from ``src/`` of the same checkout, derives every input
from ``--seed``, repeats its workload's op for ``--seconds`` and checks each
op's result outside the timed region.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` replays a fixed
list of ops in pairs of passes, one plain and one traced, and reports the
per-layer metrics per op, including the tracing overhead.  ``--smoke`` runs
every workload for two ops, prints every metric and asserts that each one in
BENCHMARK.json is present with its unit, that no op failed, and that the
layers a workload does not use read zero.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Run records (with
machine and package versions) and the spans of one traced pass are written
to ``perfbench/results/``.
"""

from __future__ import annotations

import os

# before numpy loads: one BLAS/OpenMP thread, so runs measure one core
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

SETUP_REPEATS = 3

# Host speed.  On a shared 2-vCPU VM the CPU speed was measured to shift by
# up to 1.75x between stretches of a few seconds, for every process alike,
# which swamps the changes the benchmark is meant to show.  A fixed
# pure-Python calibration kernel, touching neither nlboson nor numpy, runs
# before every op; times are reported at the reference speed at which that
# kernel takes CALIBRATION_REF_S, using the median kernel time of the
# surrounding ops.  Wall-clock figures are printed and recorded alongside.
CALIBRATION_REF_S = 1e-3
CALIBRATION_WINDOW = 4  # ops on each side of the rolling median

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# per-layer metrics are per op of the replayed list
PER_LAYER_UNITS = {
    "fock.per_state.calls": "count/op",
    "fock.per_state.self_s": "s/op",
    "fock.enumerate_states.calls": "count/op",
    "fock.enumerate_states.self_s": "s/op",
    "fock.states_materialised": "count/op",
    "fock.rank.calls": "count/op",
    "fock.rank.self_s": "s/op",
    "linalg.permanents.calls": "count/op",
    "linalg.permanents.matrices": "count/op",
    "linalg.permanents.self_s": "s/op",
    "linalg.gathered_permanents.self_s": "s/op",
    "linalg.ryser_terms": "terms/op",
    "linalg.permanent.calls": "count/op",
    "linalg.permanent.self_s": "s/op",
    "nonlinear.nonlinear_distribution.calls": "count/op",
    "nonlinear.nonlinear_distribution.self_s": "s/op",
    "simulate.postselected_distribution.calls": "count/op",
    "simulate.postselected_distribution.self_s": "s/op",
    "simulate.run_rejection_sampling.self_s": "s/op",
    "simulate.raw_draws": "count/op",
    "simulate.accept_ratio": "ratio",
    "simulate.accept_z": "sigma",
    "gadget.optimize_gadget.calls": "count/op",
    "gadget.optimize_gadget.self_s": "s/op",
    "gadget.objective_evals": "count/op",
    "gadget.starts": "count/op",
    "gadget.feasible_ratio": "ratio",
    "linear.output_distribution.calls": "count/op",
    "linear.output_distribution.self_s": "s/op",
    "analysis.tvd_bunching_experiment.self_s": "s/op",
    "analysis.fraction_for_threshold.self_s": "s/op",
    "cli.main.self_s": "s/op",
    "cli.bytes_written": "B/op",
    "trace.overhead_s": "s/op",
}

# ratios and scores are reported as they are, not divided by the op count
NOT_PER_OP = {"simulate.accept_ratio", "simulate.accept_z", "gadget.feasible_ratio"}
COMPUTED = {"linalg.ryser_terms"}

# layers a workload does not use: their per-layer metrics must read zero
IDLE_LAYERS = {
    "haar-linear": ("gadget.", "nonlinear."),
    "gadget-synthesis": ("fock.",),
}


class BenchError(Exception):
    """The benchmark cannot run here (missing package, bad inputs)."""


def import_package():
    """Import nlboson from this checkout's src/ and return (module, seconds)."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    try:
        import nlboson
        import nlboson.cli  # the package does not import its CLI itself
    except ImportError as exc:
        raise BenchError(f"cannot import nlboson from {SRC}: {exc}") from None
    if not Path(nlboson.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"nlboson was imported from {nlboson.__file__}, not from {SRC}")
    return nlboson, time.perf_counter() - t0


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def calibration_s() -> float:
    """Seconds one run of the fixed calibration kernel takes right now."""
    t0 = time.perf_counter()
    table = {}
    for a in range(12):
        for b in range(12):
            for c in range(12):
                table[(a, b, c)] = [a] * (a % 3) + [b]
    x = 0.0
    for k in range(3000):
        x += (k * 0.5) ** 0.5
    return time.perf_counter() - t0


def speed_scale(samples: int = 9) -> float:
    """Factor that converts wall seconds measured now to reference seconds."""
    return CALIBRATION_REF_S / statistics.median(calibration_s() for _ in range(samples))


def rolling_scales(calibrations: list[float]) -> list[float]:
    """Per-op factor from the median kernel time of the ops around it."""
    n, w = len(calibrations), CALIBRATION_WINDOW
    return [CALIBRATION_REF_S / statistics.median(calibrations[max(0, i - w):i + w + 1])
            for i in range(n)]


def set_up(wl) -> float:
    """One set-up: inputs, gadget loading and verification, one warm-up op."""
    t0 = time.perf_counter()
    wl.setup()
    inp = wl.make_input(10**6)  # index no measured op uses
    reason = wl.check(inp, wl.op(inp))
    if reason is not None:
        raise BenchError(f"warm-up op failed its check: {reason}")
    return time.perf_counter() - t0


def run_op(wl, inp, around=contextlib.nullcontext):
    """(seconds, output, failure reason or None); the check is not timed.

    `around` is a context manager entered for the op alone, such as a tracer.
    """
    t0 = time.perf_counter()
    try:
        with around():
            out = wl.op(inp)
    except Exception as exc:  # a failed op is counted, not fatal
        dt = time.perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        return dt, None, f"{type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t0
    try:
        reason = wl.check(inp, out)
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        reason = f"check raised {type(exc).__name__}: {exc}"
    if reason is not None:
        print(f"op failed its check: {reason}", file=sys.stderr)
    return dt, out, reason


def measure(wl, seconds: float, max_ops: int | None = None):
    """Closed loop: run ops i = 0, 1, ... until they have taken `seconds` of
    wall time in total (checks and input generation not counted), or exactly
    `max_ops`.  Returns (wall times, calibration times, failures)."""
    times, calibrations, failed = [], [], 0
    total = 0.0
    while True:
        inp = wl.make_input(len(times))
        calibrations.append(calibration_s())
        dt, _, reason = run_op(wl, inp)
        times.append(dt)
        total += dt
        failed += reason is not None
        if (len(times) >= max_ops) if max_ops is not None else (total >= seconds):
            return times, calibrations, failed


def percentile(values, q: int) -> float:
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1]) \
        if len(values) > 1 else float(values[0])


def timings(times: list[float]) -> tuple[float, float, float]:
    """(ops per second, p50 ms, p90 ms) of a list of op times in seconds."""
    return (len(times) / sum(times), 1e3 * statistics.median(times),
            1e3 * percentile(times, 90))


def end_to_end(wl, import_s: tuple[float, float], seconds: float,
               max_ops: int | None = None):
    """`import_s` is the package import time as (reference s, wall s)."""
    setups = []
    for _ in range(SETUP_REPEATS):
        scale = speed_scale()
        setups.append((set_up(wl), scale))
    times, calibrations, failed = measure(wl, seconds, max_ops)
    scales = rolling_scales(calibrations)
    ops_per_s, p50, p90 = timings([t * f for t, f in zip(times, scales)])
    wall_ops_per_s, wall_p50, wall_p90 = timings(times)
    metrics = {
        "ops_per_s": ops_per_s,
        "op_p50_ms": p50,
        "op_p90_ms": p90,
        "setup_s": import_s[0] + statistics.median(t * f for t, f in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {
        "failed_frac": (failed / len(times), "ratio"),
        "wall_ops_per_s": (wall_ops_per_s, "1/s"),
        "wall_op_p50_ms": (wall_p50, "ms"),
        "wall_op_p90_ms": (wall_p90, "ms"),
        "wall_setup_s": (import_s[1] + statistics.median(t for t, _ in setups), "s"),
        "host_speed": (statistics.median(scales), "x"),
    }
    extra.update(wl.report(sum(times), len(times) - failed))
    return len(times), failed, metrics, extra


def traced(wl, nb, seconds: float, trace_ops: int, spans_path: Path | None):
    """Pairs of passes over a fixed op list: plain, then traced."""
    from tracing import Tracer, write_spans

    wl.setup()
    tracer = Tracer(nb)
    passes, overheads = [], []
    attempted = failed = 0
    spans = None
    deadline = time.perf_counter() + seconds
    while True:
        # inputs are rebuilt for every pass: they may carry generator state
        plain, calibrations = 0.0, []
        for i in range(trace_ops):
            inp = wl.make_input(i)
            calibrations.append(calibration_s())
            dt, _, reason = run_op(wl, inp)
            plain += dt
            attempted += 1
            failed += reason is not None
        plain *= CALIBRATION_REF_S / statistics.median(calibrations)
        tracer.reset()
        counted: dict[str, float] = {}
        traced_s, calibrations = 0.0, []
        for i in range(trace_ops):
            inp = wl.make_input(i)
            calibrations.append(calibration_s())
            dt, out, reason = run_op(wl, inp, tracer.active)
            traced_s += dt
            attempted += 1
            failed += reason is not None
            if reason is None:
                for key, value in wl.layer_counts(inp, out).items():
                    counted[key] = counted.get(key, 0.0) + value
        scale = CALIBRATION_REF_S / statistics.median(calibrations)
        totals = tracer.layer_totals()
        for name in totals:
            if name.endswith("_s"):
                totals[name] *= scale
        totals.update(counted)
        passes.append(totals)
        overheads.append(traced_s * scale - plain)
        if spans is None:
            spans = tracer.export_spans()
        if time.perf_counter() >= deadline:
            break
    metrics = {}
    for name in PER_LAYER_UNITS:
        if name == "trace.overhead_s":
            value = statistics.median(overheads) / trace_ops
        else:
            value = statistics.median(p.get(name, 0.0) for p in passes)
            if name not in NOT_PER_OP:
                value /= trace_ops
        metrics[name] = value
    if spans_path is not None:
        write_spans(spans_path, spans)
    return attempted, failed, metrics, {"traced_passes": (len(passes), "count")}


def print_metrics(metrics: dict, units: dict, extra: dict) -> None:
    for name, value in metrics.items():
        label = " (computed)" if name in COMPUTED else ""
        print(f"  {name} = {value:.6g} {units[name]}{label}")
    for name, (value, unit) in extra.items():
        print(f"  {name} = {value:.6g} {unit}")


def run_one(nb, import_s: tuple[float, float], env: dict, workload: str, seed: int, seconds: float,
            trace: bool) -> dict:
    # workloads.py imports numpy, so it loads only after the timed package import
    from workloads import WORKLOADS

    if workload not in WORKLOADS:
        raise BenchError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    RESULTS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=RESULTS))
    try:
        wl = WORKLOADS[workload](nb, seed, workdir)
        stem = f"{workload}-seed{seed}-trace{int(trace)}"
        if trace:
            attempted, failed, metrics, extra = traced(
                wl, nb, seconds, wl.trace_ops, RESULTS / f"{stem}-spans.json.gz")
            units = PER_LAYER_UNITS
        else:
            attempted, failed, metrics, extra = end_to_end(wl, import_s, seconds)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"workload {workload}: seed={seed} seconds={seconds:g} trace={int(trace)} "
          f"ops={attempted} failed={failed}")
    print_metrics(metrics, units, extra)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "environment": env, "extra": extra, **result}
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    return result


def smoke(nb, import_s: tuple[float, float], env: dict) -> int:
    """Two ops per workload, both modes; assert every named metric appears."""
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    want_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    named = [w["name"] for w in spec["workloads"]]
    if named != list(WORKLOADS):
        problems.append(f"BENCHMARK.json names workloads {named}, workloads.py {list(WORKLOADS)}")
    RESULTS.mkdir(exist_ok=True)
    for name, cls in WORKLOADS.items():
        workdir = Path(tempfile.mkdtemp(prefix=f"smoke-{name}-", dir=RESULTS))
        try:
            wl = cls(nb, 0, workdir)
            n, failed, e2e, extra = end_to_end(wl, import_s, 0.0, max_ops=2)
            print(f"workload {name}: end to end, {n} ops")
            print_metrics(e2e, END_TO_END_UNITS, extra)
            t_n, t_failed, layers, t_extra = traced(wl, nb, 0.0, 2, None)
            print(f"workload {name}: per layer, {t_n} ops")
            print_metrics(layers, PER_LAYER_UNITS, t_extra)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        for metrics, units, want in ((e2e, END_TO_END_UNITS, want_e2e),
                                     (layers, PER_LAYER_UNITS, want_layer)):
            for metric, unit in want.items():
                if metric not in metrics or units.get(metric) != unit:
                    problems.append(f"{name}: {metric} [{unit}] not printed")
        if extra["failed_frac"][0] != 0 or failed or t_failed:
            problems.append(f"{name}: {failed + t_failed} ops failed")
        for prefix in IDLE_LAYERS.get(name, ()):
            busy = [m for m, v in layers.items() if m.startswith(prefix) and v != 0]
            if busy:
                problems.append(f"{name}: idle layer metrics are non-zero: {busy}")
    print(f"environment: {json.dumps(env)}")
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 0 if not problems else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one of the names in BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload for two ops and check the metric set")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    try:
        scale = speed_scale()
        nb, wall_import = import_package()
        import_s = (wall_import * scale, wall_import)
        env = environment()
        if args.smoke:
            return smoke(nb, import_s, env)
        result = run_one(nb, import_s, env, args.workload, args.seed, args.seconds,
                         bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"environment: {json.dumps(env)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
