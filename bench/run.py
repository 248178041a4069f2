"""Benchmark of the runtumble split solver and its certificate monitors.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in this process, from the sources under src/ next to
this directory, as whole rounds for about S seconds. The last line of
standard output is one JSON object: `correct`, `attempted`, `failed` and
`metrics`. Untraced runs (--trace 0) report the end-to-end metrics;
traced runs (--trace 1) report the per-layer metrics. See README.md.
"""

import os

# BLAS and OpenMP pools are pinned to one thread before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import struct  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import reference  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

WARM_STEPS = 2        # steps of the unmeasured warm-up round
MIN_ROUNDS = 2        # measured rounds in a run, however long they take
SETUPS_PER_ROUND = 4  # set-up-only runs before each round, on top of its own set-up
CALIBRATION_REPS = 5  # timings of the calibration kernel per calibration


def parse_args(argv, names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def calibration_kernel(a):
    """A fixed kernel on an array shaped like the workload's f at its velocity
    nodes: one clamped cubic shift along each position axis, the kind of
    operation that dominates a step. It is the benchmark's own code
    (reference.py), so a change to runtumble leaves its time alone, while
    the host's speed moves it as it moves a step (README, "Host factor")."""
    out = a
    for axis in range(a.ndim - 1):
        out = reference.cubic_shift(out, 0.3, 1.0, axis)
    return out


def calibrate(shape):
    """Median time of the calibration kernel after one untimed call. It runs
    in a forked child, so that its arrays stay out of this process's peak RSS."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            a = np.random.default_rng(0).random(shape)
            calibration_kernel(a)
            times = []
            for _ in range(CALIBRATION_REPS):
                t0 = perf_counter()
                calibration_kernel(a)
                times.append(perf_counter() - t0)
            os.write(write_end, struct.pack("d", statistics.median(times)))
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or len(data) != 8:
        raise RuntimeError("the calibration child failed")
    return struct.unpack("d", data)[0]


def measure(work, rec, seconds, traced):
    """Whole rounds, each after a calibration and a few set-up-only runs, for
    `seconds`: a next round starts while the longest one so far would still
    end in time, and there are at least MIN_ROUNDS. One more calibration
    follows the last round."""
    rounds, calibrations, spans = [], [calibrate(work.phase_shape)], []
    start, longest = perf_counter(), 0.0
    while len(rounds) < MIN_ROUNDS or perf_counter() - start + longest <= seconds:
        t0 = perf_counter()
        setups = []
        for _ in range(SETUPS_PER_ROUND):
            setups.append(work.setup_only())
            gc.collect()
        r = work.round(rec, work.n_steps, traced)
        gc.collect()
        r.setups = setups + [r.setup_s]
        calibrations.append(calibrate(work.phase_shape))
        if traced:
            r.totals = tracing.totals(rec, r.t_first)
            r.layer_spans = tracing.layer_spans(rec, r.t_first)
            spans += [(len(rounds), rec.names[i], rec.starts[i] - r.t_first,
                       rec.ends[i] - r.t_first, rec.parents[i]) for i in range(len(rec.names))]
        rounds.append(r)
        longest = max(longest, perf_counter() - t0)
    return rounds, calibrations, spans


def end_to_end(rounds, factor):
    """Medians over the run, times multiplied by the host factor. The first
    step of each round is left out."""
    return {
        "setup_s": (factor * statistics.median(s for r in rounds for s in r.setups), "s"),
        "step_ms": (factor * 1e3 * statistics.median(s for r in rounds for s in r.step_s[1:]), "ms"),
        "run_s": (factor * statistics.median(r.run_s for r in rounds), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
    }


def per_layer(traced, span_s):
    steps = sum(r.steps for r in traced)
    n = len(traced)

    def total(name, key):
        return sum(r.totals[name][key] if name in r.totals else 0 for r in traced)

    def ms(*names):
        return (1e3 * sum(total(x, "self") for x in names) / steps, "ms")

    def calls(*names):
        return (sum(total(x, "calls") for x in names) / steps, "count")

    return {
        "grid.layout_ms": ms("grid.layout"),
        "grid.layout_calls": calls("grid.layout"),
        "grid.density_ms": ms("grid.density"),
        "interp.shift_ms": ms("interp.shift"),
        "interp.axis_shifts": calls("interp.shift"),
        "interp.shift_mb": (total("interp.shift", "moved") / 1e6 / steps, "MB"),
        "interp.stack_ms": ms("interp.stack"),
        "transport.ms": ms("transport"),
        "fields.solve_ms": ms("fields.solve"),
        "fields.split_ms": ms("fields.split"),
        "kernels.components_ms": ms("kernels.components"),
        "kernels.offset_stacks": calls("kernels.stack_calls"),
        "kernels.scatter_ms": ms("kernels.scatter"),
        "simulate.self_ms": ms("simulate.step"),
        "estimator.monitor_s": (total("estimator.monitor", "total") / n, "s"),
        "estimator.certify_s": (total("estimator.certify", "total") / n, "s"),
        "estimator.free_solutions": calls("estimator.free_solution"),
        "estimator.history_mb": (statistics.median(r.history_bytes for r in traced) / 1e6, "MB"),
        "norms.ms": ms("norms"),
        "norms.calls": calls("norms"),
        "cli.snapshot_ms": ms("cli.snapshot"),
        "cli.write_ms": ms("cli.write"),
        "cli.output_mb": (statistics.median(r.output_bytes for r in traced) / 1e6, "MB"),
        "trace.overhead_s": (span_s * statistics.median(r.layer_spans for r in traced), "s"),
    }


def main(argv=None):
    if not (SRC / "runtumble" / "__init__.py").is_file():
        print(f"error: runtumble sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    args = parse_args(argv, list(workloads.WORKLOADS))

    rec = tracing.Recorder()
    tracing.install(rec, traced=bool(args.trace))
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    work = workloads.WORKLOADS[args.workload](args.seed, str(workdir))
    try:
        work.round(rec, WARM_STEPS, False)
        gc.collect()
        measured, calibrations, spans = measure(work, rec, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    checks = [ok for r in measured for _, ok in r.checks]
    failed = sum(r.steps - r.done for r in measured) + checks.count(False)
    if args.trace:
        OUT.mkdir(exist_ok=True)
        tracing.write_spans(OUT / f"trace-{args.workload}-seed{args.seed}.csv", spans)
        metrics = per_layer(measured, tracing.span_cost())
    else:
        # the host factor: the reference calibration time over this run's median
        metrics = end_to_end(measured, work.calibration_s / statistics.median(calibrations))
    for r in measured:
        bad = [name for name, ok in r.checks if not ok]
        if bad:
            print(f"failed checks: {', '.join(bad)}")
    raw = {k: round(v, 6) for k, (v, _) in end_to_end(measured, 1.0).items()}
    print(f"{args.workload} seed={args.seed} inputs={work.inputs()} rounds={len(measured)} "
          f"steps/round={work.n_steps} step samples={sum(len(r.step_s) - 1 for r in measured)} "
          f"set-ups={sum(len(r.setups) for r in measured)} "
          f"calibration_ms={[round(1e3 * c, 2) for c in calibrations]} unscaled={raw}")
    print(json.dumps({
        "correct": all(checks),
        "attempted": sum(r.steps + len(r.checks) for r in measured),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
