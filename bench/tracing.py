"""Spans around calls into runtumble, recorded from outside the package.

Each wrapped function records a span (name, start, end, parent) in a
Recorder held in memory. Nothing inside the package changes: a function is
wrapped by rebinding its name in every runtumble module that imported it,
and a method by rebinding it on its class. A span's self time is its
duration minus the durations of its direct children; the program runs on
one thread, so child spans never overlap.

Base spans (the step, the monitor calls, certification and the field
solve) are always recorded, because the end-to-end figures need them. The
layer spans are installed only for a traced run, and record only while
`Recorder.tracing` is set.
"""

import functools
import statistics
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np


class Recorder:
    """In-memory spans of one round, plus the last call of selected spans."""

    def __init__(self):
        self.tracing = False
        self.reset()

    def reset(self):
        self.names, self.starts, self.ends, self.parents, self.moved = [], [], [], [], []
        self.last = {}
        self._open = []

    def first_start(self, name):
        return next(s for n, s in zip(self.names, self.starts) if n == name)

    def spans(self, name):
        return [i for i, n in enumerate(self.names) if n == name]

    def duration(self, i):
        return self.ends[i] - self.starts[i]


def _wrap(rec, name, fn, layer, keep, moved):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if layer and not rec.tracing:
            return fn(*args, **kwargs)
        i = len(rec.names)
        rec.names.append(name)
        rec.parents.append(rec._open[-1] if rec._open else -1)
        rec.ends.append(0.0)
        rec.moved.append(0)
        rec._open.append(i)
        rec.starts.append(perf_counter())
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.ends[i] = perf_counter()
            rec._open.pop()
        if moved:
            rec.moved[i] = args[0].nbytes + out.nbytes
        if keep:
            rec.last[name] = (args, out)
        return out
    return wrapper


def _targets(traced):
    from runtumble import cli, estimator, fields, grid, interp, kernels, norms, simulate, transport

    # (span name, owner, attribute, keep last call, count bytes moved)
    base = [
        ("simulate.step", simulate.Simulation, "step", True, False),
        ("estimator.monitor", estimator.GronwallMonitor, "after_step", False, False),
        ("estimator.monitor", estimator.TermTracker, "after_step", False, False),
        ("estimator.monitor", estimator.BootstrapMonitor, "after_step", False, False),
        ("estimator.certify", estimator.GronwallMonitor, "certify", True, False),
        ("estimator.certify", estimator.TermTracker, "certify", True, False),
        ("estimator.certify", estimator.BootstrapMonitor, "report", True, False),
        ("fields.solve", fields, "solve_field", True, False),
        ("fields.solve", fields, "newtonian_potential", True, False),
    ]
    layer = [
        ("grid.layout", grid.DistributionField, "compact", False, False),
        ("grid.layout", grid, "field_from_compact", False, False),
        ("grid.density", grid, "density", False, False),
        ("grid.density", grid, "total_mass", False, False),
        ("grid.density", grid, "boundary_shell_mass", False, False),
        ("interp.shift", interp, "axis_shift", False, True),
        ("interp.stack", interp, "velocity_offset_stack", False, False),
        ("transport", transport, "transport_step", False, False),
        ("estimator.free_solution", transport, "exact_free_solution", False, False),
        ("fields.split", fields, "split_short_long", False, False),
        ("kernels.components", kernels, "kernel_components", False, False),
        ("kernels.scatter", kernels, "scattering_apply", False, False),
        ("norms", norms, "mixed_norm", False, False),
        ("norms", norms, "compact_mixed_norm", False, False),
        ("norms", norms, "spatial_norm", False, False),
        ("cli.snapshot", cli, "_snapshot", False, False),
        ("cli.write", cli, "write_csv", False, False),
        ("cli.write", cli, "_monitor_columns", False, False),
    ]
    return [(t, False) for t in base] + ([(t, True) for t in layer] if traced else [])


_BASE = {"simulate.step", "estimator.monitor", "estimator.certify", "fields.solve"}


def install(rec, traced):
    """Wrap the base functions, and the layer functions too when traced."""
    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "runtumble"]
    for (name, owner, attr, keep, moved), layer in _targets(traced):
        orig = getattr(owner, attr)
        wrapped = _wrap(rec, name, orig, layer, keep, moved)
        holders = [owner] if isinstance(owner, type) else \
            [m for m in modules if getattr(m, attr, None) is orig]
        for holder in holders:
            setattr(holder, attr, wrapped)


def step_times(rec):
    """Wall time of each Simulation.step minus the monitor calls inside it."""
    steps = rec.spans("simulate.step")
    inner = dict.fromkeys(steps, 0.0)
    for j, p in enumerate(rec.parents):
        if p in inner and rec.names[j] == "estimator.monitor":
            inner[p] += rec.duration(j)
    return [rec.duration(i) - inner[i] for i in steps]


def layer_spans(rec, t0):
    """Spans of the layer functions that start at or after t0: the calls
    that only a traced run records."""
    return sum(1 for n, s in zip(rec.names, rec.starts) if s >= t0 and n not in _BASE)


def span_cost(calls=20000, repeats=5):
    """Seconds that recording one span adds to a call: a wrapped no-op
    against the bare one, the median of a few repeats."""
    rec = Recorder()
    rec.tracing = True

    def noop(x):
        return x

    wrapped = _wrap(rec, "noop", noop, True, False, False)
    costs = []
    for _ in range(repeats):
        rec.reset()
        t0 = perf_counter()
        for _ in range(calls):
            noop(None)
        t1 = perf_counter()
        for _ in range(calls):
            wrapped(None)
        t2 = perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(costs)


def totals(rec, t0):
    """Per span name: self time, inclusive time, calls and bytes moved,
    over the spans that start at or after t0; plus the offset stacks
    that kernel_components builds."""
    n = len(rec.names)
    dur = [rec.duration(i) for i in range(n)]
    self_t = list(dur)
    for i, p in enumerate(rec.parents):
        if p >= 0:
            self_t[p] -= dur[i]
    out = defaultdict(lambda: {"self": 0.0, "total": 0.0, "calls": 0, "moved": 0})
    for i in range(n):
        if rec.starts[i] < t0:
            continue
        acc = out[rec.names[i]]
        acc["self"] += self_t[i]
        acc["total"] += dur[i]
        acc["calls"] += 1
        acc["moved"] += rec.moved[i]
        p = rec.parents[i]
        if rec.names[i] == "interp.stack" and p >= 0 and rec.names[p] == "kernels.components":
            out["kernels.stack_calls"]["calls"] += 1
    return out


def held_bytes(obj):
    """Bytes of array data and numbers reachable through lists, tuples and dicts."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (float, int, np.floating, np.integer)):
        return 8
    if isinstance(obj, (list, tuple)):
        return sum(held_bytes(x) for x in obj)
    if isinstance(obj, dict):
        return sum(held_bytes(x) for x in obj.values())
    return 0


def write_spans(path, rows):
    """rows: (round, name, start, end, parent) tuples; times in seconds."""
    with open(path, "w") as fh:
        fh.write("round,name,start_s,end_s,parent\n")
        for r, name, start, end, parent in rows:
            fh.write(f"{r},{name},{start!r},{end!r},{parent}\n")
