"""Command-line entry point: scenario runner, exponent tools, CSV emission.

Subcommands:
  simulate <config>    run the split scheme, write time-series / snapshot CSVs
  exponents solve|region|check ...
  dispersion <config>  decay-rate fits for free transport

Configs are flat "key = value" text with '#' comments and a strict schema:
unknown keys are errors. Exit codes: 0 success, 1 config error (a bad
invocation is one too), 2 runtime guard abort, 3 check failed.
"""

import argparse
import itertools
import math
import os
import sys
from fractions import Fraction

import numpy as np

from runtumble.estimator import (BootstrapMonitor, GronwallMonitor, TermTracker,
                                 dispersion_decay_fit)
from runtumble.exponents import (ExponentQuadruple, admissible_region, exponent_ge,
                                 is_exponent, solve_numerology, strichartz_admissible)
from runtumble.freeflow import GaussianBallData
from runtumble.grid import GridSpec, build_grid, field_mass
from runtumble.kernels import KernelSpec
from runtumble.norms import NormSpec, mixed_norm, spatial_norm
from runtumble.simulate import GuardAbort, Simulation
from runtumble.transport import SeparableData

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_GUARD = 2
EXIT_CHECK = 3


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

_REQUIRED = None  # the default of a key that a config must set if its subcommand reads it

# key: (type, default or _REQUIRED)
_CONFIG = {
    "dimension": (int, _REQUIRED),
    "box_half_length": (float, _REQUIRED),
    "nx": (int, _REQUIRED),
    "nv": (int, _REQUIRED),
    "velocity_shape": (str, "ball"),
    "r_min": (float, 0.0),
    "r_max": (float, 1.0),
    "dt": (float, _REQUIRED),
    "t_end": (float, _REQUIRED),
    "beta": (int, 1),
    "kernel_family": (str, "constant"),
    "kernel_C": (float, 1.0),
    "memory_epsilon": (float, 1.0),
    "kernel_signs": (str, "+,-,+,-"),
    "init_kind": (str, "gaussian"),
    "init_amplitude": (float, 1.0),
    "init_width": (float, 1.0),
    "norms": (str, ""),
    "monitors": (str, ""),
    "snapshot_every": (int, 0),
    "output_dir": (str, "."),
}

_MONITORS = {
    "gronwall_thm2": lambda: GronwallMonitor(p=1.5),
    "term_tracker_thm1": lambda: TermTracker(p=9.0 / 5.0, q=9.0 / 7.0, stride=20),
    "bootstrap_thm3": lambda: BootstrapMonitor(a=1.5),
}


class _Config(dict):
    """A parsed config. Reading a key with no default that the file does not
    set is a config error, so each subcommand requires the keys it reads."""

    def __missing__(self, key):
        raise ConfigError(f"missing required key {key!r}")


def parse_exponent(token):
    """One exponent token: 'inf', an integer/decimal, or a fraction 'a/b'."""
    token = token.strip()
    if token in ("inf", "Inf", "INF"):
        return math.inf
    try:
        return float(Fraction(token))
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad exponent {token!r}") from exc


def parse_config(path):
    """Read a flat key=value config; strict schema, typed values, finite floats.
    A key with no default is checked only when a subcommand reads it (_Config)."""
    raw = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, line in enumerate(lines, 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line.rstrip()!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in _CONFIG:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        kind = _CONFIG[key][0]
        try:
            raw[key] = kind(value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {value!r}") from exc
        if kind is float and not math.isfinite(raw[key]):
            raise ConfigError(f"{path}:{lineno}: {key} must be finite, got {value!r}")
    cfg = _Config((key, default) for key, (_, default) in _CONFIG.items()
                  if default is not _REQUIRED)
    cfg.update(raw)
    if cfg["snapshot_every"] < 0:
        raise ConfigError(f"snapshot_every must be >= 0, got {cfg['snapshot_every']}")
    return cfg


def parse_norm_list(text):
    """Semicolon-separated 'p,q' pairs -> [(p_token, q_token, p, q), ...]: distinct, p >= q."""
    out = []
    for item in filter(None, (chunk.strip() for chunk in text.split(";"))):
        parts = item.split(",")
        if len(parts) != 2:
            raise ConfigError(f"norms entry {item!r} is not a 'p,q' pair")
        ptok, qtok = parts[0].strip(), parts[1].strip()
        p, q = parse_exponent(ptok), parse_exponent(qtok)
        try:
            NormSpec(p=p, q=q)
        except ValueError as exc:
            raise ConfigError(f"norms entry {item!r}: {exc}") from exc
        if not exponent_ge(p, q):
            raise ConfigError(f"norms entry {item!r}: mixed norms here use p >= q")
        if any((p, q) == (seen[2], seen[3]) for seen in out):
            raise ConfigError(f"norms entry {item!r} repeats an earlier entry")
        out.append((ptok, qtok, p, q))
    return out


def parse_signs(text):
    table = {"+": 1, "-": -1}
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 4 or any(p not in table for p in parts):
        raise ConfigError(f"kernel_signs must be four of '+'/'-', got {text!r}")
    return tuple(table[p] for p in parts)


# the fields of each spec that a config builds, and the config key of each
_GRID_KEYS = {"dim": "dimension", "box_half_length": "box_half_length", "nx": "nx", "nv": "nv",
              "velocity_shape": "velocity_shape", "r_min": "r_min", "r_max": "r_max", "dt": "dt"}
_KERNEL_KEYS = {"family": "kernel_family", "coefficient": "kernel_C",
                "epsilon": "memory_epsilon", "signs": "kernel_signs"}
_DATA_KEYS = {"kind": "init_kind", "amplitude": "init_amplitude", "width": "init_width"}
_BALL_KEYS = {"amplitude": "init_amplitude", "sigma": "init_width", "R": "r_max", "d": "dimension"}


def _spec(cls, cfg, keys, **values):
    """cls built from the config keys of `keys` (field: key), with `values`
    in place of a key's raw text; its rules failing are a config error whose
    message starts with those keys."""
    args = {field: cfg[key] for field, key in keys.items()} | values
    try:
        return cls(**args)
    except ValueError as exc:
        raise ConfigError(f"{', '.join(keys.values())}: {exc}") from exc


def build_scene(cfg):
    """Grid, kernel and initial data from a parsed config; their rules
    failing are a config error."""
    spec = _spec(GridSpec, cfg, _GRID_KEYS)
    kernel = _spec(KernelSpec, cfg, _KERNEL_KEYS, signs=parse_signs(cfg["kernel_signs"]))
    f0 = _spec(SeparableData, cfg, _DATA_KEYS)
    return build_grid(spec), kernel, f0


# ---------------------------------------------------------------------------
# CSV helpers
# ---------------------------------------------------------------------------

def _fmt(value):
    if isinstance(value, str):
        return value
    return format(float(value), ".17g")


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _make_monitors(names):
    monitors = []
    for name in filter(None, (n.strip() for n in names.split(","))):
        if name not in _MONITORS:
            raise ConfigError(f"unknown monitor {name!r}; known: {', '.join(_MONITORS)}")
        if any(name == seen for seen, _ in monitors):
            raise ConfigError(f"monitor {name!r} is listed twice")
        monitors.append((name, _MONITORS[name]()))
    return monitors


def _snapshot_coordinates(grid):
    """Each snapshot row's leading "x_0,...,x_(d-1)," text, in C order of the positions."""
    cells = [_fmt(x) + "," for x in grid.x.tolist()]
    return ["".join(row) for row in itertools.product(cells, repeat=grid.dim)]


def _snapshot(sim, coordinates, step, outdir):
    """Write the density at one state; `coordinates` is _snapshot_coordinates(sim.grid).

    Only the cells of f's box are formatted: the density is +0.0 outside
    it (grid.density), so every other row is its coordinates and "0".
    """
    grid = sim.grid
    d = grid.dim
    rows = [c + "0\n" for c in coordinates]
    box = sim.f.box
    cells = np.arange(len(rows)).reshape(grid.x_shape)[box].ravel().tolist()
    for i, r in zip(cells, sim.rho.values[box].ravel().tolist()):
        rows[i] = coordinates[i] + _fmt(r) + "\n"
    path = os.path.join(outdir, f"snapshot_{step:06d}.csv")
    with open(path, "w", newline="") as fh:
        fh.write(f"# t={_fmt(sim.t)} dimension={d} nx={grid.spec.nx} field=rho\n")
        fh.write(",".join([f"x_{a}" for a in range(d)] + ["rho"]) + "\n")
        fh.write("".join(rows))


def run_simulate(config_path):
    cfg = parse_config(config_path)
    if not cfg["t_end"] > 0:
        raise ConfigError(f"t_end must be > 0, got {cfg['t_end']}")
    grid, kernel, f0 = build_scene(cfg)
    norm_list = parse_norm_list(cfg["norms"])

    try:
        sim = Simulation(grid, f0, kernel, beta=cfg["beta"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    monitors = _make_monitors(cfg["monitors"])
    n_steps = int(round(cfg["t_end"] / cfg["dt"]))
    for name, mon in monitors:
        if name == "term_tracker_thm1" and n_steps < mon.stride:
            raise ConfigError(f"{name} evaluates every {mon.stride} steps, "
                              f"but the run has {n_steps}")
    try:
        for _, mon in monitors:
            sim.attach(mon)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    # the output directory is made only once the config has passed every check
    outdir = cfg["output_dir"]
    os.makedirs(outdir, exist_ok=True)

    rows = []
    specs = [NormSpec(p=p, q=q) for _, _, p, q in norm_list]

    def record():
        row = [sim.t, field_mass(sim.rho), *sim.f.extrema()]
        for spec in specs:
            # f >= 0, so an L^p_x L^1_v norm is the L^p norm of the density
            # the step already computed, bit for bit (README, "Numerical notes")
            row.append(spatial_norm(sim.rho.values, grid, spec.p) if spec.q == 1
                       else mixed_norm(sim.f, spec))
        rows.append(row)

    guard_message = None
    record()
    every = cfg["snapshot_every"]
    if every > 0:
        coordinates = _snapshot_coordinates(grid)
        _snapshot(sim, coordinates, 0, outdir)
    for step in range(1, n_steps + 1):
        try:
            sim.step()
        except GuardAbort as exc:
            guard_message = str(exc)
            break
        record()
        if every > 0 and step % every == 0:
            _snapshot(sim, coordinates, step, outdir)

    header = ["t", "mass", "min_f", "max_f"]
    header += [f"norm_{ptok}_{qtok}" for ptok, qtok, _, _ in norm_list]
    for name, cols in _monitor_columns(monitors):
        header.append(name)
        for row, value in zip(rows, cols, strict=True):
            row.append(value)
    write_csv(os.path.join(outdir, "timeseries.csv"), header, rows)

    if guard_message is not None:
        print(f"guard abort: {guard_message}", file=sys.stderr)
        return EXIT_GUARD
    print(f"wrote {os.path.join(outdir, 'timeseries.csv')} ({len(rows)} rows)")
    return EXIT_OK


def _monitor_columns(monitors):
    """Each monitor's CSV columns (name, one raw value per row), in order. A
    monitor records at attach and after each completed step, as `record`
    does, and a guard raises before after_step, so its columns have one
    value per row."""
    return [col for _, mon in monitors for col in mon.columns()]


# ---------------------------------------------------------------------------
# exponents
# ---------------------------------------------------------------------------

def run_exponents_solve(args):
    q = parse_exponent(args.q)
    try:
        chain = solve_numerology(q)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    for label, value in (("p", chain.p), ("lambda", chain.lam), ("theta", chain.theta),
                         ("c", chain.c), ("b", chain.b), ("eps_interp", chain.eps_interp)):
        print(f"{label} = {_fmt(value)}")
    return EXIT_OK


def run_exponents_region(args):
    try:
        qs, ps, mask = admissible_region(step=args.step)
    except ValueError as exc:
        raise ConfigError(f"--step: {exc}") from exc
    header = ["q_prime", "p_prime", "in_region"]
    rows = [(q, p, int(mask[i, j])) for i, q in enumerate(qs) for j, p in enumerate(ps)]
    write_csv(args.output, header, rows)
    n_in = int(mask.sum())
    print(f"wrote {args.output}: {n_in} of {mask.size} points inside")
    return EXIT_OK


def run_exponents_check(args):
    values = {}
    for name in ("r", "p", "q", "a"):
        token = getattr(args, name)
        values[name] = parse_exponent(token)
        if not is_exponent(values[name]):
            raise ConfigError(f"{name} = {token} must be >= 1 or inf")
    if args.dim < 1:
        raise ConfigError(f"--dim must be >= 1, got {args.dim}")
    quad = ExponentQuadruple(d=args.dim, **values)
    ok, diag = strichartz_admissible(quad)
    print("admissible" if ok else "not admissible")
    for key, val in sorted(diag.items()):
        print(f"  {key} = {val}")
    return EXIT_OK if ok else EXIT_CHECK


# ---------------------------------------------------------------------------
# dispersion
# ---------------------------------------------------------------------------

def run_dispersion(config_path):
    cfg = parse_config(config_path)
    norm_list = parse_norm_list(cfg["norms"])
    if not norm_list:
        raise ConfigError("dispersion needs at least one 'p,q' entry in norms")
    if cfg["velocity_shape"] != "ball" or cfg["r_min"] != 0.0:
        raise ConfigError("dispersion fits use the ball velocity set with r_min = 0, "
                          f"not {cfg['velocity_shape']!r} with r_min = {cfg['r_min']}")
    if cfg["init_kind"] != "gaussian":
        raise ConfigError("dispersion fits use gaussian initial data")
    data = _spec(GaussianBallData, cfg, _BALL_KEYS)
    outdir = cfg["output_dir"]
    os.makedirs(outdir, exist_ok=True)
    header = ["p", "q", "fitted_slope", "theoretical_slope", "relative_deviation",
              "inequality_margin", "passed"]
    rows = []
    all_ok = True
    for ptok, qtok, p, q in norm_list:
        fit = dispersion_decay_fit(data, p, q)
        ok = fit.relative_deviation <= 0.10 and fit.inequality_ok
        all_ok = all_ok and ok
        rows.append([ptok, qtok, fit.fitted_slope, fit.theoretical_slope,
                     fit.relative_deviation, fit.inequality_margin,
                     "pass" if ok else "fail"])
        print(f"({ptok},{qtok}): slope {fit.fitted_slope:.4f} vs {fit.theoretical_slope:.4f} "
              f"-> {'pass' if ok else 'fail'}")
    write_csv(os.path.join(outdir, "dispersion.csv"), header, rows)
    return EXIT_OK if all_ok else EXIT_CHECK


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are config errors (exit 1):
    argparse's own exit code for them, 2, is a guard abort's here."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def make_parser():
    parser = _Parser(
        prog="runtumble",
        description="Phase-space transport-scattering laboratory with estimate certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a configured scenario")
    p_sim.add_argument("config")

    p_exp = sub.add_parser("exponents", help="exponent algebra tools")
    esub = p_exp.add_subparsers(dest="subcommand", required=True)
    p_solve = esub.add_parser("solve", help="derive the exponent chain for a given q")
    p_solve.add_argument("q")
    p_region = esub.add_parser("region", help="rasterize the admissible exponent region")
    p_region.add_argument("--step", type=float, default=0.05)
    p_region.add_argument("--output", default="region.csv")
    p_check = esub.add_parser("check", help="check a quadruple (r p q a)")
    p_check.add_argument("r")
    p_check.add_argument("p")
    p_check.add_argument("q")
    p_check.add_argument("a")
    p_check.add_argument("--dim", type=int, default=3)

    p_disp = sub.add_parser("dispersion", help="decay-rate fits for free transport")
    p_disp.add_argument("config")
    return parser


def main(argv=None):
    try:
        args = make_parser().parse_args(argv)
        if args.command == "simulate":
            return run_simulate(args.config)
        if args.command == "exponents":
            if args.subcommand == "solve":
                return run_exponents_solve(args)
            if args.subcommand == "region":
                return run_exponents_region(args)
            return run_exponents_check(args)
        return run_dispersion(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except GuardAbort as exc:
        print(f"guard abort: {exc}", file=sys.stderr)
        return EXIT_GUARD


if __name__ == "__main__":
    sys.exit(main())
