import os
import tracemalloc

import pytest

from runtumble.cli import (_MONITORS, EXIT_CHECK, EXIT_CONFIG, EXIT_GUARD, EXIT_OK, ConfigError,
                           _fmt, _snapshot, _snapshot_coordinates, build_scene, main,
                           parse_config, parse_exponent, parse_norm_list, parse_signs)
from runtumble.grid import GridSpec, build_grid
from runtumble.kernels import KernelSpec
from runtumble.norms import NormSpec, mixed_norm
from runtumble.simulate import Simulation
from runtumble.transport import SeparableData

BASE_CONFIG = """\
# minimal screened-run scenario
dimension = 1
box_half_length = 8
nx = 64
nv = 8
dt = 0.02
t_end = 0.2
kernel_family = hyp2
kernel_C = 0.5
init_kind = cube
init_width = 0.8
norms = 2,1; inf,1
snapshot_every = 5
"""


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_exponent():
    assert parse_exponent("inf") == float("inf")
    assert parse_exponent("9/7") == pytest.approx(9.0 / 7.0)
    assert parse_exponent("2") == 2.0
    with pytest.raises(ConfigError):
        parse_exponent("two")


def test_parse_norm_list_and_signs():
    out = parse_norm_list("2,1; 9/5, 9/7")
    assert out[0][:2] == ("2", "1")
    assert out[1][2] == pytest.approx(1.8)
    with pytest.raises(ConfigError):
        parse_norm_list("2")
    assert parse_signs("+,-,+,-") == (1, -1, 1, -1)
    with pytest.raises(ConfigError):
        parse_signs("+,-")


@pytest.mark.parametrize("argv, message", [
    ([], "the following arguments are required: command"),
    (["bogus"], "invalid choice: 'bogus'"),
    (["simulate"], "the following arguments are required: config"),
    (["exponents", "region", "--step", "abc"], "invalid float value: 'abc'"),
    (["exponents", "solve", "2"], "q = 2.0 outside (1, 3/2)"),
    (["exponents", "region", "--step", "0"], "step must be positive"),
    (["exponents", "check", "3", "9/5", "0", "3/2"], "q = 0 must be >= 1 or inf"),
    (["exponents", "check", "3", "9/5", "9/7", "1/2"], "a = 1/2 must be >= 1 or inf"),
    (["exponents", "check", "0.5", "9/5", "9/7", "3/2"], "r = 0.5 must be >= 1 or inf"),
    (["exponents", "check", "3", "9/5", "9/7", "3/2", "--dim", "0"], "--dim must be >= 1")])
def test_bad_invocation_is_config_error(capsys, argv, message):
    # a usage error (argparse's own code for it, 2, is a guard abort's here)
    # and an argument that the exponent tools reject exit 1 with one line;
    # an exponent of the check below 1 (q = 0 once ended in a
    # ZeroDivisionError) or a dimension below 1 is rejected before a verdict
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err and err.count("\n") == 1


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == EXIT_OK and "usage: runtumble" in capsys.readouterr().out


def test_parse_config_strictness(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(write_config(tmp_path, BASE_CONFIG + "bogus_key = 1\n"))
    with pytest.raises(ConfigError):
        parse_config(write_config(tmp_path, BASE_CONFIG + "dt = 0.05\n"))
    # a key with no default is required where a subcommand reads it
    sparse = parse_config(write_config(tmp_path, "dimension = 1\n"))
    with pytest.raises(ConfigError, match="missing required key 'box_half_length'"):
        build_scene(sparse)
    with pytest.raises(ConfigError):
        parse_config(str(tmp_path / "missing.cfg"))
    cfg = parse_config(write_config(tmp_path, BASE_CONFIG))
    assert cfg["nx"] == 64 and cfg["beta"] == 1  # default applied


def test_simulate_roundtrip(tmp_path):
    cfg = BASE_CONFIG + f"output_dir = {tmp_path / 'out'}\n"
    rc = main(["simulate", write_config(tmp_path, cfg)])
    assert rc == EXIT_OK
    out = tmp_path / "out"
    ts = (out / "timeseries.csv").read_text().splitlines()
    assert ts[0] == "t,mass,min_f,max_f,norm_2_1,norm_inf_1"
    assert len(ts) == 12  # header + 11 recorded states
    snaps = sorted(p for p in os.listdir(out) if p.startswith("snapshot_"))
    assert snaps == ["snapshot_000000.csv", "snapshot_000005.csv", "snapshot_000010.csv"]
    head = (out / "snapshot_000005.csv").read_text().splitlines()
    assert head[0].startswith("# t=") and "field=rho" in head[0]
    assert head[1] == "x_0,rho"


def test_simulate_rejects_bad_config_exit_code(tmp_path):
    rc = main(["simulate", write_config(tmp_path, BASE_CONFIG + "beta = 7\n")])
    assert rc == EXIT_CONFIG
    # p < q mixed norm is a config error
    for norms in ("1,2", "2,inf"):
        bad = BASE_CONFIG.replace("norms = 2,1; inf,1", f"norms = {norms}")
        assert main(["simulate", write_config(tmp_path, bad)]) == EXIT_CONFIG
    # hyp2 needs the Hessian, which the beta=0 Newtonian solve does not give
    bad = BASE_CONFIG.replace("dimension = 1", "dimension = 3").replace("nx = 64", "nx = 8") \
        .replace("nv = 8", "nv = 4") + "beta = 0\n" + f"output_dir = {tmp_path / 'b0'}\n"
    assert main(["simulate", write_config(tmp_path, bad)]) == EXIT_CONFIG


@pytest.mark.parametrize("key, value", [
    ("init_width", "0"), ("init_width", "nan"), ("init_amplitude", "inf"), ("kernel_C", "nan"),
    ("memory_epsilon", "nan"), ("t_end", "-1"), ("dt", "inf"), ("dt", "nan"), ("t_end", "nan"),
    ("box_half_length", "nan"), ("r_max", "nan"), ("init_width", "7.9")])
def test_simulate_rejects_non_finite_and_empty_runs(tmp_path, key, value):
    # each of these once wrote a NaN series, ran no step, ended in a
    # traceback, or (init_width = 7.9: f0 already holds 4.8% of M in the
    # 2-cell rim) wrote a t = 0 row before the wrap guard tripped; now it
    # is a config error that leaves no output directory
    lines = [line for line in BASE_CONFIG.splitlines() if not line.startswith(key + " ")]
    cfg = "\n".join(lines + [f"{key} = {value}", f"output_dir = {tmp_path / 'o'}"]) + "\n"
    assert main(["simulate", write_config(tmp_path, cfg)]) == EXIT_CONFIG
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, line, keys, message", [
    ("simulate", "init_kind = ring", "init_kind, init_amplitude, init_width",
     "unknown kind 'ring'"),
    ("simulate", "kernel_C = -1", "kernel_family, kernel_C, memory_epsilon, kernel_signs",
     "coefficient must be >= 0"),
    ("simulate", "init_amplitude = -1", "init_kind, init_amplitude, init_width",
     "amplitude must be >= 0"),
    ("dispersion", "init_width = 0", "init_amplitude, init_width, r_max, dimension",
     "sigma must be > 0")])
def test_config_errors_name_the_config_keys(tmp_path, capsys, command, line, keys, message):
    # a spec's own rule failing names the config keys that built the spec,
    # not only the spec's field (the dispersion fits take gaussian data)
    drop = {line.split(" = ")[0]} | ({"init_kind"} if command == "dispersion" else set())
    lines = [item for item in BASE_CONFIG.splitlines() if item.split(" = ")[0] not in drop]
    cfg = "\n".join(lines + [line, f"output_dir = {tmp_path / 'o'}"]) + "\n"
    assert main([command, write_config(tmp_path, cfg)]) == EXIT_CONFIG
    assert f"config error: {keys}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_negative_snapshot_every_is_config_error(tmp_path, capsys):
    # a negative period once ran to the end, wrote no snapshot and exited 0
    bad = BASE_CONFIG.replace("snapshot_every = 5", "snapshot_every = -5") + \
        f"output_dir = {tmp_path / 's'}\n"
    with pytest.raises(ConfigError):
        parse_config(write_config(tmp_path, bad))
    assert main(["simulate", write_config(tmp_path, bad)]) == EXIT_CONFIG
    assert "snapshot_every must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()
    off = BASE_CONFIG.replace("snapshot_every = 5", "snapshot_every = 0")
    assert parse_config(write_config(tmp_path, off))["snapshot_every"] == 0


def test_simulate_invalid_norm_exponent_is_config_error(tmp_path, capsys):
    # q = 1/2 is no norm exponent: rejected before any step, no time series
    bad = BASE_CONFIG.replace("norms = 2,1; inf,1", "norms = 2,1/2") + \
        f"output_dir = {tmp_path / 'n'}\n"
    assert main(["simulate", write_config(tmp_path, bad)]) == EXIT_CONFIG
    assert "must be >= 1 or inf" in capsys.readouterr().err
    assert not (tmp_path / "n").exists()
    with pytest.raises(ConfigError):
        parse_norm_list("1/2,1/2")


def test_duplicate_norms_entry_is_config_error(tmp_path, capsys):
    bad = BASE_CONFIG.replace("norms = 2,1; inf,1", "norms = 2,1; inf,1; 2.0,1") + \
        f"output_dir = {tmp_path / 'd'}\n"
    assert main(["simulate", write_config(tmp_path, bad)]) == EXIT_CONFIG
    assert "repeats an earlier entry" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()
    disp = "dimension = 2\nbox_half_length = 8\nnx = 64\nnv = 8\ndt = 0.02\nt_end = 1\n" \
        f"norms = inf,1; inf,1\noutput_dir = {tmp_path / 'disp'}\n"
    assert main(["dispersion", write_config(tmp_path, disp, name="disp.cfg")]) == EXIT_CONFIG


def test_duplicate_monitor_is_config_error(tmp_path, capsys):
    bad = BASE_CONFIG + "monitors = gronwall_thm2, gronwall_thm2\n" + \
        f"output_dir = {tmp_path / 'm'}\n"
    assert main(["simulate", write_config(tmp_path, bad)]) == EXIT_CONFIG
    assert "listed twice" in capsys.readouterr().err
    assert not (tmp_path / "m").exists()  # a config error leaves no output directory


def test_simulate_guard_abort_exit_code(tmp_path):
    # the support reaches the rim in the step after t = 0.06
    cfg = BASE_CONFIG.replace("init_width = 0.8", "init_width = 7.0")
    cfg += f"output_dir = {tmp_path / 'g'}\n"
    rc = main(["simulate", write_config(tmp_path, cfg)])
    assert rc == EXIT_GUARD
    # the partial time series is still written
    lines = (tmp_path / "g" / "timeseries.csv").read_text().splitlines()
    assert len(lines) == 5 and float(lines[-1].split(",")[0]) == pytest.approx(0.06)


def test_simulate_gronwall_abort_at_first_step(tmp_path):
    # the wrap guard trips at the first step: the Gronwall monitor has no
    # completed step to calibrate on, and only t = 0 is certified
    cfg = BASE_CONFIG.replace("init_width = 0.8", "init_width = 7.4")
    cfg += "monitors = gronwall_thm2\n" + f"output_dir = {tmp_path / 'g'}\n"
    assert main(["simulate", write_config(tmp_path, cfg)]) == EXIT_GUARD
    lines = (tmp_path / "g" / "timeseries.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header[-2:] == ["cert_gronwall", "bound_gronwall"]
    assert len(lines) == 2  # the initial state only
    assert lines[1].split(",")[-2] == "pass"


def test_simulate_wrap_abort_names_the_last_row_time(tmp_path, capsys):
    # the support reaches the rim of a small box mid-run: the abort message
    # names the time of the last row written, the last valid state
    cfg = "\n".join(["dimension = 2", "box_half_length = 4", "nx = 16", "nv = 4", "dt = 0.05",
                     "t_end = 3", "kernel_family = hyp2", "kernel_C = 0.3", "init_kind = cube",
                     "monitors = gronwall_thm2", f"output_dir = {tmp_path / 'w'}"]) + "\n"
    assert main(["simulate", write_config(tmp_path, cfg)]) == EXIT_GUARD
    err = capsys.readouterr().err
    assert "support reached the box boundary" in err
    lines = (tmp_path / "w" / "timeseries.csv").read_text().splitlines()
    assert lines[0].split(",")[-2] == "cert_gronwall" and len(lines) > 10
    t_last = lines[-1].split(",")[0]
    assert f"after t={float(t_last):.6g} " in err


TERMS_CONFIG = """\
dimension = 3
box_half_length = 8
nx = 16
nv = 4
dt = 0.02
t_end = 0.1
beta = 0
kernel_family = hyp1
kernel_C = 0.2
init_kind = cube
monitors = term_tracker_thm1
"""


def test_simulate_term_tracker_short_run_is_config_error(tmp_path, capsys):
    # 5 steps, fewer than the tracker's stride of 20: rejected before stepping
    cfg = TERMS_CONFIG + f"output_dir = {tmp_path / 's'}\n"
    assert main(["simulate", write_config(tmp_path, cfg)]) == EXIT_CONFIG
    assert "evaluates every 20 steps" in capsys.readouterr().err
    assert not (tmp_path / "s" / "timeseries.csv").exists()


def test_simulate_term_tracker_abort_before_first_evaluation(tmp_path):
    # the positivity guard trips at the first step, before any evaluation
    cfg = TERMS_CONFIG.replace("t_end = 0.1", "t_end = 0.5").replace(
        "kernel_C = 0.2", "kernel_C = 1000") + f"output_dir = {tmp_path / 'a'}\n"
    assert main(["simulate", write_config(tmp_path, cfg)]) == EXIT_GUARD
    lines = (tmp_path / "a" / "timeseries.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header[4:] == ["term_f1", "term_f2", "term_f3", "bound_shifted", "bound_plain",
                          "cert_terms"]
    assert len(lines) == 2  # the initial state only
    assert lines[1].split(",")[4:] == [""] * 6


BOOTSTRAP_CONFIG = """\
dimension = 3
box_half_length = 8
nx = 16
nv = 4
dt = 0.05
t_end = 0.5
kernel_family = hyp3
kernel_C = 0.5
init_kind = cube
init_amplitude = 0.5
monitors = bootstrap_thm3
"""


def _expected_monitor_columns(name, mon, n_rows):
    """Each CSV column of a monitor, formatted from its own certify or report."""
    if name == "gronwall_thm2":
        recs = mon.certify()["records"]
        return {"cert_gronwall": ["pass" if r["ok"] else "fail" for r in recs],
                "bound_gronwall": [_fmt(r["rhs"]) for r in recs]}
    if name == "term_tracker_thm1":
        by_step = {e["step"]: e for e in mon.evaluations}
        cols = {f"term_f{i + 1}": [_fmt(by_step[s]["norms"][i]) if s in by_step else ""
                                   for s in range(n_rows)] for i in range(3)}
        for kind in ("shifted", "plain"):
            cols[f"bound_{kind}"] = [_fmt(by_step[s]["integrals"][kind]) if s in by_step else ""
                                     for s in range(n_rows)]
        verdict = "pass" if mon.certify()["passed"] else "fail"
        cols["cert_terms"] = [""] * (n_rows - 1) + [verdict]
        return cols
    rep = mon.report()
    return {"term_X": [_fmt(x) for x in rep["X"]],
            "cert_bootstrap": [""] * (n_rows - 1) + ["pass" if rep["stable"] else "fail"]}


@pytest.mark.parametrize("name, config", [
    ("gronwall_thm2", BASE_CONFIG + "monitors = gronwall_thm2\n"),
    ("term_tracker_thm1", TERMS_CONFIG.replace("t_end = 0.1", "t_end = 0.8")),
    ("bootstrap_thm3", BOOTSTRAP_CONFIG),
])
def test_monitor_columns_are_the_monitors_own_values(tmp_path, name, config):
    # the same run through the API, with the monitor that the CLI builds
    path = write_config(tmp_path, config + f"output_dir = {tmp_path / 'm'}\n")
    assert main(["simulate", path]) == EXIT_OK
    lines = (tmp_path / "m" / "timeseries.csv").read_text().splitlines()
    header = lines[0].split(",")
    cfg = parse_config(path)
    grid, kernel, f0 = build_scene(cfg)
    sim = Simulation(grid, f0, kernel, beta=cfg["beta"])
    mon = _MONITORS[name]()
    sim.attach(mon)
    sim.run(len(lines) - 2)
    expect = _expected_monitor_columns(name, mon, len(lines) - 1)
    assert header[-len(expect):] == list(expect)
    for col, values in expect.items():
        i = header.index(col)
        assert [line.split(",")[i] for line in lines[1:]] == values, col
    if name == "term_tracker_thm1":
        assert len(mon.evaluations) == 2


def test_determinism_byte_identical(tmp_path):
    paths = []
    for tag in ("a", "b"):
        cfg = BASE_CONFIG + f"output_dir = {tmp_path / tag}\n"
        assert main(["simulate", write_config(tmp_path, cfg, name=f"{tag}.cfg")]) == EXIT_OK
        paths.append(tmp_path / tag)
    assert (paths[0] / "timeseries.csv").read_bytes() == (paths[1] / "timeseries.csv").read_bytes()
    assert (paths[0] / "snapshot_000010.csv").read_bytes() == \
        (paths[1] / "snapshot_000010.csv").read_bytes()


def test_simulate_norm_columns_are_mixed_norms_of_the_states(tmp_path):
    # q = 1 columns read the density, every other q the phase-space state;
    # both must print the mixed norm of each state
    cfg = BASE_CONFIG.replace("dimension = 1", "dimension = 2").replace("nx = 64", "nx = 32") \
        .replace("norms = 2,1; inf,1", "norms = 2,1; 2,3/2").replace("t_end = 0.2", "t_end = 0.1")
    path = write_config(tmp_path, cfg + f"output_dir = {tmp_path / 'n'}\n")
    assert main(["simulate", path]) == EXIT_OK
    lines = (tmp_path / "n" / "timeseries.csv").read_text().splitlines()
    assert lines[0] == "t,mass,min_f,max_f,norm_2_1,norm_2_3/2"

    grid, kernel, f0 = build_scene(parse_config(path))
    sim = Simulation(grid, f0, kernel)
    for line in lines[1:]:
        expect = [_fmt(mixed_norm(sim.f, NormSpec(p=2.0, q=q))) for q in (1.0, 1.5)]
        assert line.split(",")[4:] == expect
        sim.step()
    assert len(lines) == 7


def _snapshot_of_rows(sim, path):
    """The snapshot writer that formats every coordinate of every row anew."""
    grid = sim.grid
    d = grid.dim
    with open(path, "w", newline="") as fh:
        fh.write(f"# t={_fmt(sim.t)} dimension={d} nx={grid.spec.nx} field=rho\n")
        fh.write(",".join([f"x_{a}" for a in range(d)] + ["rho"]) + "\n")
        flat = [m.ravel() for m in grid.x_mesh()] + [sim.rho.values.ravel()]
        for row in zip(*flat):
            fh.write(",".join(_fmt(v) for v in row) + "\n")


@pytest.mark.parametrize("dim, nx, nv", [(1, 64, 8), (2, 32, 8), (3, 8, 4)])
def test_snapshot_bytes_match_row_by_row_formatting(tmp_path, dim, nx, nv):
    # a box whose coordinates need all 17 digits; the snapshot formats only
    # the cells of f's box: a compact one for the cube after a step, and the
    # whole grid for the Gaussian's initial state
    grid = build_grid(GridSpec(dim=dim, box_half_length=7.3, nx=nx, nv=nv, dt=0.02))
    for kind, width in (("cube", 0.8), ("gaussian", 0.4)):
        sim = Simulation(grid, SeparableData(width=width, kind=kind),
                         KernelSpec(family="constant", coefficient=0.5))
        whole = []
        for step in (0, 1):
            if step:
                sim.step()
            whole.append(sim.f.box == (slice(None),) * dim)
            _snapshot(sim, _snapshot_coordinates(grid), step, str(tmp_path))
            _snapshot_of_rows(sim, tmp_path / "reference.csv")
            got = (tmp_path / f"snapshot_{step:06d}.csv").read_bytes()
            assert got == (tmp_path / "reference.csv").read_bytes(), (kind, step)
            assert got.count(b"\n") == 2 + nx**dim
        assert whole[0] if kind == "gaussian" else not whole[1]


def test_exponents_solve_and_check(capsys):
    assert main(["exponents", "solve", "9/7"]) == EXIT_OK
    out = capsys.readouterr().out
    values = dict(line.split(" = ") for line in out.splitlines() if " = " in line)
    assert float(values["p"]) == pytest.approx(1.8, abs=1e-9)
    assert float(values["lambda"]) == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert main(["exponents", "check", "3", "9/5", "9/7", "3/2"]) == EXIT_OK
    assert "admissible" in capsys.readouterr().out
    assert main(["exponents", "check", "3", "9/7", "9/5", "3/2"]) == EXIT_CHECK


def test_exponents_region(tmp_path, capsys):
    out_path = str(tmp_path / "region.csv")
    assert main(["exponents", "region", "--step", "0.25", "--output", out_path]) == EXIT_OK
    lines = open(out_path).read().splitlines()
    assert lines[0] == "q_prime,p_prime,in_region"
    assert any(line.endswith(",1") for line in lines[1:])


@pytest.mark.parametrize("step", ["nan", "inf", "-1", "1e-9"])
def test_exponents_region_rejects_a_step_before_making_the_lattice(tmp_path, capsys, step):
    # a step that is not positive and finite, or whose lattice would hold
    # over REGION_MAX_POINTS points (1e-9 once asked for 52 GiB), is a
    # config error naming --step, raised before the lattice is allocated
    out = tmp_path / "region.csv"
    tracemalloc.start()
    try:
        code = main(["exponents", "region", "--step", step, "--output", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG and err.startswith("config error: --step") and "Traceback" not in err
    assert peak < 1 << 20 and not out.exists()


def test_dispersion_subcommand(tmp_path, capsys):
    cfg = """\
dimension = 2
box_half_length = 8
nx = 64
nv = 8
dt = 0.02
t_end = 1
init_width = 0.4
norms = 2,1; inf,1
"""
    cfg += f"output_dir = {tmp_path / 'disp'}\n"
    rc = main(["dispersion", write_config(tmp_path, cfg)])
    assert rc == EXIT_OK
    lines = (tmp_path / "disp" / "dispersion.csv").read_text().splitlines()
    assert lines[0].startswith("p,q,fitted_slope")
    assert all(line.endswith(",pass") for line in lines[1:])


def test_dispersion_reads_no_grid_keys(tmp_path):
    # the fits are grid-free: t_end, dt, nx, nv and box_half_length may be left out
    cfg = f"dimension = 3\ninit_width = 0.4\nnorms = 2,1\noutput_dir = {tmp_path / 'disp'}\n"
    assert main(["dispersion", write_config(tmp_path, cfg)]) == EXIT_OK
    assert (tmp_path / "disp" / "dispersion.csv").exists()


@pytest.mark.parametrize("line", ["norms = 2,inf", "init_amplitude = -1", "init_amplitude = 0",
                                  "init_width = 0", "dimension = 4"])
def test_dispersion_rejects_bad_exponents_and_data(tmp_path, capsys, line):
    # a p < q pair and data that GaussianBallData rejects are config errors
    # that make no output directory (2,inf and a nonpositive amplitude once
    # went on to print a fit)
    key = line.split(" = ")[0]
    lines = [item for item in ["dimension = 2", "box_half_length = 8", "nx = 64", "nv = 8",
                               "dt = 0.02", "t_end = 1", "init_width = 0.4", "norms = 2,1"]
             if not item.startswith(key + " ")]
    cfg = "\n".join(lines + [line, f"output_dir = {tmp_path / 'disp'}"]) + "\n"
    assert main(["dispersion", write_config(tmp_path, cfg)]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "disp").exists()


@pytest.mark.parametrize("velocity", ["velocity_shape = shell\nr_min = 0.5", "r_max = 0",
                                      "r_max = -1"])
def test_dispersion_rejects_a_velocity_set_that_is_not_a_ball(tmp_path, capsys, velocity):
    # the grid-free quadrature is for the ball only, and the velocity keys
    # follow GridSpec's rules: a config error, with no output directory made
    cfg = "\n".join(["dimension = 2", "box_half_length = 8", "nx = 64", "nv = 8", "dt = 0.02",
                     "t_end = 1", "init_width = 0.4", "norms = 2,1", velocity,
                     f"output_dir = {tmp_path / 'disp'}"]) + "\n"
    assert main(["dispersion", write_config(tmp_path, cfg)]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "disp").exists()
