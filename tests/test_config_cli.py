"""Config parsing and the command-line harness (exit codes, artifacts)."""

import dataclasses
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from mixheat import (
    ConfigurationError,
    Field,
    GridSpec,
    integral,
    kernel_lq_norm,
    make_step_schedule,
    mixed_kernel,
    read_field,
    read_mass_csv,
    solve,
    write_field,
    write_mass_csv,
)
from conftest import logged_cuts
from mixheat import cli, fractional, kernels, solver
from mixheat import grid as grid_module
from mixheat.cli import main
from mixheat.config import (
    ExperimentConfig,
    build_absorption,
    build_initial,
    build_problem,
    config_from_mapping,
    kernel_times,
    load_config,
    parse_config_text,
    parse_float_list,
    read_absorption_table,
    snapshot_times,
)

BASE_CFG = """\
# smoke configuration
alpha = 1.0
dim = 1
half_width = 40
points = 256
beta = 0.0
p = 2.0
t0 = 0.5
t1 = 60
dtau_max = 0.2
snapshot_count = 9
absorption = constant
absorption_coefficient = 1.0
initial = gaussian
initial_width = 1.5
initial_mass = 1.0
"""


@pytest.fixture()
def cfg_path(tmp_path):
    path = tmp_path / "base.cfg"
    path.write_text(BASE_CFG)
    return str(path)


# -- parsing ------------------------------------------------------------------

def test_parse_config_text_basics():
    raw = parse_config_text("# comment\n\nalpha = 1.5\n points=64 \n")
    assert raw == {"alpha": "1.5", "points": "64"}


def test_parse_config_text_rejects_duplicates_and_syntax():
    with pytest.raises(ConfigurationError):
        parse_config_text("alpha = 1\nalpha = 2\n")
    with pytest.raises(ConfigurationError):
        parse_config_text("alpha\n")


def test_config_from_mapping_validation():
    base = {"alpha": "1.0", "half_width": "10", "points": "64"}
    cfg = config_from_mapping(base)
    assert cfg.alpha == 1.0 and cfg.points == 64 and cfg.dim == 1
    with pytest.raises(ConfigurationError):
        config_from_mapping({**base, "turbo": "yes"})
    with pytest.raises(ConfigurationError):
        config_from_mapping({**base, "points": "64.5"})
    with pytest.raises(ConfigurationError):
        config_from_mapping({**base, "absorption": "bogus"})
    with pytest.raises(ConfigurationError):
        config_from_mapping({"alpha": "1.0"})  # missing required keys


@pytest.mark.parametrize("key,kind", [("initial", "bogus"), ("absorption", "exponential")])
def test_unknown_kind_is_refused_however_the_config_is_built(cfg_path, key, kind):
    """The kind is checked when the config is constructed: built directly,
    replaced or loaded, an unknown kind never reaches the builders, which
    would otherwise fall back on a Gaussian datum."""
    message = rf"^config key '{key}' must be one of \(.*\), got '{kind}'$"
    with pytest.raises(ConfigurationError, match=message):
        build_problem(ExperimentConfig(alpha=1.0, half_width=8.0, points=16, **{key: kind}))
    with pytest.raises(ConfigurationError, match=message):
        dataclasses.replace(load_config(cfg_path), **{key: kind})
    with pytest.raises(ConfigurationError, match=message):
        load_config(cfg_path, overrides=[f"{key}={kind}"])


def test_load_config_with_overrides(cfg_path):
    cfg = load_config(cfg_path, overrides=["p=3.0", "points=512"])
    assert cfg.p == 3.0 and cfg.points == 512
    with pytest.raises(ConfigurationError):
        load_config(cfg_path, overrides=["nonsense=1"])
    with pytest.raises(ConfigurationError):
        load_config(cfg_path, overrides=["p:3.0"])


def test_parse_float_list():
    np.testing.assert_allclose(parse_float_list("0.5, 2, 8", "k"), [0.5, 2.0, 8.0])
    assert parse_float_list("", "k") == []
    with pytest.raises(ConfigurationError):
        parse_float_list("1,two", "k")


def test_kernel_and_snapshot_times(cfg_path):
    cfg = load_config(cfg_path)
    np.testing.assert_allclose(kernel_times(cfg), [0.1, 1.0, 10.0])
    snaps = snapshot_times(cfg)
    assert snaps[0] == 0.5 and snaps[-1] == 60.0 and snaps.size == 9
    bad = load_config(cfg_path, overrides=["kernel_times=a,b"])
    with pytest.raises(ConfigurationError):
        kernel_times(bad)


# -- builders -----------------------------------------------------------------

def test_build_grid_and_gaussian_initial(cfg_path):
    cfg = load_config(cfg_path)
    grid = GridSpec(cfg.dim, cfg.half_width, cfg.points)
    assert grid.dim == 1 and grid.half_width == 40.0 and grid.points == 256
    u0 = build_initial(cfg, grid)
    assert integral(u0) == pytest.approx(1.0, rel=1e-13)
    cfg2 = load_config(cfg_path, overrides=["initial_center=5.0", "initial_mass=2.5"])
    u2 = build_initial(cfg2, grid)
    assert integral(u2) == pytest.approx(2.5, rel=1e-13)
    x_peak = grid.axis_coords()[int(np.argmax(u2.values))]
    assert x_peak == pytest.approx(5.0, abs=grid.spacing)


def test_build_point_initial(cfg_path):
    cfg = load_config(cfg_path, overrides=["initial=point", "initial_mass=3.0"])
    grid = GridSpec(cfg.dim, cfg.half_width, cfg.points)
    u0 = build_initial(cfg, grid)
    assert integral(u0) == pytest.approx(3.0, rel=1e-13)
    assert np.count_nonzero(u0.values) == 1


def test_build_file_initial(cfg_path, tmp_path):
    cfg = load_config(cfg_path)
    grid = GridSpec(cfg.dim, cfg.half_width, cfg.points)
    u0 = build_initial(cfg, grid)
    path = tmp_path / "u0.fhk"
    write_field(u0, path)
    cfg_file = load_config(cfg_path, overrides=["initial=file",
                                                f"initial_path={path}"])
    back = build_initial(cfg_file, grid)
    np.testing.assert_array_equal(back.values, u0.values)
    # a file on a different grid is refused
    other = GridSpec(1, 40.0, 512)
    wrong = tmp_path / "wrong.fhk"
    write_field(build_initial(cfg, other), wrong)
    cfg_bad = load_config(cfg_path, overrides=["initial=file",
                                               f"initial_path={wrong}"])
    with pytest.raises(ConfigurationError):
        build_initial(cfg_bad, grid)


@pytest.mark.parametrize("dim,n", [(1, 256), (2, 64)])
def test_gaussian_initial_is_the_meshgrid_formula_bit_for_bit(cfg_path, dim, n):
    cfg = load_config(cfg_path, overrides=[f"dim={dim}", f"points={n}",
                                           "initial_center=3.7", "initial_width=2.3",
                                           "initial_mass=0.37"])
    grid = GridSpec(cfg.dim, cfg.half_width, cfg.points)
    r2 = sum((c - 3.7) ** 2 for c in grid.coords())
    bump = np.exp(-r2 / (2.0 * 2.3 ** 2))
    expected = bump * (0.37 / integral(Field(grid, bump)))
    assert np.array_equal(build_initial(cfg, grid).values, expected)


# the box-cut datum that costs the ledger 3.4e-8 (its value at x = +20 is 6e-4
# of its peak, 7e-4 on the last lattice point), and the sweep-1d/C11 and
# solve-2d data, which decay to 0 at the box edge
_CUT_OFF = {"alpha": 1.6, "half_width": 20.0, "points": 256,
            "initial_width": 3.94, "initial_center": 4.83}
_SWEEP_1D = {"alpha": 1.0, "half_width": 400.0, "points": 8192, "initial_width": 1.5}
_SOLVE_2D = {"alpha": 1.0, "dim": 2, "half_width": 64.0, "points": 256,
             "initial_width": 1.5}


def test_gaussian_initial_cut_off_by_the_box_warns(caplog):
    cfg = config_from_mapping(_CUT_OFF)
    with caplog.at_level("WARNING", logger="mixheat.config"):
        u0 = build_initial(cfg, GridSpec(cfg.dim, cfg.half_width, cfg.points))
    [record] = caplog.records
    assert record.levelname == "WARNING"
    message = record.getMessage()
    assert "7.0e-04 of its peak" in message
    for key in ("initial_width = 3.94", "initial_center = 4.83", "half_width = 20.0"):
        assert key in message
    assert integral(u0) == pytest.approx(1.0)


@pytest.mark.parametrize("mapping", [_SWEEP_1D, _SOLVE_2D], ids=["sweep-1d", "solve-2d"])
def test_gaussian_initial_inside_the_box_does_not_warn(caplog, mapping):
    cfg = config_from_mapping(mapping)
    with caplog.at_level("DEBUG", logger="mixheat.config"):
        build_initial(cfg, GridSpec(cfg.dim, cfg.half_width, cfg.points))
    assert caplog.records == []


@pytest.mark.parametrize("dim,n", [(1, 2 ** 20), (2, 512)])
def test_gaussian_initial_peaks_below_one_and_a_half_grids(cfg_path, dim, n):
    cfg = load_config(cfg_path, overrides=[f"dim={dim}", f"points={n}",
                                           "initial_center=3.7"])
    tracemalloc.start()
    try:
        problem = build_problem(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert problem.initial.values.nbytes == 8 * n ** dim
    assert peak <= 1.5 * 8 * n ** dim


def test_absorption_table_io(cfg_path, tmp_path):
    table = tmp_path / "h.csv"
    table.write_text("time,value\n0,1.0\n10,0.5\n100,0.0\n")
    times, values = read_absorption_table(table)
    np.testing.assert_allclose(times, [0.0, 10.0, 100.0])
    np.testing.assert_allclose(values, [1.0, 0.5, 0.0])
    cfg = load_config(cfg_path, overrides=["absorption=table",
                                           f"absorption_table={table}"])
    h = build_absorption(cfg)
    assert h.rate(5.0) == pytest.approx(0.75)

    bad = tmp_path / "bad.csv"
    bad.write_text("t,h\n0,1\n")
    with pytest.raises(ConfigurationError):
        read_absorption_table(bad)


# the last row's cell is longer than csv's field size limit (128 Ki characters)
@pytest.mark.parametrize("body,line", [
    ("0,1.0\n10,abc\n", 3), ("0,1.0\n\n10\n", 4), ("0,1.0,2\n10,1.0\n", 2),
    pytest.param("0,1.0\n10," + "1" * 200_000 + "\n", 3, id="cell-past-the-field-limit"),
])
def test_absorption_table_rejects_garbled_rows(cfg_path, tmp_path, capsys, body, line):
    table = tmp_path / "h.csv"
    table.write_text("time,value\n" + body)
    with pytest.raises(ConfigurationError, match=f"^{re.escape(str(table))}: line {line}: "):
        read_absorption_table(table)
    rc = main(["solve", "--config", cfg_path, "--set", "absorption=table",
               "--set", f"absorption_table={table}", "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"configuration error: {table}: line {line}: ")


@pytest.mark.parametrize("body,line", [("0,1.0\n10,nan\n", 3), ("0,1.0\n\ninf,1\n", 4)])
def test_absorption_table_names_a_non_finite_cell(cfg_path, tmp_path, capsys, body, line):
    table = tmp_path / "h.csv"
    table.write_text("time,value\n" + body)
    rc = main(["solve", "--config", cfg_path, "--set", "absorption=table",
               "--set", f"absorption_table={table}", "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    assert re.fullmatch(f"configuration error: {re.escape(str(table))}: line {line}: "
                        r"expected 2 numbers, all finite, got \[.*\]\n",
                        capsys.readouterr().err)


# a byte that is not UTF-8 in each text file the CLI reads
@pytest.mark.parametrize("kind", ["trace", "table", "config"])
def test_cli_names_a_file_that_is_not_utf8(cfg_path, tmp_path, capsys, kind):
    path = tmp_path / f"{kind}.txt"
    head = {"trace": "t,tau,mass,absorbed,linf,l2\n", "table": "time,value\n0,1\n",
            "config": BASE_CFG}[kind]
    path.write_bytes(head.encode() + b"\xff\n")
    argv = {"trace": ["analyze", "--trace", str(path)],
            "table": ["solve", "--config", cfg_path, "--set", "absorption=table",
                      "--set", f"absorption_table={path}"],
            "config": ["solve", "--config", str(path)]}[kind]
    if kind != "trace":
        argv += ["--out-dir", str(tmp_path / "out")]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"configuration error: {path}: not UTF-8 text\n"


# -- CLI ----------------------------------------------------------------------

def test_cli_usage_and_help():
    assert main([]) == 1
    assert main(["--help"]) == 0
    assert main(["frobnicate"]) == 1


def test_cli_missing_config():
    assert main(["solve", "--config", "/nonexistent/path.cfg"]) == 1


def test_cli_rejects_bad_physics(cfg_path, tmp_path):
    rc = main(["solve", "--config", cfg_path, "--set", "alpha=3.0",
               "--out-dir", str(tmp_path / "out")])
    assert rc == 1


@pytest.mark.parametrize("override,key", [("beta=nan", "beta"), ("t1=inf", "t1"),
                                          ("p=inf", "p"), ("beta=inf", "beta")])
def test_cli_rejects_non_finite_clock(cfg_path, tmp_path, capsys, override, key):
    rc = main(["solve", "--config", cfg_path, "--set", override,
               "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {key} ")
    assert "Traceback" not in err


@pytest.mark.parametrize("command,override,message", [
    ("solve", "beta=inf", "beta must be >= 0 and finite, got inf"),
    ("kernel", "alpha=2.5", "alpha must be in (0, 2), got 2.5"),
    # capacity keys are named, not the grid or spec argument they feed
    ("capacity", "capacity_points=1000",
     "capacity_points must be a power of two >= 16, got 1000"),
    ("capacity", "capacity_b=0.5", "capacity_b must be finite and >= 1, got 0.5"),
    ("capacity", "capacity_radii=8,8",
     "capacity_radii must be a comma list of distinct finite values >= 1, "
     "got [8.0, 8.0]"),
    # the squared box corner overflows; at p = 1.01 the weight
    # Phi^(-1/(p-1)) does, inside the default box
    ("capacity", "capacity_half_width=1e300",
     "capacity_half_width must be at most 4.34687e+153 for q0=1.5, p=2.0, dim=1, "
     "beyond which a factor of the integrand leaves the float range at the box "
     "corner, got 1e+300"),
    ("capacity", "p=1.01",
     "capacity_half_width must be at most 68.8396 for q0=1.5, p=1.01, dim=1, "
     "beyond which a factor of the integrand leaves the float range at the box "
     "corner, got 20000.0"),
    # nearer 1 than 1 + q0 / (2 log(max float)), no box keeps the weight in range
    *[("capacity", f"p={p}",
       f"p must be above 1.00106 for q0=1.5: nearer 1 the weight Phi^(-1/(p-1)) "
       f"leaves the float range on any box, got {p}") for p in ("1.001", "1.0000001")],
    # the radii's squares underflow to 0, so the tail window is empty
    ("capacity", "capacity_half_width=1e-300",
     "capacity_half_width must be at least 1.79e-153, below which the squares of "
     "the tail window's radii leave the normal float range, got 1e-300"),
    # B R = 2e160 and 2e300 underflow the integrand's tail window to 0;
    # 2e305 also overflows the physical box B R capacity_half_width; at
    # 2e155 the window holds subnormal values, which bend the tail fit
    *[("capacity", f"capacity_radii=8,{R}",
       f"capacity_radii gives B*R = 2e+{R[2:]}, so large that the capacity integrand "
       "underflows to 0 in its tail or its cell volume overflows")
      for R in ("1e155", "1e160", "1e300", "1e305")],
    # at 2e154 the digits lost below the smallest normal float may reach
    # 10^-5.05 of the sum
    ("capacity", "capacity_radii=8,1e154",
     "capacity_radii gives B*R = 2e+154, so large that the capacity integrand "
     "may lose more than 1e-6 of its sum to underflow"),
    ("solve", "snapshot_count=1",
     "snapshot_count must be an integer in [2, 89478485], got 1"),
    # one past the step budget, and far past it: rejected before a ladder
    # of that length is allocated
    ("solve", "snapshot_count=89478486",
     "snapshot_count must be an integer in [2, 89478485], got 89478486"),
    ("solve", "snapshot_count=10000000000",
     "snapshot_count must be an integer in [2, 89478485], got 10000000000"),
    # the 2D cell volume overflows too, but the capacity box's own bound,
    # which names its key, is checked first
    ("capacity", "dim=2 capacity_q0=3 capacity_points=1024 capacity_half_width=1e300",
     "capacity_half_width must be at most 2.42053e+102 for q0=3.0, p=2.0, dim=2, "
     "beyond which a factor of the integrand leaves the float range at the box "
     "corner, got 1e+300"),
])
def test_cli_states_the_range_of_a_bad_key(cfg_path, tmp_path, capsys, command,
                                           override, message):
    sets = [arg for item in override.split() for arg in ("--set", item)]
    rc = main([command, "--config", cfg_path, *sets,
               "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == f"configuration error: {message}\n"


@pytest.mark.parametrize("command,override,key", [
    ("capacity", "capacity_radii=8,nan", "capacity_radii"),
    ("capacity", "capacity_radii=8,inf", "capacity_radii"),
    ("capacity", "capacity_b=nan", "capacity_b"),
    ("capacity", "capacity_half_width=-1", "capacity_half_width"),
    ("capacity", "capacity_half_width=inf", "capacity_half_width"),
    ("kernel", "kernel_times=1,nan", "kernel_times"),
    ("kernel", "kernel_times=inf", "kernel_times"),
    ("solve", "initial_width=nan", "initial_width"),
    ("solve", "initial_mass=nan", "initial_mass"),
    ("solve", "initial_mass=inf", "initial_mass"),
    ("solve", "initial_center=nan", "initial_center"),
    ("solve", "dtau_max=1e-25", "dtau_max"),
    ("solve", "t1=1e300", "dtau_max"),
    # the square underflows to 0; a subnormal mass loses the ledger
    ("solve", "initial_width=1e-300", "initial_width"),
    ("solve", "initial_mass=1e-320", "initial_mass"),
    ("solve", "absorption_coefficient=inf", "absorption_coefficient"),
    ("solve", "absorption=constant absorption_coefficient=0", "absorption_coefficient"),
    ("solve", "absorption=power absorption_exponent=nan", "absorption_exponent"),
    ("solve", "absorption=power absorption_exponent=inf", "absorption_exponent"),
    # the box's cell spacing or volume leaves the normal float range
    ("solve", "points=64 half_width=1e308", "half_width"),
    ("solve", "points=64 half_width=1e-320", "half_width"),
    ("solve", "dim=2 points=16 half_width=1e200", "half_width"),
    ("kernel", "dim=2 points=16 half_width=1e200", "half_width"),
    ("capacity", "capacity_half_width=1e-320", "capacity_half_width"),
    # the samples of a mass of 1e300 on cells of 7.8e-10 sum past the float
    # range, and so would the transforms: before the point sample is formed
    ("solve", "half_width=1e-7 initial_width=1e-8 initial_mass=1e300", "initial_mass"),
    ("solve", "half_width=1e-7 initial_width=1e-8 initial_mass=1e300 initial=point",
     "initial_mass"),
])
def test_cli_rejects_bad_capacity_and_kernel_inputs(cfg_path, tmp_path, capsys,
                                                   command, override, key):
    sets = [arg for item in override.split() for arg in ("--set", item)]
    rc = main([command, "--config", cfg_path, *sets,
               "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"configuration error: {key} ")
    assert "R=" not in captured.out


def test_cli_solves_on_a_box_too_wide_to_square(cfg_path, tmp_path, capsys):
    """The grid cut reads the spectrum by index, never forming L^2, which
    overflows here."""
    rc = main(["solve", "--config", cfg_path, "--set", "points=64",
               "--set", "half_width=1e300", "--out-dir", str(tmp_path / "out")])
    assert rc == 0
    lines = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
    assert float(lines["ledger_defect"]) <= 2e-15
    # a point of 3.2e-299, whose square underflows, on a cell of 3.125e298
    trace = read_mass_csv(tmp_path / "out" / "mass.csv")
    assert trace.l2[0] == pytest.approx(5.656854249492381e-150, rel=1e-14)


def test_cli_solves_on_a_box_too_narrow_to_square(cfg_path, tmp_path, capsys):
    """On half_width = 1e-300 the datum's samples (about 5e299) square to
    inf, and so does |xi|^2 in the symbol: the trace's l2 stays finite, and
    no RuntimeWarning leaks."""
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["solve", "--config", cfg_path, "--set", "points=64",
                   "--set", "half_width=1e-300", "--out-dir", str(out)])
    assert rc == 0
    assert "Warning" not in capsys.readouterr().err
    trace = read_mass_csv(out / "mass.csv")
    assert np.all(np.isfinite(trace.l2))
    # a flat 5e299 on 64 cells of 2e-300 / 64: sqrt(64 * 2.5e599 * 3.125e-302)
    assert trace.l2[0] == pytest.approx(np.sqrt(5e299), rel=1e-14)


# the trace's first l2, summed in 40-digit arithmetic from the datum: at
# initial_mass = 1e-300 every sample's square underflows
TINY_INPUT_L2 = {"initial_width=1e-160": 1.788854381999832,
                 "initial_mass=1e-300": 4.336625352920387e-301}


@pytest.mark.parametrize("override", ["initial_width=1e-160", "initial_mass=1e-300"])
def test_cli_solves_tiny_normal_inputs(cfg_path, tmp_path, capsys, override):
    rc = main(["solve", "--config", cfg_path, "--set", override,
               "--out-dir", str(tmp_path / "out")])
    assert rc == 0
    lines = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
    assert float(lines["ledger_defect"]) <= 2e-15
    trace = read_mass_csv(tmp_path / "out" / "mass.csv")
    assert trace.l2[0] == pytest.approx(TINY_INPUT_L2[override], rel=1e-14)


def test_cli_solve_keeps_one_snapshot_and_the_same_outputs(cfg_path, tmp_path,
                                                          monkeypatch):
    """The CLI keeps only the state at t1, and its trace and field are
    bitwise those of a library solve that keeps every knot's snapshot."""
    cfg = load_config(cfg_path)
    every = solve(build_problem(cfg), make_step_schedule(
        cfg.t0, cfg.t1, cfg.beta, cfg.dtau_max, snapshot_times=snapshot_times(cfg)))
    assert len(every.snapshots) == 9
    lib = tmp_path / "lib"
    lib.mkdir()
    write_mass_csv(every.trace, lib / "mass.csv")
    write_field(every.final, lib / "final.fhk")

    # a budget that fits one snapshot but not nine
    grid_bytes = every.final.values.nbytes
    monkeypatch.setattr(grid_module, "_MAX_BYTES",
                        (1 + solver._WORK_GRIDS) * grid_bytes
                        + 48 * (every.total_steps + 1))
    with pytest.raises(ConfigurationError, match="^9 snapshots of a 256-point grid"):
        solve(every.problem, every.schedule)
    kept = []

    def keep(problem, schedule):
        kept.append(solve(problem, schedule))
        return kept[-1]

    monkeypatch.setattr(cli, "solve", keep)
    out = tmp_path / "cli"
    assert main(["solve", "--config", cfg_path, "--out-dir", str(out)]) == 0
    (result,) = kept
    assert result.snapshot_times.tolist() == [60.0] and len(result.snapshots) == 1
    for name in ("mass.csv", "final.fhk"):
        assert (out / name).read_bytes() == (lib / name).read_bytes()


def test_cli_checks_the_solve_budget_before_building_the_datum(cfg_path, tmp_path, capsys):
    """A 2^40-point grid is refused by name before its datum is built."""
    rc = main(["solve", "--config", cfg_path, "--set", "dim=2", "--set", "points=1048576",
               "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err.startswith(
        "configuration error: points = 1048576 gives a 1099511627776-point solve grid "
        "that needs about ")


def test_cli_names_the_time_a_table_misses(cfg_path, tmp_path, capsys):
    table = tmp_path / "h.csv"
    table.write_text("time,value\n1,1\n10,1\n")
    rc = main(["solve", "--config", cfg_path, "--set", "absorption=table",
               "--set", f"absorption_table={table}", "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == (
        "configuration error: time 0.5 outside the absorption table range [1, 10]\n")


def test_cli_refuses_an_overflowing_absorption_integral(cfg_path, tmp_path, capsys):
    rc = main(["solve", "--config", cfg_path, "--set", "absorption=power",
               "--set", "absorption_coefficient=1", "--set", "absorption_exponent=400",
               "--set", "t0=1", "--set", "t1=100", "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == (
        "configuration error: the integral of h over [t0, t1] = [1, 100] overflows "
        "the float range (h's tail exponent 400.0)\n")


def test_cli_kernel_outputs(cfg_path, tmp_path, capsys):
    out = tmp_path / "kernel_out"
    assert main(["kernel", "--config", cfg_path, "--out-dir", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "mass=" in stdout and "alpha=1" in stdout
    lines = (out / "kernel.csv").read_text().splitlines()
    assert lines[0] == "t,q,norm"
    assert len(lines) == 1 + 3 * 3  # three times, three norms each
    kern = read_field(out / "kernel.fhk")
    assert kern.grid.points == 256


def test_cli_kernel_builds_one_symbol_for_all_its_times(cfg_path, tmp_path, monkeypatch,
                                                         capsys):
    calls = []
    make_symbol = kernels.make_symbol

    def counting(*args, **kwargs):
        calls.append(args)
        return make_symbol(*args, **kwargs)

    monkeypatch.setattr(kernels, "make_symbol", counting)
    out = tmp_path / "kernel_out"
    assert main(["kernel", "--config", cfg_path, "--out-dir", str(out),
                 "--set", "kernel_times=0.5,2,8,32"]) == 0
    assert len(calls) == 1
    grid = GridSpec(1, 40.0, 256)  # BASE_CFG's
    rows = [line.split(",") for line in (out / "kernel.csv").read_text().splitlines()[1:]]
    assert [row[:2] for row in rows] == [[cli._fmt(t), cli._fmt(q)]
                                         for t in (0.5, 2.0, 8.0, 32.0)
                                         for q in (1.0, 2.0, np.inf)]
    for t, row in zip((0.5, 2.0, 8.0, 32.0), np.reshape(rows, (4, 3, 3))):
        k = mixed_kernel(grid, 1.0, t)
        norms = [kernel_lq_norm(k, q) for q in (1.0, 2.0, np.inf)]
        if t in (0.5, 32.0):  # t = 0.5 does not cut the grid; the last time never does
            assert row[:, 2].tolist() == [cli._fmt(v) for v in norms]
        else:  # a cut row is the coarse grid's kernel's
            got = row[:, 2].astype(float)
            np.testing.assert_allclose(got[:2], norms[:2], rtol=1e-15, atol=0.0)
            assert got[2] == pytest.approx(norms[2], rel=1e-12, abs=0.0)
    assert np.array_equal(read_field(out / "kernel.fhk").values, k.values)
    assert f"mass={cli._fmt(integral(k))}" in capsys.readouterr().out


def test_cli_kernel_past_the_memory_budget_exits_1_before_allocating(
        cfg_path, tmp_path, monkeypatch, capsys):
    """2^28 points in 1D would hold about 12 GiB; nothing grid-sized is
    built (make_symbol is the first grid-sized allocation)."""
    def no_allocation(*args, **kwargs):
        raise AssertionError("allocated before the memory check")

    monkeypatch.setattr(kernels, "make_symbol", no_allocation)
    rc = main(["kernel", "--config", cfg_path, "--out-dir", str(tmp_path / "out"),
               "--set", f"points={2 ** 28}"])
    assert rc == 1
    assert capsys.readouterr().err == (
        "configuration error: points = 268435456 gives a 268435456-point kernel "
        "grid that needs about 12 GiB, more than the memory budget of 4 GiB\n")
    assert not (tmp_path / "out" / "kernel.csv").exists()


def test_cli_solve_analyze_roundtrip(cfg_path, tmp_path, capsys):
    out = tmp_path / "solve_out"
    assert main(["solve", "--config", cfg_path, "--out-dir", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "final_mass=" in stdout and "ledger_defect=" in stdout
    trace = read_mass_csv(out / "mass.csv")
    assert trace.times[0] == 0.5 and trace.times[-1] == 60.0
    final = read_field(out / "final.fhk")
    assert final.grid.points == 256

    assert main(["analyze", "--trace", str(out / "mass.csv")]) == 0
    stdout = capsys.readouterr().out
    assert "kind=" in stdout and "m_inf_estimate=" in stdout
    # the norm slopes are plain log-log fits over the trace's last decade
    printed = dict(line.split("=", 1) for line in stdout.splitlines())
    last = trace.times >= trace.times[-1] / 10.0
    for name in ("linf", "l2"):
        want = np.polyfit(np.log(trace.times[last]),
                          np.log(getattr(trace, name)[last]), 1)[0]
        assert float(printed[f"{name}_trailing_slope"]) == want

    assert main(["analyze", "--trace", str(out / "missing.csv")]) == 1


# the third edit turns the absorbed cell of the first row into nan
@pytest.mark.parametrize("edit,line", [(("0.5,", "0.5x,"), 2), ((",0.", ",,0.", 1), 2),
                                       ((",0,", ",nan,", 1), 2)])
def test_cli_analyze_rejects_garbled_trace(cfg_path, tmp_path, capsys, edit, line):
    out = tmp_path / "solve_out"
    assert main(["solve", "--config", cfg_path, "--out-dir", str(out)]) == 0
    trace = out / "mass.csv"
    trace.write_text(trace.read_text().replace(*edit))
    where = f"{re.escape(str(trace))}: line {line}: expected 6 numbers"
    with pytest.raises(ConfigurationError, match=f"^{where}"):
        read_mass_csv(trace)
    capsys.readouterr()
    assert main(["analyze", "--trace", str(trace)]) == 1
    assert capsys.readouterr().err.startswith(f"configuration error: {trace}: line {line}: ")


def test_cli_analyze_rejects_short_trace(cfg_path, tmp_path):
    out = tmp_path / "short_out"
    rc = main(["solve", "--config", cfg_path, "--set", "t0=1.0", "--set", "t1=10",
               "--out-dir", str(out)])
    assert rc == 0
    assert main(["analyze", "--trace", str(out / "mass.csv")]) == 1


def test_cli_determinism(cfg_path, tmp_path):
    """Identical configuration must produce byte-identical artifacts."""
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["solve", "--config", cfg_path, "--out-dir", str(out)]) == 0
        assert main(["kernel", "--config", cfg_path, "--out-dir", str(out)]) == 0
    for name in ("mass.csv", "final.fhk", "kernel.csv", "kernel.fhk"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_cli_sweep(cfg_path, tmp_path, capsys):
    out = tmp_path / "sweep_out"
    rc = main(["sweep", "--config", cfg_path, "--p-values", "3.0",
               "--out-dir", str(out)])
    assert rc == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "p,alpha,beta,classification,M_inf_estimate,critical_exponent,condition_h"
    assert len(lines) == 2
    capsys.readouterr()

    # one bad exponent: the sweep keeps going and reports rc 1
    rc = main(["sweep", "--config", cfg_path, "--p-values", "0.5,3.0",
               "--out-dir", str(out)])
    assert rc == 1
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 3
    assert "error" in lines[1]
    assert "error" not in lines[2]

    # empty request: just the header, success
    rc = main(["sweep", "--config", cfg_path, "--p-values", "",
               "--out-dir", str(out)])
    assert rc == 0
    assert (out / "sweep.csv").read_text().splitlines() == [lines[0]]


def test_cli_sweep_quotes_an_error_cell_with_a_comma(cfg_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg_path, "--p-values", "0.5",
                 "--out-dir", str(out)]) == 1
    assert (out / "sweep.csv").read_bytes().split(b"\r\n")[1:] == [
        b'0.5,1,0,"error: p must be finite and > 1, got 0.5",,2,', b""]


def test_cli_sweep_1d_legs_end_on_16_points(cfg_path, tmp_path):
    """The benchmark's sweep-1d run (the C11 setting stepped at dtau_max =
    0.5, p = 1.2 and 3): each leg cuts its 8192-point grid down to 16."""
    keys = {**_SWEEP_1D, "t0": 0.0, "t1": 1000.0, "dtau_max": 0.5, "initial_mass": 0.1}
    sets = [arg for key, value in keys.items() for arg in ("--set", f"{key}={value}")]
    with logged_cuts() as cuts:
        rc = main(["sweep", "--config", cfg_path, *sets, "--p-values", "1.2,3",
                   "--out-dir", str(tmp_path / "out")])
    assert rc == 0
    starts = [i for i, (points, _) in enumerate(cuts) if points == 8192]
    assert starts == [0, starts[1]]
    assert cuts[starts[1] - 1][1] == 16 and cuts[-1][1] == 16


# a table does not define h past its last time, wherever that lies, so its
# tail test is undetermined and the row stays a success; h = 0 converges
@pytest.mark.parametrize("rows,t0,t1,verdict", [
    ("5,1\n1000,1\n", 5.0, 1000.0, "undetermined"),
    ("0,1\n1,1\n", 0.0, 1.0, "undetermined"),
    (None, 0.5, 60.0, "convergent"),
], ids=["table-past-1", "table-ends-at-1", "none"])
def test_cli_sweep_tests_a_table_over_its_range(cfg_path, tmp_path, capsys,
                                                rows, t0, t1, verdict):
    table = tmp_path / "h.csv"
    table.write_text(f"time,value\n{rows}")
    absorption = ["absorption=none"] if rows is None else [
        "absorption=table", f"absorption_table={table}"]
    out = tmp_path / "out"
    argv = ["sweep", "--config", cfg_path, "--p-values", "3", "--out-dir", str(out)]
    for override in (f"t0={t0}", f"t1={t1}", *absorption):
        argv += ["--set", override]
    assert main(argv) == 0
    assert f" condition_h={verdict} " in capsys.readouterr().out
    assert (out / "sweep.csv").read_text().splitlines()[1].endswith("," + verdict)


def test_cli_sweep_rejects_bad_p_values(cfg_path, tmp_path, capsys, monkeypatch):
    out = tmp_path / "sweep_out"
    # a non-finite exponent is an error row, not a run that absorbs nothing
    rc = main(["sweep", "--config", cfg_path, "--p-values", "3,inf",
               "--out-dir", str(out)])
    assert rc == 1
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 3
    assert "error" not in lines[1]
    assert lines[2].startswith("inf,") and "error: p must be finite" in lines[2]
    capsys.readouterr()

    rc = main(["sweep", "--config", cfg_path, "--p-values", "1,x",
               "--out-dir", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == "configuration error: cannot parse --p-values: '1,x'\n"

    # p values that share a trace name are rejected before any solve or output
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the p values were checked")

    monkeypatch.setattr(cli, "_solve_config", no_solve)
    for p_values, second in (("3,3.0000001", "3.0000000999999998"), ("1.2,3,3", "3")):
        rc = main(["sweep", "--config", cfg_path, "--p-values", p_values,
                   "--out-dir", str(tmp_path / "fresh")])
        assert rc == 1
        assert capsys.readouterr() == ("", (
            f"configuration error: --p-values 3 and {second} would both write "
            "mass_p3.csv; give values that differ in 6 significant digits\n"))
    assert not (tmp_path / "fresh").exists()


def test_cli_sweep_rejects_nan_beta_before_printing(cfg_path, tmp_path, capsys):
    rc = main(["sweep", "--config", cfg_path, "--set", "beta=nan",
               "--p-values", "3", "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("configuration error: beta ")
    assert "critical_exponent" not in captured.out


def test_cli_capacity(cfg_path, tmp_path, capsys):
    out = tmp_path / "cap_out"
    rc = main(["capacity", "--config", cfg_path,
               "--set", "capacity_radii=4,8",
               "--set", "capacity_points=32768",
               "--out-dir", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "slope=" in stdout and "reference_slope=-1" in stdout
    lines = (out / "capacity.csv").read_text().splitlines()
    assert lines[0] == "R,integral,fitted_slope"
    assert len(lines) == 3
    vals = [float(line.split(",")[1]) for line in lines[1:]]
    assert vals[1] < vals[0]  # integral falls with R


def test_cli_capacity_evaluates_the_closed_forms_once(cfg_path, tmp_path, capsys,
                                                      monkeypatch):
    # one call for all radii, on the (n/2 + 1)^N orthant of the scaled grid
    sizes = []
    closed_form = fractional.bracket_frac_laplacian

    def spy(r, *args):
        sizes.append(np.size(r))
        return closed_form(r, *args)

    monkeypatch.setattr(fractional, "bracket_frac_laplacian", spy)
    rc = main(["capacity", "--config", cfg_path,
               "--set", "capacity_radii=4,8,16",
               "--set", "capacity_points=32768",
               "--out-dir", str(tmp_path / "out")])
    assert rc == 0
    assert capsys.readouterr().out.count("R=") == 3
    assert sizes == [16385]


def test_cli_capacity_checks_the_memory_budget(cfg_path, tmp_path, capsys, monkeypatch):
    # a lowered budget stands in for a huge capacity_points: nothing runs
    monkeypatch.setattr(grid_module, "_MAX_BYTES", fractional._CAPACITY_GRIDS * 8 * 1024 - 1)
    rc = main(["capacity", "--config", cfg_path, "--set", "capacity_points=1024",
               "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(
        "configuration error: capacity_points = 1024 gives a 1024-point capacity grid")
    assert "R=" not in captured.out


def test_cli_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    stdout = capsys.readouterr().out
    assert "selftest.kernel_mass=ok" in stdout
    assert "FAIL" not in stdout


def test_cli_selftest_detects_injected_nan(monkeypatch, capsys):
    solve = cli.solve

    def poisoned(*args):
        result = solve(*args)
        result.final.values[0] = np.nan
        return result

    monkeypatch.setattr(cli, "solve", poisoned)
    assert main(["selftest"]) == 2
    assert "non-finite" in capsys.readouterr().err


def test_cli_reports_unexpected_errors_in_one_line(cfg_path, tmp_path,
                                                    monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("spectral buffer lost")

    monkeypatch.setattr(cli, "cmd_kernel", broken)
    rc = main(["kernel", "--config", cfg_path, "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err == "internal error: RuntimeError: spectral buffer lost\n"
    assert captured.out == ""


def test_cli_output_root_env(cfg_path, tmp_path, monkeypatch):
    root = tmp_path / "rooted"
    monkeypatch.setenv("MIXHEAT_OUTPUT_ROOT", str(root))
    assert main(["kernel", "--config", cfg_path]) == 0
    assert (root / "kernel.csv").exists()
