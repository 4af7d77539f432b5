"""Config parsing and the command-line harness (exit codes, artifacts)."""

import numpy as np
import pytest

from mixheat import (
    ConfigurationError,
    integral,
    make_grid,
    read_field,
    read_mass_csv,
    write_field,
)
from mixheat import cli
from mixheat.cli import main
from mixheat.config import (
    build_absorption,
    build_grid,
    build_initial,
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
    grid = build_grid(cfg)
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
    grid = build_grid(cfg)
    u0 = build_initial(cfg, grid)
    assert integral(u0) == pytest.approx(3.0, rel=1e-13)
    assert np.count_nonzero(u0.values) == 1


def test_build_file_initial(cfg_path, tmp_path):
    cfg = load_config(cfg_path)
    grid = build_grid(cfg)
    u0 = build_initial(cfg, grid)
    path = tmp_path / "u0.fhk"
    write_field(u0, path)
    cfg_file = load_config(cfg_path, overrides=["initial=file",
                                                f"initial_path={path}"])
    back = build_initial(cfg_file, grid)
    np.testing.assert_array_equal(back.values, u0.values)
    # a file on a different grid is refused
    other = make_grid(1, 40.0, 512)
    wrong = tmp_path / "wrong.fhk"
    write_field(build_initial(cfg, other), wrong)
    cfg_bad = load_config(cfg_path, overrides=["initial=file",
                                               f"initial_path={wrong}"])
    with pytest.raises(ConfigurationError):
        build_initial(cfg_bad, grid)


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
                                          ("p=inf", "p")])
def test_cli_rejects_non_finite_clock(cfg_path, tmp_path, capsys, override, key):
    rc = main(["solve", "--config", cfg_path, "--set", override,
               "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {key} ")
    assert "Traceback" not in err


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
])
def test_cli_rejects_bad_capacity_and_kernel_inputs(cfg_path, tmp_path, capsys,
                                                   command, override, key):
    rc = main([command, "--config", cfg_path, "--set", override,
               "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"configuration error: {key} ")
    assert "R=" not in captured.out


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

    assert main(["analyze", "--trace", str(out / "missing.csv")]) == 1


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


def test_cli_sweep_rejects_bad_p_values(cfg_path, tmp_path, capsys):
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


def test_cli_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    stdout = capsys.readouterr().out
    assert "selftest.kernel_mass=ok" in stdout
    assert "FAIL" not in stdout


def test_cli_selftest_detects_injected_nan(monkeypatch, capsys):
    monkeypatch.setenv("MIXHEAT_SELFTEST_INJECT_NAN", "1")
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
