"""Command line front end.

Subcommands: kernel, solve, analyze, sweep, capacity, selftest. Results
go to stdout as key=value lines and to CSV tables, every float in %.17g
(observers' one format) so reruns diff byte-for-byte; files land under
--out-dir, which defaults to $MIXHEAT_OUTPUT_ROOT or the working directory.

Exit codes: 0 success, 1 configuration or usage error, 2 numerical
failure (including a failing selftest) or any other internal error, which
is reported in one line (its traceback goes to the debug log).
"""

import argparse
import dataclasses
import logging
import math
import os
import re
import sys
import tempfile

import numpy as np

from .config import (build_problem, capacity_radii, kernel_times, load_config,
                     parse_float_list, snapshot_times)
from .errors import ConfigurationError, NumericalFailureError, require
from .fractional import (_check_capacity_box, bracket_laplacian, bracket_profile,
                         capacity_integral)
from .grid import Field, GridSpec, _lq_norm, convolve, integral, read_field, write_field
from .kernels import mixed_kernel, mixed_kernel_norms, stable_kernel
from .observers import (_fmt, _loglog_slope, _write_table, classify_mass_limit,
                        condition_h_check, critical_exponent, read_mass_csv, write_mass_csv)
from .solver import (PowerAbsorption, ProblemSpec, make_step_schedule,
                     mass_identity_defect, solve)

_log = logging.getLogger(__name__)


def _out_dir(args) -> str:
    root = args.out_dir or os.environ.get("MIXHEAT_OUTPUT_ROOT") or "."
    os.makedirs(root, exist_ok=True)
    return root


def cmd_kernel(args) -> int:
    cfg = load_config(args.config, overrides=args.set)
    grid = GridSpec(cfg.dim, cfg.half_width, cfg.points)
    out = _out_dir(args)
    times = kernel_times(cfg)
    norms, last = mixed_kernel_norms(grid, cfg.alpha, times)
    csv_path = os.path.join(out, "kernel.csv")
    _write_table(csv_path, ("t", "q", "norm"), np.column_stack((
        np.repeat(times, 3), np.tile((1.0, 2.0, math.inf), len(times)), norms.ravel())))
    field_path = os.path.join(out, "kernel.fhk")
    write_field(last, field_path)
    print(f"alpha={_fmt(cfg.alpha)}")
    print(f"mass={_fmt(integral(last))}")
    print(f"csv={csv_path}")
    print(f"field={field_path}")
    return 0


def _solve_config(cfg):
    """Build the problem, then the schedule (in this order, so the first
    bad key is the one reported), and run the solver. The snapshot ladder
    only places step knots: the CLI writes no field but the one at t1, so
    that is the only state the run keeps."""
    problem = build_problem(cfg)
    schedule = make_step_schedule(cfg.t0, cfg.t1, cfg.beta, cfg.dtau_max,
                                  snapshot_times=snapshot_times(cfg))
    return solve(problem, dataclasses.replace(
        schedule, snapshot_times=schedule.snapshot_times[-1:]))


def cmd_solve(args) -> int:
    result = _solve_config(load_config(args.config, overrides=args.set))
    trace = result.trace
    out = _out_dir(args)
    trace_path = os.path.join(out, "mass.csv")
    write_mass_csv(trace, trace_path)
    field_path = os.path.join(out, "final.fhk")
    write_field(result.final, field_path)
    print(f"steps={result.total_steps}")
    print(f"initial_mass={_fmt(trace.initial_mass)}")
    print(f"final_mass={_fmt(trace.mass[-1])}")
    print(f"absorbed={_fmt(trace.absorbed[-1])}")
    print(f"clipped_mass={_fmt(result.clipped_mass)}")
    print(f"ledger_defect={_fmt(mass_identity_defect(result))}")
    print(f"trace={trace_path}")
    print(f"field={field_path}")
    return 0


def cmd_analyze(args) -> int:
    trace = read_mass_csv(args.trace)
    c = classify_mass_limit(trace, window=args.window)
    print(f"kind={c.kind}")
    print(f"trailing_slope={_fmt(c.trailing_slope)}")
    print(f"relative_drop={_fmt(c.relative_drop)}")
    estimate = "none" if c.m_inf_estimate is None else _fmt(c.m_inf_estimate)
    print(f"m_inf_estimate={estimate}")
    print(f"initial_mass={_fmt(trace.initial_mass)}")
    print(f"final_mass={_fmt(trace.mass[-1])}")
    for name in ("linf", "l2"):
        slope = _loglog_slope(trace.times, getattr(trace, name), last_decade=True)
        print(f"{name}_trailing_slope={_fmt(slope)}")
    return 0


def cmd_sweep(args) -> int:
    cfg = load_config(args.config, overrides=args.set)
    p_values = parse_float_list(args.p_values, "--p-values")
    traces = {}
    for p in p_values:
        name = f"mass_p{p:g}.csv"
        if name in traces:
            raise ConfigurationError(
                f"--p-values {_fmt(traces[name])} and {_fmt(p)} would both write "
                f"{name}; give values that differ in 6 significant digits")
        traces[name] = p
    out = _out_dir(args)
    p_crit = critical_exponent(cfg.alpha, cfg.beta, cfg.dim)
    print(f"critical_exponent={_fmt(p_crit)}")
    rows = []
    failures = []
    for p in p_values:
        try:
            result = _solve_config(dataclasses.replace(cfg, p=p))
            trace = result.trace
            trace_path = os.path.join(out, f"mass_p{p:g}.csv")
            write_mass_csv(trace, trace_path)
            c = classify_mass_limit(trace)
            cond = condition_h_check(p, cfg.alpha, cfg.beta, cfg.dim,
                                     result.problem.absorption)
            estimate = "" if c.m_inf_estimate is None else _fmt(c.m_inf_estimate)
            rows.append((_fmt(p), _fmt(cfg.alpha), _fmt(cfg.beta), c.kind,
                         estimate, _fmt(p_crit), cond))
            print(f"p={_fmt(p)} kind={c.kind} trailing_slope={_fmt(c.trailing_slope)} "
                  f"condition_h={cond} trace={trace_path}")
        except (ConfigurationError, NumericalFailureError) as exc:
            failures.append((p, exc))
            rows.append((_fmt(p), _fmt(cfg.alpha), _fmt(cfg.beta),
                         f"error: {exc}", "", _fmt(p_crit), ""))
            print(f"p={_fmt(p)} FAILED: {exc}", file=sys.stderr)
    csv_path = os.path.join(out, "sweep.csv")
    _write_table(csv_path, ("p", "alpha", "beta", "classification",
                            "M_inf_estimate", "critical_exponent", "condition_h"), rows)
    print(f"csv={csv_path}")
    if failures:
        return 2 if any(isinstance(e, NumericalFailureError) for _, e in failures) else 1
    return 0


def cmd_capacity(args) -> int:
    cfg = load_config(args.config, overrides=args.set)
    radii = capacity_radii(cfg)
    require("finite and >= 1", capacity_b=cfg.capacity_b)
    # the box's widest first: it lies inside the range GridSpec checks
    _check_capacity_box(cfg.capacity_q0, cfg.p, cfg.alpha, cfg.dim, cfg.capacity_half_width)
    try:
        grid = GridSpec(cfg.dim, cfg.capacity_half_width, cfg.capacity_points)
    except ConfigurationError as exc:  # named by the capacity keys
        raise ConfigurationError(re.sub(r"^(half_width|points) ", r"capacity_\1 ", str(exc)))
    values = capacity_integral(cfg.capacity_q0, cfg.p, cfg.alpha, grid,
                               [cfg.capacity_b * R for R in radii])
    for R, v in zip(radii, values):
        print(f"R={_fmt(R)} value={_fmt(v)}")
    slope = math.nan
    if len(radii) >= 2:
        slope = _loglog_slope(radii, values)
        print(f"slope={_fmt(slope)}")
        print(f"reference_slope={_fmt(cfg.dim - cfg.alpha * cfg.p / (cfg.p - 1.0))}")
    csv_path = os.path.join(_out_dir(args), "capacity.csv")
    _write_table(csv_path, ("R", "integral", "fitted_slope"),
                 np.column_stack((radii, values, np.full(len(radii), slope))))
    print(f"csv={csv_path}")
    return 0


def cmd_selftest(args) -> int:
    """Fast consistency battery: kernel mass, semigroup composition, the
    closed-form alpha=1 kernel, the scaling identity, the mass ledger and a
    field file round trip, which rejects a non-finite field (exit 2)."""
    from .oracles import scaling_check

    failures = []

    def check(name, ok, detail=""):
        print(f"selftest.{name}={'ok' if ok else 'FAIL ' + detail}")
        if not ok:
            failures.append(name)

    grid = GridSpec(dim=1, half_width=40.0, points=1024)
    k1 = mixed_kernel(grid, 1.0, 1.0)
    dev = abs(integral(k1) - 1.0)
    check("kernel_mass", dev < 1e-10, f"mass deviation {dev:.2e}")

    k2 = mixed_kernel(grid, 1.0, 2.0)
    comp = convolve(k1, k1)
    dist = _lq_norm(comp.values - k2.values, 1.0, grid.cell_volume)
    check("semigroup", dist < 1e-6, f"L1 distance {dist:.2e}")

    wide = GridSpec(dim=1, half_width=16384.0, points=2 ** 20)
    cauchy = stable_kernel(wide, 1.0, 1.0)
    x = wide.axis_coords()
    near = np.abs(x) <= 10.0
    exact = 1.0 / (np.pi * (1.0 + x[near] ** 2))
    rel = float(np.max(np.abs(cauchy.values[near] - exact) / exact))
    check("cauchy_closed_form", rel < 1e-6, f"max rel {rel:.2e}")

    lhs, rhs = scaling_check(lambda y: bracket_profile(y, 2.0), 0.5, 2.0, 0.7,
                             second_derivative=lambda y: bracket_laplacian(y, 2.0, 1))
    sc_rel = abs(lhs - rhs) / abs(rhs)
    check("scaling_identity", sc_rel < 1e-5, f"rel {sc_rel:.2e}")

    xg = grid.axis_coords()
    u0 = Field(grid, np.exp(-xg * xg))
    prob = ProblemSpec(alpha=1.2, beta=0.5, p=2.0, absorption=PowerAbsorption(1.0),
                       initial=u0)
    schedule = make_step_schedule(0.5, 5.0, 0.5, dtau_max=0.25)
    res = solve(prob, schedule)
    defect = mass_identity_defect(res)
    check("mass_ledger", defect < 1e-12, f"defect {defect:.2e}")

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "roundtrip.fhk")
        write_field(res.final, path)
        back = read_field(path)
        same = back.grid == grid and np.array_equal(back.values, res.final.values)
        check("field_io", same)

    print(f"selftest={'ok' if not failures else 'FAIL'}")
    return 2 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixheat",
        description="Simulate and analyze absorbed diffusion with a mixed "
                    "local/fractional operator on a periodic box.")
    subs = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, config=True):
        sub = subs.add_parser(name, help=help_text)
        if config:
            sub.add_argument("--config", required=True, help="flat key=value config file")
            sub.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                             help="override a config entry (repeatable)")
            sub.add_argument("--out-dir", default=None,
                             help="output directory (default: $MIXHEAT_OUTPUT_ROOT or .)")
        sub.set_defaults(func=func)
        return sub

    add("kernel", cmd_kernel, "evaluate linear-kernel norms across times")
    add("solve", cmd_solve, "run one absorbed-diffusion simulation")
    sub = add("analyze", cmd_analyze, "classify a mass trace CSV", config=False)
    sub.add_argument("--trace", required=True, help="mass trace CSV from solve")
    sub.add_argument("--window", type=float, default=None,
                     help="trailing fit window as a fraction of the log-time span "
                          "(default: the last decade)")
    sub = add("sweep", cmd_sweep, "solve across several nonlinearity exponents")
    sub.add_argument("--p-values", required=True,
                     help="comma list, e.g. 1.2,2,3 (empty list is an empty report)")
    add("capacity", cmd_capacity, "rescaled test-function integral across radii")
    add("selftest", cmd_selftest, "quick internal consistency battery", config=False)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; usage errors are configuration
        # errors under this tool's exit-code contract (and --help exits 0).
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return 1
    except NumericalFailureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        _log.debug("internal error", exc_info=True)
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
