"""Command line front end.

Subcommands: kernel, solve, analyze, sweep, capacity, selftest. Results
go to stdout as deterministic key=value lines (floats printed with %.17g
so reruns diff byte-for-byte); files land under --out-dir, which defaults
to $MIXHEAT_OUTPUT_ROOT or the working directory.

Exit codes: 0 success, 1 configuration or usage error, 2 numerical
failure (including a failing selftest) or any other internal error, which
is reported in one line (its traceback goes to the debug log).
"""

import argparse
import csv
import dataclasses
import logging
import math
import os
import sys
import tempfile

import numpy as np

from .config import (build_grid, build_problem, capacity_radii, kernel_times,
                     load_config, parse_float_list, snapshot_times)
from .errors import ConfigurationError, NumericalFailureError
from .fractional import (bracket_profile, bracket_second_derivative,
                         capacity_integral, make_test_function_spec)
from .grid import integral, make_field, make_grid, read_field, write_field
from .kernels import kernel_lq_norm, mixed_kernel, stable_kernel
from .observers import (classify_mass_limit, condition_h_check,
                        critical_exponent, mass_trace, read_mass_csv,
                        write_mass_csv)
from .solver import (make_step_schedule, mass_identity_defect, solve)

_log = logging.getLogger(__name__)


def _fmt(x) -> str:
    return "%.17g" % float(x)


def _out_dir(args) -> str:
    root = args.out_dir or os.environ.get("MIXHEAT_OUTPUT_ROOT") or "."
    os.makedirs(root, exist_ok=True)
    return root


def _add_config_args(sub):
    sub.add_argument("--config", required=True, help="flat key=value config file")
    sub.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                     help="override a config entry (repeatable)")
    sub.add_argument("--out-dir", default=None,
                     help="output directory (default: $MIXHEAT_OUTPUT_ROOT or .)")


def _trailing_slope(times, values) -> float:
    """Log-log slope over the last decade of positive samples; nan when
    there are not enough points to fit."""
    sel = (times > 0) & (values > 0)
    t, v = times[sel], values[sel]
    if t.size < 4:
        return math.nan
    window = t >= t[-1] / 10.0
    if np.count_nonzero(window) < 4:
        return math.nan
    return float(np.polyfit(np.log(t[window]), np.log(v[window]), 1)[0])


def cmd_kernel(args) -> int:
    cfg = load_config(args.config, overrides=args.set)
    grid = build_grid(cfg)
    out = _out_dir(args)
    rows = []
    last = None
    for t in kernel_times(cfg):
        k = mixed_kernel(grid, cfg.alpha, t)
        last = k
        for q in (1.0, 2.0, math.inf):
            rows.append((t, q, kernel_lq_norm(k, q)))
    csv_path = os.path.join(out, "kernel.csv")
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("t", "q", "norm"))
        for t, q, norm in rows:
            writer.writerow((_fmt(t), "inf" if math.isinf(q) else _fmt(q), _fmt(norm)))
    field_path = os.path.join(out, "kernel.fhk")
    write_field(last, field_path)
    print(f"alpha={_fmt(cfg.alpha)}")
    print(f"mass={_fmt(integral(last))}")
    print(f"csv={csv_path}")
    print(f"field={field_path}")
    return 0


def cmd_solve(args) -> int:
    cfg = load_config(args.config, overrides=args.set)
    problem = build_problem(cfg)
    schedule = make_step_schedule(cfg.t0, cfg.t1, cfg.beta, cfg.dtau_max,
                                  snapshot_times=snapshot_times(cfg))
    result = solve(problem, schedule)
    out = _out_dir(args)
    trace_path = os.path.join(out, "mass.csv")
    write_mass_csv(mass_trace(result), trace_path)
    field_path = os.path.join(out, "final.fhk")
    write_field(result.final, field_path)
    print(f"steps={result.total_steps}")
    print(f"initial_mass={_fmt(result.initial_mass)}")
    print(f"final_mass={_fmt(result.mass[-1])}")
    print(f"absorbed={_fmt(result.absorbed[-1])}")
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
    print(f"linf_trailing_slope={_fmt(_trailing_slope(trace.times, trace.linf))}")
    print(f"l2_trailing_slope={_fmt(_trailing_slope(trace.times, trace.l2))}")
    return 0


def cmd_sweep(args) -> int:
    cfg = load_config(args.config, overrides=args.set)
    p_values = parse_float_list(args.p_values, "--p-values")
    out = _out_dir(args)
    p_crit = critical_exponent(cfg.alpha, cfg.beta, cfg.dim)
    print(f"critical_exponent={_fmt(p_crit)}")
    rows = []
    failures = []
    for p in p_values:
        try:
            cfg_p = dataclasses.replace(cfg, p=p)
            problem = build_problem(cfg_p)
            schedule = make_step_schedule(cfg_p.t0, cfg_p.t1, cfg_p.beta,
                                          cfg_p.dtau_max,
                                          snapshot_times=snapshot_times(cfg_p))
            result = solve(problem, schedule)
            trace = mass_trace(result)
            trace_path = os.path.join(out, f"mass_p{p:g}.csv")
            write_mass_csv(trace, trace_path)
            c = classify_mass_limit(trace)
            cond = condition_h_check(p, cfg.alpha, cfg.beta, cfg.dim,
                                     problem.absorption)
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
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("p", "alpha", "beta", "classification",
                         "M_inf_estimate", "critical_exponent", "condition_h"))
        writer.writerows(rows)
    print(f"csv={csv_path}")
    if failures:
        return 2 if any(isinstance(e, NumericalFailureError) for _, e in failures) else 1
    return 0


def cmd_capacity(args) -> int:
    cfg = load_config(args.config, overrides=args.set)
    radii = capacity_radii(cfg)
    for key in ("capacity_b", "capacity_half_width"):
        value = getattr(cfg, key)
        if not (math.isfinite(value) and value > 0):
            raise ConfigurationError(f"{key} must be finite and positive, got {value}")
    values = []
    for R in radii:
        grid = make_grid(dim=cfg.dim,
                         half_width=cfg.capacity_b * R * cfg.capacity_half_width,
                         points=cfg.capacity_points)
        spec = make_test_function_spec(q0=cfg.capacity_q0, B=cfg.capacity_b, R=R,
                                       p=cfg.p, alpha=cfg.alpha, dim=cfg.dim)
        values.append(capacity_integral(spec, cfg.p, cfg.alpha, grid))
        print(f"R={_fmt(R)} value={_fmt(values[-1])}")
    slope = math.nan
    if len(radii) >= 2:
        slope = float(np.polyfit(np.log(radii), np.log(values), 1)[0])
        print(f"slope={_fmt(slope)}")
        print(f"reference_slope={_fmt(cfg.dim - cfg.alpha * cfg.p / (cfg.p - 1.0))}")
    csv_path = os.path.join(_out_dir(args), "capacity.csv")
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("R", "integral", "fitted_slope"))
        for R, v in zip(radii, values):
            writer.writerow((_fmt(R), _fmt(v), _fmt(slope)))
    print(f"csv={csv_path}")
    return 0


def cmd_selftest(args) -> int:
    """Fast consistency battery: kernel mass, semigroup composition, the
    closed-form alpha=1 kernel, the scaling identity, and the mass ledger.
    MIXHEAT_SELFTEST_INJECT_NAN=1 corrupts a field on purpose to prove the
    numerical-failure path (process exits 2)."""
    from .grid import convolve
    from .oracles import scaling_check
    from .solver import ProblemSpec, make_absorption

    failures = []

    def check(name, ok, detail=""):
        print(f"selftest.{name}={'ok' if ok else 'FAIL ' + detail}")
        if not ok:
            failures.append(name)

    grid = make_grid(dim=1, half_width=40.0, points=1024)
    k1 = mixed_kernel(grid, 1.0, 1.0)
    dev = abs(integral(k1) - 1.0)
    check("kernel_mass", dev < 1e-10, f"mass deviation {dev:.2e}")

    k2 = mixed_kernel(grid, 1.0, 2.0)
    comp = convolve(k1, k1)
    dist = float(np.sum(np.abs(comp.values - k2.values)) * grid.cell_volume)
    check("semigroup", dist < 1e-6, f"L1 distance {dist:.2e}")

    wide = make_grid(dim=1, half_width=16384.0, points=2 ** 20)
    cauchy = stable_kernel(wide, 1.0, 1.0)
    x = wide.axis_coords()
    near = np.abs(x) <= 10.0
    exact = 1.0 / (np.pi * (1.0 + x[near] ** 2))
    rel = float(np.max(np.abs(cauchy.values[near] - exact) / exact))
    check("cauchy_closed_form", rel < 1e-6, f"max rel {rel:.2e}")

    lhs, rhs = scaling_check(lambda y: bracket_profile(y, 1.0, 2.0), 0.5, 2.0, 0.7,
                             second_derivative=lambda y: bracket_second_derivative(y, 2.0))
    sc_rel = abs(lhs - rhs) / abs(rhs)
    check("scaling_identity", sc_rel < 1e-5, f"rel {sc_rel:.2e}")

    xg = grid.axis_coords()
    u0 = make_field(grid, np.exp(-xg * xg))
    prob = ProblemSpec(alpha=1.2, beta=0.5, p=2.0,
                       absorption=make_absorption("constant", coefficient=1.0),
                       initial=u0)
    schedule = make_step_schedule(0.5, 5.0, 0.5, dtau_max=0.25)
    res = solve(prob, schedule)
    defect = mass_identity_defect(res)
    check("mass_ledger", defect < 1e-12, f"defect {defect:.2e}")

    if os.environ.get("MIXHEAT_SELFTEST_INJECT_NAN"):
        poisoned = res.final.values.copy()
        poisoned[0] = math.nan
        make_field(grid, poisoned)  # raises NumericalFailureError

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

    sub = subs.add_parser("kernel", help="evaluate linear-kernel norms across times")
    _add_config_args(sub)
    sub.set_defaults(func=cmd_kernel)

    sub = subs.add_parser("solve", help="run one absorbed-diffusion simulation")
    _add_config_args(sub)
    sub.set_defaults(func=cmd_solve)

    sub = subs.add_parser("analyze", help="classify a mass trace CSV")
    sub.add_argument("--trace", required=True, help="mass trace CSV from solve")
    sub.add_argument("--window", type=float, default=None,
                     help="trailing fit window as a fraction of the log-time span "
                          "(default: the last decade)")
    sub.set_defaults(func=cmd_analyze)

    sub = subs.add_parser("sweep", help="solve across several nonlinearity exponents")
    _add_config_args(sub)
    sub.add_argument("--p-values", required=True,
                     help="comma list, e.g. 1.2,2,3 (empty list is an empty report)")
    sub.set_defaults(func=cmd_sweep)

    sub = subs.add_parser("capacity", help="rescaled test-function integral across radii")
    _add_config_args(sub)
    sub.set_defaults(func=cmd_capacity)

    sub = subs.add_parser("selftest", help="quick internal consistency battery")
    sub.set_defaults(func=cmd_selftest)

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
