"""The four benchmark workloads: their inputs, their seed jitter and the
check of their outputs.

Each workload is one `mixheat` subcommand on a fixed problem size. The seed
only jitters inputs that leave the amount of work unchanged (the Gaussian
datum's center, width and mass; the kernel times inside their decade), so
every seed runs the same number of steps and transforms. The seed picks one
of VARIANTS jittered input sets; variant 0 is the unjittered problem. For
each variant, reference outputs recorded at the commit that introduced the
benchmark live in reference.json (see record.py), and every repetition is
compared against them and against size-independent invariants.
"""

import csv
import math
import os
import random
from dataclasses import dataclass

VARIANTS = 8

# Roundoff-level changes (say, another FFT path) move outputs far less than
# this; a wrong answer moves them far more.
RTOL = 1e-9
# Capacity values are only defined to the 1e-6 box-invariance level.
CAPACITY_RTOL = 1e-6
# Fitted slopes near zero (the plateau) get an absolute floor as well.
SLOPE_ATOL = 1e-9
LEDGER_MAX = 1e-12
MASS_ATOL = 1e-13

_SWEEP_BASE = {
    "alpha": 1.0, "dim": 1, "half_width": 400.0, "points": 8192, "beta": 0.0,
    "t0": 0.0, "t1": 1000.0, "dtau_max": 0.5,
    "absorption": "constant", "absorption_coefficient": 1.0,
    "initial": "gaussian", "initial_width": 1.5, "initial_mass": 0.1,
    "initial_center": 0.0,
}


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    args: tuple          # CLI arguments after --config/--out-dir
    sizes: dict          # size -> config mapping
    working_set_mib: float
    working_set_note: str


WORKLOADS = {w.name: w for w in (
    Workload(
        name="sweep-1d",
        subcommand="sweep",
        args=("--p-values", "1.2,3"),
        sizes={
            "full": _SWEEP_BASE,
            "tiny": {**_SWEEP_BASE, "half_width": 100.0, "points": 1024, "t1": 100.0},
        },
        working_set_mib=1.0,
        working_set_note="8192-point field 64 KiB, spectrum 128 KiB",
    ),
    Workload(
        name="solve-2d",
        subcommand="solve",
        args=("--set", "p=3"),
        sizes={
            "full": {**_SWEEP_BASE, "dim": 2, "points": 256, "half_width": 64.0},
            "tiny": {**_SWEEP_BASE, "dim": 2, "points": 32, "half_width": 16.0,
                     "t1": 100.0},
        },
        working_set_mib=8.0,
        working_set_note="256^2 field 512 KiB, spectrum 1 MiB, a few of each live",
    ),
    Workload(
        name="capacity-1d",
        subcommand="capacity",
        args=(),
        sizes={
            "full": {"alpha": 1.0, "half_width": 1.0, "points": 16, "p": 2.0,
                     "capacity_q0": 1.5, "capacity_b": 2.0,
                     "capacity_radii": "8,16,32,64,128",
                     "capacity_half_width": 2e4, "capacity_points": 131072},
            "tiny": {"alpha": 1.0, "half_width": 1.0, "points": 16, "p": 2.0,
                     "capacity_q0": 1.5, "capacity_b": 2.0,
                     "capacity_radii": "8,16",
                     "capacity_half_width": 2e4, "capacity_points": 16384},
        },
        working_set_mib=12.0,
        working_set_note="131072 radii 1 MiB per array, panel chunks ~10 MiB",
    ),
    Workload(
        name="kernel-wide",
        subcommand="kernel",
        args=(),
        sizes={
            "full": {"alpha": 0.5, "half_width": 2.0 ** 24, "points": 2 ** 21},
            "tiny": {"alpha": 0.5, "half_width": 2.0 ** 17, "points": 2 ** 14},
        },
        working_set_mib=160.0,
        working_set_note="2^21-point field 16 MiB, spectrum 32 MiB, ~6 live",
    ),
)}


def variant_of(seed):
    return seed % VARIANTS


def make_inputs(workload, seed, size="full"):
    """Config mapping for this workload, size and seed (deterministic)."""
    cfg = dict(workload.sizes[size])
    variant = variant_of(seed)
    rng = random.Random(variant)
    if workload.name in ("sweep-1d", "solve-2d") and variant:
        cfg["initial_center"] = rng.uniform(-0.5, 0.5)
        cfg["initial_width"] *= rng.uniform(0.95, 1.05)
        cfg["initial_mass"] *= rng.uniform(0.95, 1.05)
    if workload.name == "kernel-wide":
        # Nine geometric times on [1e2, 1e3], each nudged inside its decade.
        logs = [2.0 + k / 8.0 for k in range(9)]
        if variant:
            logs = [min(3.0, max(2.0, x + rng.uniform(-0.03, 0.03))) for x in logs]
        cfg["kernel_times"] = ",".join(repr(10.0 ** x) for x in logs)
    return cfg


def config_text(cfg):
    return "".join(f"{k} = {v!r}\n" if isinstance(v, float) else f"{k} = {v}\n"
                   for k, v in cfg.items())


def cli_argv(workload, config_path, out_dir):
    return [workload.subcommand, "--config", config_path, "--out-dir", out_dir,
            *workload.args]


# ---------------------------------------------------------------------------
# Output extraction: every number the check looks at, by name.

def _key_values(line):
    return dict(tok.split("=", 1) for tok in line.split() if "=" in tok)


def _stdout_map(stdout):
    out = {}
    for line in stdout.splitlines():
        if line.count("=") == 1:
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def _ledger_defect(trace):
    m0 = float(trace.mass[0] + trace.absorbed[0])
    return max(abs(float(m) + float(a) - m0)
               for m, a in zip(trace.mass, trace.absorbed)) / abs(m0)


def extract(workload, stdout, out_dir):
    """Named values of one repetition's outputs; raises on missing output."""
    if workload.name == "sweep-1d":
        from mixheat.observers import read_mass_csv
        values = {"critical_exponent": float(_stdout_map(stdout)["critical_exponent"])}
        for line in stdout.splitlines():
            if not line.startswith("p=") or "kind=" not in line:
                continue
            kv = _key_values(line)
            p = kv["p"]
            trace = read_mass_csv(kv["trace"])
            values[f"p={p} kind"] = kv["kind"]
            values[f"p={p} trailing_slope"] = float(kv["trailing_slope"])
            values[f"p={p} final_mass"] = float(trace.mass[-1])
            values[f"p={p} absorbed"] = float(trace.absorbed[-1])
            values[f"p={p} rows"] = int(trace.times.size)
            values[f"p={p} ledger_defect"] = _ledger_defect(trace)
        return values
    if workload.name == "solve-2d":
        kv = _stdout_map(stdout)
        values = {k: float(kv[k]) for k in ("initial_mass", "final_mass", "absorbed",
                                            "clipped_mass", "ledger_defect")}
        values["steps"] = int(kv["steps"])
        values["field_bytes"] = os.path.getsize(kv["field"])
        return values
    if workload.name == "capacity-1d":
        values = {}
        for line in stdout.splitlines():
            kv = _key_values(line)
            if "R" in kv:
                values[f"R={kv['R']} value"] = float(kv["value"])
        kv = _stdout_map(stdout)
        values["slope"] = float(kv["slope"])
        return values
    if workload.name == "kernel-wide":
        kv = _stdout_map(stdout)
        values = {"mass": float(kv["mass"])}
        sup = []
        with open(kv["csv"], newline="") as fh:
            for row in csv.DictReader(fh):
                values[f"t={row['t']} q={row['q']} norm"] = float(row["norm"])
                if row["q"] == "inf":
                    sup.append((float(row["t"]), float(row["norm"])))
        values["sup_slope"] = _fitted_slope(sup)
        return values
    raise KeyError(workload.name)


def _fitted_slope(points):
    """Least-squares slope of log(norm) against log(t)."""
    xs = [math.log(t) for t, _ in points]
    ys = [math.log(v) for _, v in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


# ---------------------------------------------------------------------------
# Checks.

def invariant_problems(workload, values, size="full"):
    """Size-independent invariants, plus the acceptance bands at full size."""
    problems = []
    full = size == "full"

    def need(ok, what):
        if not ok:
            problems.append(what)

    if workload.name == "sweep-1d":
        need(abs(values["critical_exponent"] - 2.0) <= 1e-12,
             f"critical_exponent {values['critical_exponent']} != 2")
        for p, kind in (("1.2", "decaying_to_zero"), ("3", "positive_plateau")):
            need(f"p={p} kind" in values, f"no result for p={p}")
            if f"p={p} kind" not in values:
                continue
            d = values[f"p={p} ledger_defect"]
            need(d <= LEDGER_MAX, f"p={p} ledger defect {d:.3e} > {LEDGER_MAX}")
            if full:
                need(values[f"p={p} kind"] == kind,
                     f"p={p} kind {values[f'p={p} kind']} != {kind}")
    elif workload.name == "solve-2d":
        d = values["ledger_defect"]
        need(d <= LEDGER_MAX, f"ledger defect {d:.3e} > {LEDGER_MAX}")
        need(values["steps"] > 0, "no steps taken")
        if full:
            need(values["steps"] == 2018, f"steps {values['steps']} != 2018")
    elif workload.name == "capacity-1d":
        need(all(v > 0 for k, v in values.items() if k.startswith("R=")),
             "non-positive capacity value")
        if full:
            need(-1.1 <= values["slope"] <= -0.9,
                 f"capacity slope {values['slope']} outside C07 band [-1.1, -0.9]")
    elif workload.name == "kernel-wide":
        need(abs(values["mass"] - 1.0) <= 1e-12, f"kernel mass {values['mass']} != 1")
        if full:
            need(-2.1 <= values["sup_slope"] <= -1.9,
                 f"sup-norm slope {values['sup_slope']} outside C04 band [-2.1, -1.9]")
    return problems


def _tolerance(workload, key):
    """(rtol, atol) for comparing one value with its reference; None skips
    values that are themselves roundoff (ledger defects)."""
    if key.endswith("ledger_defect"):
        return None
    if workload.name == "capacity-1d":
        return CAPACITY_RTOL, 0.0
    if key.endswith("slope"):
        return RTOL, SLOPE_ATOL
    if key.endswith(("absorbed", "clipped_mass")):
        # Sums of per-step mass differences: their roundoff scales with the
        # initial mass (about 0.1), not with their own, possibly zero, size.
        return RTOL, MASS_ATOL
    return RTOL, 0.0


def reference_problems(workload, values, reference):
    problems = []
    for key, want in reference.items():
        tol = _tolerance(workload, key)
        if tol is None:
            continue
        got = values.get(key)
        if got is None:
            problems.append(f"missing output {key}")
        elif isinstance(want, (str, int)):
            if got != want:
                problems.append(f"{key} = {got!r}, reference {want!r}")
        elif not abs(got - want) <= tol[0] * abs(want) + tol[1]:
            problems.append(f"{key} = {got!r}, reference {want!r} "
                            f"(rtol {tol[0]:g}, atol {tol[1]:g})")
    for key in sorted(set(values) - set(reference)):
        problems.append(f"unexpected output {key}")
    return problems
