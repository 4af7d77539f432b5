"""mixheat benchmark: run one workload (or all) through the public CLI entry
point and print its metrics.

    python3 perfbench/run.py --workload sweep-1d --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py --workload all

Closed loop, one client: repetitions run one after another, each in a
fresh interpreter (child.py), so no in-process cache carries over from one
repetition to the next. Repetitions fill --seconds (see run_workload).
With --trace 0 the run reports the end-to-end metrics of BENCHMARK.json as
medians over its repetitions (setup_s also over several bare imports),
with times scaled to a reference machine speed (BURST_REF_S); with
--trace 1 it makes untraced repetitions for half the time, then one traced
repetition whose spans give the per-layer metrics (tracing.py). Every
repetition's outputs are checked (workloads.py). The last stdout line is
the JSON result; the lines before it are the human-readable report.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5        # bare `import mixheat.cli` interpreters per run
MIN_REPS = 2             # untraced repetitions per run, however slow
CHILD_TIMEOUT_S = 150    # one repetition; a run must end within 180 s
# A shared machine's speed drifts by tens of percent within minutes, and
# wall time drifts with it. Each child times a fixed burst of benchmark-owned
# work after the import and during the measured call (child.SpeedProbe), and
# every time sample is scaled by BURST_REF_S / (mean burst time over the
# same interval): time metrics read as seconds on a machine where the burst
# takes BURST_REF_S (about its time on an idle 2-vCPU Xeon VM). Unscaled
# medians are printed in the report.
BURST_REF_S = 0.003
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


class Setup(Exception):
    """The checkout cannot run the benchmark (no result is printed)."""


def scaled(value, burst_s):
    """(value at the reference speed, unscaled value) of one time sample."""
    return value * BURST_REF_S / burst_s, value


def nproc():
    return len(os.sched_getaffinity(0))


def child_env():
    env = dict(os.environ)
    env.pop("MIXHEAT_OUTPUT_ROOT", None)
    for var in THREAD_VARS:
        env[var] = str(nproc())
    return env


def run_child(work, tag, argv=None, trace=False):
    """One fresh interpreter. Returns (result dict or None, stdout, error)."""
    request = work / f"{tag}.request.json"
    result_path = work / f"{tag}.result.json"
    request.write_text(json.dumps({"src": str(ROOT / "src"), "argv": argv,
                                   "trace": trace, "result": str(result_path)}))
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(request)],
                              capture_output=True, text=True, env=child_env(),
                              timeout=CHILD_TIMEOUT_S, cwd=str(work))
    except subprocess.TimeoutExpired:
        return None, "", f"timed out after {CHILD_TIMEOUT_S} s"
    if proc.returncode != 0 or not result_path.exists():
        return None, proc.stdout, (f"child exited {proc.returncode}: "
                                   f"{proc.stderr.strip()[-400:]}")
    result = json.loads(result_path.read_text())
    return result, proc.stdout, None


def environment():
    """What ran: machine, caches, library versions, FFT backend, BLAS, caps."""
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    caches = []
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        try:
            caches.append("L{} {} {}".format(*((idx / f).read_text().strip()
                                               for f in ("level", "type", "size"))))
        except OSError:
            pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        load = Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        load = []
    return {
        "cpu": cpu, "nproc": nproc(), "caches": caches, "loadavg": load,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "fft_backend": f"numpy.fft ({numpy.fft._pocketfft.__name__})",
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_caps": {v: str(nproc()) for v in THREAD_VARS},
    }


def load_reference(workload, seed, cfg):
    """Recorded outputs for this input variant; None when not recorded."""
    path = HERE / "reference.json"
    entry = json.loads(path.read_text()).get(workload.name, {}).get(
        str(workloads.variant_of(seed)))
    if entry is None:
        return None
    if entry["inputs"] != cfg:
        raise Setup(f"{workload.name}: reference.json was recorded for other inputs")
    return entry["values"]


def check_rep(workload, result, stdout, error, out_dir, reference, size):
    """Problems with one repetition (empty list: correct), and its values."""
    if error:
        return [error], None
    if result["code"] != 0:
        return [f"mixheat exited {result['code']}"], None
    try:
        values = workloads.extract(workload, stdout, str(out_dir))
    except (KeyError, ValueError, OSError) as exc:
        return [f"cannot read outputs: {exc!r}"], None
    problems = workloads.invariant_problems(workload, values, size)
    if reference is not None:
        problems += workloads.reference_problems(workload, values, reference)
    return problems, values


def run_workload(name, seed, seconds, trace, size, work):
    workload = workloads.WORKLOADS[name]
    cfg = workloads.make_inputs(workload, seed, size)
    reference = load_reference(workload, seed, cfg) if size == "full" else None
    config_path = work / f"{name}.cfg"
    config_path.write_text(workloads.config_text(cfg))

    # Unmeasured warm-up: bytecode compiled, shared libraries in page cache.
    _, _, error = run_child(work, "warmup")
    if error:
        raise Setup(f"cannot import mixheat.cli: {error}")
    samples = {m: [] for m in ("wall_s", "setup_s", "cpu_s", "peak_rss_mb")}
    if not trace:
        for i in range(SETUP_SAMPLES):
            result, _, error = run_child(work, f"setup{i}")
            if error:
                raise Setup(f"cannot import mixheat.cli: {error}")
            samples["setup_s"].append(scaled(result["import_s"], result["import_burst_s"]))

    reps, problems, untraced_at_import = [], [], []
    budget = seconds / 2.0 if trace else seconds
    durations = []
    start = time.perf_counter()
    while True:
        out_dir = work / f"rep{len(reps)}"
        out_dir.mkdir()
        t0 = time.perf_counter()
        result, stdout, error = run_child(
            work, f"rep{len(reps)}",
            workloads.cli_argv(workload, str(config_path), str(out_dir)))
        durations.append(time.perf_counter() - t0)
        rep_problems, _ = check_rep(workload, result, stdout, error, out_dir,
                                    reference, size)
        shutil.rmtree(out_dir)
        reps.append((result, rep_problems))
        problems += [f"rep {len(reps) - 1}: {p}" for p in rep_problems]
        if result is not None:
            samples["setup_s"].append(scaled(result["import_s"], result["import_burst_s"]))
            for m in ("wall_s", "cpu_s"):
                samples[m].append(scaled(result[m], result["burst_s"]))
            untraced_at_import.append(scaled(result["wall_s"], result["import_burst_s"])[0])
            samples["peak_rss_mb"].append((result["peak_rss_mb"],) * 2)
        # Start another repetition only if it is expected to end within half
        # a repetition of the budget, so the count does not flip between runs
        # when one repetition is a large share of the budget; an untraced run
        # always makes MIN_REPS, so its median is never a single sample.
        elapsed = time.perf_counter() - start
        if (elapsed + 0.5 * statistics.median(durations) > budget
                and (trace or len(reps) >= MIN_REPS)):
            break

    failed = sum(1 for _, p in reps if p)
    report = {"workload": name, "seed": seed, "variant": workloads.variant_of(seed),
              "size": size, "reference": reference is not None,
              "attempted": len(reps), "failed": failed, "samples": samples}

    if trace:
        out_dir = work / "traced"
        out_dir.mkdir()
        result, stdout, error = run_child(
            work, "traced", workloads.cli_argv(workload, str(config_path),
                                               str(out_dir)), trace=True)
        rep_problems, _ = check_rep(workload, result, stdout, error, out_dir,
                                    reference, size)
        shutil.rmtree(out_dir)
        layer = None
        if result is not None:
            # Both sides scaled by the bursts timed just before the call: the
            # traced call runs no bursts of its own.
            traced = scaled(result["wall_s"], result["import_burst_s"])[0]
            untraced = statistics.median(untraced_at_import) if untraced_at_import else traced
            layer, cache_seen = tracing.layer_metrics(
                result["spans"], result["wall_s"], result["import_s"],
                (traced - untraced) * result["import_burst_s"] / BURST_REF_S)
            report["cache"] = ("not exercised" if not layer["fractional.capacity_calls"]
                               else "present" if cache_seen else "absent")
            rep_problems += bypass_problems(name, layer)
            issue = tracing.self_sum_problem(layer)
            if issue:
                rep_problems.append(issue)
        report["attempted"] += 1
        report["failed"] += bool(rep_problems)
        problems += [f"traced rep: {p}" for p in rep_problems]
        report["layer"] = layer
    report["problems"] = problems
    return report


def bypass_problems(name, layer):
    """Each workload's bypass property, asserted on the traced run."""
    problems = []
    if name == "capacity-1d" and layer["solver.fft_calls"] != 0:
        problems.append(f"capacity-1d made {layer['solver.fft_calls']} solver FFT calls")
    if name in ("sweep-1d", "solve-2d") and layer["fractional.capacity_calls"] != 0:
        problems.append(f"{name} made {layer['fractional.capacity_calls']} "
                        "capacity_integral calls")
    return problems


def metric_values(report, bench, trace):
    if trace:
        if report["layer"] is None:
            return {}
        return {n: {"value": v, "unit": u}
                for n, (v, u) in tracing.per_layer(report["layer"]).items()}
    out = {}
    for m in bench["end_to_end"]:
        values = report["samples"][m["name"]]
        if values:
            out[m["name"]] = {"value": statistics.median(v for v, _ in values),
                              "unit": m["unit"]}
    return out


def print_report(report, bench, metrics, trace):
    why = {w["name"]: w["why"] for w in bench["workloads"]}[report["workload"]]
    wl = workloads.WORKLOADS[report["workload"]]
    print(f"== {report['workload']} seed={report['seed']} "
          f"(input variant {report['variant']}, size {report['size']})")
    print(f"   why: {why}")
    print(f"   working set at full size ~{wl.working_set_mib:g} MiB "
          f"({wl.working_set_note}); compare with L3 in the environment line")
    checked = "reference values and invariants" if report["reference"] else "invariants only"
    print(f"   output check: {checked}")
    attempted, failed = report["attempted"], report["failed"]
    print(f"   repetitions: {attempted} attempted, {failed} failed, "
          f"failed_frac = {failed / attempted:.4g}")
    if trace:
        layer = report["layer"] or {}
        print(f"   traced run (capacity cache: {report.get('cache', 'not exercised')}):")
        for name, (unit, e2e, where) in tracing.METRICS.items():
            if name not in layer:
                continue
            value = layer[name]
            if name.startswith("fractional.cache_") and report.get("cache") != "present":
                value = report.get("cache", "not exercised")
            print(f"     {name:28s} {value!s:>24} {unit:6s} -> {e2e} on {where}")
    else:
        print(f"   times are scaled to a machine where the speed burst takes "
              f"{BURST_REF_S:g} s")
        for name, m in metrics.items():
            vals = [v for v, _ in report["samples"][name]]
            raw = statistics.median(r for _, r in report["samples"][name])
            spread = ""
            if len(vals) >= 2:
                q = statistics.quantiles(vals, n=4)
                spread = f", quartiles {q[0]:.6g}..{q[2]:.6g}"
            print(f"   {name:12s} = {m['value']:.6g} {m['unit']} (median of {len(vals)} "
                  f"samples{spread}; unscaled median {raw:.6g})")
    for p in report["problems"]:
        print(f"   FAILED CHECK: {p}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="workload name from BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small problems, invariant checks only (tests)")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind: subprocess.run kills and reaps the running child,
    # and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    try:
        if not (ROOT / "src" / "mixheat" / "cli.py").is_file():
            raise Setup(f"no mixheat source tree under {ROOT / 'src'}")
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = ([w["name"] for w in bench["workloads"]] if args.workload == "all"
                 else [args.workload])
        if any(n not in workloads.WORKLOADS for n in names):
            raise Setup(f"unknown workload {args.workload!r}")
        seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
        sys.path.insert(0, str(ROOT / "src"))

        env = environment()
        print("environment: " + json.dumps(env))
        (ROOT / ".perfbench_work").mkdir(exist_ok=True)
        work_root = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench_work"))
        try:
            results = []
            for name in names:
                work = work_root / name
                work.mkdir()
                report = run_workload(name, args.seed, seconds, bool(args.trace),
                                      args.size, work)
                metrics = metric_values(report, bench, bool(args.trace))
                print_report(report, bench, metrics, bool(args.trace))
                results.append((name, report, metrics))
        finally:
            shutil.rmtree(work_root, ignore_errors=True)
    except Setup as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2

    if len(results) == 1:
        _, report, metrics = results[0]
    else:
        metrics = {f"{n}.{k}": v for n, _, ms in results for k, v in ms.items()}
    correct = all(not r["problems"] for _, r, _ in results)
    line = {"correct": correct,
            "attempted": sum(r["attempted"] for _, r, _ in results),
            "failed": sum(r["failed"] for _, r, _ in results),
            "metrics": metrics}
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
