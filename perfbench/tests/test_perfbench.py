"""Tests of the benchmark itself (not of mixheat).

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def span(sid, name, start, end, parent, attrs=None):
    return ["r", sid, name, start, end, parent, attrs]


# -- self-time arithmetic ------------------------------------------------------

def test_self_times_nested_and_recursive():
    # capacity_integral -> a recursive helper (as _bracket_frac_batch recurses
    # into itself) plus a polyfit; same-name nesting must not double count.
    spans = [
        span(0, "cli.main", 0.0, 10.0, None),
        span(1, "fractional.capacity_integral", 1.0, 9.0, 0, {"points": 16}),
        span(2, "fractional.batch", 2.0, 8.0, 1),
        span(3, "fractional.batch", 3.0, 5.0, 2),
        span(4, "numpy.polyfit", 8.5, 8.75, 1),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == {0: 2.0, 1: 1.75, 2: 4.0, 3: 2.0, 4: 0.25}
    assert sum(selfs.values()) == pytest.approx(10.0)

    metrics, _ = tracing.layer_metrics(spans, 10.0, 0.5, 1.0)
    assert metrics["fractional.tail_fit_s"] == pytest.approx(0.25)
    assert metrics["fractional.self_s"] == pytest.approx(7.75)
    assert metrics["fractional.capacity_s"] == pytest.approx(1.75)
    assert metrics["cli.self_s"] == pytest.approx(2.0)
    assert metrics["trace.overhead_s"] == pytest.approx(1.0)
    assert tracing.self_sum_problem(metrics) is None
    # A lost span shows as a gap between the buckets and the wall time.
    metrics["trace.wall_s"] = 12.0
    assert tracing.self_sum_problem(metrics) is not None


def test_tracer_records_recursion_as_nested_spans():
    tracer = tracing.Tracer(run_id="t")

    def depth(n):
        return 0 if n == 0 else 1 + traced(n - 1)

    traced = tracer.wrap("fractional.depth", depth)
    assert traced(3) == 3
    ids = [s[1] for s in tracer.spans]
    parents = [s[5] for s in tracer.spans]
    assert parents == [None] + ids[:-1]
    selfs = tracing.self_times(tracer.spans)
    root = tracer.spans[0]
    assert sum(selfs.values()) == pytest.approx(root[4] - root[3])
    assert all(v >= 0 for v in selfs.values())


def test_cache_hit_ratio_from_entry_counts():
    spans = [span(0, "cli.main", 0.0, 5.0, None)]
    for k, entries in enumerate((2, 2, 2, 2, 2)):
        spans.append(span(k + 1, "fractional.capacity_integral", k, k + 0.5, 0,
                          {"points": 16, "cache_entries": entries}))
    metrics, present = tracing.layer_metrics(spans, 5.0, 0.1, 0.0)
    assert present
    assert metrics["fractional.cache_hit_ratio"] == pytest.approx(0.8)
    assert metrics["fractional.cache_entries"] == 2
    assert metrics["fractional.points"] == 80
    for s in spans[1:]:
        del s[6]["cache_entries"]
    metrics, present = tracing.layer_metrics(spans, 5.0, 0.1, 0.0)
    assert not present and metrics["fractional.cache_hit_ratio"] == 0.0


# -- output check ---------------------------------------------------------------

def _sweep_outputs(tmp_path, break_ledger=False, plateau_kind="positive_plateau"):
    from mixheat.observers import MassTrace, write_mass_csv
    t = np.geomspace(1.0, 1000.0, 40)
    lines = ["critical_exponent=2"]
    for p, kind, decay in (("1.2", "decaying_to_zero", 1.0), ("3", plateau_kind, 1e-4)):
        mass = 0.1 * t ** (-decay)
        absorbed = 0.1 * t[0] ** (-decay) - mass
        if break_ledger:
            mass[10] *= 1.0 + 1e-9
        path = tmp_path / f"mass_p{p}.csv"
        write_mass_csv(MassTrace(times=t, taus=t, mass=mass, absorbed=absorbed,
                                 linf=mass, l2=mass), str(path))
        lines.append(f"p={p} kind={kind} trailing_slope={-decay} "
                     f"condition_h=x trace={path}")
    lines.append(f"csv={tmp_path / 'sweep.csv'}")
    return "\n".join(lines) + "\n"


def test_checker_accepts_good_and_rejects_broken_ledger(tmp_path):
    wl = workloads.WORKLOADS["sweep-1d"]
    good = workloads.extract(wl, _sweep_outputs(tmp_path), str(tmp_path))
    assert workloads.invariant_problems(wl, good) == []
    assert workloads.reference_problems(wl, good, good) == []

    broken = workloads.extract(wl, _sweep_outputs(tmp_path, break_ledger=True),
                               str(tmp_path))
    problems = workloads.invariant_problems(wl, broken)
    assert any("ledger defect" in p for p in problems)


def test_checker_rejects_wrong_classification(tmp_path):
    wl = workloads.WORKLOADS["sweep-1d"]
    good = workloads.extract(wl, _sweep_outputs(tmp_path), str(tmp_path))
    wrong = workloads.extract(wl, _sweep_outputs(tmp_path, plateau_kind="inconclusive"),
                              str(tmp_path))
    assert any("p=3 kind" in p for p in workloads.invariant_problems(wl, wrong))
    assert any("p=3 kind" in p for p in workloads.reference_problems(wl, wrong, good))


def test_reference_tolerance_catches_small_errors():
    wl = workloads.WORKLOADS["solve-2d"]
    ref = {"final_mass": 0.1, "absorbed": 1e-6, "clipped_mass": 0.0, "steps": 2018,
           "ledger_defect": 1e-15}
    ok = dict(ref, final_mass=0.1 * (1 + 1e-12), ledger_defect=3e-15)
    assert workloads.reference_problems(wl, ok, ref) == []
    bad = dict(ref, final_mass=0.1 * (1 + 1e-7))
    assert workloads.reference_problems(wl, bad, ref)
    assert workloads.reference_problems(wl, dict(ref, steps=2017), ref)


# -- inputs ------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_jitter_is_deterministic_and_keeps_the_work(name):
    wl = workloads.WORKLOADS[name]
    work_keys = ("dim", "points", "half_width", "t0", "t1", "dtau_max", "p",
                 "capacity_points", "capacity_radii")
    base = workloads.make_inputs(wl, 0)
    for seed in range(1, 20):
        cfg = workloads.make_inputs(wl, seed)
        assert cfg == workloads.make_inputs(wl, seed)
        assert all(cfg.get(k) == base.get(k) for k in work_keys)
        if name == "kernel-wide":
            times = [float(x) for x in cfg["kernel_times"].split(",")]
            assert len(times) == 9 and times == sorted(times)
            assert 1e2 <= times[0] and times[-1] <= 1e3 * (1 + 1e-12)


def test_benchmark_json_matches_the_code():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        n: u for n, (u, _) in tracing.PER_LAYER.items()}
    assert {m["name"] for m in bench["end_to_end"]} == {
        "wall_s", "setup_s", "cpu_s", "peak_rss_mb"}
    reference = json.loads((HERE / "reference.json").read_text())
    for name, wl in workloads.WORKLOADS.items():
        for v in range(workloads.VARIANTS):
            assert reference[name][str(v)]["inputs"] == workloads.make_inputs(wl, v)


# -- smoke runs --------------------------------------------------------------------

def _last_json(text):
    return json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_smoke_run(name, capsys):
    start = time.perf_counter()
    code = run.main(["--workload", name, "--seed", "3", "--seconds", "0.1",
                     "--size", "tiny"])
    elapsed = time.perf_counter() - start
    result = _last_json(capsys.readouterr().out)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {"wall_s", "setup_s", "cpu_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert elapsed < 60


def test_tiny_traced_capacity_run(capsys):
    code = run.main(["--workload", "capacity-1d", "--seconds", "0.1", "--trace", "1",
                     "--size", "tiny"])
    result = _last_json(capsys.readouterr().out)
    assert code == 0 and result["correct"]
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(m) == set(tracing.PER_LAYER)
    assert m["fractional.capacity_share"] > 0.5
    assert m["solver.fft_calls"] == 0
    assert m["fractional.capacity_calls"] == 2
    assert m["fractional.cache_hit_ratio"] == pytest.approx(0.5)


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep-1d",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
