"""Record the reference outputs that every benchmark repetition is checked
against: one untraced run of each workload on each input variant.

    python3 perfbench/record.py [WORKLOAD ...]

Writes perfbench/reference.json. Run it only at a commit whose outputs are
known good (the invariants are checked before anything is stored); a later
change is judged against these values, so re-recording hides its effect.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
import workloads


def record(name, work):
    workload = workloads.WORKLOADS[name]
    entries, done = {}, {}
    for variant in range(workloads.VARIANTS):
        cfg = workloads.make_inputs(workload, variant)
        key = json.dumps(cfg, sort_keys=True)
        if key not in done:  # workloads without jitter share one run
            config_path = work / f"{name}-{variant}.cfg"
            config_path.write_text(workloads.config_text(cfg))
            out_dir = work / f"{name}-{variant}"
            out_dir.mkdir()
            result, stdout, error = run.run_child(
                work, f"{name}-{variant}",
                workloads.cli_argv(workload, str(config_path), str(out_dir)))
            problems, values = run.check_rep(workload, result, stdout, error,
                                             out_dir, None, "full")
            if problems:
                raise SystemExit(f"{name} variant {variant}: {problems}")
            done[key] = values
            print(f"{name} variant {variant}: {result['wall_s']:.2f} s", flush=True)
        entries[str(variant)] = {"inputs": cfg, "values": done[key]}
    return entries


def main(names):
    path = run.HERE / "reference.json"
    reference = json.loads(path.read_text()) if path.exists() else {}
    sys.path.insert(0, str(run.ROOT / "src"))
    (run.ROOT / ".perfbench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=run.ROOT / ".perfbench_work"))
    try:
        for name in names or list(workloads.WORKLOADS):
            reference[name] = record(name, work)
            path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
