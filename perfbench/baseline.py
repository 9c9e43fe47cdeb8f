"""Repeat the benchmark over seeds and record the baseline.

    python3 perfbench/baseline.py [--out perfbench/baseline.json]

Runs ``perfbench/run.py`` on every workload in BENCHMARK.json for seeds
0-9 with tracing off, then once per workload with tracing on (seed 0),
exactly as the benchmark command is run. For each end-to-end metric it
reports the median of the per-run medians, their quartiles and the spread
(interquartile range over the median), and flags every spread that is not
below a third of the metric's bound. Writes the record to ``--out`` and
prints the tables as Markdown.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(10)


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if res.returncode != 0:
        raise SystemExit("%s failed (exit %d): %s" % (" ".join(cmd), res.returncode, res.stderr.strip()))
    lines = res.stdout.strip().splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit("%s reported incorrect output:\n%s" % (" ".join(cmd), res.stdout))
    return result, env


def _spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "runs": values}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", default=str(HERE / "baseline.json"))
    opts = parser.parse_args(argv)

    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record = {"run_seconds": bench["run_seconds"], "seeds": list(SEEDS), "workloads": {}}
    rows = ["| workload | metric | median | q1 | q3 | spread | bound/3 |", "|---|---|---|---|---|---|---|"]
    for workload in workloads:
        per_metric: dict[str, list[float]] = {}
        attempted = failed = 0
        for seed in SEEDS:
            result, record["env"] = _run(workload, seed, bench["run_seconds"], 0)
            attempted += result["attempted"]
            failed += result["failed"]
            for name, m in result["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
            print("%s seed %d: %s" % (workload, seed, {k: round(v[-1], 4) for k, v in per_metric.items()}),
                  file=sys.stderr)
        entry = {"attempted": attempted, "failed": failed,
                 "end_to_end": {k: _spread(v) for k, v in per_metric.items()}}
        for name, stats in entry["end_to_end"].items():
            flag = "" if stats["spread"] < bounds[name] / 3 else " **over**"
            rows.append("| %s | %s | %.4g | %.4g | %.4g | %.3f%s | %.3f |" % (
                workload, name, stats["median"], stats["q1"], stats["q3"], stats["spread"], flag,
                bounds[name] / 3))
        traced, _ = _run(workload, 0, bench["run_seconds"], 1)
        entry["per_layer"] = {k: m["value"] for k, m in traced["metrics"].items()}
        record["workloads"][workload] = entry

    print("\n".join(rows))
    print("\n| per-layer metric (seed 0) | " + " | ".join(workloads) + " |")
    print("|---|" + "---|" * len(workloads))
    for m in bench["per_layer"]:
        vals = [record["workloads"][w]["per_layer"][m["name"]] for w in workloads]
        print("| %s | %s |" % (m["name"], " | ".join("%.4g" % v for v in vals)))
    Path(opts.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
