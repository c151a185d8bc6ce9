"""Measure the benchmark's baseline: every workload over seeds 1 to 10.

    python3 perfbench/sweep.py

Workloads and run length come from BENCHMARK.json.  Runs are sequential,
one workload per fresh process, followed by one traced run on seed 1.
For every end-to-end metric it prints the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread
(Q3 - Q1) / median next to the metric's bound, flagged when it is above
a third of the bound.  The summary is written to perfbench/baseline_seed.json.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)
OUT = os.path.join(HERE, "baseline_seed.json")


def run_one(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    res = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d failed: %s" % (workload, seed, res.stderr[-2000:]))
    record = next((json.loads(x)["record"] for x in lines if x.startswith('{"record"')), None)
    return json.loads(lines[-1]), record


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"seeds": list(SEEDS), "seconds": seconds, "workloads": {}}
    ok = True
    for w in (x["name"] for x in spec["workloads"]):
        runs = [run_one(w, s, seconds, 0) for s in SEEDS]
        if any(not r["correct"] for r, _ in runs):
            ok = False
            print("%s: a run reported wrong answers" % w)
        metrics = {}
        for name in runs[0][0]["metrics"]:
            st = summarize([r["metrics"][name]["value"] for r, _ in runs])
            metrics[name] = st
            bound = bounds[name]
            flag = "  above a third of the bound" if st["spread"] > bound / 3 else ""
            print("%-12s %-16s median %12.5f  q1 %12.5f  q3 %12.5f  spread %.4f  bound %s%s"
                  % (w, name, st["median"], st["q1"], st["q3"], st["spread"], bound, flag))
            print("%-12s %-16s values %s" % (w, "", " ".join("%.5g" % v for v in st["values"])))
        traced, record = run_one(w, SEEDS[0], seconds, 1)
        layers = {k: v["value"] for k, v in traced["metrics"].items()}
        for k, v in sorted(layers.items()):
            print("%-12s %-44s %.6g" % (w, k, v))
        summary["workloads"][w] = {
            "end_to_end": metrics,
            "attempted": [r["attempted"] for r, _ in runs],
            "host_probe_s": [rec["host_probe_s"] for _, rec in runs],
            "setup": [rec["setup"] for _, rec in runs],
            "latency_buffer_mb": runs[0][1]["latency_buffer_mb"],
            "environment": {k: runs[0][1][k] for k in ("python", "nproc", "commit", "source_sha256")},
            "per_layer_seed%d" % SEEDS[0]: layers,
            "inclusive_s_per_query_seed%d" % SEEDS[0]: record["inclusive_s_per_query"],
            "predictions": record["predictions"],
        }
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
