#!/usr/bin/env python3
"""The benchmark's own tests. Run from the repository root:

    python3 ftlbench/selftest.py

1. A short run of every workload in both modes exits 0, reports zero
   failures, and prints exactly the metrics BENCHMARK.json names, each with
   its unit (durable, which BENCHMARK.json leaves ungated, too).
2. The ladder shows the split the workloads were chosen for: keyed's
   standalone apply costs several times replicate's; the system fsyncs only
   on durable; every workload reports trace coverage and overhead.
3. A deliberately corrupted reply counts as failed and makes the command
   exit nonzero, in both modes.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "1"


def run(workload, trace, *extra):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", SECONDS, "--trace", str(trace), *extra],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


def check(cond, what):
    if not cond:
        raise SystemExit(f"FAIL: {what}")
    print(f"ok: {what}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    workloads = [w["name"] for w in spec["workloads"]]
    if "durable" not in workloads:
        workloads.append("durable")

    layers = {}
    for w in workloads:
        for trace in (0, 1):
            rc, res = run(w, trace)
            check(rc == 0 and res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
                  f"{w} trace={trace}: exit 0, {res['attempted']} attempted, none failed")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == expected[trace], f"{w} trace={trace}: every named metric with its unit")
            if trace == 1:
                layers[w] = {k: v["value"] for k, v in res["metrics"].items()}

    check(layers["keyed"]["ftlinda.apply_us"] > 3 * layers["replicate"]["ftlinda.apply_us"],
          "keyed's standalone apply costs several times replicate's")
    check(layers["durable"]["rsm.fsyncs_per_ags"] > 0, "durable fsyncs")
    check(layers["replicate"]["rsm.fsyncs_per_ags"] == 0 and
          layers["keyed"]["rsm.fsyncs_per_ags"] == 0, "replicate and keyed never fsync")
    check(all(0 < m["trace.coverage"] and 0 < m["obs.trace_overhead"] for m in layers.values()),
          "trace coverage and overhead reported for every workload")

    for trace in (0, 1):
        rc, res = run("keyed", trace, "--corrupt-reply", "40")
        check(rc != 0 and not res["correct"] and res["failed"] >= 1,
              f"trace={trace}: a corrupted reply is counted as failed and exits {rc}")
    print("selftest passed")


if __name__ == "__main__":
    main()
