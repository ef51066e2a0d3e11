#!/usr/bin/env python3
"""Tiny-scale self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload in BENCHMARK.json end to end at --scale tiny, untraced
and traced, and checks that each run is correct and that its result names
every declared metric (end-to-end when untraced, per-layer when traced) with
the declared unit, and nothing else. Exits non-zero if any check fails.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    problems = []
    for wl in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", wl, "--seed", "1", "--seconds", "0.5",
                   "--trace", str(trace), "--scale", "tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=600)
            tag = f"{wl} --trace {trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{tag}: exit {proc.returncode}\n"
                                f"{proc.stderr[-2000:]}")
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed",
                                  "metrics"]:
                problems.append(f"{tag}: bad result keys {sorted(result)}")
            if not result.get("correct") or result.get("attempted", 0) < 1:
                problems.append(f"{tag}: not correct: {lines[-1][:200]}")
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            if got != declared[trace]:
                missing = sorted(set(declared[trace]) - set(got))
                extra = sorted(set(got) - set(declared[trace]))
                units = sorted(k for k in got if k in declared[trace]
                               and got[k] != declared[trace][k])
                problems.append(f"{tag}: missing {missing}, extra {extra}, "
                                f"wrong units {units}")
            print(f"ok  {tag}: {len(got)} metrics", file=sys.stderr)
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
