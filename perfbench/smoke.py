#!/usr/bin/env python3
"""The benchmark's own tests: every workload at a tiny scale.

    python3 perfbench/smoke.py

For each workload it checks that an untraced run prints every end-to-end
metric of BENCHMARK.json and a traced run every per-layer metric, each
with its declared unit, with all answers correct; and that a run against
a deliberately corrupted reference answer reports failures, so the
answer check is not vacuous. Exits 1 on the first problem.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "10", "--trace", str(trace), "--smoke",
           *extra]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    if out.returncode != 0:
        sys.exit(f"{workload}: exit {out.returncode}\n{out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def expect(cond, msg):
    if not cond:
        sys.exit("smoke: " + msg)
    print("ok  " + msg)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in (w["name"] for w in bench["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            res = run(w, trace)
            expect(set(res) == {"correct", "attempted", "failed", "metrics"},
                   f"{w} trace {trace}: result keys")
            want = {m["name"]: m["unit"] for m in bench[group]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == want, f"{w} trace {trace}: every {group} metric with its unit")
            expect(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
                   f"{w} trace {trace}: all {res['attempted']} answers correct")
        res = run(w, 0, ["--corrupt-ref"])
        expect(res["failed"] > 0 and not res["correct"],
               f"{w}: a corrupted reference yields failed_frac "
               f"{res['failed']}/{res['attempted']} > 0")


if __name__ == "__main__":
    main()
