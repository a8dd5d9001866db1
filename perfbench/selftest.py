#!/usr/bin/env python3
"""Reduced-size self-test of the benchmark. Run from the root of a checkout:

    python3 perfbench/selftest.py

It checks that
- the same seed gives byte-identical inputs, and another seed changes
  the seeded workloads' inputs;
- every workload, untraced and traced, ends its output with a result
  whose metrics are exactly those BENCHMARK.json names, with their
  units, and with every answer correct;
- the traced run's named layers cover at least 90% of its time;
- in a directory holding only BENCHMARK.json and the benchmark's own
  files, the benchmark fails without printing a result.

It takes about two minutes and exits non-zero on the first failure.
"""

import filecmp
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join("perfbench", "run.py")
SCRATCH = os.path.join(HERE, "_work", "selftest")


def fail(msg):
    print(f"selftest: FAIL: {msg}")
    sys.exit(1)


def run(args, cwd="."):
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=300)


def inputs(workload, seed, tag):
    out = os.path.join(SCRATCH, f"{workload}-{seed}-{tag}")
    r = run(["--workload", workload, "--seed", str(seed), "--seconds", "1", "--small", "--keep", out])
    if r.returncode != 0:
        fail(f"{workload}: generating inputs failed:\n{r.stderr}")
    return out


def same_tree(a, b):
    names = sorted(os.listdir(a))
    if names != sorted(os.listdir(b)):
        return False
    match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    return not mismatch and not errors


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    shutil.rmtree(SCRATCH, ignore_errors=True)
    os.makedirs(SCRATCH)
    try:
        for w in bench["workloads"]:
            name = w["name"]
            a, b, c = inputs(name, 5, "a"), inputs(name, 5, "b"), inputs(name, 6, "c")
            if not same_tree(a, b):
                fail(f"{name}: seed 5 gave different inputs on two generations")
            if name != "case-studies" and same_tree(a, c):
                fail(f"{name}: seeds 5 and 6 gave the same inputs")
            for trace, wanted in [(0, end_to_end), (1, per_layer)]:
                r = run(["--workload", name, "--seed", "5", "--seconds", "2", "--trace", str(trace), "--small"])
                if r.returncode != 0:
                    fail(f"{name} --trace {trace}: exit {r.returncode}\n{r.stderr}")
                result = json.loads(r.stdout.strip().splitlines()[-1])
                if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                    fail(f"{name} --trace {trace}: result keys {sorted(result)}")
                if not result["correct"] or result["failed"] or result["attempted"] < 1:
                    fail(f"{name} --trace {trace}: wrong answers\n{r.stderr}")
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                if got != wanted:
                    fail(f"{name} --trace {trace}: metrics differ from BENCHMARK.json: "
                         f"missing {sorted(set(wanted) - set(got))}, extra {sorted(set(got) - set(wanted))}")
                if trace == 0 and any(v["value"] <= 0 for v in result["metrics"].values()):
                    fail(f"{name}: an end-to-end metric is not positive")
                if trace == 1 and result["metrics"]["bench.layer_coverage"]["value"] < 0.9:
                    fail(f"{name}: named layers cover less than 90% of the traced time")
            print(f"selftest: {name} ok")
        bare = os.path.join(SCRATCH, "bare")
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("_work"))
        shutil.copyfile("BENCHMARK.json", os.path.join(bare, "BENCHMARK.json"))
        r = run(["--workload", "ecu-interleave", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
        if r.returncode == 0 or r.stdout.strip():
            fail("the benchmark ran in a directory without the sources")
        print("selftest: bare directory refused ok")
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(SCRATCH))
        except OSError:
            pass
    print("selftest: all ok")


if __name__ == "__main__":
    main()
