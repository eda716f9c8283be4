#!/usr/bin/env python3
"""Build the benchmark from this checkout's sources and run one workload.

    python3 perfbench/run.py --workload serve-warm --seed 1 --seconds 10 --trace 0

Builds perfbench/bench.exe with dune (the first build compiles the whole
library tree), runs it from the checkout root, passes its output through,
and checks that the metric names on its last line are the ones
BENCHMARK.json lists. Exits non-zero, without a result line, when the
checkout has no sources to build.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    return 1


def check_names(last_line, trace):
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(spec_path):
        return None
    with open(spec_path) as f:
        spec = json.load(f)
    want = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = set(json.loads(last_line)["metrics"])
    if want != got:
        return "metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(want - got), sorted(got - want))
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, need)):
            return fail("%s not found under %s: run from a full checkout" % (need, ROOT))

    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "-j", "2", "./perfbench/bench.exe"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if build.returncode != 0:
        sys.stderr.write(build.stdout)
        return fail("build failed")

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             timeout=175)
    except subprocess.TimeoutExpired:
        return fail("run timed out")
    out = run.stdout
    lines = out.rstrip("\n").split("\n")
    if run.returncode != 0:
        sys.stdout.write(out)
        return run.returncode
    err = check_names(lines[-1], args.trace == 1)
    if err:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        return fail(err)
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
