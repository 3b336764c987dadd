#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/selftest.py

Builds the driver like run.py, runs every workload at a tiny size (the
ones BENCHMARK.json gates, and stream_publish, which it does not) and
checks that:
  - every metric named in BENCHMARK.json is printed with its unit, in the
    untraced (end-to-end) and the traced (per-layer) run, and that both
    runs pass every output check;
  - each workload's checker counts a deliberately corrupted expected
    output (--corrupt) as a failed operation;
  - the same --seed reproduces sim_s and core.iterations exactly, and a
    second seed also passes every check.
Exits 0 when every check holds, 1 otherwise.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # keep perfbench/ free of __pycache__
import run  # noqa: E402  (the build step and paths)

FAILURES = []
# Runnable workloads that BENCHMARK.json does not gate (see README.md).
UNGATED = ["stream_publish"]


def check(condition, what):
    print(("ok    " if condition else "FAIL  ") + what)
    if not condition:
        FAILURES.append(what)


def drive(workload, seed, trace, *extra):
    cmd = [run.DRIVER, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--tiny",
           "--out-dir", os.path.join(run.BUILD_DIR, "selftest")] + list(extra)
    out = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True,
                         timeout=170)
    if out.returncode != 0:
        print(out.stdout[-2000:], out.stderr[-2000:], sep="\n")
        raise SystemExit(f"driver failed: {' '.join(cmd)}")
    lines = out.stdout.strip().splitlines()
    for line in lines[:-1]:
        if not line.startswith("# "):
            raise SystemExit(f"stray stdout line: {line!r}")
    return json.loads(lines[-1])


def metric_names(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


def main():
    if not run.build():
        print("build failed", file=sys.stderr)
        return 1
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}

    workloads = [w["name"] for w in bench["workloads"]]
    for w in workloads + [w for w in UNGATED if w not in workloads]:
        plain = drive(w, 7, 0)
        traced = drive(w, 7, 1)
        check(metric_names(plain) == end_to_end,
              f"{w}: every end-to-end metric printed with its unit")
        check(metric_names(traced) == per_layer,
              f"{w}: every per-layer metric printed with its unit")
        for name, result in (("untraced", plain), ("traced", traced)):
            check(result["correct"] and result["failed"] == 0 and
                  result["attempted"] >= 1,
                  f"{w}: {name} run passes its output checks")

        corrupt = drive(w, 7, 0, "--corrupt")
        check(corrupt["failed"] >= 1 and not corrupt["correct"],
              f"{w}: a corrupted expected output counts as a failed op "
              f"({corrupt['failed']} of {corrupt['attempted']})")

        again = drive(w, 7, 0)
        check(again["metrics"]["sim_s"]["value"] ==
              plain["metrics"]["sim_s"]["value"],
              f"{w}: the same seed reproduces sim_s exactly")
        traced_again = drive(w, 7, 1)
        check(traced_again["metrics"]["core.iterations"]["value"] ==
              traced["metrics"]["core.iterations"]["value"],
              f"{w}: the same seed reproduces core.iterations exactly")
        other = drive(w, 8, 0)
        check(other["correct"] and other["failed"] == 0,
              f"{w}: a second seed passes every check")

    print(f"{len(FAILURES)} check(s) failed" if FAILURES else "all checks hold")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
