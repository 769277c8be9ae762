#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark at toy sizes (about a minute).

    python3 e2ebench/selftest.py

Run from the root of a source checkout.  It checks that:

* every workload, untraced and traced, prints a result whose metrics are
  exactly the ones BENCHMARK.json names for that mode, each finite and with
  its unit, with correct = true and failed = 0 (the output check passed);
* a run that withholds a metric exits non-zero and prints no result;
* a directory holding only BENCHMARK.json and the benchmark's own files
  (no program sources) makes the benchmark exit non-zero without a result.
"""

import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
RUN = os.path.join("e2ebench", "run.py")


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=900)


def result_line(proc):
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return None
    try:
        doc = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return doc if isinstance(doc, dict) and "metrics" in doc else None


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    expected = {
        "0": {m["name"]: m["unit"] for m in bench["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []

    for workload in (w["name"] for w in bench["workloads"]):
        for trace in ("0", "1"):
            label = f"{workload} --trace {trace}"
            proc = run(["--workload", workload, "--seed", "7", "--seconds", "2",
                        "--trace", trace, "--toy"])
            doc = result_line(proc)
            if proc.returncode != 0 or doc is None:
                problems.append(f"{label}: exit {proc.returncode}, no result\n"
                                f"{proc.stderr[-2000:]}")
                continue
            if set(doc) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(doc)}")
            if not doc["correct"] or doc["failed"] != 0 or doc["attempted"] < 1:
                problems.append(f"{label}: correct={doc['correct']} "
                                f"attempted={doc['attempted']} failed={doc['failed']}")
            got = {name: m["unit"] for name, m in doc["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got) ^ set(expected[trace]))}")
            for name, m in doc["metrics"].items():
                if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
                    problems.append(f"{label}: {name} = {m['value']}")
            print(f"ok  {label}: {len(got)} metrics, attempted {doc['attempted']}")

    proc = run(["--workload", "gnp-4m-intra", "--seed", "7", "--seconds", "1",
                "--trace", "0", "--toy", "--drop-metric", "replicate_s"])
    if proc.returncode == 0 or result_line(proc) is not None:
        problems.append("a run missing replicate_s still printed a result")
    else:
        print("ok  a run missing a metric refuses to print a result")

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree("e2ebench", os.path.join(bare, "e2ebench"))
    proc = run(["--workload", "gnp-4m-intra", "--seed", "7", "--seconds", "1",
                "--trace", "0"], cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or result_line(proc) is not None:
        problems.append("a directory without program sources still produced a result")
    else:
        print("ok  without program sources the benchmark exits "
              f"{proc.returncode} and prints no result")

    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
