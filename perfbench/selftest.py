"""Fast self-test of the benchmark harness, at reduced input sizes.

    python3 perfbench/selftest.py

Checks that every workload of BENCHMARK.json emits every end-to-end and per-layer metric with its unit and passes its
output checks, that per-layer counts repeat exactly across two traced runs,
and that the benchmark exits non-zero without printing a result in a
directory holding only BENCHMARK.json and the benchmark's own files.
Takes about a minute.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
COUNT_UNITS = ("count", "B")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result(workload, trace):
    proc = bench("--workload", workload, "--seed", "1", "--seconds", "1",
                 "--trace", str(trace), "--sizes", "small")
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}:\n"
                             f"{proc.stderr}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(doc) != ["attempted", "correct", "failed", "metrics"]:
        raise AssertionError(f"{workload}: result keys {sorted(doc)}")
    if not (doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1):
        raise AssertionError(f"{workload} trace={trace}: outputs failed their checks\n"
                             f"{proc.stdout}")
    wanted = [(m["name"], m["unit"])
              for m in SPEC["end_to_end" if trace == 0 else "per_layer"]]
    got = [(name, m["unit"]) for name, m in doc["metrics"].items()]
    if got != wanted:
        raise AssertionError(f"{workload} trace={trace}: metrics differ from BENCHMARK.json: "
                             f"{sorted(set(got) ^ set(wanted))}")
    for name, m in doc["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            raise AssertionError(f"{workload}: {name} is not a number")
    return doc


def check_workloads():
    for workload in [w["name"] for w in SPEC["workloads"]]:
        e2e = result(workload, 0)["metrics"]
        for name in e2e:
            if not e2e[name]["value"] > 0:
                raise AssertionError(f"{workload}: {name} is not positive")
        first, second = result(workload, 1)["metrics"], result(workload, 1)["metrics"]
        for name, m in first.items():
            if m["unit"] in COUNT_UNITS and m["value"] != second[name]["value"]:
                raise AssertionError(f"{workload}: {name} differs across runs: "
                                     f"{m['value']} vs {second[name]['value']}")
        print(f"ok {workload}")


def check_bare_directory():
    bare = os.path.join(ROOT, ".perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = bench("--workload", "deep-ball", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        raise AssertionError("benchmark did not fail without the library sources")
    print("ok bare directory")


def main():
    check_workloads()
    check_bare_directory()


if __name__ == "__main__":
    main()
