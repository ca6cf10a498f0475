"""The benchmark's tracer reads library names and return shapes; keep them working.

perfbench/tracer.py wraps library functions by name and counts work from
their arguments and results (sphere lengths of word_spheres, the stack length
of batch_kappa, ...).  A traced small run of each workload must finish with
no failed operation and with nonzero enumeration and Cartan-projection counts;
on deep-ball, jordan_spliced must take fewer calls than there are conjugacy
classes, and on flag-geometry u_theta fewer calls than the measure has atoms.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("shipped-configs", "deep-ball", "flag-geometry")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_small_run_keeps_the_tracer_contract(workload, tmp_path):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "workloads.py"),
         "--workload", workload, "--seed", "1", "--sizes", "small",
         "--workdir", str(tmp_path / "work"), "--trace-out", str(tmp_path / "spans.json")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-4000:]
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    (run,) = doc["passes"]
    assert run["failed"] == 0, (run["errors"], run["checks"])
    stats = doc["stats"]
    assert stats["matgroup.word_spheres"]["elements"] > 0
    assert stats["matgroup.batch_kappa"]["elements"] > 0
    if workload == "deep-ball":
        # class lengths come from one stacked Jordan projection, not one per class
        assert 0 < stats["cartan.jordan_spliced"]["calls"] \
            < stats["matgroup.conjugacy_classes"]["reps"]
    if workload == "flag-geometry":
        # flags are extracted from whole stacks, not one call per atom
        assert 0 < stats["flags.u_theta"]["calls"] < stats["patterson.patterson_measure"]["atoms"]
