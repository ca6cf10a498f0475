"""pslab benchmark: end-to-end and per-layer metrics for three workloads.

    python3 perfbench/run.py --workload deep-ball --seed 3 --seconds 10 --trace 0
    python3 perfbench/run.py                  # every workload, untraced and traced

Run from the repository root.  Workloads, metric names, units and the run
length come from BENCHMARK.json.  Each workload runs in a fresh worker process
(workloads.py) that imports the library from ``src``.  ``--trace 0`` reports
the end_to_end metrics.  Its time metric is norm_wall_s: the timed part's wall
time rescaled to a nominal machine speed, which a fixed reference computation
sampled ten times a second during the pass gives (workloads.SpeedSampler).  On
a shared host the raw wall time of the same work varies by a factor of two
between runs; the raw median pass is printed as wall_s and saved with the
result.  setup_s (interpreter start, imports, input construction) is the
median over nine processes, four started before the measuring one and four
after it, rescaled by the same run's speed factor; the raw median is printed
as raw_setup_s.  One process's set-up is too short to sample well, but the
slow and fast spells that move whole runs also move the set-ups around them.
``--trace 1`` runs one untraced and one traced pass, each in its own process,
and reports the per_layer metrics, including the tracing overhead (traced wall time minus untraced wall time).  The last line
of standard output is one JSON object; the lines before it describe the run,
and a copy with the environment, every check and every pass goes to
.perfbench/.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")
WORKER = os.path.join(HERE, "workloads.py")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

# setup_s is the median over this many setup-only processes plus the
# measuring process itself
SETUP_SAMPLES = 8
# every process of one run must end within this many seconds
DEADLINE_S = 175.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    pass


def worker_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # one caller, no helper threads: keep BLAS and OpenMP single-threaded
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_worker(args, deadline):
    """Start one worker, wait for it, return (spawn time, its JSON line)."""
    cmd = [sys.executable, WORKER, *args]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=worker_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=max(deadline - spawned, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out: {' '.join(args)}") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {' '.join(args)}\n"
                         f"{proc.stderr[-4000:]}")
    return spawned, json.loads(proc.stdout.strip().splitlines()[-1])


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def environment(seed):
    cpu_model = next((line.split(":", 1)[1].strip()
                      for line in _read("/proc/cpuinfo").splitlines()
                      if line.startswith("model name")), None)
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = _read(os.path.join(base, index, "level")).strip()
        kind = _read(os.path.join(base, index, "type")).strip()
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(os.path.join(base, index, "size")).strip()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "caches": caches,
        "thread_vars": {var: worker_env()[var] for var in THREAD_VARS},
        "git_commit": git_commit(),
        "seed": seed,
    }


def git_commit():
    """HEAD of the checkout, or None outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def measure(workload, seed, seconds, trace, sizes="full"):
    """Run one workload; returns the full result record."""
    if not os.path.isdir(os.path.join(ROOT, "src", "pslab")):
        raise BenchError(f"no pslab sources under {ROOT}/src")
    deadline = time.monotonic() + DEADLINE_S
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    base = ["--workload", workload, "--seed", str(seed), "--sizes", sizes,
            "--workdir", workdir]
    setups = []

    def setup_samples(count):
        for _ in range(count):
            spawned, line = run_worker(base + ["--setup-only"], deadline)
            setups.append(line["ready"] - spawned)

    try:
        # samples before and after the measured run, so a slow spell of the
        # machine does not shift them all
        setup_samples(SETUP_SAMPLES - SETUP_SAMPLES // 2)
        spawned, main = run_worker(base + ["--seconds", str(seconds if not trace else 0)],
                                   deadline)
        setups.append(main["ready"] - spawned)
        traced = None
        if trace:
            trace_path = os.path.join(OUT, f"trace-{workload}-seed{seed}.json")
            _, traced = run_worker(base + ["--trace-out", trace_path], deadline)
        setup_samples(SETUP_SAMPLES // 2)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    shown = traced or main
    passes = shown["passes"]
    walls = [p["wall_s"] for p in main["passes"]]
    norm_walls = [p["norm_wall_s"] for p in main["passes"]]
    speed = statistics.median([p["speed"] for p in main["passes"]])
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "sizes": sizes,
        "environment": {**environment(seed), **main["environment"]},
        "setup_s_samples": setups,
        "wall_s": statistics.median(walls),
        "raw_setup_s": statistics.median(setups),
        "passes": passes,
        "correct": all(p["failed"] == 0 for p in passes),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
    }
    first = passes[0]
    if not trace:
        record["metrics"] = {
            "norm_wall_s": statistics.median(norm_walls),
            "setup_s": statistics.median(setups) * speed,
            "peak_rss_mb": main["peak_rss_mb"],
            "delta_abs_err": first["diagnostics"].get("delta_abs_err"),
        }
        units = END_TO_END_UNITS
    else:
        stats = dict(traced["stats"])
        stats["patterson.series_transition"] = {
            "delta_abs_err": first["diagnostics"].get("series_delta_abs_err")}
        stats["process"] = {"cpu_s": main["passes"][0]["cpu_s"]}
        stats["trace"] = {"overhead_s": first["wall_s"] - walls[0]}
        stats["cli.main"] = {"exit_code_violations": sum(
            code not in (2, 3) for code in first["probes"].values())}
        record["metrics"] = {}
        for name in PER_LAYER_UNITS:
            layer, quantity = name.rsplit(".", 1)
            record["metrics"][name] = stats.get(layer, {}).get(quantity, 0)
        units = PER_LAYER_UNITS
    record["units"] = units
    return record


def report_lines(record):
    """Human-readable lines for one result record."""
    lines = [f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
             f"passes={len(record['passes'])} environment={json.dumps(record['environment'])}"]
    for p in record["passes"][:1]:
        for name, error in p["errors"].items():
            lines.append(f"# FAILED {name}: {error}")
        for c in p["checks"]:
            if not c["ok"]:
                lines.append(f"# FAILED check {c['op']}: {c['check']} (observed {c['observed']})")
        bad = {k: v for k, v in p["probes"].items() if v not in (2, 3)}
        if p["probes"]:
            lines.append(f"# cli exit-code violations {len(bad)}/{len(p['probes'])}: "
                         + (", ".join(f"{k} exited {v}" for k, v in bad.items()) or "none"))
        series = p["diagnostics"].get("series_delta_abs_err")
        if series is not None and series > 0.05:
            lines.append(f"# known defect: parabolic series-transition estimate is off by "
                         f"{series:.6g} (true exponent 1/2)")
    lines.append(f"# ops_failed {record['failed'] / record['attempted']:.6g} "
                 f"({record['failed']}/{record['attempted']})")
    if not record["trace"]:
        lines.append(f"{'wall_s':<48} {record['wall_s']!r:>24} s")
        lines.append(f"{'raw_setup_s':<48} {record['raw_setup_s']!r:>24} s")
    for name, value in record["metrics"].items():
        lines.append(f"{name:<48} {value!r:>24} {record['units'][name]}")
    return lines


def result_json(record):
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": record["units"][name]}
                    for name, value in record["metrics"].items()},
    })


def save(record):
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"result-{record['workload']}-seed{record['seed']}"
                             f"-trace{record['trace']}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)


def run_all(seed, seconds, sizes):
    """Every workload, untraced then traced, as one table."""
    table = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            record = measure(workload, seed, seconds, trace, sizes)
            save(record)
            print("\n".join(report_lines(record)), flush=True)
            table.setdefault(workload, {}).update(record["metrics"])
            if not trace:
                table[workload]["wall_s"] = record["wall_s"]
                table[workload]["raw_setup_s"] = record["raw_setup_s"]
                table[workload]["ops_failed"] = record["failed"] / record["attempted"]
    units = {"wall_s": "s", "raw_setup_s": "s", **END_TO_END_UNITS, "ops_failed": "1", **PER_LAYER_UNITS}
    print(f"\n{'metric':<48}" + "".join(f"{w:>18}" for w in WORKLOADS) + "  unit")
    for name, unit in units.items():
        print(f"{name:<48}" + "".join(f"{table[w].get(name, 0):>18.6g}" for w in WORKLOADS)
              + f"  {unit}")


def main(argv=None):
    parser = argparse.ArgumentParser(description="pslab benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    # a run repeats the workload's pass while another one is expected to end
    # within this time (always at least one pass); norm_wall_s is the median pass
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sizes", choices=("full", "small"), default="full",
                        help="small: reduced inputs for the harness self-test")
    args = parser.parse_args(argv)

    try:
        if args.workload is None:
            run_all(args.seed, args.seconds, args.sizes)
            return 0
        record = measure(args.workload, args.seed, args.seconds, args.trace, args.sizes)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    save(record)
    print("\n".join(report_lines(record)))
    print(result_json(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
