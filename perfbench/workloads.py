"""One benchmark workload in one process: set up, run passes, check outputs.

Started by run.py with PYTHONPATH pointing at the checkout's ``src``.  The
process is a closed loop with one caller: each operation starts when the
previous one has returned, and no threads or processes are started here.  It
prints one JSON line with its timings, checks and (when traced) layer stats.

Seed 0 runs the shipped presets.  Any other seed draws the Fuchsian Schottky
parameter s uniformly from the range of presets.FUCHSIAN_SCHOTTKY_PARAMS; the
library receives only the generated presentation.
"""

import argparse
import csv
import glob
import hashlib
import json
import math
import os
import resource
import signal
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from pslab import _kernels, asymptotics, cartan, cli, hilbert, patterson, presets

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

ALPHA1 = cartan.Functional.alpha(1, 2)
# alpha_1 exponent of fuchsian_schottky(1.6) from the radius-12 ball.  s=1.6
# is the densest group of the seed range, so 1.01 times this value is
# supercritical for every s the seeds draw.
SCHOTTKY_DELTA = 0.30764260671045124
# closed geodesics of fuchsian_schottky(1.6) with alpha_1 length <= 40 among
# the classes of word length <= 10
SCHOTTKY_COUNT_40 = 9516
DELTA_BOUND = 1.05
PARABOLIC_DELTA = 0.5
PARABOLIC_TOLERANCE = 0.05

# "small" only serves the harness self-test.
SIZES = {
    "full": {
        "ball_n": 12, "count_n": 10, "count_t": 40.0, "parabolic_n": 10000,
        "measure_n": 10, "probe_n": 8, "box_n": 9, "probe_parabolic_n": 1000,
        "skip_configs": (),
    },
    "small": {
        "ball_n": 6, "count_n": 6, "count_t": 20.0, "parabolic_n": 200,
        "measure_n": 6, "probe_n": 5, "box_n": 7, "probe_parabolic_n": 200,
        "skip_configs": ("box-dim", "concavity", "entropy-drop", "shadow-check"),
    },
}

# malformed configs for the click entry point: each must exit 2 or 3
BAD_CONFIGS = {
    "unknown-preset": {"command": "critical-exponent", "preset": "no-such-preset"},
    "asymmetric-theta": {"command": "limit-set", "preset": "sl3-zariski-dense",
                         "theta": [1], "params": {"n": 4}},
    "n-max-too-small": {"command": "critical-exponent", "preset": "parabolic",
                        "theta": [1], "params": {"n_max": 3}},
    "unknown-method": {"command": "critical-exponent", "preset": "parabolic",
                       "theta": [1], "params": {"n_max": 10, "method": "bogus"}},
}


def schottky_parameter(seed):
    lo, hi = min(presets.FUCHSIAN_SCHOTTKY_PARAMS), max(presets.FUCHSIAN_SCHOTTKY_PARAMS)
    if seed == 0:
        return lo
    return float(np.random.default_rng(seed).uniform(lo, hi))


@dataclass
class Workload:
    # (name, fn(out) -> result); results are stored in out[name]
    ops: list
    # (op, description, fn(out) -> (ok, observed)); run after each pass
    checks: list
    # fn(out) -> {"delta_abs_err": ..., "series_delta_abs_err": ...}
    diagnostics: object
    # (name, fn() -> exit code); exit codes other than 2 and 3 are violations
    probes: list = field(default_factory=list)


def _within(value, target, tol):
    return abs(value - target) <= tol, value


def _in_delta_range(value):
    return 0.0 < value <= DELTA_BOUND, value


def _csv_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _parabolic_errors(estimates):
    reg, series = estimates
    return {"delta_abs_err": abs(reg.delta_hat - PARABOLIC_DELTA),
            "series_delta_abs_err": abs(series.delta_hat - PARABOLIC_DELTA)}


def shipped_configs(seed, size, workdir):
    """Every configs/*.json through cli.execute, then the malformed configs."""
    from click.testing import CliRunner

    with open(os.path.join(HERE, "expected_csv_sha256.json"), encoding="utf-8") as fh:
        expected = json.load(fh)
    paths = sorted(glob.glob(os.path.join(ROOT, "configs", "*.json")))
    configs = []
    for path in paths:
        if os.path.basename(path) == "schema.json":
            continue
        with open(path, encoding="utf-8") as fh:
            config = json.load(fh)
        if config["command"] not in size["skip_configs"]:
            configs.append(config)

    s = schottky_parameter(seed)
    generated = {
        "fuchsian-schottky-1": presets.fuchsian_schottky,
        "fuchsian-schottky-2": presets.fuchsian_schottky,
        "fuchsian-schottky-3": presets.fuchsian_schottky,
        "schottky-so21": presets.schottky_so21,
    }
    ops, checks = [], []
    for config in configs:
        command = config["command"]
        preset = config.get("preset")
        if seed != 0 and preset in generated:
            P = generated[preset](s)
            config = {k: v for k, v in config.items() if k != "preset"}
            config.update(dimension=P.dimension, labels=list(P.labels),
                          generators=[g.tolist() for g in P.generators])
        out_dir = os.path.join(workdir, command)
        csv_path = os.path.join(out_dir, f"{command}.csv")

        def op(out, command=command, config=config, out_dir=out_dir):
            return cli.execute(command, config, out_dir)
        ops.append((command, op))
        checks.append((command, "csv has data rows",
                       lambda out, p=csv_path: (len(_csv_rows(p)) > 0, len(_csv_rows(p)))))
        if preset == "parabolic":
            checks.append((command, "|delta_hat - 1/2| <= 0.05", lambda out, c=command: _within(
                float(out[c]["results"]["delta_hat"]), PARABOLIC_DELTA, PARABOLIC_TOLERANCE)))
        elif preset in generated:
            checks.append((command, "0 < delta_hat <= 1.05", lambda out, c=command: (
                _in_delta_range(float(out[c]["results"]["delta_hat"]))
                if "delta_hat" in out[c]["results"] else (True, None))))
        if command in expected and (seed == 0 or preset not in generated):
            checks.append((command, "csv sha256", lambda out, p=csv_path, h=expected[command]: (
                _sha256(p) == h, _sha256(p)[:16])))

    probes = []
    runner = CliRunner()
    for name, config in BAD_CONFIGS.items():
        path = os.path.join(workdir, f"bad-{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        args = [config["command"], "--config", path,
                "--out", os.path.join(workdir, f"bad-{name}")]
        probes.append((name, lambda args=args: runner.invoke(cli.main, args).exit_code))

    def diagnostics(out):
        rows = _csv_rows(os.path.join(workdir, "critical-exponent", "critical-exponent.csv"))
        by_method = {row["method"]: float(row["delta_hat"]) for row in rows}
        return {
            "delta_abs_err": abs(by_method["sphere-regression"] - PARABOLIC_DELTA),
            "series_delta_abs_err": abs(by_method["series-transition"] - PARABOLIC_DELTA),
        }

    return Workload(ops, checks, diagnostics, probes)


def deep_ball(seed, size, workdir):
    """Wide Schottky ball, closed-geodesic counts, deep narrow parabolic walk."""
    P = presets.fuchsian_schottky(schottky_parameter(seed))
    Q = presets.parabolic()
    ops = [
        ("critical_exponent.schottky",
         lambda out: patterson.critical_exponent(P, ALPHA1, size["ball_n"], (1,))),
        ("count_closed_geodesics", lambda out: asymptotics.count_closed_geodesics(
            P, ALPHA1, size["count_t"], n_max=size["count_n"], theta=(1,),
            delta_hat=out["critical_exponent.schottky"].delta_hat)),
        ("critical_exponent.parabolic", lambda out: patterson.critical_exponent(
            Q, ALPHA1, size["parabolic_n"], (1,), method="both")),
    ]
    checks = [
        ("critical_exponent.schottky", "0 < delta_hat <= 1.05",
         lambda out: _in_delta_range(out["critical_exponent.schottky"].delta_hat)),
        ("count_closed_geodesics", "0 < N(t_max) <= classes of length <= n_max",
         lambda out: (0 < out["count_closed_geodesics"].rows[-1].count
                      <= free_group_classes(2, size["count_n"]),
                      out["count_closed_geodesics"].rows[-1].count)),
        ("critical_exponent.parabolic", "|delta_hat - 1/2| <= 0.05",
         lambda out: _within(out["critical_exponent.parabolic"][0].delta_hat,
                             PARABOLIC_DELTA, PARABOLIC_TOLERANCE)),
    ]
    if seed == 0 and size is SIZES["full"]:
        checks.append(("critical_exponent.schottky", "delta_hat frozen within 1e-6",
                       lambda out: _within(out["critical_exponent.schottky"].delta_hat,
                                           SCHOTTKY_DELTA, 1e-6)))
        checks.append(("count_closed_geodesics", "N(40) frozen",
                       lambda out: (out["count_closed_geodesics"].rows[-1].count
                                    == SCHOTTKY_COUNT_40,
                                    out["count_closed_geodesics"].rows[-1].count)))
    return Workload(ops, checks,
                    lambda out: _parabolic_errors(out["critical_exponent.parabolic"]))


def free_group_classes(k, n_max):
    """Conjugacy classes of the free group on k letters of length 1..n_max.

    Burnside over rotations of cyclically reduced words: a word of length n
    fixed by a rotation of period d is any cyclically reduced word of length d
    repeated, and there are (2k-1)^d + 1 + (k-1)(1 + (-1)^d) of those.
    """
    def cyclic_words(d):
        return (2 * k - 1) ** d + 1 + (k - 1) * (1 + (-1) ** d)

    def totient(m):
        return sum(1 for i in range(1, m + 1) if math.gcd(i, m) == 1)

    return sum(
        sum(totient(n // d) * cyclic_words(d) for d in range(1, n + 1) if n % d == 0) // n
        for n in range(1, n_max + 1))


def flag_geometry(seed, size, workdir):
    """Patterson-Sullivan measure, shadows, quasi-invariance and box dimension."""
    s = schottky_parameter(seed)
    P = presets.fuchsian_schottky(s)
    so21 = presets.schottky_so21(s)
    Q = presets.parabolic()
    delta = SCHOTTKY_DELTA
    n, m = size["measure_n"], size["probe_n"]

    def shadow_check(out):
        r0, _ = out["shadow_constants"]
        return hilbert.shadow_measure_check(
            P, out["outer_sphere_restriction"], ALPHA1, delta, 2.0 * r0, m, "so", (1,))

    ops = [
        ("patterson_measure", lambda out: patterson.patterson_measure(
            P, ALPHA1, 1.01 * delta, n, (1,), delta_hat=delta)),
        ("outer_sphere_restriction",
         lambda out: patterson.outer_sphere_restriction(out["patterson_measure"])),
        ("shadow_constants", lambda out: hilbert.shadow_constants(
            P, out["outer_sphere_restriction"], 3, "so")),
        ("shadow_measure_check", shadow_check),
        ("quasi_invariance_residual", lambda out: patterson.quasi_invariance_residual(
            P, ALPHA1, (1,), 1.01 * delta, m, (1,))),
        ("hausdorff_vs_exponent",
         lambda out: asymptotics.hausdorff_vs_exponent_experiment(so21, size["box_n"])),
        ("critical_exponent.parabolic", lambda out: patterson.critical_exponent(
            Q, ALPHA1, size["probe_parabolic_n"], (1,), method="both")),
    ]
    checks = [
        ("patterson_measure", "total mass 1 within 1e-9",
         lambda out: _within(out["patterson_measure"].total_mass(), 1.0, 1e-9)),
        ("outer_sphere_restriction", "total mass 1 within 1e-9",
         lambda out: _within(out["outer_sphere_restriction"].total_mass(), 1.0, 1e-9)),
        ("shadow_constants", "eps_0 > 0",
         lambda out: (out["shadow_constants"][1] > 0.0, out["shadow_constants"][1])),
        ("shadow_measure_check", "finite positive spread",
         lambda out: (math.isfinite(out["shadow_measure_check"].spread)
                      and out["shadow_measure_check"].spread >= 1.0,
                      out["shadow_measure_check"].spread)),
        ("quasi_invariance_residual", "finite residuals on every sphere",
         lambda out: (len(out["quasi_invariance_residual"]) == m and all(
             math.isfinite(st["max"]) for st in out["quasi_invariance_residual"]),
             len(out["quasi_invariance_residual"]))),
        ("hausdorff_vs_exponent", "0 < delta_hat <= 1.05",
         lambda out: _in_delta_range(out["hausdorff_vs_exponent"]["delta_hat"])),
        ("critical_exponent.parabolic", "|delta_hat - 1/2| <= 0.05",
         lambda out: _within(out["critical_exponent.parabolic"][0].delta_hat,
                             PARABOLIC_DELTA, PARABOLIC_TOLERANCE)),
    ]
    if seed == 0:
        def shadow_bound(out):
            r0, eps0 = out["shadow_constants"]
            report = out["shadow_measure_check"]
            bound = math.exp(2.0 * report.r * delta) / eps0
            return report.spread <= bound, f"{report.spread:.6g} <= {bound:.6g}"
        checks.append(("shadow_measure_check", "spread <= exp(2 r delta) / eps_0",
                       shadow_bound))
    return Workload(ops, checks,
                    lambda out: _parabolic_errors(out["critical_exponent.parabolic"]))


WORKLOADS = {
    "shipped-configs": shipped_configs,
    "deep-ball": deep_ball,
    "flag-geometry": flag_geometry,
}


# One reference computation takes about this long on a 2-vCPU Xeon at its
# typical speed; norm_wall_s is wall time at that speed.
REF_NOMINAL_S = 0.002
_REF_MATRICES = np.random.default_rng(12345).standard_normal((64, 3, 3))


def reference():
    """A fixed computation that does not use the library: a Python loop,
    numpy calls on single 3x3 matrices and on small batches of them, the mix
    pslab's own work is made of."""
    acc = 0
    for i in range(3000):
        acc += i * i % 7
    for m in _REF_MATRICES[:12]:
        acc += float(np.linalg.svd(m, compute_uv=False)[0])
    for _ in range(6):
        np.linalg.svd(_REF_MATRICES, compute_uv=False)
        acc += float((_REF_MATRICES @ _REF_MATRICES).sum())
    return acc


class SpeedSampler:
    """Samples how fast the machine runs while a pass runs.

    The host's speed changes by up to a factor of two over seconds and
    minutes, as other tenants load the shared cores.  Every PERIOD_S seconds
    of wall time a SIGALRM handler, running in this same thread between two
    bytecodes of the pass, times ``reference()``; one more sample is taken
    when the pass ends.  The pass's wall time minus the time spent sampling,
    scaled by REF_NOMINAL_S over the time-weighted mean reference time, is
    the pass's wall time at nominal speed.
    """

    PERIOD_S = 0.1

    def __init__(self):
        self.spent = 0.0
        self._weighted = 0.0
        self._span = 0.0
        self.samples = 0
        self._last = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        reference()
        t1 = time.perf_counter()
        # the sample stands for the interval since the previous one
        self._weighted += (t0 - self._last) * (t1 - t0)
        self._span += t0 - self._last
        self.spent += t1 - t0
        self.samples += 1
        self._last = t1

    def start(self):
        reference()  # the first call also loads numpy's linear algebra
        self._last = time.perf_counter()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        # a last sample covers the tail, and a pass shorter than PERIOD_S
        self._tick(signal.SIGALRM, None)

    def mean_reference_s(self):
        return self._weighted / self._span


def run_pass(workload, tracer, sampler=None):
    """Run every operation once, in order; returns the pass record."""
    out, errors, probes = {}, {}, {}
    if sampler:
        sampler.start()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    for name, fn in workload.ops:
        try:
            out[name] = tracer.call(f"op.{name}", fn, (out,)) if tracer else fn(out)
        except Exception as exc:  # a failed operation is counted, not fatal
            errors[name] = f"{type(exc).__name__}: {exc}"
    if tracer:
        # the probes keep their own spans, but the library calls they make stay
        # out of the layer stats, which describe the shipped configs alone
        tracer.paused = True
    for name, fn in workload.probes:
        probes[name] = tracer.call(f"probe.{name}", fn) if tracer else fn()
    if tracer:
        tracer.paused = False
    if sampler:
        sampler.stop()
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    speed = {}
    if sampler:
        wall -= sampler.spent
        cpu -= sampler.spent
        factor = REF_NOMINAL_S / sampler.mean_reference_s()
        speed = {"norm_wall_s": wall * factor, "speed": factor,
                 "ref_mean_s": sampler.mean_reference_s(), "ref_samples": sampler.samples,
                 "ref_spent_s": sampler.spent}

    checks = []
    for op, description, fn in workload.checks:
        if op not in out:
            continue
        try:
            ok, observed = fn(out)
        except Exception as exc:  # a check that cannot be evaluated fails
            ok, observed = False, f"{type(exc).__name__}: {exc}"
        checks.append({"op": op, "check": description, "ok": bool(ok),
                       "observed": observed if isinstance(observed, (int, float, str))
                       or observed is None else str(observed)})
    failed = set(errors) | {c["op"] for c in checks if not c["ok"]}
    try:
        diagnostics = workload.diagnostics(out)
    except Exception as exc:  # missing outputs were already counted as failures
        diagnostics = {}
        errors.setdefault("diagnostics", f"{type(exc).__name__}: {exc}")
    return {
        "wall_s": wall, "cpu_s": cpu, **speed,
        "attempted": len(workload.ops), "failed": len(failed),
        "errors": errors, "checks": checks, "diagnostics": diagnostics,
        "probes": probes,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--sizes", choices=sorted(SIZES), default="full")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace-out", help="trace one pass and write spans here")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    os.makedirs(args.workdir, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, SIZES[args.sizes], args.workdir)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return

    tracer = None
    if args.trace_out:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    start = time.perf_counter()
    passes = [run_pass(workload, tracer, None if tracer else SpeedSampler())]
    # freed memory is not always returned to the system, so later passes can
    # raise the high-water mark: the peak is the one of the first pass
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # passes repeat while another one is expected to end within --seconds
    while tracer is None and time.perf_counter() - start + passes[-1]["wall_s"] <= args.seconds:
        passes.append(run_pass(workload, tracer, SpeedSampler()))
    if tracer is not None:
        tracer.dump(args.trace_out)

    import scipy

    print(json.dumps({
        "ready": ready,
        "passes": passes,
        "peak_rss_mb": peak_rss_mb,
        "stats": tracer.stats if tracer else None,
        "environment": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "use_numba": bool(_kernels.USE_NUMBA),
        },
    }))


if __name__ == "__main__":
    main()
