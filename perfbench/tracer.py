"""Layer tracing from outside the library.

The traced run replaces the public functions listed in ``install`` by
wrappers that record a span per call (name, start, end, parent span) and
per-function totals: calls, total time, self time (total minus the time spent
in wrapped callees) and work counts read from arguments and results.  The
library's own files are not modified.

Spans are kept in memory and written out at the end.  A function called more
than SPAN_LIMIT times keeps only its aggregates, per (function, caller).
While ``paused`` is set, wrapped functions run untraced.
"""

import functools
import json
import time

SPAN_LIMIT = 100_000


class Tracer:
    def __init__(self):
        self.stats = {}
        self.by_caller = {}
        self.spans = []
        self._next_id = 1
        self._origin = time.perf_counter()
        self.paused = False
        # frame: [span id, name, time in wrapped children, {(child, count): value}]
        self._stack = [[0, "root", 0.0, {}]]

    def _stat(self, name):
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        return st

    def call(self, name, fn, args=(), kwargs=None, counts=None, failure=None):
        """Run fn(*args, **kwargs) inside a span called name."""
        kwargs = kwargs or {}
        counted = failure[0] if failure else ()
        parent = self._stack[-1]
        span_id = self._next_id
        self._next_id += 1
        frame = [span_id, name, 0.0, {}]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except counted:
            self._add(name, parent, {failure[1]: 1})
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            total = end - start
            parent[2] += total
            st = self._stat(name)
            st["calls"] += 1
            st["total_s"] += total
            st["self_s"] += total - frame[2]
            agg = self.by_caller.setdefault((name, parent[1]), [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += total
            agg[2] += total - frame[2]
            key = (name, "calls")
            parent[3][key] = parent[3].get(key, 0) + 1
            if st["calls"] <= SPAN_LIMIT:
                self.spans.append((span_id, parent[0], name, start, end))
        if counts is not None:
            self._add(name, parent, counts(args, result, frame[3]))
        return result

    def _add(self, name, parent, counts):
        st = self._stat(name)
        for key, value in counts.items():
            st[key] = st.get(key, 0) + value
            parent[3][(name, key)] = parent[3].get((name, key), 0) + value

    def wrap(self, name, fn, counts=None, failure=None):
        """A traced stand-in for fn; name may be a function of the call's args."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            span = name(args) if callable(name) else name
            return self.call(span, fn, args, kwargs, counts, failure)
        return traced

    def dump(self, path):
        """Write spans (ids, parent ids, times from tracer start) and aggregates."""
        over = {name for name, st in self.stats.items() if st["calls"] > SPAN_LIMIT}
        doc = {
            "span_limit": SPAN_LIMIT,
            "spans": [
                [sid, pid, name, start - self._origin, end - self._origin]
                for sid, pid, name, start, end in self.spans if name not in over
            ],
            "by_caller": [
                {"name": name, "caller": caller, "calls": c, "total_s": t, "self_s": s}
                for (name, caller), (c, t, s) in sorted(self.by_caller.items())
            ],
            "stats": self.stats,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def install(tracer):
    """Wrap the layer functions behind the per_layer metrics of BENCHMARK.json.

    The module _kernels is reported as "kernels": metric names must start with
    a letter or digit.
    """
    import numpy as np

    from pslab import (
        _kernels, asymptotics, cartan, cli, cocycle, flags, hilbert, matgroup, patterson,
    )
    from pslab.errors import InsufficientGap

    def sv_counts(args, result, children):
        mats = np.asarray(args[0])
        return {"matrices": int(mats.shape[0]),
                "bytes_computed": int(mats.nbytes + np.asarray(result).nbytes)}

    def class_counts(args, result, children):
        spheres = "matgroup.word_spheres"
        # every enumerated word except the identity is examined
        scanned = children.get((spheres, "elements"), 0) - children.get((spheres, "calls"), 0)
        return {"reps": len(result), "scanned": scanned}

    targets = [
        (matgroup, "word_spheres", "matgroup.word_spheres",
         lambda a, r, c: {"elements": sum(len(sphere) for sphere in r)}, None),
        (matgroup, "batch_kappa", "matgroup.batch_kappa",
         lambda a, r, c: {"elements": len(a[0])}, None),
        (matgroup, "conjugacy_classes", "matgroup.conjugacy_classes", class_counts, None),
        (cartan, "jordan_spliced", "cartan.jordan_spliced", None, None),
        (_kernels, "batch_log_singular_values", "kernels.batch_log_singular_values",
         sv_counts, None),
        (flags, "u_theta", "flags.u_theta", None, (InsufficientGap, "gap_failures")),
        (cocycle, "iwasawa", "cocycle.iwasawa", None, None),
        (flags, "sample_limit_set", "flags.sample_limit_set",
         lambda a, r, c: {"samples": len(r[0]), "skipped": int(r[1])}, None),
        (flags, "flag_distance", "flags.flag_distance", None, None),
        (patterson, "critical_exponent", "patterson.critical_exponent", None, None),
        (patterson, "patterson_measure", "patterson.patterson_measure",
         lambda a, r, c: {"atoms": len(r.atoms), "excluded": int(r.excluded)}, None),
        (patterson, "quasi_invariance_residual", "patterson.quasi_invariance_residual",
         None, None),
        (hilbert.KleinFamily, "lifted_orbit", "hilbert.KleinFamily.lifted_orbit",
         lambda a, r, c: {"points": len(r)}, None),
        (hilbert, "shadow_masses", "hilbert.shadow_masses", None, None),
        (hilbert, "shadow_masses_to_origin", "hilbert.shadow_masses_to_origin", None, None),
        (hilbert, "shadow_constants", "hilbert.shadow_constants", None, None),
        (hilbert, "shadow_measure_check", "hilbert.shadow_measure_check", None, None),
        (hilbert, "conicality_score", "hilbert.conicality_score", None, None),
        (asymptotics, "count_closed_geodesics", "asymptotics.count_closed_geodesics",
         None, None),
        (asymptotics, "box_counting_dimension", "asymptotics.box_counting_dimension",
         None, None),
        (_kernels, "greedy_cover_count", "kernels.greedy_cover_count", None, None),
        (_kernels, "ray_distances_lifted", "kernels.ray_distances_lifted", None, None),
        (cli, "validate_config", "cli.validate_config", None, None),
        (cli, "execute", lambda a: f"cli.execute.{a[0]}", None, None),
    ]
    for owner, attr, name, counts, failure in targets:
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), counts, failure))
