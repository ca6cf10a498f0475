import functools
import threading
import tracemalloc

import numpy as np
import pytest

from pslab import _kernels, presets


@functools.lru_cache(maxsize=None)
def random_sl2(count, seed=0):
    """Well-spread random SL(2,R) matrices with entries O(1)."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        a, b, c = rng.normal(size=3)
        if abs(a) < 1e-3:
            continue
        d = (1.0 + b * c) / a
        out.append(np.array([[a, b], [c, d]]))
    return out


def traced_peak(fn, *args):
    """fn(*args), and the peak of the memory tracemalloc traced while it ran."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class CountingLinalg:
    """A numpy.linalg function, counting the matrices it is given.

    ``seen`` holds a copy of the argument of each call, in the order the
    calls began; the row driver's LAPACK ranges call it from several
    threads, so the count is taken under a lock.
    """

    def __init__(self, function):
        self.function, self.rows, self.seen = function, 0, []
        self._lock = threading.Lock()

    def __call__(self, a, *args, **kwargs):
        with self._lock:
            self.rows += int(np.prod(np.shape(a)[:-2]))
            self.seen.append(np.array(a))
        return self.function(a, *args, **kwargs)


@pytest.fixture
def counting_svd(monkeypatch):
    counter = CountingLinalg(np.linalg.svd)
    monkeypatch.setattr(np.linalg, "svd", counter)
    return counter


@pytest.fixture
def counting_qr(monkeypatch):
    counter = CountingLinalg(np.linalg.qr)
    monkeypatch.setattr(np.linalg, "qr", counter)
    return counter


@pytest.fixture
def counting_det(monkeypatch):
    counter = CountingLinalg(np.linalg.det)
    monkeypatch.setattr(np.linalg, "det", counter)
    return counter


@pytest.fixture
def three_ranges(monkeypatch):
    """The row driver on 3 CPUs with LAPACK ranges of at least 4 rows: n rows make min(3, n // 4) calls."""
    monkeypatch.setattr(_kernels, "_THREAD_ROWS", 4)
    monkeypatch.setattr(_kernels, "lapack_threads", lambda: 3)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def sl2():
    return presets.sl2_mild()


@pytest.fixture
def sl3():
    return presets.sl3_mild()


@pytest.fixture
def sl4():
    return presets.sl4_mild()
