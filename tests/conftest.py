import functools

import numpy as np
import pytest

from pslab import presets


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


class CountingLinalg:
    """A numpy.linalg function, counting the matrices it is given.

    ``seen`` holds a copy of the argument of each call.
    """

    def __init__(self, function):
        self.function, self.rows, self.seen = function, 0, []

    def __call__(self, a, *args, **kwargs):
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
