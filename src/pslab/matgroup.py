"""Matrix group presentations, word-ball enumeration and representation builders.

Words are tuples of signed 1-based generator indices: +i is the i-th
generator, -i its inverse.  Enumeration order is canonical: by length, then
lexicographically with letters ordered +1, -1, +2, -2, ...

A word ball is one ``WordBall``: row i of its arrays is one element,
``mats[i]`` its matrix (the forward product of its word), ``inv_mats[i]`` the
forward product of its inverted word, ``letter[i]`` its last letter and
``parent[i]`` the row of its word with that letter removed.  Rows run in
canonical order, so each sphere is a contiguous block of rows and a parent
row always precedes its children.  Words are rebuilt from ``parent`` and
``letter`` only where a label or a word is needed.
"""

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import _kernels, cartan
from .errors import BadIndex, BudgetExceeded, NonUnimodular, NotFree

DEFAULT_ELEMENT_CAP = 5_000_000
# rows per step when word_spheres and batch_kappa fill their outputs: the
# operands gathered for one step hold at most this many rows (word_spheres
# takes at least one parent's children per step)
BLOCK_ROWS = 1 << 13


def _letter_key(letter):
    # +1, -1, +2, -2, ... -> 0, 1, 2, 3, ...; an int or an int array
    return 2 * (abs(letter) - 1) + (letter < 0)


def word_key(word):
    return tuple(_letter_key(x) for x in word)


@dataclass
class GroupPresentation:
    dimension: int
    generators: list
    labels: list = None
    assume_free: bool = True
    dedup_tolerance: float = 1e-8
    element_cap: int = DEFAULT_ELEMENT_CAP

    def __post_init__(self):
        if not self.generators:
            raise BadIndex("at least one generator required")
        gens = []
        for g in self.generators:
            g = cartan.require_unimodular(g)
            if g.shape != (self.dimension, self.dimension):
                raise NonUnimodular(None)
            gens.append(g)
        self.generators = gens
        if self.labels is None:
            self.labels = [chr(ord("a") + i) for i in range(len(gens))]
        # index 2j -> generator j, 2j+1 -> its inverse (matches _letter_key)
        self._alphabet = []
        for g in gens:
            self._alphabet.append(g)
            self._alphabet.append(np.linalg.inv(g))

    @property
    def rank(self):
        return len(self.generators)

    def letter_matrix(self, letter):
        if not 1 <= abs(letter) <= self.rank:
            raise BadIndex(f"letter {letter} is not one of +-1..+-{self.rank}")
        return self._alphabet[_letter_key(letter)]

    def word_matrix(self, word):
        M = np.eye(self.dimension)
        for letter in word:
            M = M @ self.letter_matrix(letter)
        return M

    def word_label(self, word):
        parts = []
        for letter in word:
            lab = self.labels[abs(letter) - 1]
            parts.append(lab if letter > 0 else lab + "'")
        return ".".join(parts) or "e"


def reduce_word(word):
    out = []
    for letter in word:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def invert_word(word):
    return tuple(-x for x in reversed(word))


@dataclass(eq=False, repr=False)
class WordBall:
    """Word spheres as one set of arrays (layout in the module docstring).

    Sphere j of this ball is rows offsets[j]:offsets[j+1] and holds words of
    length first + j.  ``len`` counts elements; iterating yields the spheres.
    Indexing with an int gives one sphere and with a contiguous
    slice a run of spheres, as WordBalls over views of the same arrays.
    ``parent`` holds rows of the ball word_spheres returned, whose
    ``(letter, parent)`` arrays every view keeps as ``whole``.
    """

    mats: np.ndarray  # (N, d, d) float
    inv_mats: np.ndarray  # (N, d, d) float
    parent: np.ndarray  # (N,) int32, -1 at the identity
    letter: np.ndarray  # (N,) int8, 0 at the identity
    offsets: np.ndarray  # (spheres + 1,) row offsets, offsets[0] == 0
    first: int  # word length of sphere 0
    # arrays, not the ball: a ball referring to itself is left to the cycle
    # collector
    whole: tuple

    def __len__(self):
        return len(self.parent)

    def __iter__(self):
        return (self[j] for j in range(len(self.offsets) - 1))

    def __getitem__(self, key):
        if not isinstance(key, slice):
            key = slice(key, key + 1 or None)  # -1 is the last sphere
        lo, hi, _ = key.indices(len(self.offsets) - 1)
        a, b = self.offsets[lo], self.offsets[hi]
        return WordBall(self.mats[a:b], self.inv_mats[a:b], self.parent[a:b],
                        self.letter[a:b], self.offsets[lo:hi + 1] - a,
                        self.first + lo, self.whole)

    def lengths(self):
        """Word length of every row."""
        spheres = len(self.offsets) - 1
        return np.repeat(np.arange(self.first, self.first + spheres), np.diff(self.offsets))

    def split(self, values):
        """Per-row values cut into one array per sphere."""
        return np.split(values, self.offsets[1:-1])

    def sphere_letters(self):
        """One (count, k) int8 array of words per sphere of length k."""
        all_letters, all_parents = self.whole
        for j in range(len(self.offsets) - 1):
            a, b, k = self.offsets[j], self.offsets[j + 1], self.first + j
            out = np.empty((b - a, k), dtype=np.int8)
            letters, rows = self.letter[a:b], self.parent[a:b]
            for i in range(k - 1, -1, -1):
                out[:, i] = letters
                letters, rows = all_letters[rows], all_parents[rows]
            yield out

    def words_only(self):
        """This ball with None for its matrices, which it then stops keeping alive.

        len, lengths, split, sphere_letters and words still work; indexing
        and iterating need the matrices.
        """
        return WordBall(None, None, self.parent, self.letter, self.offsets, self.first,
                        self.whole)

    def words(self):
        """The words of all rows, as tuples."""
        return [tuple(w) for block in self.sphere_letters() for w in block.tolist()]


def word_spheres(P, n, cap=None):
    """Freely reduced word spheres 0..n with matrices, as one WordBall.

    The ball's arrays are allocated once and each sphere is written into
    them from the allowed (parent row, letter) pairs of the previous one, in
    blocks of at most BLOCK_ROWS rows.  For a free presentation the
    ball holds free_ball_size(P.rank, n) rows, checked against the cap
    before anything is allocated.  For non-free presentations the cap is
    checked against the running total plus the next sphere's candidate
    count before that sphere is written; elements whose matrices coincide
    (rounded to dedup_tolerance) with an earlier element are dropped, with a
    warning recording the merge count.
    """
    if n < 0:
        raise BadIndex("n must be >= 0")
    if cap is None:
        cap = P.element_cap
    # exact for a free presentation, an upper bound otherwise; a non-free
    # ball is checked sphere by sphere below, but its identity needs a row
    rows = free_ball_size(P.rank, n)
    if rows > cap and (P.assume_free or cap < 1):
        raise BudgetExceeded(f"element count exceeds cap {cap}")
    rows = min(rows, cap)
    # letters +1, -1, +2, -2, ...: position j is _letter_key, j ^ 1 its inverse
    letters = np.array([s * i for i in range(1, P.rank + 1) for s in (1, -1)],
                       dtype=np.int8)
    alphabet = np.stack(P._alphabet)
    inv_alphabet = alphabet[np.arange(len(letters)) ^ 1]

    def dedup_keys(M):
        return np.round(M / P.dedup_tolerance).astype(np.int64)

    d = P.dimension
    mats, inv_mats = np.empty((rows, d, d)), np.empty((rows, d, d))
    parent, letter = np.empty(rows, dtype=np.int32), np.empty(rows, dtype=np.int8)
    mats[0] = inv_mats[0] = np.eye(d)
    parent[0], letter[0] = -1, 0
    offsets = [0, 1]
    seen = None if P.assume_free else {dedup_keys(mats[:1])[0].tobytes()}
    merged = 0
    # parent rows per step: their children, at most BLOCK_ROWS, are one block
    step = max(1, BLOCK_ROWS // len(letters))
    for _ in range(n):
        start, lo = offsets[-2], offsets[-1]
        # every parent but the identity (letter 0) forbids one letter
        hi = lo + (lo - start) * len(letters) - np.count_nonzero(letter[start:lo])
        if hi > cap:
            raise BudgetExceeded(f"element count exceeds cap {cap}")
        a = lo
        for p in range(start, lo, step):
            # children in canonical order: by parent row, then by letter
            pi, li = np.nonzero(letters != -letter[p:min(p + step, lo), None])
            pi += p
            b = a + len(pi)
            parent[a:b], letter[a:b] = pi, letters[li]
            np.matmul(mats[pi], alphabet[li], out=mats[a:b])
            np.matmul(inv_alphabet[li], inv_mats[pi], out=inv_mats[a:b])
            a = b
        if seen is not None:
            keep = np.ones(hi - lo, dtype=bool)
            for i, key in enumerate(dedup_keys(mats[lo:hi])):
                key = key.tobytes()
                keep[i] = key not in seen
                seen.add(key)
            merged += int(np.count_nonzero(~keep))
            kept = lo + np.count_nonzero(keep)
            for arr in (mats, inv_mats, parent, letter):
                arr[lo:kept] = arr[lo:hi][keep]
            hi = kept
        offsets.append(hi)
    if merged:
        warnings.warn(f"word enumeration merged {merged} matrix-coincident words")
    if offsets[-1] < rows:
        # only a non-free ball can end short; its rows were deduplicated one
        # by one in Python, so the copy is small
        mats, inv_mats, parent, letter = (
            arr[:offsets[-1]].copy() for arr in (mats, inv_mats, parent, letter))
    return WordBall(mats, inv_mats, parent, letter, np.array(offsets), 0, (letter, parent))


def free_ball_size(rank, n):
    """|ball(n)| in the free group of the given rank: 1 + 2r((2r-1)^n - 1)/(2r-2)."""
    if rank == 1:
        return 2 * n + 1
    q = 2 * rank - 1
    return 1 + 2 * rank * (q**n - 1) // (q - 1)


def _byte_words(block):
    """Rows of a (count, k) letter array as byte strings in canonical word order."""
    # codes start at 1: byte strings drop trailing NUL bytes
    codes = np.ascontiguousarray(_letter_key(block.astype(np.intp)) + 1, dtype=np.uint8)
    return codes.view(f"S{block.shape[1]}")[:, 0]


def conjugacy_classes(P, n, primitive_only=False):
    """One canonical word per cyclic class of cyclically reduced words, length <= n.

    A WordBall of the representatives in canonical class order (``len``
    counts classes); ``inv_mats`` holds the forward products of the inverted
    words.  A cyclically reduced word represents its class when no rotation
    (all lie in its sorted sphere) is smaller; with primitive_only, when each
    is larger, as a word equal to a rotation is a proper power.  gamma and
    gamma^-1 give distinct classes.  Only valid for free presentations
    (raises NotFree otherwise).
    """
    if not P.assume_free:
        raise NotFree("conjugacy enumeration by cyclic words needs a free presentation")
    ball = word_spheres(P, n)
    keep = np.zeros(len(ball), dtype=bool)
    inverse = np.zeros(len(ball), dtype=np.intp)
    for k, block in enumerate(ball[1:].sphere_letters(), 1):
        sphere = slice(ball.offsets[k], ball.offsets[k + 1])
        words = _byte_words(block)
        keep[sphere] = block[:, 0] != -block[:, -1]
        for shift in range(1, k):
            rotated = _byte_words(np.roll(block, -shift, axis=1))
            keep[sphere] &= words < rotated if primitive_only else words <= rotated
        inverse[sphere] = ball.offsets[k] + np.searchsorted(words, _byte_words(-block[:, ::-1]))
    rows = np.flatnonzero(keep)
    return WordBall(ball.mats[rows], ball.mats[inverse[rows]], ball.parent[rows],
                    ball.letter[rows], np.searchsorted(rows, ball.offsets[1:]), 1,
                    ball.whole)


def exterior_power_rep(A, k):
    """Induced action on the k-th exterior power, lexicographic wedge basis."""
    A = np.asarray(A, dtype=float)
    d = A.shape[0]
    if not 1 <= k <= d - 1:
        raise BadIndex(f"k={k} outside 1..{d - 1}")
    combos = list(itertools.combinations(range(d), k))
    m = len(combos)
    out = np.empty((m, m))
    for col, J in enumerate(combos):
        sub = A[:, J]
        for row, I in enumerate(combos):
            out[row, col] = np.linalg.det(sub[I, :])
    return out


def symmetric_power_rep(A, d):
    """Irreducible d-dimensional representation of SL(2,R).

    Acts on degree-(d-1) binary forms in the norm-corrected monomial basis
    sqrt(C(n, j)) x^(n-j) y^j, which makes images of rotations orthogonal (so
    Cartan projections behave like the SO(2,1)-model predicts for d=3).
    One 2x2 matrix gives a (d, d) matrix, a (N, 2, 2) stack a (N, d, d) stack.
    """
    A = cartan.require_unimodular(A)
    if A.shape[-2:] != (2, 2):
        raise BadIndex("symmetric_power_rep takes 2x2 matrices")
    if d < 2:
        raise BadIndex("d must be >= 2")
    n = d - 1
    a, b, c, e = A[..., 0, 0], A[..., 0, 1], A[..., 1, 0], A[..., 1, 1]
    out = np.zeros(A.shape[:-2] + (d, d))
    # float_power is C pow, as float ** is; ndarray ** squares by a * a
    pw = np.float_power
    # basis vector j maps via substitution x -> a x + c y, y -> b x + e y
    for j in range(d):
        # expand (a x + c y)^(n-j) (b x + e y)^j
        poly = np.zeros(A.shape[:-2] + (d,))
        for p in range(n - j + 1):
            for q in range(j + 1):
                coeff = (
                    math.comb(n - j, p) * pw(a, p) * pw(c, n - j - p)
                    * math.comb(j, q) * pw(b, q) * pw(e, j - q)
                )
                poly[..., n - (p + q)] += coeff
        scale_j = math.sqrt(math.comb(n, j))
        for i in range(d):
            out[..., i, j] = poly[..., i] * scale_j / math.sqrt(math.comb(n, i))
    return out


def batch_kappa(mats, inv_mats, projection=None):
    """Cartan vectors of a stack of products, optionally projected to a_theta.

    inv_mats[i] is the forward product of the inverted word of mats[i].  The
    vectors are spliced BLOCK_ROWS rows at a time into one output array.
    """
    count, d = len(mats), mats.shape[-1]
    out = np.empty((count, d))
    # small singular values of a long product carry absolute error on the
    # order of eps * sigma_1; the inverse-word product sees them as large
    # singular values, so splice its (negated, reversed) top half in
    top = (d + 1) // 2
    for a in range(0, count, BLOCK_ROWS):
        b = min(a + BLOCK_ROWS, count)
        logs = _kernels.batch_log_singular_values(mats[a:b])
        inv_logs = -_kernels.batch_log_singular_values(inv_mats[a:b])[:, ::-1]
        block = out[a:b]
        block[:, :top] = logs[:, :top]
        block[:, top:] = inv_logs[:, top:]
        if d % 2 == 1:
            mid = d // 2
            block[:, mid] = 0.5 * (logs[:, mid] + inv_logs[:, mid])
        # zero-sum normalization in log space (robust |det|^(-1/d) rescaling)
        block -= block.mean(axis=1, keepdims=True)
    if projection is not None:
        out = out @ projection.T
    return out


def limit_cone_sample(P, theta, n, tol=1e-12):
    """Unit kappa_theta directions over the word sphere of radius n."""
    if n < 1:
        raise BadIndex("n must be >= 1")
    theta = cartan.validate_theta(theta, P.dimension)
    sphere = word_spheres(P, n)[n]
    proj = cartan.projection_matrix(P.dimension, theta)
    vecs = batch_kappa(sphere.mats, sphere.inv_mats, proj)
    norms = np.linalg.norm(vecs, axis=1)
    keep = norms > tol
    return vecs[keep] / norms[keep, None]


def random_words(rank, count, max_len, rng):
    """Freely reduced random words, for property tests and identity suites."""
    words = []
    for _ in range(count):
        length = int(rng.integers(1, max_len + 1))
        word = []
        for _ in range(length):
            while True:
                letter = int(rng.integers(1, rank + 1)) * (1 if rng.random() < 0.5 else -1)
                if not word or word[-1] != -letter:
                    break
            word.append(letter)
        words.append(tuple(word))
    return words
