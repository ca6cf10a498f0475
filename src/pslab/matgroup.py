"""Matrix group presentations, word-ball enumeration and representation builders.

Words are tuples of signed 1-based generator indices: +i is the i-th
generator, -i its inverse.  Enumeration order is canonical: by length, then
lexicographically with letters ordered +1, -1, +2, -2, ...
"""

import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import _kernels, cartan
from .errors import BadIndex, BudgetExceeded, NonUnimodular, NotFree

DEFAULT_ELEMENT_CAP = 5_000_000


def _letter_key(letter):
    # +1, -1, +2, -2, ... -> 0, 1, 2, 3, ...
    return 2 * (abs(letter) - 1) + (0 if letter > 0 else 1)


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


@dataclass
class GroupElement:
    matrix: np.ndarray
    word: tuple
    word_length: int = field(default=None)
    # inverse built from the inverse word: forward-stable where direct matrix
    # inversion of a long ill-conditioned product is not
    inverse_matrix: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        self.word = tuple(self.word)
        if self.word_length is None:
            self.word_length = len(self.word)


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


def word_spheres(P, n, cap=None):
    """Freely reduced word spheres 0..n with matrices, in canonical order.

    Returns a list of lists of GroupElement.  For non-free presentations,
    elements whose matrices coincide (rounded to dedup_tolerance) with an
    earlier element are dropped, with a warning recording the merge count.
    """
    if n < 0:
        raise BadIndex("n must be >= 0")
    cap = cap or P.element_cap
    d = P.dimension
    letters = [s * i for i in range(1, P.rank + 1) for s in (1, -1)]
    letters.sort(key=_letter_key)

    seen = {} if not P.assume_free else None
    merged = 0

    def dedup_key(M):
        return np.round(M / P.dedup_tolerance).astype(np.int64).tobytes()

    spheres = [[GroupElement(np.eye(d), (), inverse_matrix=np.eye(d))]]
    if seen is not None:
        seen[dedup_key(np.eye(d))] = ()
    total = 1
    for _ in range(n):
        prev = spheres[-1]
        parents = np.array([e.matrix for e in prev])
        inv_parents = np.array([e.inverse_matrix for e in prev])
        children = []
        child_words = []
        parent_idx = []
        child_letters = []
        for pi, e in enumerate(prev):
            last = e.word[-1] if e.word else 0
            for letter in letters:
                if last == -letter:
                    continue
                parent_idx.append(pi)
                child_letters.append(letter)
                child_words.append(e.word + (letter,))
        if not child_words:
            spheres.append([])
            continue
        stack = np.stack([P.letter_matrix(c) for c in child_letters])
        inv_stack = np.stack([P.letter_matrix(-c) for c in child_letters])
        mats = np.matmul(parents[parent_idx], stack)
        inv_mats = np.matmul(inv_stack, inv_parents[parent_idx])
        for w, M, Minv in zip(child_words, mats, inv_mats):
            if seen is not None:
                key = dedup_key(M)
                if key in seen:
                    merged += 1
                    continue
                seen[key] = w
            children.append(GroupElement(M, w, inverse_matrix=Minv))
        total += len(children)
        if total > cap:
            raise BudgetExceeded(f"element count exceeds cap {cap}")
        spheres.append(children)
    if merged:
        warnings.warn(f"word enumeration merged {merged} matrix-coincident words")
    return spheres


def word_ball(P, n, cap=None):
    """All freely reduced words of length <= n with matrices, canonical order."""
    return [e for sphere in word_spheres(P, n, cap) for e in sphere]


def free_ball_size(rank, n):
    """|ball(n)| in the free group of the given rank: 1 + 2r((2r-1)^n - 1)/(2r-2)."""
    if rank == 1:
        return 2 * n + 1
    q = 2 * rank - 1
    return 1 + 2 * rank * (q**n - 1) // (q - 1)


def _is_cyclically_reduced(word):
    return len(word) < 2 or word[0] != -word[-1]


def _necklace_canon(word):
    rotations = [word[i:] + word[:i] for i in range(len(word))]
    return min(rotations, key=word_key)


def _is_proper_power(word):
    n = len(word)
    for per in range(1, n):
        if n % per == 0 and word == word[per:] + word[:per]:
            return True
    return False


def conjugacy_classes(P, n, primitive_only=False):
    """One representative per cyclic class of cyclically reduced words, length <= n.

    gamma and gamma^-1 give distinct classes.  Only valid for free
    presentations (raises NotFree otherwise).
    """
    if not P.assume_free:
        raise NotFree("conjugacy enumeration by cyclic words needs a free presentation")
    reps = []
    seen = set()
    for sphere in word_spheres(P, n)[1:]:
        for e in sphere:
            w = e.word
            if not _is_cyclically_reduced(w):
                continue
            canon = _necklace_canon(w)
            if canon in seen:
                continue
            seen.add(canon)
            if primitive_only and _is_proper_power(canon):
                continue
            reps.append(GroupElement(P.word_matrix(canon), canon))
    return reps


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
    """
    A = cartan.require_unimodular(A)
    if A.shape != (2, 2):
        raise BadIndex("symmetric_power_rep takes a 2x2 matrix")
    if d < 2:
        raise BadIndex("d must be >= 2")
    n = d - 1
    a, b = A[0]
    c, e = A[1]
    out = np.zeros((d, d))
    # basis vector j maps via substitution x -> a x + c y, y -> b x + e y
    for j in range(d):
        # expand (a x + c y)^(n-j) (b x + e y)^j
        poly = np.zeros(d)
        for p in range(n - j + 1):
            for q in range(j + 1):
                coeff = (
                    math.comb(n - j, p) * a**p * c ** (n - j - p)
                    * math.comb(j, q) * b**q * e ** (j - q)
                )
                poly[n - (p + q)] += coeff
        scale_j = math.sqrt(math.comb(n, j))
        for i in range(d):
            out[i, j] = poly[i] * scale_j / math.sqrt(math.comb(n, i))
    return out


def batch_kappa(elements, projection=None):
    """Cartan vectors for a list of GroupElements, optionally projected to a_theta."""
    if not elements:
        return np.zeros((0, 0))
    mats = np.stack([e.matrix for e in elements])
    logs = _kernels.batch_log_singular_values(mats)
    if all(e.inverse_matrix is not None for e in elements):
        # small singular values of a long product carry absolute error on the
        # order of eps * sigma_1; the inverse-word product sees them as large
        # singular values, so splice its (negated, reversed) top half in
        inv_mats = np.stack([e.inverse_matrix for e in elements])
        inv_logs = -_kernels.batch_log_singular_values(inv_mats)[:, ::-1]
        d = mats.shape[1]
        top = (d + 1) // 2
        combined = logs.copy()
        combined[:, top:] = inv_logs[:, top:]
        if d % 2 == 1:
            mid = d // 2
            combined[:, mid] = 0.5 * (logs[:, mid] + inv_logs[:, mid])
        logs = combined
    # zero-sum normalization in log space (robust |det|^(-1/d) rescaling)
    logs = logs - logs.mean(axis=1, keepdims=True)
    if projection is not None:
        logs = logs @ projection.T
    return logs


def limit_cone_sample(P, theta, n, tol=1e-12):
    """Unit kappa_theta directions over the word sphere of radius n."""
    if n < 1:
        raise BadIndex("n must be >= 1")
    theta = cartan.validate_theta(theta, P.dimension)
    sphere = word_spheres(P, n)[n]
    if not sphere:
        return np.zeros((0, P.dimension))
    proj = cartan.projection_matrix(P.dimension, theta)
    vecs = batch_kappa(sphere, proj)
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
