"""Matrix group presentations, word-ball enumeration and representation builders.

Words are tuples of signed 1-based generator indices: +i is the i-th
generator, -i its inverse.  Enumeration order is canonical: by length, then
lexicographically with letters ordered +1, -1, +2, -2, ...

A word ball is one ``WordBall``: row i of its arrays is one element,
``mats[i]`` its matrix (the forward product of its word), ``inv_mats[i]`` the
forward product of its inverted word, ``letter[i]`` its last letter and
``parent[i]`` the row of its word with that letter removed.  Rows run in
canonical order, so each sphere is a contiguous block of rows and a parent
row always precedes its children; as every non-identity word has 2r - 1
children, ``parent`` follows from the row alone (``_BallWalk.ball``).  Words
are rebuilt from ``parent`` and ``letter`` only where a label or a word is
needed.

Every presentation is enumerated as a free group: a ball holds one row per
freely reduced word, whether or not two words give the same matrix.  Every
ball is enumerated by one ``_BallWalk``, which hands out the matrices block
by block.  ``word_spheres`` keeps them; paths that only need values of
the matrices (spliced Cartan vectors, flags) read each block as it comes
and keep a words-only ball, whose ``mats`` and ``inv_mats`` are None.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels, cartan
from .errors import BadIndex, BudgetExceeded, ConfigInvalid, DecompositionFailure, NonUnimodular

# the most elements a ball walk may write
ELEMENT_CAP = 5_000_000
# kappa_theta vectors of at most this norm give no limit-cone direction
CONE_NORM_TOLERANCE = 1e-12
# rows per block of a ball walk: each block it yields, and the operands
# gathered for one step, hold at most this many rows
BLOCK_ROWS = 1 << 13


def _letter_key(letter):
    # +1, -1, +2, -2, ... -> 0, 1, 2, 3, ...
    return 2 * (abs(letter) - 1) + (letter < 0)


@dataclass
class GroupPresentation:
    dimension: int
    generators: list
    labels: list = None

    def __post_init__(self):
        if not self.generators:
            raise BadIndex("at least one generator required")
        gens = [cartan.require_unimodular(g) for g in self.generators]
        if any(g.shape != (self.dimension, self.dimension) for g in gens):
            raise NonUnimodular(None)
        self.generators = gens
        if self.labels is None:
            self.labels = [chr(ord("a") + i) for i in range(len(gens))]
        elif len(self.labels) != len(gens):
            raise ConfigInvalid("labels", f"{len(self.labels)} labels for {len(gens)} generators")
        # index 2j -> generator j, 2j+1 -> its inverse (matches _letter_key)
        self._alphabet = []
        for g in gens:
            self._alphabet.append(g)
            try:
                self._alphabet.append(np.linalg.inv(g))
            except np.linalg.LinAlgError as exc:
                # the determinant check widens with the column norms, so a
                # singular matrix with large columns can pass it
                raise NonUnimodular(float(np.linalg.det(g))) from exc

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
        return _require_finite(M)

    def word_label(self, word):
        parts = []
        for letter in word:
            lab = self.labels[abs(letter) - 1]
            parts.append(lab if letter > 0 else lab + "'")
        return ".".join(parts) or "e"


def invert_word(word):
    return tuple(-x for x in reversed(word))


def reduce_word(word):
    """The freely reduced form of a word."""
    out = []
    for letter in word:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def _require_finite(products):
    """products, checked for overflow once, where they are made: word_matrix, the ball walk."""
    if not np.isfinite(products).all():
        raise DecompositionFailure("word products overflowed the float range")
    return products


@dataclass(eq=False, repr=False)
class WordBall:
    """Word spheres as one set of arrays (layout in the module docstring).

    Sphere j of this ball is rows offsets[j]:offsets[j+1] and holds words of
    length first + j.  ``len`` counts elements; iterating yields the spheres.
    Indexing with an int gives one sphere and with a contiguous
    slice a run of spheres, as WordBalls over views of the same arrays.
    ``mats`` and ``inv_mats`` are None in a words-only ball.
    ``parent`` holds rows of the whole walked ball, whose
    ``(letter, parent)`` arrays every view keeps as ``whole``; a walked
    ball's ``parent`` is not walked but made from the row numbers.
    """

    mats: np.ndarray  # (N, d, d) float, or None
    inv_mats: np.ndarray  # (N, d, d) float, or None
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
        mats, inv_mats = (None if arr is None else arr[a:b]
                          for arr in (self.mats, self.inv_mats))
        return WordBall(mats, inv_mats, self.parent[a:b], self.letter[a:b],
                        self.offsets[lo:hi + 1] - a, self.first + lo, self.whole)

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

    def words(self):
        """The words of all rows, as tuples."""
        return [tuple(w) for block in self.sphere_letters() for w in block.tolist()]


class _BallWalk:
    """The rows of the word ball of radius n, written once each in canonical order.

    Making a walk checks the element cap, allocates the whole-ball
    ``letter`` array of ``rows`` rows, the free-group ball size, and lists
    the sphere ``offsets`` from the smaller balls' sizes: sphere k is rows
    offsets[k]:offsets[k + 1].  Iterating fills ``letter`` and yields
    ``(lo, mats, inv_mats)``, the products of ball rows lo:lo + len(mats),
    in blocks of BLOCK_ROWS rows (the last one shorter) that may span
    spheres; the next block overwrites these arrays.  The walk keeps the
    matrices of the parent sphere and of the sphere being written, and never
    those of sphere n; with keep_matrices it keeps every sphere's, in the
    whole-ball ``products`` (forward products first, inverse ones second).
    A walk is iterated once; after that ``ball()`` is the WordBall of the
    walked rows, whose ``parent`` is made there from the row numbers alone.
    A block whose products overflowed raises DecompositionFailure.

    Each sphere is written from the previous one, at most BLOCK_ROWS rows
    per step: a step broadcasts a run of parent products over their rows of
    a table of child letters, two matmul calls writing straight into the
    block, and a parent whose children straddle the block's end is split
    between two steps.
    """

    def __init__(self, P, n, keep_matrices=False):
        if n < 0:
            raise BadIndex("n must be >= 0")
        self.P, self.n = P, n
        self.rows = rows = free_ball_size(P.rank, n)
        if rows > ELEMENT_CAP:
            raise BudgetExceeded(f"element count exceeds cap {ELEMENT_CAP}")
        d = P.dimension
        self.letter = np.empty(rows, dtype=np.int8)
        self.products = np.empty((2, rows, d, d)) if keep_matrices else None
        self.offsets = [0] + [free_ball_size(P.rank, k) for k in range(n + 1)]

    def cut(self, lo, count, first, last):
        """The slice of the block of ball rows lo:lo + count that holds spheres first..last."""
        return slice(*(min(max(self.offsets[k] - lo, 0), count) for k in (first, last + 1)))

    def __iter__(self):
        P, n, d = self.P, self.n, self.P.dimension
        q = 2 * P.rank
        # letters +1, -1, +2, -2, ...: position j is _letter_key, j ^ 1 its inverse
        letters = np.array([s * i for i in range(1, P.rank + 1) for s in (1, -1)],
                           dtype=np.int8)
        alphabet = np.stack(P._alphabet)
        inv_alphabet = alphabet[np.arange(q) ^ 1]
        # row l of the child tables belongs to a parent whose last letter is l
        # (negative l wrapping to the end): every letter but -l, in canonical
        # order; row 0 is not used.  The identity, with letter 0, is the only
        # parent of sphere 1 and takes every letter, from the one row of the
        # sphere-1 tables.
        allowed = np.zeros((q + 1, q - 1), dtype=np.intp)
        for j, lt in enumerate(letters):
            allowed[lt] = [i for i in range(q) if i != j ^ 1]
        tables = [(alphabet[None], inv_alphabet[None], letters[None]),
                  (alphabet[allowed], inv_alphabet[allowed], letters[allowed])]

        letter, offsets, products = self.letter, self.offsets, self.products
        buffer = np.empty((2, BLOCK_ROWS, d, d)) if products is None else None

        def window(lo):
            # where the products of rows lo:lo + BLOCK_ROWS are written
            return buffer if products is None else products[:, lo:lo + BLOCK_ROWS]

        block = window(0)
        block[:, 0] = np.eye(d)
        letter[0] = 0
        fill = 1  # rows of the block written so far
        sphere = block[:, :1].copy()
        for k in range(1, n + 1):
            fwd_tab, inv_tab, let_tab = tables[k > 1]
            c = let_tab.shape[1]  # children per parent
            start, lo = offsets[k - 1], offsets[k]
            # the parents of sphere k + 1, unless the whole ball is kept; sphere
            # n's only copy is the block
            store = (np.empty((2, (lo - start) * c, d, d))
                     if products is None and k < n else None)
            a = lo
            # children in canonical order: by parent row, then by letter; the
            # next one is child j of parent row p
            p, j = start, 0
            while p < lo:
                room = BLOCK_ROWS - fill
                if j == 0 and room >= c:
                    # the parents whose children all fit, each broadcast over
                    # its row of the tables
                    e = min(p + room // c, lo)
                    lasts = letter[p:e]
                    rows, shape = (e - p) * c, (e - p, c, d, d)
                    out = block[:, fill:fill + rows]
                    np.matmul(sphere[0][p - start:e - start, None], fwd_tab.take(lasts, 0),
                              out=out[0].reshape(shape))
                    np.matmul(inv_tab.take(lasts, 0), sphere[1][p - start:e - start, None],
                              out=out[1].reshape(shape))
                    lets = let_tab.take(lasts, 0).ravel()
                    p = e
                else:
                    # a parent whose children straddle the end of the block
                    rows = min(c - j, room)
                    last = letter[p]
                    out = block[:, fill:fill + rows]
                    np.matmul(sphere[0][p - start], fwd_tab[last, j:j + rows], out=out[0])
                    np.matmul(inv_tab[last, j:j + rows], sphere[1][p - start], out=out[1])
                    lets = let_tab[last, j:j + rows]
                    j += rows
                    if j == c:
                        p, j = p + 1, 0
                letter[a:a + rows] = lets
                if store is not None:
                    store[:, a - lo:a - lo + rows] = out
                fill += rows
                a += rows
                if fill == BLOCK_ROWS:
                    _require_finite(block)
                    yield a - fill, block[0], block[1]
                    block = window(a)
                    fill = 0
            if store is not None:
                sphere = store
            elif products is not None:
                sphere = products[:, lo:a]
        if fill:
            _require_finite(block[:, :fill])
            yield self.rows - fill, block[0, :fill], block[1, :fill]

    def ball(self):
        """The walked rows as a WordBall, words only unless the walk kept matrices.

        ``parent`` is made from the row numbers: -1 at the identity, 0 on
        sphere 1, and after that the 2r - 1 children of each row are
        consecutive.  It is made in place, as a walk that kept its matrices
        is at its peak here.
        """
        mats, inv_mats = (None, None) if self.products is None else self.products
        head = 2 * self.P.rank + 1  # the identity and sphere 1
        parent = np.arange(-head, self.rows - head, dtype=np.int32)
        parent //= 2 * self.P.rank - 1
        parent += 1
        parent[:head] = 0
        parent[0] = -1
        return WordBall(mats, inv_mats, parent, self.letter, np.array(self.offsets), 0,
                        (self.letter, parent))


def word_spheres(P, n):
    """Freely reduced word spheres 0..n with matrices, as one WordBall.

    The ball's arrays are allocated once, after the cap check, and a
    _BallWalk writes every row into them.
    """
    walk = _BallWalk(P, n, keep_matrices=True)
    for _ in walk:
        pass
    return walk.ball()


def free_ball_size(rank, n):
    """|ball(n)| in the free group of the given rank: 1 + 2r((2r-1)^n - 1)/(2r-2)."""
    if rank == 1:
        return 2 * n + 1
    q = 2 * rank - 1
    return 1 + 2 * rank * (q**n - 1) // (q - 1)


def _byte_words(codes):
    """Rows of a (count, k) uint8 code array as byte strings in canonical word order."""
    return np.ascontiguousarray(codes).view(f"S{codes.shape[1]}")[:, 0]


def _inverse_codes(codes):
    # code c = _letter_key + 1 (byte strings drop trailing NUL bytes, so codes
    # start at 1); the inverse letter's key is the key ^ 1
    return ((codes - 1) ^ 1) + 1


def conjugacy_classes(P, n, primitive_only=False):
    """One canonical word per cyclic class of cyclically reduced words, length <= n.

    A WordBall of the representatives in canonical class order (``len``
    counts classes); ``inv_mats`` holds the forward products of the inverted
    words.  A cyclically reduced word represents its class when no rotation
    (all lie in its sorted sphere) is smaller; with primitive_only, when each
    is larger, as a word equal to a rotation is a proper power.  gamma and
    gamma^-1 give distinct classes.

    Words are compared as byte strings of letter codes, taken once per
    sphere: rotation i of a word is bytes i:i + k of the word written twice,
    and the inverse word is the reversed codes, each inverted.
    """
    ball = word_spheres(P, n)
    keep = np.zeros(len(ball), dtype=bool)
    inverse = np.zeros(len(ball), dtype=np.intp)
    for k, block in enumerate(ball[1:].sphere_letters(), 1):
        sphere = slice(ball.offsets[k], ball.offsets[k + 1])
        codes = (_letter_key(block.astype(np.intp)) + 1).astype(np.uint8)
        words = _byte_words(codes)
        keep[sphere] = codes[:, 0] != _inverse_codes(codes[:, -1])
        twice = np.concatenate([codes, codes], axis=1)
        for shift in range(1, k):
            rotated = _byte_words(twice[:, shift:shift + k])
            keep[sphere] &= words < rotated if primitive_only else words <= rotated
        inverse[sphere] = ball.offsets[k] + np.searchsorted(
            words, _byte_words(_inverse_codes(codes[:, ::-1])))
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
    A = np.asarray(A, dtype=float)
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


def batch_kappa(mats, inv_mats):
    """Cartan vectors of a stack of products, spliced by cartan.splice.

    inv_mats[i] is the forward product of the inverted word of mats[i].
    """
    try:
        logs = _kernels.batch_log_singular_values(mats)
        inv_logs = _kernels.batch_log_singular_values(inv_mats)
    except np.linalg.LinAlgError as exc:
        raise DecompositionFailure(str(exc)) from exc
    return cartan.splice(logs, inv_logs, np.empty(logs.shape))


def limit_cone_sample(P, theta, n):
    """Unit kappa_theta directions over the word sphere of radius n.

    The sphere's matrices are spliced block by block as the walk writes them.
    """
    if n < 1:
        raise BadIndex("n must be >= 1")
    theta = cartan.validate_theta(theta, P.dimension)
    walk = _BallWalk(P, n)
    parts = []
    for lo, mats, inv_mats in walk:
        part = walk.cut(lo, len(mats), n, n)
        parts.append(batch_kappa(mats[part], inv_mats[part]))
    proj = cartan.projection_matrix(P.dimension, theta)
    # one product over the sphere, as batch_kappa makes it
    vecs = np.concatenate(parts) @ proj.T
    norms = np.linalg.norm(vecs, axis=1)
    keep = norms > CONE_NORM_TOLERANCE
    return vecs[keep] / norms[keep, None]

