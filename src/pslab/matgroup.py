"""Matrix group presentations, word-ball enumeration and representation builders.

Words are tuples of signed 1-based generator indices: +i is the i-th
generator, -i its inverse.  Enumeration order is canonical: by length, then
lexicographically with letters ordered +1, -1, +2, -2, ...

A word ball is one ``WordBall``: element i is row ``rows[i]`` of the
ball's ``_BallWalk``, whose rows run in canonical order, so each sphere is
a contiguous block of rows and a parent row always precedes its children.
As every non-identity word has 2r - 1 children, the parent of a row (its
word less the last letter) is arithmetic on the row, and the last letters
of all rows follow from the letters of the spheres before (``_BallWalk``);
words are rebuilt from the two only where a label or a word is needed.

Every presentation is enumerated as a free group: a ball holds one row per
freely reduced word, whether or not two words give the same matrix.  Every
product is made by a ``_BallWalk``, which hands them out block by block to
the paths that read them.  The walk is depth first: past the first block,
each block is made from one block of its parents and handed out, and its
own children are made and handed out before the next block of its sphere,
so no whole sphere is held.  ``word_spheres`` makes a ball's walk and its
words without walking it; a reader of its products iterates ``ball.walk``,
so one walk serves the words and the products of a ball.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels, cartan
from .errors import BadIndex, BudgetExceeded, ConfigInvalid, DecompositionFailure, NonUnimodular

# the most elements a ball walk of 2x2 matrices may write (of d x d, 4 / d^2 as many)
ELEMENT_CAP = 5_000_000
# kappa_theta vectors of at most this norm give no limit-cone direction
CONE_NORM_TOLERANCE = 1e-12
# rows per block of a ball walk: each block it yields holds at most this
# many rows.  A walk in rank 2 and up holds its first block, of the spheres
# whose ball fits in BLOCK_ROWS rows, and a buffer per later sphere for the
# children of one run of BLOCK_ROWS // c parents, for c children a parent
# (of one parent, if c > BLOCK_ROWS).  A run's temporaries are its parents'
# last letters and their rows of one child table at a time, as many
# matrices as the run has children; its forward products are made in the
# buffer rows that its inverse products then overwrite.  A rank-1 walk holds
# one block, one row longer, and CHAIN_RUN + 1 states of four matrices
BLOCK_ROWS = 1 << 13
# spheres a rank-1 walk makes between two copies into its block
CHAIN_RUN = 64


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
        # an empty label would name its one-letter word "e", the identity's
        # label, and two equal labels two words: each label names one row
        elif "" in self.labels:
            raise ConfigInvalid("labels", "a label is empty")
        elif len(set(self.labels)) != len(self.labels):
            raise ConfigInvalid("labels", "two generators share a label")
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
        return self.word_labels(np.array(word, dtype=np.int8).reshape(1, -1))[0]

    def word_labels(self, letters):
        """The label of each row of a (count, k) int8 word array: its letters' names joined by ".",
        a letter named by its generator's label, primed for the inverse, and the empty word "e"."""
        names = np.array([lab + p for lab in self.labels for p in ("", "'")], dtype=object)
        keys = _letter_key(letters.astype(np.intp))
        return [label or "e" for label in map(".".join, names[keys].tolist())]


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
    Every view keeps the ``walk``: the last letter of element i is
    walk.letter[rows[i]], and iterating the walk yields the products of its
    rows.  ``mats`` and ``inv_mats`` are None but in the class
    representatives of ``conjugacy_classes``.
    """

    rows: np.ndarray  # (N,) int32 walk rows, 0 at the identity
    walk: "_BallWalk"  # whose rows these are
    offsets: np.ndarray  # (spheres + 1,) row offsets, offsets[0] == 0
    first: int  # word length of sphere 0
    mats: np.ndarray  # (N, d, d) float, or None
    inv_mats: np.ndarray  # (N, d, d) float, or None

    def __len__(self):
        return len(self.rows)

    def __iter__(self):
        return (self[j] for j in range(len(self.offsets) - 1))

    def __getitem__(self, key):
        if not isinstance(key, slice):
            key = slice(key, key + 1 or None)  # -1 is the last sphere
        lo, hi, _ = key.indices(len(self.offsets) - 1)
        a, b = self.offsets[lo], self.offsets[hi]
        mats, inv_mats = (None if arr is None else arr[a:b]
                          for arr in (self.mats, self.inv_mats))
        return WordBall(self.rows[a:b], self.walk, self.offsets[lo:hi + 1] - a,
                        self.first + lo, mats, inv_mats)

    def lengths(self):
        """Word length of every row."""
        spheres = len(self.offsets) - 1
        return np.repeat(np.arange(self.first, self.first + spheres), np.diff(self.offsets))

    def split(self, values):
        """Per-row values cut into one array per sphere."""
        return np.split(values, self.offsets[1:-1])

    def sphere_letters(self):
        """One (count, k) int8 array of words per sphere of length k."""
        letter, rank = self.walk.letter, self.walk.P.rank
        for j in range(len(self.offsets) - 1):
            a, b, k = self.offsets[j], self.offsets[j + 1], self.first + j
            out = np.empty((b - a, k), dtype=np.int8)
            rows = self.rows[a:b]
            for i in range(k - 1, -1, -1):
                out[:, i] = letter[rows]
                if i:
                    rows = _parent_rows(rows, rank)
            yield out

    def labels(self):
        """The labels of all rows, as GroupPresentation.word_labels makes them."""
        word_labels = self.walk.P.word_labels
        return [lab for block in self.sphere_letters() for lab in word_labels(block)]


def _parent_rows(rows, rank):
    """The parents of walk rows: 0 on sphere 1, then 2r - 1 consecutive children per row."""
    parents = rows - (2 * rank + 1)
    parents //= 2 * rank - 1
    parents += 1
    return np.maximum(parents, 0, out=parents)


class _BallWalk:
    """The rows of the word ball of radius n, written once each in canonical order.

    Making a walk checks the element cap on its matrix entries, makes the
    sphere ``offsets``, the
    int64 running sums of the sphere sizes (sphere k is rows
    offsets[k]:offsets[k + 1] of the ``rows``-row free-group ball), and the
    whole-ball ``letter`` array with no walk: the 2r - 1 children of a row
    take every letter but the inverse of its own, in canonical order, so the
    letters k levels below a row follow from its own, and spheres k + 1..2k
    are one lookup of spheres 1..k (log2 n lookups in all).

    Iterating yields ``(lo, mats, inv_mats)``, the products of ball rows
    lo:lo + len(mats), in blocks of at most BLOCK_ROWS rows; the next block
    a walk writes may overwrite these arrays.  The blocks tile the ball's
    rows once each, and each sphere's blocks come in row order, but lo need
    not increase: the blocks below a block are handed out before the next
    block of its sphere.  Each iteration walks the ball anew; ``ball()`` is
    the WordBall of its rows, made without iterating.  A block whose
    products overflowed raises DecompositionFailure.

    A rank-1 walk, whose rows each have one child, makes a sphere with one
    matmul and hands out its blocks in row order (``_chains``).  In higher
    rank the walk is depth first.  The spheres whose ball fits in one block
    are made there, each from the one before, and handed out as the first
    block.  From then on a block of sphere k is cut into runs of BLOCK_ROWS
    // c parents, for c children a parent (one parent if c > BLOCK_ROWS);
    the children of each run are made in the buffer of sphere k + 1 and
    handed out in blocks of at most BLOCK_ROWS rows, each expanded the same
    way before the next run is made (``_below``).  Every block after the
    first thus lies in one sphere, and a walk holds its first block and one
    buffer per later sphere, no whole sphere.  The recursion is a method
    that takes the buffers as an argument, not a nested function that calls
    itself: such a closure is a reference cycle, which kept the buffers of
    a walk until the cycle collector ran.

    Children are made with one matrix product per parent and side, one
    matmul per run (``_children``), with each parent's rows of two child
    tables built once per walk: F @ [g_1 | g_2 | ...] comes out as [i,
    child, l] and is copied into canonical [child, i, l] order through a
    view whose element is one matrix row, and [g_1^-1; g_2^-1; ...] @ G is
    already in that order and is written into the buffer.
    """

    def __init__(self, P, n):
        if n < 0:
            raise BadIndex("n must be >= 0")
        self.P, self.n = P, n
        self.rows = rows = free_ball_size(P.rank, n)
        d, q = P.dimension, 2 * P.rank
        # the walk's arrays grow with its matrix entries
        if rows * d * d > 4 * ELEMENT_CAP:
            raise BudgetExceeded(f"{rows} {d}x{d} matrices exceed the cap")
        # sphere k > 0 holds 2r (2r - 1)^(k - 1) rows, which the cap keeps in int64
        self.offsets = offsets = np.cumsum(np.concatenate(
            [[0, 1], q * (q - 1) ** np.arange(n, dtype=np.int64)]))
        # letters +1, -1, +2, -2, ...: position j is _letter_key, j ^ 1 its inverse
        letters = np.array([s * i for i in range(1, P.rank + 1) for s in (1, -1)],
                           dtype=np.int8)
        alphabet = np.stack(P._alphabet)
        inv_alphabet = alphabet[np.arange(q) ^ 1]
        # row l of the child tables belongs to a parent whose last letter is l
        # (negative l wrapping to the end): every letter but -l, in canonical
        # order; row 0 is not used.  The identity, with letter 0, is the only
        # parent of sphere 1 and takes every letter, from the one row of the
        # sphere-1 tables.  A forward row [g_1 | g_2 | ...] is (d, c d) and an
        # inverse row [g_1^-1; g_2^-1; ...] is (c d, d), for c children.
        allowed = np.zeros((q + 1, q - 1), dtype=np.intp)
        for j, lt in enumerate(letters):
            allowed[lt] = [i for i in range(q) if i != j ^ 1]
        self.tables = []
        for picks in (np.arange(q)[None], allowed):
            t, c = picks.shape
            self.tables.append((alphabet[picks].transpose(0, 2, 1, 3).reshape(t, d, c * d),
                                inv_alphabet[picks].reshape(t, c * d, d), letters[picks]))
        # the last letters of the rows k levels below a row depend on its own
        # alone: row l of `down` lists them for last letter l, so spheres k +
        # 1..k + m are one lookup of the letters of spheres 1..m, and `down`
        # for 2k levels is `down` looked up in itself.  The "wrap" mode takes
        # a negative l as Python does, and writes out in place.
        self.letter = letter = np.empty(rows, dtype=np.int8)
        letter[:q + 1] = np.concatenate([[0], letters])[:rows]
        down, k = self.tables[1][2], 1
        while k < n:
            m = min(k, n - k)
            lasts = letter[1:offsets[m + 1]]
            down.take(lasts, 0, letter[offsets[k + 1]:offsets[k + m + 1]].reshape(len(lasts), -1),
                      "wrap")
            k += m
            if k < n:
                down = down.take(down, 0, mode="wrap").reshape(q + 1, -1)

    def cut(self, lo, count, first, last):
        """The slice of the block of ball rows lo:lo + count that holds spheres first..last."""
        return slice(*(min(max(self.offsets[k] - lo, 0), count) for k in (first, last + 1)))

    def _chains(self):
        """The rank-1 walk: sphere k is rows 2k - 1 and 2k, the words a^k and a^-k.

        Four product chains advance together, one matmul per sphere: the
        forward products of a^k and a^-k, and the inverse-word products of
        the same words, carried transposed, as (g^-1 G)^T = G^T (g^-1)^T
        forms the same products in the same order.  A run of at most
        CHAIN_RUN spheres is made in a small array of states and copied into
        the block, the inverse chains transposed back on the way; a sphere
        that straddles the block's end writes its second row into one row
        past it, which the next block starts with.
        """
        n, d = self.n, self.P.dimension
        g, g_inv = self.P._alphabet
        steps = np.stack([g, g_inv, g_inv.T, g.T]).reshape(2, 2, d, d)
        # sphere 1 is one step from four identities
        states = np.empty((min(n, CHAIN_RUN) + 1, 2, 2, d, d))
        states[0] = np.eye(d)
        chain = list(states)  # a view per state, made once
        block = np.empty((2, BLOCK_ROWS + 1, d, d))
        block[:, 0] = np.eye(d)
        k, lo, fill = 0, 0, 1
        while True:
            while fill >= BLOCK_ROWS:
                yield (lo, *_require_finite(block[:, :BLOCK_ROWS]))
                # the second row of a sphere that straddled the block's end
                block[:, 0] = block[:, BLOCK_ROWS]
                lo, fill = lo + BLOCK_ROWS, fill - BLOCK_ROWS
            if k == n:
                break
            # spheres k + 1..k + t, the last of them holding the block's last row
            t = min(len(chain) - 1, n - k, (BLOCK_ROWS - fill + 1) // 2)
            for i in range(t):
                np.matmul(chain[i], steps, out=chain[i + 1])
            rows = block[:, fill:fill + 2 * t].reshape(2, t, 2, d, d)
            rows[0] = states[1:t + 1, 0]
            rows[1] = states[1:t + 1, 1].swapaxes(-1, -2)
            states[0] = states[t]
            k, fill = k + t, fill + 2 * t
        if fill:
            yield (lo, *_require_finite(block[:, :fill]))

    def __iter__(self):
        if self.P.rank == 1:
            yield from self._chains()
            return
        n, d, offsets = self.n, self.P.dimension, self.offsets.tolist()
        # spheres 0..top fit in the first block, each made from the one before
        top = max(k for k in range(n + 1) if offsets[k + 1] <= BLOCK_ROWS)
        block = np.empty((2, offsets[top + 1], d, d))
        block[:, 0] = np.eye(d)
        for k in range(top):
            self._children(block[:, offsets[k]:offsets[k + 1]], offsets[k],
                           block[:, offsets[k + 1]:offsets[k + 2]])
        yield (0, *_require_finite(block))
        # the buffer of sphere k + 1: the children of one run of sphere-k parents
        buffers = [None] * top
        for k in range(top, n):
            c = self.tables[k > 0][2].shape[1]
            buffers.append(np.empty((2, max(BLOCK_ROWS // c, 1) * c, d, d)))
        if top < n:
            yield from self._below(block[:, offsets[top]:], offsets[top], top, buffers)

    def _below(self, parents, lo, k, buffers):
        """The blocks of spheres k + 1..n below the sphere-k rows lo:lo + len(parents[0]).

        The children of each run of parents are made in buffers[k] and handed
        out a block at a time, each block followed by the blocks below it.
        """
        out = buffers[k]
        c = self.tables[k > 0][2].shape[1]
        step, count = len(out[0]) // c, len(parents[0])
        # the first child of row lo
        child = int(self.offsets[k + 1]) + (lo - int(self.offsets[k])) * c
        for i in range(0, count, step):
            made = out[:, :min(step, count - i) * c]
            self._children(parents[:, i:i + step], lo + i, made)
            for j in range(0, len(made[0]), BLOCK_ROWS):
                piece = made[:, j:j + BLOCK_ROWS]
                yield (child + j, *_require_finite(piece))
                if k + 1 < self.n:
                    yield from self._below(piece, child + j, k + 1, buffers)
            child += len(made[0])

    def _children(self, parents, lo, out):
        """Write the children of ball rows lo:lo + len(parents[0]) into out, from their products.

        Children come in canonical order: by parent row, then by letter.
        One matrix product per parent and side makes them; the forward
        products are made in the rows of out that the inverse products then
        overwrite.
        """
        d = self.P.dimension
        fwd_tab, inv_tab, let_tab = self.tables[lo > 0]
        m, c = len(parents[0]), let_tab.shape[1]
        # the parents' last letters, as intp take indices
        lasts = self.letter[lo:lo + m].astype(np.intp)
        inv = out[1].reshape(m, d, c * d)
        fwd = np.matmul(parents[0], fwd_tab.take(lasts, 0), inv)
        # one matrix row as one element: the forward products come out as
        # [parent, i, child, l] and are copied to [parent, child, i, l] as rows
        row = np.dtype((np.void, 8 * d))
        out[0].view(row)[..., 0].reshape(m, c, d)[...] = fwd.view(row).transpose(0, 2, 1)
        np.matmul(inv_tab.take(lasts, 0), parents[1], out[1].reshape(m, c * d, d))

    def ball(self):
        """The rows as a WordBall of this walk and its offsets: the words need no iteration."""
        return WordBall(np.arange(self.rows, dtype=np.int32), self, self.offsets, 0, None, None)


def word_spheres(P, n):
    """Freely reduced word spheres 0..n as one WordBall, whose walk is not yet walked.

    The products of its rows are read block by block from ``ball.walk``.
    """
    return _BallWalk(P, n).ball()


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


def _inverse_rows(codes, rank):
    """Row within its sphere of the inverse of each reduced word, from its (count, k) codes.

    A reduced word's row is its mixed-radix rank: the first letter key, then
    for each later key one digit of base 2r - 1, the key less one when it is
    above the inverse of the key before it.  The inverse word is the
    reversed codes, each inverted.
    """
    inv = _inverse_codes(codes[:, ::-1])
    rows = inv[:, 0].astype(np.intp) - 1
    for i in range(1, codes.shape[1]):
        rows *= 2 * rank - 1
        rows += inv[:, i] - 1
        rows -= inv[:, i] > _inverse_codes(inv[:, i - 1])
    return rows


def _letter_codes(letters):
    """The (count, k) int8 words as uint8 letter codes, made in place.

    Code 2|l| - 1 + (l < 0) is _letter_key(l) + 1 (rank <= 127).
    """
    negative = letters < 0
    codes = np.abs(letters, out=letters).view(np.uint8)
    codes <<= 1
    codes -= 1
    codes += negative
    return codes


def _class_rows(ball, rank, primitive_only):
    """The rows of the class representatives in a ball, and the rows whose products they keep.

    The second array holds the representatives' rows, then the rows of
    their inverted words.  Rotations are compared as byte strings of letter
    codes, sphere by sphere, each rotation only on the cyclically reduced
    words that the ones before left standing.
    """
    keep = np.zeros(len(ball), dtype=bool)
    inverse = []
    for k, letters in enumerate(ball[1:].sphere_letters(), 1):
        codes = _letter_codes(letters)
        # the cyclically reduced words
        at = np.flatnonzero(codes[:, 0] != _inverse_codes(codes[:, -1]))
        codes = codes[at]
        rotated = np.empty_like(codes)
        for shift in range(1, k):
            rotated[:, :k - shift] = codes[:, shift:]
            rotated[:, k - shift:] = codes[:, :shift]
            words, turned = _byte_words(codes), _byte_words(rotated)
            stand = words < turned if primitive_only else words <= turned
            at, codes, rotated = at[stand], codes[stand], rotated[:stand.sum()]
        keep[ball.offsets[k] + at] = True
        inverse.append(ball.offsets[k] + _inverse_rows(codes, rank))
    rows = np.flatnonzero(keep)
    return rows, np.concatenate([rows, *inverse])


def conjugacy_classes(P, n, primitive_only=False):
    """One canonical word per cyclic class of cyclically reduced words, length <= n.

    A WordBall of the representatives in canonical class order (``len``
    counts classes); ``inv_mats`` holds the forward products of the inverted
    words.  A cyclically reduced word represents its class when no rotation
    (all lie in its sorted sphere) is smaller; with primitive_only, when each
    is larger, as a word equal to a rotation is a proper power.  gamma and
    gamma^-1 give distinct classes.

    The representatives and the rows of their inverted words are chosen from
    the ball's words, and its walk then copies the forward products of
    those rows out of its blocks.
    """
    ball = word_spheres(P, n)
    rows, wanted = _class_rows(ball, P.rank, primitive_only)
    products = np.empty((len(wanted), P.dimension, P.dimension))
    for lo, mats, _ in ball.walk:
        at = np.flatnonzero((wanted >= lo) & (wanted < lo + len(mats)))
        products[at] = mats[wanted[at] - lo]
    mats, inv_mats = np.split(products, 2)
    return WordBall(ball.rows[rows], ball.walk, np.searchsorted(rows, ball.offsets[1:]), 1,
                    mats, inv_mats)


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

    inv_mats[i] is the forward product of the inverted word of mats[i].  The
    kernel makes only the top ceil(d / 2) log singular values of each, the
    columns that the splice reads.
    """
    try:
        logs = _kernels.batch_log_singular_values(mats)
        inv_logs = _kernels.batch_log_singular_values(inv_mats)
    except np.linalg.LinAlgError as exc:
        raise DecompositionFailure(str(exc)) from exc
    return cartan.splice(logs, inv_logs, np.empty(mats.shape[:-1]))


def _row_products(K, f):
    """K @ f for the rows of K, each with the bits of one product over a longer stack.

    numpy multiplies a single row by f as a dot product and two or more rows
    by gemv, which may round differently; so a block of one row is
    multiplied as two.
    """
    if len(K) == 1:
        return (np.repeat(K, 2, axis=0) @ f)[:1]
    return K @ f


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

