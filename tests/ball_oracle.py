"""List-and-concatenate word balls, whole-stack spliced Cartan vectors and
whole-ball class representatives.

The reference for ``pslab.matgroup.word_spheres``, the ball walk and
``batch_kappa``: each sphere is built as its own arrays, from the products,
last letters and rows of its parents, and the ball is their concatenation;
the words are rebuilt from those parent rows and letters, and the splice
runs once over the whole stack, on np.linalg.svd's values (LAPACK) and with
ndarray.mean, not on the kernel and the splice under test.  The walk's
blocks and ``batch_kappa`` must reproduce these arrays bit for bit.  The
reference for ``pslab.matgroup.conjugacy_classes`` selects from this ball,
which holds every product, and copies the representatives' rows out of it.
"""

from dataclasses import dataclass

import numpy as np

from pslab import matgroup


@dataclass
class ReferenceBall:
    """Row i is one element: its products, its last letter and the row of its parent."""

    mats: np.ndarray  # (N, d, d) forward products of the words
    inv_mats: np.ndarray  # (N, d, d) forward products of the inverted words
    parent: np.ndarray  # (N,) int32, -1 at the identity
    letter: np.ndarray  # (N,) int8, 0 at the identity
    offsets: np.ndarray  # sphere k is rows offsets[k]:offsets[k + 1]

    def __len__(self):
        return len(self.letter)

    def sphere_letters(self):
        """One (count, k) int8 array of words per sphere k, read up the parent rows."""
        for k in range(len(self.offsets) - 1):
            rows = np.arange(self.offsets[k], self.offsets[k + 1])
            out = np.empty((len(rows), k), dtype=np.int8)
            for i in range(k - 1, -1, -1):
                out[:, i] = self.letter[rows]
                rows = self.parent[rows]
            yield out

    def words(self):
        return [tuple(w) for block in self.sphere_letters() for w in block.tolist()]


def word_spheres_reference(P, n):
    """Word spheres 0..n of P as one ReferenceBall, built sphere by sphere."""
    letters = np.array([s * i for i in range(1, P.rank + 1) for s in (1, -1)],
                       dtype=np.int8)
    alphabet = np.stack(P._alphabet)
    inv_alphabet = alphabet[np.arange(len(letters)) ^ 1]

    eye = np.eye(P.dimension)[None]
    mats, inv_mats = [eye], [eye]
    parents, lasts = [np.full(1, -1, dtype=np.int32)], [np.zeros(1, dtype=np.int8)]
    offsets = [0, 1]
    for _ in range(n):
        pi, li = np.nonzero(letters[None, :] != -lasts[-1][:, None])
        M = np.matmul(mats[-1][pi], alphabet[li])
        Minv = np.matmul(inv_alphabet[li], inv_mats[-1][pi])
        parents.append((pi + offsets[-2]).astype(np.int32))
        lasts.append(letters[li])
        mats.append(M)
        inv_mats.append(Minv)
        offsets.append(offsets[-1] + len(M))
    return ReferenceBall(np.concatenate(mats), np.concatenate(inv_mats), np.concatenate(parents),
                         np.concatenate(lasts), np.array(offsets))


def _lapack_logs(mats):
    return np.log(np.maximum(np.linalg.svd(mats, compute_uv=False), 1e-300))


def batch_kappa_reference(mats, inv_mats):
    """Spliced, zero-sum Cartan vectors of the whole stack at once, from LAPACK's values."""
    logs = _lapack_logs(mats)
    inv_logs = -_lapack_logs(inv_mats)[:, ::-1]
    d = logs.shape[1]
    top = (d + 1) // 2
    combined = logs.copy()
    combined[:, top:] = inv_logs[:, top:]
    if d % 2 == 1:
        mid = d // 2
        combined[:, mid] = 0.5 * (logs[:, mid] + inv_logs[:, mid])
    return combined - combined.mean(axis=1, keepdims=True)


def conjugacy_classes_reference(P, n, primitive_only=False):
    """The class representatives, chosen and copied out of the reference ball.

    A dict of their ball ``rows`` (int32), ``mats``, ``inv_mats`` (the
    forward products of their inverted words), ``offsets`` (sphere k is
    entries offsets[k - 1]:offsets[k]) and ``words``.
    """
    ball = word_spheres_reference(P, n)
    keep = np.zeros(len(ball), dtype=bool)
    inverse = np.zeros(len(ball), dtype=np.intp)
    for k, block in enumerate(ball.sphere_letters()):
        if k == 0:
            continue
        sphere = slice(ball.offsets[k], ball.offsets[k + 1])
        codes = np.abs(block).view(np.uint8)
        codes <<= 1
        codes -= 1
        codes += block < 0
        words = matgroup._byte_words(codes)
        keep[sphere] = codes[:, 0] != matgroup._inverse_codes(codes[:, -1])
        twice = np.concatenate([codes, codes], axis=1)
        for shift in range(1, k):
            rotated = matgroup._byte_words(twice[:, shift:shift + k])
            keep[sphere] &= words < rotated if primitive_only else words <= rotated
        inverse[sphere] = ball.offsets[k] + matgroup._inverse_rows(codes, P.rank)
    rows = np.flatnonzero(keep)
    words = ball.words()
    return {"rows": rows.astype(np.int32), "mats": ball.mats[rows],
            "inv_mats": ball.mats[inverse[rows]],
            "offsets": np.searchsorted(rows, ball.offsets[1:]),
            "words": [words[i] for i in rows]}
