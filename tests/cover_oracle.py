"""Per-row first-fit cover oracle.

The reference for ``pslab._kernels.greedy_cover_count``: it scans the rows
one at a time and opens a centre for each row that no earlier centre covers,
so its count is the first-fit count the per-centre sweep must reproduce.
"""

import numpy as np


def greedy_cover_count_reference(features, eps):
    """Number of eps-balls a first-fit greedy pass needs to cover the unit rows.

    The distance is the sine of the line angle.  Deterministic: points are
    scanned in the given (canonical) order.
    """
    features = np.asarray(features, dtype=float)
    centers = np.empty((0, features.shape[1]))
    for row in features:
        if centers.shape[0]:
            dot = np.clip(centers @ row, -1.0, 1.0)
            dists = np.sqrt(np.maximum(1.0 - dot * dot, 0.0))
            if dists.min() <= eps:
                continue
        centers = np.vstack([centers, row])
    return centers.shape[0]
