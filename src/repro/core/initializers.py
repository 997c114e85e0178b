"""Centroid initialisation: uniform-random and k-means++.

Initialisation runs on the host in the paper's system, so these are
plain NumPy.  k-means++ is not cheap: its K−1 D² steps cost O(M·N·K),
the same as one Lloyd assignment pass, so it streams the samples in
cache-sized row blocks instead of materialising matrix-sized float64
temporaries.
"""

from __future__ import annotations

import numpy as np

__all__ = ["init_random", "init_kmeans_plusplus", "initialize"]

#: size of the float64 scratch block one D² step streams through; rows
#: per block follow from the feature count (1024 rows at 64 features,
#: small enough that the block and its centre tile stay in L2)
BLOCK_BYTES = 512 << 10


def init_random(x: np.ndarray, n_clusters: int, rng: np.random.Generator) -> np.ndarray:
    """K distinct samples chosen uniformly at random."""
    m = x.shape[0]
    if n_clusters > m:
        raise ValueError(f"n_clusters={n_clusters} exceeds n_samples={m}")
    idx = rng.choice(m, size=n_clusters, replace=False)
    return np.array(x[idx], copy=True)


def init_kmeans_plusplus(x: np.ndarray, n_clusters: int,
                         rng: np.random.Generator) -> np.ndarray:
    """Arthur & Vassilvitskii seeding: D² sampling.

    Maintains the running minimum squared distance to the chosen set and
    samples the next centroid proportional to it.  Each D² step walks
    the rows in blocks of ``BLOCK_BYTES`` float64 scratch: every row's
    ``sum((x64 - c)**2)`` is the same reduction over the same values as
    on the whole matrix, so the chosen centres are bit-identical to the
    unblocked computation while no temporary is the size of ``x``.
    """
    m, n_features = x.shape
    if n_clusters > m:
        raise ValueError(f"n_clusters={n_clusters} exceeds n_samples={m}")
    block = max(1, min(m, BLOCK_BYTES // (8 * n_features)))
    diff = np.empty((block, n_features), dtype=np.float64)
    # the centre tiled to a full block: a flat elementwise subtract
    # instead of one broadcast inner loop per row
    c_tile = np.empty_like(diff)
    row_d2 = np.empty(block, dtype=np.float64)
    centers = np.empty((n_clusters, n_features), dtype=np.float64)
    # min(inf, s) == s for every s, so the first fold just writes d2
    d2 = np.full(m, np.inf)

    def fold(c: np.ndarray) -> None:
        c_tile[...] = c
        for lo in range(0, m, block):
            rows = min(block, m - lo)
            # widening float32 rows is exact: t holds (x64 - c) row-wise
            t = diff[:rows]
            t[...] = x[lo:lo + rows]
            np.subtract(t, c_tile[:rows], out=t)
            np.square(t, out=t)
            s = np.sum(t, axis=1, out=row_d2[:rows])
            np.minimum(d2[lo:lo + rows], s, out=d2[lo:lo + rows])

    centers[0] = x[int(rng.integers(m))]
    fold(centers[0])
    for i in range(1, n_clusters):
        total = float(d2.sum())
        if total <= 0.0:
            # all remaining mass at distance zero (duplicate points):
            # fall back to uniform choice among the rest
            idx = int(rng.integers(m))
        else:
            idx = int(rng.choice(m, p=d2 / total))
        centers[i] = x[idx]
        fold(centers[i])
    return centers.astype(x.dtype)


def initialize(x: np.ndarray, n_clusters: int, method: str,
               rng: np.random.Generator) -> np.ndarray:
    """Dispatch on the configured init method."""
    if method == "random":
        return init_random(x, n_clusters, rng)
    if method == "k-means++":
        return init_kmeans_plusplus(x, n_clusters, rng)
    raise ValueError(f"unknown init method {method!r}")
