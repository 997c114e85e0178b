"""Centroid initialisation: uniform-random and k-means++.

Initialisation runs on the host in the paper's system, so these are
plain NumPy.  k-means++ is not cheap: its K−1 D² steps cost O(M·N·K),
the same as one Lloyd assignment pass, and done naively each step
reads and rewrites a float64 copy of every sample.  Two things cut
that to a handful of such passes without changing a bit of output:

* **Blocked exact D².**  The one value ``d2`` ever holds is NumPy's
  per-row ``sum((x64 - c)**2)``, computed on cache-sized float64 row
  blocks, so no temporary is the size of ``x``.
* **A certified GEMM-form filter.**  A new centre captures only about
  1/k of the rows at step k.  One GEMV ``x @ c`` in the input dtype plus
  float64 squared row norms gives, for every row, a lower bound ``L`` on
  the exact value the blocked step would compute — the distance in the
  paper's ‖x‖² − 2x·c + ‖c‖² form, minus a proven rounding error bound.
  Only rows with ``not (L > d2)`` are recomputed exactly.  A skipped row
  has exact D² ≥ ``d2``, so ``np.minimum`` would have kept ``d2``: the
  chosen centres are bit-identical to the unfiltered computation by
  construction, not within a tolerance.
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


def _gamma(n: int, u: float) -> float:
    """Higham's γ_n = n·u / (1 − n·u): the relative error bound of an
    n-term float sum or dot product in any order, with or without FMA."""
    return n * u / (1.0 - n * u)


def _exact_d2(x: np.ndarray, rows, c_tile: np.ndarray, diff: np.ndarray,
              out: np.ndarray) -> np.ndarray:
    """Exact D² of ``x[rows]`` (a slice or at most one block of indices)
    to the centre tiled in ``c_tile``: ``sum((x64 - c)**2, axis=1)``.

    Every row's result is the same reduction over the same values as on
    the whole matrix, whatever block or gather it arrives in, so ``d2``
    holds the same bits however its rows were grouped.
    """
    xb = x[rows]
    t = diff[:xb.shape[0]]
    # widening float32 rows is exact: t holds (x64 - c) row-wise
    t[...] = xb
    np.subtract(t, c_tile[:xb.shape[0]], out=t)
    np.square(t, out=t)
    return np.sum(t, axis=1, out=out[:xb.shape[0]])


def init_kmeans_plusplus(x: np.ndarray, n_clusters: int,
                         rng: np.random.Generator) -> np.ndarray:
    """Arthur & Vassilvitskii seeding: D² sampling.

    Maintains the running minimum squared distance ``d2`` to the chosen
    set and samples the next centroid proportional to it.  The first
    step computes the exact D² of every row; each later step first
    bounds it from below for every row and recomputes exactly only the
    rows the bound cannot rule out.

    The bound.  With ``g = fl(x @ c)`` in the input dtype (unit
    roundoff ``u``) and float64 squared norms ``nx``, ``nc``::

        L = (1 − β − γ)·(nx + nc) − 2g − α,   γ = γ_{N+2}(u)·(1 + β)

    ``c`` is a row of ``x``, so it is exact in the input dtype, and the
    GEMV error is at most ``γ_{N+2}(u)·‖x_i‖·‖c‖ ≤ γ_{N+2}(u)·(nx +
    nc)/2`` for any summation order, with or without FMA (Higham's
    ``γ_N·Σ|x_ij·c_j|``, Cauchy–Schwarz, then AM–GM, which is tight
    wherever the bound can help at all).  ``β``, four ``γ_{N+8}`` of
    float64, covers the norms' own rounding, the float64 arithmetic
    forming ``L`` and the relative error of the exact D² against the
    real distance (subtract, square and sum: ``s ≥ D·(1 − γ_{N+2})``);
    ``α`` covers gradual underflow.  So ``L ≤ s`` for every row.  A row
    is skipped only when ``L > d2`` and ``L`` is finite: then
    ``s > d2`` and ``min(d2, s)`` is ``d2``.  NaN or infinite bounds
    (overflow anywhere) fall through to the exact step.  Bit-identical
    centres and ``rng`` call sequence follow.  When the data sit far
    from the origin relative to their spread, ``γ·(nx + nc)`` outgrows
    the distances and the filter skips nothing: slower, never wrong.

    Work: one GEMV pass per step (memory-bound, in the input dtype) plus
    the exact step on about 1/k of the rows; on clustered data the exact
    work totals a few full passes instead of K.  The GEMV goes in row
    blocks, so a strided ``x`` is never copied whole.  Beyond ``d2`` and
    the sampling probabilities the filter keeps one float64 vector of
    length M.

    Raises ``ValueError`` when the D² mass overflows float64 (finite
    inputs with magnitudes near 1e154 and above): sampling
    proportional to an infinite mass is undefined.
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
    d2 = np.empty(m, dtype=np.float64)

    # the GEMV runs in the input dtype where BLAS has one; anything else
    # in float64 on the widened rows the exact step sees too
    gdt = x.dtype if x.dtype in (np.float32, np.float64) else np.float64
    gemv_rows = 16 * block
    beta = 4.0 * _gamma(n_features + 8, 2.0 ** -53)
    keep = 1.0 - beta - _gamma(n_features + 2,
                               float(np.finfo(gdt).eps) / 2) * (1.0 + beta)
    alpha = 8.0 * (n_features + 2) * float(
        np.finfo(gdt).smallest_subnormal
        + np.finfo(np.float64).smallest_subnormal)

    # first step: exact D² of every row (min(inf, s) == s, so it just
    # writes d2), plus each row's share of the bound, keep·‖x‖²
    first = int(rng.integers(m))
    centers[0] = x[first]
    c_tile[...] = centers[0]
    nx_keep = np.empty(m, dtype=np.float64)
    for lo in range(0, m, block):
        xb = x[lo:lo + block]
        nx_keep[lo:lo + block] = np.einsum("ij,ij->i", xb, xb,
                                           dtype=np.float64,
                                           casting="same_kind")
        d2[lo:lo + block] = _exact_d2(x, slice(lo, lo + block), c_tile,
                                      diff, row_d2)
    nx_keep *= keep
    g = np.empty(min(m, gemv_rows), dtype=gdt)
    # holds a step's sampling probabilities, then that step's bound
    buf = np.empty(m, dtype=np.float64)

    for i in range(1, n_clusters):
        total = float(d2.sum())
        if not np.isfinite(total):
            raise ValueError(
                f"k-means++: the D² mass is {total}, not finite; on finite "
                "input this is squared distances overflowing float64 "
                "(magnitudes around 1e154 and above): rescale the data, "
                "for example divide by its largest absolute value")
        if total <= 0.0:
            # all remaining mass at distance zero (duplicate points):
            # fall back to uniform choice among the rest
            idx = int(rng.integers(m))
        else:
            idx = int(rng.choice(m, p=np.divide(d2, total, out=buf)))
        centers[i] = x[idx]
        if i == n_clusters - 1:
            break  # no draw follows: the last fold would be dead work
        c = np.ascontiguousarray(x[idx], dtype=gdt)
        # an overflow here only costs the filter a row: the bound turns
        # non-finite and the row takes the exact step
        with np.errstate(over="ignore", invalid="ignore"):
            nc_keep = keep * float(centers[i] @ centers[i]) - alpha
            for lo in range(0, m, gemv_rows):
                gb = g[:min(gemv_rows, m - lo)]
                np.matmul(x[lo:lo + gemv_rows], c, out=gb, dtype=gdt)
                bound = buf[lo:lo + gemv_rows]
                np.multiply(gb, -2.0, out=bound, dtype=np.float64)
                bound += nx_keep[lo:lo + gemv_rows]
                bound += nc_keep
        # `not (L > d2)` sends NaN bounds to the exact step; +inf is an
        # overflowed GEMV, not a distance, so it goes there too
        todo = np.flatnonzero(~((buf > d2) & (buf < np.inf)))
        c_tile[...] = centers[i]
        for lo in range(0, todo.size, block):
            rows = todo[lo:lo + block]
            s = _exact_d2(x, rows, c_tile, diff, row_d2)
            np.minimum(d2[rows], s, out=s)
            d2[rows] = s
    return centers.astype(x.dtype)


def initialize(x: np.ndarray, n_clusters: int, method: str,
               rng: np.random.Generator) -> np.ndarray:
    """Dispatch on the configured init method."""
    if method == "random":
        return init_random(x, n_clusters, rng)
    if method == "k-means++":
        return init_kmeans_plusplus(x, n_clusters, rng)
    raise ValueError(f"unknown init method {method!r}")
