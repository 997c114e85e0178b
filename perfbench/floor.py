"""A minimal NumPy Lloyd loop: the reference floor the traced run
compares the program's fit with.

float32 throughout, distances by the expanded GEMM form, the update by
one ``bincount`` per feature.  It measures another program, so its
numbers are reference values, not end-to-end metrics.
"""

from __future__ import annotations

import time

import numpy as np


def lloyd_floor(x: np.ndarray, init: np.ndarray,
                n_iter: int) -> tuple[np.ndarray, list[float]]:
    """Run ``n_iter`` Lloyd iterations from ``init``; return the centres
    and the wall seconds of each iteration."""
    k = init.shape[0]
    c = init.astype(np.float32, copy=True)
    xx = np.einsum("ij,ij->i", x, x)
    times = []
    for _ in range(n_iter):
        t0 = time.perf_counter()
        d = x @ c.T
        d *= -2.0
        d += xx[:, None]
        d += np.einsum("ij,ij->i", c, c)[None, :]
        labels = d.argmin(axis=1)
        counts = np.bincount(labels, minlength=k)
        sums = np.stack([np.bincount(labels, weights=x[:, j], minlength=k)
                         for j in range(x.shape[1])], axis=1)
        nonempty = counts > 0
        c[nonempty] = (sums[nonempty]
                       / counts[nonempty, None]).astype(np.float32)
        times.append(time.perf_counter() - t0)
    return c, times
