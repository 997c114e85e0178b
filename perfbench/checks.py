"""Output checks: each returns an error string, or None when the output
passes.

Three kinds of reference:

* a float64 recomputation.  A stream call is checked against the centres
  it was called with (:func:`check_nearest`).  A fit's ``labels_`` and
  ``inertia_`` come from its last assignment pass, made against the
  centres *before* the final update, which the caller never sees; it is
  checked against the centres it returned, allowing for that last update
  (:func:`check_fit`);
* a twin run of the same inputs that must match bit for bit
  (``sharded_process`` against an ``n_workers=1`` twin, :func:`check_twin`);
* under fault injection (``ft_inject``), a clean ``tensorop`` twin from
  the same centres, within ``TWIN_LABEL_FRAC`` of differing labels and
  ``INERTIA_RTOL`` of its inertia (:func:`check_close_to_twin`).  A flip
  below the ABFT detection threshold escapes by design
  (docs/architecture.md): it can move a row's minimum distance, and so
  ``inertia_``, and on a near-tie the row's label.  Bit-level differences
  from the twin are counted and reported apart.

Tolerances.  The engine computes distances from TF32-rounded operands
(10 mantissa bits, unit roundoff 2**-11), so a label is accepted when its
float64 squared distance exceeds the nearest by at most ``TIE_RTOL *
(|x|^2 + |c|^2)``, an upper bound of that rounding; every row must pass.
``inertia_`` must be within ``INERTIA_RTOL`` of the float64 value.
"""

from __future__ import annotations

import numpy as np

TIE_RTOL = 2.0 ** -9
INERTIA_RTOL = 1e-3
TWIN_LABEL_FRAC = 1e-3
#: rounding allowance of a fit's ``inertia_`` when bounding the last update
GAP_RTOL = 1e-4
#: the most a fit's last update may lower its inertia
FIT_GAP_RTOL = 1e-2
#: a returned centre against the float64 mean of its rows
CENTRE_RTOL = 1e-5
BLOCK_ROWS = 16384


def _label_error(labels: np.ndarray, m: int, k: int) -> str | None:
    if labels.shape != (m,):
        return f"labels shape {labels.shape}, expected ({m},)"
    if labels.min() < 0 or labels.max() >= k:
        return "label out of range"
    return None


def _blocks(x: np.ndarray, c64: np.ndarray):
    """Row blocks of ``x`` in float64 with their squared norms and squared
    distances to ``c64``; in blocks so a check adds little to the peak
    memory the benchmark reports."""
    cc = np.einsum("ij,ij->i", c64, c64)
    for lo in range(0, x.shape[0], BLOCK_ROWS):
        x64 = x[lo:lo + BLOCK_ROWS].astype(np.float64)
        xx = np.einsum("ij,ij->i", x64, x64)
        d = xx[:, None] - 2.0 * (x64 @ c64.T) + cc[None, :]
        np.maximum(d, 0.0, out=d)
        yield lo, xx, cc, d


def check_nearest(x: np.ndarray, centres: np.ndarray, labels: np.ndarray,
                  inertia: float | None = None) -> str | None:
    """``labels`` (and ``inertia``) against a float64 recomputation from
    the centres the call was made with."""
    labels = np.asarray(labels)
    m = x.shape[0]
    err = _label_error(labels, m, centres.shape[0])
    if err:
        return err
    bad = 0
    total = 0.0
    for lo, xx, cc, d in _blocks(x, centres.astype(np.float64)):
        lab = labels[lo:lo + d.shape[0]]
        dmin = d.min(axis=1)
        excess = d[np.arange(lab.size), lab] - dmin
        bad += int(np.count_nonzero(excess > TIE_RTOL * (xx + cc[lab])))
        total += float(dmin.sum())
    if bad:
        return f"{bad} of {m} labels are not the nearest centre"
    if inertia is not None and not (abs(inertia - total)
                                    <= INERTIA_RTOL * total):
        return f"inertia {inertia!r} vs float64 {total!r}"
    return None


def check_fit(x: np.ndarray, centres: np.ndarray, labels: np.ndarray,
              inertia: float) -> str | None:
    """A fit's outputs against the centres it returned.

    The returned centre ``c_j`` is the mean of the ``n_j`` rows labelled
    ``j`` (checked), so the centres ``p_j`` of the last assignment pass
    satisfy ``inertia_ - E = sum_j n_j |p_j - c_j|^2``, with ``E`` the
    float64 inertia of ``labels_`` against ``c``.  That bounds each
    centre's last move, ``|p_j - c_j| <= r_j = sqrt(gap / n_j)``.  A
    label ``l`` passes when it can be the nearest of some such ``p`` up to
    TF32 rounding ``T``: ``|x - c_l| - r_l <= sqrt((|x - c_j| + r_j)^2 +
    T)`` for every ``j``.  ``inertia_`` may not be below ``E`` by more
    than ``INERTIA_RTOL`` (an update never raises the inertia) nor above
    it by more than ``FIT_GAP_RTOL`` (the last update moves little).
    """
    labels = np.asarray(labels)
    m, n = x.shape
    k = centres.shape[0]
    err = _label_error(labels, m, k)
    if err:
        return err
    c64 = centres.astype(np.float64)
    counts = np.bincount(labels, minlength=k)
    sums = np.zeros((k, n))
    e = 0.0
    for lo in range(0, m, BLOCK_ROWS):
        x64 = x[lo:lo + BLOCK_ROWS].astype(np.float64)
        lab = labels[lo:lo + BLOCK_ROWS]
        onehot = np.zeros((lab.size, k))
        onehot[np.arange(lab.size), lab] = 1.0
        sums += onehot.T @ x64
        e += float(np.square(x64 - c64[lab]).sum())
    held = counts > 0
    means = sums[held] / counts[held, None]
    off = np.abs(c64[held] - means).max(initial=0.0)
    if not off <= CENTRE_RTOL * (1.0 + np.abs(means).max(initial=0.0)):
        return f"a centre is {off!r} from the mean of its rows"
    if not -INERTIA_RTOL * e <= inertia - e <= FIT_GAP_RTOL * e:
        return f"inertia {inertia!r} vs float64 {e!r} at the returned centres"
    gap = max(inertia - e, 0.0) + GAP_RTOL * e
    move = np.where(held, np.sqrt(gap / np.maximum(counts, 1)), 0.0)
    cc_max = float(np.einsum("ij,ij->i", c64, c64).max())
    bad = 0
    for lo, xx, _, d in _blocks(x, c64):
        lab = labels[lo:lo + d.shape[0]]
        dist = np.sqrt(d)
        tie = TIE_RTOL * (xx + cc_max)
        reach = np.sqrt(np.square(dist + move[None, :]) + tie[:, None])
        own = dist[np.arange(lab.size), lab] - move[lab]
        bad += int(np.count_nonzero(own > reach.min(axis=1)))
    if bad:
        return (f"{bad} of {m} labels are not the nearest centre of any "
                "centres one update away")
    return None


def check_twin(est, twin) -> str | None:
    """An estimator's fitted outputs bit-equal to its twin's."""
    for attr in ("labels_", "cluster_centers_"):
        if not np.array_equal(getattr(est, attr), getattr(twin, attr)):
            return f"{attr} differs from the twin's"
    if est.inertia_ != twin.inertia_:
        return f"inertia_ {est.inertia_!r} vs the twin's {twin.inertia_!r}"
    return None


def check_close_to_twin(labels: np.ndarray, inertia: float,
                        twin_labels: np.ndarray,
                        twin_inertia: float) -> str | None:
    """An injected fit against its clean twin, within the tolerances of
    the module docstring."""
    differ = int(np.count_nonzero(labels != twin_labels))
    if differ > TWIN_LABEL_FRAC * labels.size:
        return f"{differ} of {labels.size} labels differ from the clean twin"
    if not abs(inertia - twin_inertia) <= INERTIA_RTOL * twin_inertia:
        return f"inertia {inertia!r} vs the clean twin's {twin_inertia!r}"
    return None
