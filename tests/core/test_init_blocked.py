"""Blocked k-means++ against the unblocked seeding it replaced.

The oracle below is the matrix-at-once D² sampler: it widens the whole
sample matrix to float64 and forms two more temporaries of that size
per step.  The blocked :func:`init_kmeans_plusplus` must choose exactly
the same centres, bit for bit, for any block size relative to ``M`` —
and must never allocate anything the size of the sample matrix.
"""

import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import initializers
from repro.core.initializers import init_kmeans_plusplus


def _kmeans_plusplus_oracle(x, n_clusters, rng):
    m = x.shape[0]
    if n_clusters > m:
        raise ValueError(f"n_clusters={n_clusters} exceeds n_samples={m}")
    x64 = x.astype(np.float64)
    centers = np.empty((n_clusters, x.shape[1]), dtype=np.float64)
    first = int(rng.integers(m))
    centers[0] = x64[first]
    d2 = np.sum((x64 - centers[0]) ** 2, axis=1)
    for i in range(1, n_clusters):
        total = float(d2.sum())
        if total <= 0.0:
            idx = int(rng.integers(m))
        else:
            idx = int(rng.choice(m, p=d2 / total))
        centers[i] = x64[idx]
        np.minimum(d2, np.sum((x64 - centers[i]) ** 2, axis=1), out=d2)
    return centers.astype(x.dtype)


def _assert_same_as_oracle(x, k, seed):
    got = init_kmeans_plusplus(x, k, np.random.default_rng(seed))
    want = _kmeans_plusplus_oracle(x, k, np.random.default_rng(seed))
    assert got.dtype == want.dtype == x.dtype
    assert np.array_equal(got, want)


@st.composite
def _cases(draw):
    n = draw(st.sampled_from([1, 3, 64, 130]))
    block = draw(st.integers(1, 48))
    where = draw(st.sampled_from(["below", "equal", "multiple", "ragged"]))
    if where == "below":
        m = draw(st.integers(1, max(1, block - 1)))
    elif where == "equal":
        m = block
    elif where == "multiple":
        m = block * draw(st.integers(2, 4))
    else:
        m = block * draw(st.integers(1, 3)) + draw(st.integers(1, block))
    k = draw(st.integers(1, min(m, 12)))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    kind = draw(st.sampled_from(["gaussian", "few_distinct", "duplicate"]))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    if kind == "gaussian":
        x = rng.standard_normal((m, n)) * 10.0
    elif kind == "few_distinct":
        # D² mass runs out part-way: later steps take the uniform branch
        x = rng.standard_normal((2, n))[rng.integers(0, 2, m)]
    else:
        # every row identical: the very first D² step has zero mass
        x = np.tile(rng.standard_normal(n), (m, 1))
    return x.astype(dtype), k, block, seed


class TestBlockedKMeansPlusPlus:
    @settings(max_examples=80, deadline=None)
    @given(case=_cases())
    def test_matches_oracle_for_any_block_size(self, case):
        x, k, block, seed = case
        bytes_for_block = block * 8 * x.shape[1]
        with mock.patch.object(initializers, "BLOCK_BYTES",
                               bytes_for_block):
            _assert_same_as_oracle(x, k, seed)

    def test_matches_oracle_at_default_block(self):
        rows = initializers.BLOCK_BYTES // (8 * 64)
        rng = np.random.default_rng(5)
        for m in (rows - 3, rows, 2 * rows + 17):
            x = rng.standard_normal((m, 64)).astype(np.float32)
            _assert_same_as_oracle(x, 16, m)

    def test_matches_oracle_on_strided_input(self):
        x = np.random.default_rng(2).standard_normal((300, 20))[::2, ::2]
        with mock.patch.object(initializers, "BLOCK_BYTES", 7 * 8 * 10):
            _assert_same_as_oracle(x, 9, 4)

    def test_peak_allocation_below_input_size(self):
        x = np.random.default_rng(0).standard_normal(
            (100_000, 64)).astype(np.float32)
        tracemalloc.start()
        try:
            init_kmeans_plusplus(x, 4, np.random.default_rng(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < x.nbytes, (peak, x.nbytes)
