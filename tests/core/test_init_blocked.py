"""Blocked k-means++ against the unblocked seeding it replaced.

The oracle below is the matrix-at-once D² sampler: it widens the whole
sample matrix to float64 and forms two more temporaries of that size
per step.  The blocked :func:`init_kmeans_plusplus` must choose exactly
the same centres, bit for bit, for any block size relative to ``M`` —
and must never allocate anything the size of the sample matrix.
"""

import contextlib
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FTKMeans
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


# --- the GEMM-form filter ------------------------------------------------
#
# Each D² step after the first recomputes exactly only the rows whose
# GEMM-form lower bound does not already exceed their running minimum.
# The cases below make that bound loose (a large common offset: the
# filter skips nothing), tight (exact ties, near ties) or exercise the
# shapes and layouts its GEMV and norms see.  Comparing the sampling
# distribution handed to ``rng.choice`` at every step checks the whole
# ``d2`` vector bit for bit, not only the centres it happened to pick.


class _RecordingRng:
    """A Generator stand-in that records every D² distribution drawn from."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.draws = []

    def integers(self, *args, **kwargs):
        self.draws.append(("integers", args))
        return self._rng.integers(*args, **kwargs)

    def choice(self, m, p=None):
        self.draws.append(("choice", p.copy()))
        return self._rng.choice(m, p=p)


def _assert_same_draws_as_oracle(x, k, seed):
    got_rng, want_rng = _RecordingRng(seed), _RecordingRng(seed)
    got = init_kmeans_plusplus(x, k, got_rng)
    # the oracle's row sums follow its array's memory order (a Fortran
    # array sums down columns); the initializer's are per-row sums of
    # C-ordered rows for every layout, so the oracle sees those rows
    want = _kmeans_plusplus_oracle(np.ascontiguousarray(x), k, want_rng)
    assert got.dtype == want.dtype == x.dtype
    assert np.array_equal(got, want)
    assert len(got_rng.draws) == len(want_rng.draws)
    for (kind_g, arg_g), (kind_w, arg_w) in zip(got_rng.draws,
                                                want_rng.draws):
        assert kind_g == kind_w
        if kind_g == "choice":
            assert np.array_equal(arg_g, arg_w)
        else:
            assert arg_g == arg_w


@contextlib.contextmanager
def _counting_exact_rows():
    """Collect the row count of every exact D² evaluation."""
    rows = []
    exact = initializers._exact_d2

    def counting(*args):
        out = exact(*args)
        rows.append(out.shape[0])
        return out

    with mock.patch.object(initializers, "_exact_d2", counting):
        yield rows


@st.composite
def _filter_cases(draw):
    n = draw(st.sampled_from([1, 3, 64, 130, 257]))
    m = draw(st.integers(1, 160))
    k = draw(st.integers(1, min(m, 10)))
    block = draw(st.integers(1, 40))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    kind = draw(st.sampled_from(["offset", "ties", "near_ties", "mirror",
                                 "tiny"]))
    layout = draw(st.sampled_from(["c", "fortran", "strided"]))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    if kind == "offset":
        # |mean| >> spread: the GEMV's rounding error dwarfs every
        # distance, so a sound bound rules out nothing
        x = rng.standard_normal((m, n)) + 10.0 ** rng.uniform(2, 7)
    elif kind == "ties":
        # a small integer grid: many rows duplicate a chosen centre or
        # sit at exactly the same distance from two centres
        x = rng.integers(-2, 3, (m, n)).astype(np.float64)
    elif kind == "near_ties":
        # the grid moved far from the origin and nudged by less than the
        # bound's slack: distances differ in the last few bits
        x = (rng.integers(-2, 3, (m, n)) + 1e3
             + rng.standard_normal((m, n)) * 1e-4)
    elif kind == "mirror":
        # rows mirrored about a point: equidistant to mirrored centres
        half = rng.standard_normal(((m + 1) // 2, n)) * 5.0
        x = np.concatenate([3.0 + half, 3.0 - half])[:m]
    else:
        # products and squares in gradual underflow, in the GEMV's dtype
        # and in float64
        scale = 10.0 ** (rng.uniform(-25, -19) if dtype == np.float32
                         else rng.uniform(-164, -154))
        x = rng.standard_normal((m, n)) * scale
    x = x.astype(dtype)
    if layout == "fortran":
        x = np.asfortranarray(x)
    elif layout == "strided":
        wide = np.zeros((2 * m, 2 * n), dtype=dtype)
        wide[::2, ::2] = x
        x = wide[::2, ::2]
    return x, k, block, seed


class TestGemmFilter:
    @settings(max_examples=120, deadline=None)
    @given(case=_filter_cases())
    def test_every_draw_matches_oracle(self, case):
        x, k, block, seed = case
        bytes_for_block = block * 8 * x.shape[1]
        with mock.patch.object(initializers, "BLOCK_BYTES",
                               bytes_for_block):
            _assert_same_draws_as_oracle(x, k, seed)

    def test_exact_work_is_a_few_passes_on_clusters(self):
        """K=64 steps cost at most 12 full passes of exact D² work."""
        rng = np.random.default_rng(4)
        m, n, k = 20_000, 64, 64
        centres = rng.uniform(-5, 5, (64, n))
        x = (centres[rng.integers(0, 64, m)]
             + 3.0 * rng.standard_normal((m, n))).astype(np.float32)
        with _counting_exact_rows() as rows:
            _assert_same_draws_as_oracle(x, k, 1)
        passes = sum(rows) / m
        assert 1.0 <= passes <= 12.0, passes

    def test_offset_data_skips_nothing_and_still_matches(self):
        rng = np.random.default_rng(8)
        x = (rng.standard_normal((400, 8)) + 1e6).astype(np.float32)
        with _counting_exact_rows() as rows:
            _assert_same_draws_as_oracle(x, 6, 2)
        # the first step plus every step with a following draw
        assert sum(rows) == 400 * 5

    def test_peak_allocation_below_input_size_when_strided(self):
        base = np.random.default_rng(0).standard_normal(
            (100_000, 64), dtype=np.float32)
        x = base[::2]
        tracemalloc.start()
        try:
            init_kmeans_plusplus(x, 4, np.random.default_rng(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < x.nbytes // 2, (peak, x.nbytes)

    def test_underflowing_products_are_never_a_skip(self):
        """Squares and products in gradual underflow lose absolute, not
        relative, accuracy; the bound's absolute slack must cover it."""
        for dtype, scale in ((np.float32, 1e-24), (np.float32, 1e-22),
                             (np.float64, 1e-162)):
            for seed in range(3):
                x = np.random.default_rng(seed).standard_normal((100, 16))
                _assert_same_draws_as_oracle((x * scale).astype(dtype), 10,
                                             seed)

    def test_overflowing_gemv_is_never_a_skip(self):
        """float32 rows on one line through the origin, ~1e19 per entry:
        x·c overflows to -inf for rows opposite the new centre, while
        their exact float64 D² stays finite and may beat d2."""
        line = np.arange(-3, 4, dtype=np.float64) * 1e19
        x = np.repeat(line[:, None], 64, axis=1).astype(np.float32)
        for seed in range(12):
            _assert_same_draws_as_oracle(x, 5, seed)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
class TestOverflowingMass:
    def test_overflowing_d2_mass_raises_clear_error(self):
        x = np.random.default_rng(0).standard_normal((500, 8)) * 1e160
        with pytest.raises(ValueError, match="overflow"):
            init_kmeans_plusplus(x, 4, np.random.default_rng(0))

    def test_fit_reports_overflow_not_nan_probabilities(self):
        x = np.random.default_rng(0).standard_normal((500, 8)) * 1e160
        with pytest.raises(ValueError, match="rescale"):
            FTKMeans(n_clusters=4, dtype=np.float64, seed=0).fit(x)

    def test_large_finite_mass_is_untouched(self):
        x = np.random.default_rng(1).standard_normal((300, 8)) * 1e100
        _assert_same_draws_as_oracle(x, 5, 1)
