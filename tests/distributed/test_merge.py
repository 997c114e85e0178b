"""The merge: one sequential-continuation reduce, bit-identical to
single-worker for every executor, transport and fleet size.

The coordinator gathers every shard's result in shard order and
re-feeds the rows through one float64 left fold, so the merged sums
carry exactly the bits of a single-worker pass.  The suites here sweep
the fleet width on every executor, check that an ABFT-flagged partial
or a crashed worker on a wide fleet is contained without moving a bit,
booby-trap the gather with out-of-order arrivals, and pin down what
``dist_reduce_busy_s_`` measures.
"""

import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import FTKMeans
from repro.core.accumulate import StreamedAccumulator, accumulate_oneshot
from repro.core.config import KMeansConfig
from repro.dist import Coordinator, WorkerFaultInjector
from repro.dist.executors import ThreadExecutor
from repro.obs.trace import TraceRecorder

M, N_FEATURES, K = 1537, 12, 7


@pytest.fixture(scope="module")
def x():
    rng = np.random.default_rng(0)
    return rng.random((M, N_FEATURES), dtype=np.float64).astype(np.float32)


@pytest.fixture(scope="module")
def ref(x):
    return fit(x)


def fit(x, **kw):
    base = dict(n_clusters=K, variant="tensorop", seed=3, max_iter=10)
    base.update(kw)
    return FTKMeans(**base).fit(x)


def assert_same_fit(a, b):
    assert np.array_equal(a.labels_, b.labels_)
    assert np.array_equal(a.cluster_centers_, b.cluster_centers_)
    assert a.inertia_ == b.inertia_
    assert a.n_iter_ == b.n_iter_
    assert a.inertia_history_ == b.inertia_history_


class TestMergeBitIdentity:
    """Hypothesis: ANY worker count matches single-worker."""

    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(n_workers=st.sampled_from([1, 2, 3, 4, 8]))
    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_in_process_bit_identical(self, x, ref, executor, n_workers):
        km = fit(x, n_workers=n_workers, executor=executor)
        assert_same_fit(km, ref)
        if n_workers > 1:       # n_workers=1 takes the single-path fit
            assert km.dist_reduce_busy_s_ > 0.0

    @pytest.mark.parametrize("transport", ["pipe", "shm"])
    @pytest.mark.parametrize("n_workers", [3, 8])
    def test_process_bit_identical(self, x, ref, n_workers, transport):
        km = fit(x, n_workers=n_workers, executor="process",
                 transport=transport)
        assert km.dist_transport_ == transport
        assert_same_fit(km, ref)

    @pytest.mark.parametrize("executor,transport", [
        ("serial", "auto"), ("thread", "auto"),
        ("process", "pipe"), ("process", "shm")])
    def test_wide_fleet_contains_corrupt_partial(self, x, ref, executor,
                                                 transport):
        """ABFT on an 8-worker fleet: the checksum over the returned
        partials flags the flipped one, the per-shard recompute locates
        it, and the merged sums — re-fed from the rows, never from the
        partials — keep the fit's bits."""
        km = fit(x, n_workers=8, executor=executor, transport=transport,
                 worker_faults=WorkerFaultInjector.corrupt_at(3, 2))
        assert_same_fit(km, ref)
        assert km.counters_.errors_detected == 1
        assert km.counters_.errors_corrected == 1
        events = [e for e in km.dist_trace_
                  if e["kind"] == "corrupt_partial_detected"]
        assert [(e["worker"], e["iteration"]) for e in events] == [(3, 2)]


    @settings(max_examples=4, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    # 1537 rows cut into GEMM units give an 8-worker fleet 7 shards
    @given(wid=st.sampled_from([0, 3, 6]),
           crash_it=st.integers(min_value=2, max_value=8))
    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_wide_fleet_crash_recovery_bit_identical(self, x, ref, executor,
                                                     wid, crash_it):
        """A worker of an 8-wide fleet that dies mid-round replays
        through checkpoint recovery onto the clean fit's exact bits."""
        km = fit(x, n_workers=8, executor=executor, checkpoint_every=2,
                 worker_faults=WorkerFaultInjector.crash_at(wid, crash_it))
        assert_same_fit(km, ref)
        assert km.dist_recoveries_ == 1

    def test_process_wide_fleet_crash_recovery(self, x, ref):
        km = fit(x, n_workers=8, executor="process", checkpoint_every=2,
                 worker_faults=WorkerFaultInjector.crash_at(5, 3))
        assert_same_fit(km, ref)
        assert km.dist_recoveries_ == 1

    @settings(max_examples=5, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(n_workers=st.sampled_from([2, 3, 4, 8]))
    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_weighted_bit_identical(self, x, executor, n_workers):
        w = np.random.default_rng(1).random(M)
        wref = FTKMeans(n_clusters=K, variant="tensorop", seed=3,
                        max_iter=10).fit(x, sample_weight=w)
        km = FTKMeans(n_clusters=K, variant="tensorop", seed=3,
                      max_iter=10, n_workers=n_workers,
                      executor=executor).fit(x, sample_weight=w)
        assert_same_fit(km, wref)


class _ReversedArrivalExecutor(ThreadExecutor):
    """Booby-trap backend: worker ``i`` may only finish its round after
    worker ``i + 1`` has, so every round arrives in REVERSED worker
    order.  A gather that trusted arrival order would fold shard W-1
    first and change the fit's bits; ``collect_round`` must hand the
    coordinator its results in worker order regardless."""

    def __init__(self):
        super().__init__()
        self.arrival_log: list[tuple[int, int]] = []
        self.collect_log: list[list[int]] = []
        self._log_lock = threading.Lock()

    def send_round(self, y, iteration, directives) -> None:
        ids = list(self._worker_ids)
        finished = {wid: threading.Event() for wid in ids}

        def make(pos, worker):
            wid = ids[pos]

            def run(*args):
                try:
                    return worker.run_round(*args)
                finally:
                    if pos + 1 < len(ids):
                        finished[ids[pos + 1]].wait()
                    with self._log_lock:
                        self.arrival_log.append((iteration, wid))
                    finished[wid].set()
            return run

        real = self._workers
        self._workers = {wid: _Runner(make(pos, real[wid]), real[wid])
                         for pos, wid in enumerate(ids)}
        try:
            super().send_round(y, iteration, directives)
        finally:
            self._workers = real

    def collect_round(self):
        results = super().collect_round()
        self.collect_log.append([r.worker_id for r in results])
        return results


class _Runner:
    """Stand-in worker whose ``run_round`` is the booby-trapped one."""

    def __init__(self, run_round, worker):
        self.run_round = run_round
        self.cancel = worker.cancel


def _cfg(**kw):
    base = dict(n_clusters=K, mode="fast", n_workers=4, max_iter=6,
                tol=0.0, seed=0, variant="tensorop")
    base.update(kw)
    return KMeansConfig(**base)


class TestMergeOrderContract:
    @pytest.mark.parametrize("n_workers", [2, 4, 8])
    def test_reversed_arrivals_commit_in_shard_order(self, x, n_workers):
        """Every arrival lands out of order, yet the gather returns
        worker order and the bits match the serial fit."""
        y0 = x[:K].copy()
        serial = Coordinator(_cfg(executor="serial",
                                  n_workers=n_workers)).fit(x, y0)
        ex = _ReversedArrivalExecutor()
        res = Coordinator(_cfg(n_workers=n_workers), executor=ex).fit(x, y0)
        assert np.array_equal(serial.centroids, res.centroids)
        assert np.array_equal(serial.labels, res.labels)
        assert serial.inertia_history == res.inertia_history
        ids = list(res.plan.worker_ids)
        assert len(ids) >= 2
        # arrivals were reversed in every collected round...
        first = [wid for it, wid in ex.arrival_log if it == 1]
        assert first == ids[::-1]
        # ...but every gather came back in worker order
        assert ex.collect_log and all(c == ids for c in ex.collect_log)

    @settings(max_examples=25, deadline=None)
    @given(cuts=st.lists(st.integers(min_value=1, max_value=M - 1),
                         max_size=8, unique=True),
           weighted=st.booleans())
    def test_refold_over_any_shard_cuts_bit_equal(self, x, cuts, weighted):
        """The merge re-feeds shard after shard into one accumulator,
        reset between rounds: wherever the shard boundaries fall, the
        reused fold carries the bits of one single-pass accumulation."""
        rng = np.random.default_rng(len(cuts))
        labels = rng.integers(0, K, M)
        w = rng.random(M) if weighted else None
        ref = accumulate_oneshot(x, labels, K, sample_weight=w)
        acc = StreamedAccumulator(K, N_FEATURES)
        acc.bind_weights(w)
        acc.feed(x[::-1], labels)       # a previous round's stale fold
        acc.reset()
        bounds = [0, *sorted(cuts), M]
        for lo, hi in zip(bounds, bounds[1:]):
            acc.feed(x[lo:hi], labels[lo:hi])
        assert np.array_equal(acc.packed(), ref)


class TestEstimatorSurface:
    def test_fitted_attrs_and_metrics_delta(self, x, ref):
        km = fit(x, n_workers=8, executor="serial")
        assert_same_fit(km, ref)
        assert km.dist_reduce_busy_s_ > 0.0
        assert isinstance(km.dist_metrics_, dict)
        assert km.dist_metrics_["dist.reduce_busy_s"] == pytest.approx(
            km.dist_reduce_busy_s_)
        assert km.dist_metrics_["dist.n_iter"] == km.n_iter_
        # the per-fit delta carries the simulator counters too
        assert any(name.startswith("sim.") for name in km.dist_metrics_)

    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_reduce_busy_is_gather_plus_merge(self, x, executor):
        """``dist_reduce_busy_s_`` is the coordinator's gather + merge
        wall: at least the traced gather and merge spans, and inside
        the round spans that bracket them."""
        tracer = TraceRecorder()
        km = fit(x, n_workers=4, executor=executor, tracer=tracer)
        totals = tracer.stage_totals()
        spans = totals["gather"]["wall_s"] + totals["merge"]["wall_s"]
        assert totals["merge"]["count"] == km.n_iter_
        assert spans <= km.dist_reduce_busy_s_
        assert km.dist_reduce_busy_s_ <= totals["round"]["wall_s"]

    @pytest.mark.parametrize("make", [
        lambda: FTKMeans(n_clusters=K, n_workers=2,
                         reduce_topology="star"),
        lambda: KMeansConfig(n_clusters=K, reduce_topology="star"),
    ], ids=["estimator", "config"])
    def test_reduce_is_not_a_knob(self, make):
        """There is one reduce: neither the estimator nor the config
        takes a topology."""
        with pytest.raises(TypeError, match="reduce_topology"):
            make()
