"""Double-buffered rounds and the adaptive round deadline.

The pipeline overlaps the next round's worker compute with the previous
round's off-critical bookkeeping; it must stay bit-identical to the
sequential loop (same rounds, same merge order), collect-and-discard
the one speculative round a convergence break leaves in flight, and
stand down entirely on fault-injecting fits.  ``round_timeout="auto"``
arms the executor deadline from a trailing median of observed round
times and must catch a genuine stall without hand tuning.
"""

import threading

import numpy as np
import pytest

from repro.core.api import FTKMeans
from repro.core.config import KMeansConfig
from repro.dist.coordinator import Coordinator
from repro.dist.executors import make_executor
from repro.dist.faults import WorkerFaultInjector


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(21)
    x = rng.standard_normal((900, 16)).astype(np.float32)
    return x


def _cfg(**kw):
    base = dict(n_clusters=6, mode="fast", n_workers=3, max_iter=6,
                tol=0.0, seed=0)
    base.update(kw)
    return KMeansConfig(**base)


def _y0(x, n):
    return x[:n].copy()


class TestOverlap:
    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_overlapped_bit_identical_to_serial(self, data, executor):
        x = data
        serial = Coordinator(_cfg(executor="serial")).fit(x, _y0(x, 6))
        coord = Coordinator(_cfg(executor=executor))
        res = coord.fit(x, _y0(x, 6))
        assert np.array_equal(serial.centroids, res.centroids)
        assert np.array_equal(serial.labels, res.labels)
        assert serial.inertia_history == res.inertia_history

    def test_overlap_capability_flags(self):
        assert make_executor("serial").supports_overlap is False
        assert make_executor("thread").supports_overlap is True
        assert make_executor("process").supports_overlap is True

    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_collect_without_send_raises(self, data, executor):
        """Every backend honours the split-phase contract: collecting
        with no round in flight is a typed misuse, not an
        AttributeError/KeyError from uninitialised state."""
        from repro.core.variants import _resolve_tile  # noqa: F401
        from repro.dist.plan import ShardPlan
        from repro.dist.worker import build_worker
        from functools import partial

        x = data
        cfg = _cfg(executor=executor)
        plan = ShardPlan.build(x.shape[0], 2, 256)
        ex = make_executor(executor)
        ex.start(partial(build_worker, x=x, plan=plan, cfg=cfg,
                         n_clusters=6), plan.worker_ids)
        try:
            with pytest.raises(RuntimeError, match="without a sent round"):
                ex.collect_round()
        finally:
            ex.shutdown()

    def test_convergence_break_discards_inflight_round(self, data):
        """A tol-converging fit ends with one speculative round in
        flight; the coordinator must drain it and return the exact
        sequential result (n_iter from the converged round, not the
        speculative one)."""
        x = data
        seq = Coordinator(_cfg(executor="serial", tol=1e-3, max_iter=30)
                          ).fit(x, _y0(x, 6))
        ovl = Coordinator(_cfg(executor="thread", tol=1e-3, max_iter=30)
                          ).fit(x, _y0(x, 6))
        assert seq.converged and ovl.converged
        assert seq.n_iter == ovl.n_iter
        assert np.array_equal(seq.centroids, ovl.centroids)

    def test_converged_thread_fit_leaves_no_round_threads(self):
        """The speculative round a convergence break leaves in flight
        is joined before ``fit`` returns: no round thread outlives the
        fit.  One chunk per shard, so the cooperative cancel cannot cut
        the pass short — only the join can account for it."""
        x = np.random.default_rng(0).standard_normal(
            (20_000, 16)).astype(np.float32)
        # compared as sets, so an unrelated thread of an earlier test
        # ending mid-fit cannot mask a leak
        baseline = set(threading.enumerate())
        km = FTKMeans(n_clusters=16, n_workers=2, executor="thread",
                      tol=1e-1, max_iter=30, seed=0,
                      chunk_bytes=1 << 30).fit(x)
        assert km.n_iter_ < 30          # converged: a round was in flight
        assert set(threading.enumerate()) <= baseline

    def test_cancel_round_joins_inflight_threads(self, data):
        """Driven directly: ``cancel_round`` cancels every in-flight
        worker and joins its round thread before returning, and leaves
        no round behind to collect.  Each round is held at a gate a
        timer opens only after the cancel began, so the threads are
        still running when it starts."""
        from functools import partial
        from types import SimpleNamespace

        from repro.dist.plan import ShardPlan
        from repro.dist.worker import build_worker

        x = data
        plan = ShardPlan.build(x.shape[0], 3, 256)
        ex = make_executor("thread")
        ex.start(partial(build_worker, x=x, plan=plan,
                         cfg=_cfg(executor="thread"), n_clusters=6),
                 plan.worker_ids)
        gate, cancelled = threading.Event(), []

        def gated(w):
            def run_round(*args):
                gate.wait()
                return w.run_round(*args)

            def cancel():
                cancelled.append(w)
                w.cancel()
            return SimpleNamespace(run_round=run_round, cancel=cancel)

        real = ex._workers
        try:
            ex.cancel_round()               # nothing in flight: no-op
            ex._workers = {wid: gated(w) for wid, w in real.items()}
            ex.send_round(_y0(x, 6), 1, {})
            threads = [t.thread for t in ex._inflight.values()]
            assert len(threads) == plan.n_workers
            timer = threading.Timer(0.2, gate.set)
            timer.start()
            ex.cancel_round()
            timer.join()
            assert len(cancelled) == plan.n_workers
            assert not any(t.is_alive() for t in threads)
            with pytest.raises(RuntimeError, match="without a sent round"):
                ex.collect_round()
        finally:
            gate.set()
            ex._workers = real
            ex.shutdown()

    def test_faulty_fits_run_sequentially(self, data):
        """Fault injection disables the pipeline (a converged fit must
        never draw the next round's one-shot directives) — and recovery
        still lands on the clean bits."""
        x = data
        clean = Coordinator(_cfg(executor="thread")).fit(x, _y0(x, 6))
        coord = Coordinator(
            _cfg(executor="thread", checkpoint_every=2),
            worker_faults=WorkerFaultInjector.crash_at(1, 3))
        res = coord.fit(x, _y0(x, 6))
        assert res.recoveries == 1
        assert np.array_equal(clean.centroids, res.centroids)

    def test_overlap_off_switch(self, data):
        x = data
        res = Coordinator(_cfg(executor="thread"),
                          overlap_rounds=False).fit(x, _y0(x, 6))
        ref = Coordinator(_cfg(executor="serial")).fit(x, _y0(x, 6))
        assert np.array_equal(ref.centroids, res.centroids)

    def test_real_crash_in_overlapped_round_recovers(self, data):
        """A genuine worker death (no injector: overlap stays armed)
        surfacing from an overlapped collect runs ordinary recovery."""
        x = data
        clean = Coordinator(_cfg(executor="thread")).fit(x, _y0(x, 6))
        coord = Coordinator(_cfg(executor="thread", checkpoint_every=1))
        # kill one worker's round mid-fit without a fault injector, so
        # the overlap guard (faults is None) keeps the pipeline on
        fired = {"done": False}
        orig = coord.executor.__class__.send_round

        def sabotage(self, y, iteration, directives):
            if iteration == 4 and not fired["done"]:
                fired["done"] = True
                from repro.dist.faults import CRASH, WorkerFaultPlan
                directives = dict(directives)
                directives[0] = {"crash": WorkerFaultPlan(CRASH, 0, 4)}
            return orig(self, y, iteration, directives)

        coord.executor.send_round = sabotage.__get__(coord.executor)
        res = coord.fit(x, _y0(x, 6))
        assert res.recoveries == 1
        assert np.array_equal(clean.centroids, res.centroids)


class TestAdaptiveDeadline:
    def test_config_accepts_auto(self):
        cfg = _cfg(round_timeout="auto")
        assert cfg.round_timeout == "auto"
        with pytest.raises(ValueError):
            _cfg(round_timeout="later")
        with pytest.raises(ValueError):
            _cfg(round_timeout=-1.0)

    def test_fixed_float_behaviour_unchanged(self, data):
        x = data
        res = Coordinator(_cfg(executor="serial",
                               round_timeout=30.0)).fit(x, _y0(x, 6))
        ref = Coordinator(_cfg(executor="serial")).fit(x, _y0(x, 6))
        assert np.array_equal(ref.centroids, res.centroids)

    def test_auto_arms_deadline_from_observed_rounds(self, data):
        """After the warm-up rounds the executor deadline is a multiple
        of the trailing median — present, positive and floored."""
        x = data
        coord = Coordinator(_cfg(executor="serial", round_timeout="auto"))
        assert coord.adaptive_timeout
        assert coord.executor.round_timeout is None  # cold start: unarmed
        coord.fit(x, _y0(x, 6))
        armed = coord.executor.round_timeout
        assert armed is not None
        assert armed >= Coordinator.ADAPTIVE_FLOOR_S

    def test_auto_detects_a_stall(self, data):
        """A worker stalling far past the adaptive deadline is caught
        and recovered, without any hand-tuned budget."""
        x = data
        clean = Coordinator(_cfg(executor="serial")).fit(x, _y0(x, 6))
        coord = Coordinator(
            _cfg(executor="serial", round_timeout="auto",
                 checkpoint_every=1),
            worker_faults=WorkerFaultInjector.stall_at(
                0, 4, stall_s=Coordinator.ADAPTIVE_FLOOR_S + 0.3))
        res = coord.fit(x, _y0(x, 6))
        assert res.stall_recoveries == 1
        assert np.array_equal(clean.centroids, res.centroids)

    def test_auto_deadline_rewarms_after_recovery(self, data):
        """Recovery invalidates the round-time history (an elastic
        shrink makes honest rounds slower): the deadline disarms and
        the post-recovery fit completes without phantom stalls."""
        x = data
        clean = Coordinator(_cfg(executor="serial")).fit(x, _y0(x, 6))
        coord = Coordinator(
            _cfg(executor="serial", round_timeout="auto",
                 checkpoint_every=1, elastic=True, n_workers=3),
            worker_faults=WorkerFaultInjector.stall_at(
                0, 4, stall_s=Coordinator.ADAPTIVE_FLOOR_S + 0.3))
        # deadline would be armed when the stall fires; after recovery
        # the history must be gone so the (larger-shard) survivors get
        # a fresh warm-up instead of the stale pre-shrink median
        res = coord.fit(x, _y0(x, 6))
        assert res.stall_recoveries == 1 and res.shrinks == 1
        # exactly one recovery: no phantom-stall spiral on the survivors
        assert res.recoveries == 1
        assert np.array_equal(clean.centroids, res.centroids)

    def test_auto_bit_identical_on_clean_fit(self, data):
        x = data
        ref = Coordinator(_cfg(executor="serial")).fit(x, _y0(x, 6))
        res = Coordinator(_cfg(executor="thread",
                               round_timeout="auto")).fit(x, _y0(x, 6))
        assert np.array_equal(ref.centroids, res.centroids)
        assert np.array_equal(ref.labels, res.labels)

    def test_estimator_accepts_auto(self, data):
        x = data
        km = FTKMeans(n_clusters=5, n_workers=2, executor="thread",
                      round_timeout="auto", max_iter=4, tol=0.0,
                      seed=0).fit(x)
        single = FTKMeans(n_clusters=5, max_iter=4, tol=0.0,
                          seed=0).fit(x)
        assert np.array_equal(km.cluster_centers_, single.cluster_centers_)
