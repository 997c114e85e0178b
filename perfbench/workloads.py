"""Workloads, their inputs and the closed-loop client that drives them.

Every workload is one client in a closed loop: the next call is issued
only after the previous one returned and was checked.  The client runs
*rounds* while ``seconds`` has not run out (at least one), each of

1. one ``fit`` on the workload's training set, on a fresh estimator;
2. one stream session of ``SESSION_PAIRS`` rounds in which a fresh
   single-worker estimator, started from the centres that fit returned,
   alternates ``partial_fit(2048 rows)`` and ``predict(1024 rows)`` over
   a pool of unseen rows.

The cost of ``partial_fit`` grows with the batches an estimator has seen,
so a stream cut by the clock would weigh the calls of a fast run towards
the expensive end; fixed-length sessions give every run the same mix.
Interleaving the sessions with the fits spreads each kind of call over
the whole run, so that its figures sample the host's speed over the run
rather than over one stretch of it.

The three fit workloads spend most of a round in the fit and
``stream_mixed`` (whose "training set" is a small bootstrap sample) in
the session, so every end-to-end metric exists on every workload while
each workload stresses its own layers.  The program receives only the
generated arrays.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from checks import check_close_to_twin, check_fit, check_nearest, check_twin
from procstat import OpTimeout, ResourceCounter, deadline

N_FEATURES = 64
N_CLUSTERS = 64
BLOB_STD = 3.0
BATCH_ROWS = 2048
QUERY_ROWS = 1024
POOL_BATCHES = 32
POOL_QUERIES = 64
SESSION_PAIRS = 512
FIT_DEADLINE_S = 90.0
CALL_DEADLINE_S = 10.0


@dataclass(frozen=True)
class Workload:
    name: str
    train_rows: int
    fit_kwargs: dict           # FTKMeans knobs of the fit (besides K, seed)
    own_init: bool             # fit starts from benchmark-drawn centres
    twin_kwargs: dict | None   # knobs of the reference twin; None: no twin
    stream_kwargs: dict        # knobs of the stream-session estimator
    min_rounds: int = 1        # rounds run even past the time budget


WORKLOADS = {
    w.name: w for w in (
        # every knob at its default, to convergence at the default tol; a
        # fit takes most of the time budget, so fit_s is the median of two
        Workload("lloyd_default", 200_000, {}, False, None, {}, 2),
        # SEU injection with ABFT correction; fixed iterations, no init work.
        # The stream sessions run the ft variant without injection: under
        # injection a flip the ABFT threshold lets through can leave a
        # stream call's label farther from the nearest centre than TF32
        # rounding allows, which the every-row stream check fails;
        # injection stays on the fits, where such escapes are counted
        # against the clean twin (twin.mismatches)
        Workload("ft_inject", 200_000,
                 dict(variant="ft", p_inject=0.01, max_iter=10, tol=0.0),
                 True, dict(variant="tensorop", p_inject=0.0),
                 dict(variant="ft")),
        # the sharded coordinator on a two-thread fleet, transport and
        # topology on 'auto', BLAS threads not pinned: broadcast, worker
        # compute, star merge re-feed and update all do work
        Workload("sharded_thread", 200_000,
                 dict(n_workers=2, executor="thread", max_iter=6, tol=0.0),
                 True, dict(n_workers=1, executor="serial"), {}),
        # the same on the process fleet (shared-memory transport).  Not in
        # BENCHMARK.json: each worker runs its own unpinned two-thread BLAS
        # on the shared cores, and that oversubscription stalls a fit's
        # rounds at random, so its wall swings up to tenfold from fit to
        # fit; run by hand for the boot and transport figures
        Workload("sharded_process", 200_000,
                 dict(n_workers=2, executor="process", max_iter=6, tol=0.0),
                 True, dict(n_workers=1, executor="serial"), {}),
        # small-M online calls: per-call overhead rather than GEMM; the
        # bootstrap fit runs a fixed iteration count, so its wall does not
        # swing with a seed-dependent convergence
        Workload("stream_mixed", 16_384, dict(max_iter=10, tol=0.0), False,
                 None, {}),
    )
}


@dataclass
class Inputs:
    x: np.ndarray                  # training set
    init: np.ndarray | None        # benchmark-drawn starting centres
    batches: list[np.ndarray]      # stream-session partial_fit batches
    queries: list[np.ndarray]      # stream-session predict queries


def blobs(m: int, seed: int) -> np.ndarray:
    """``m`` float32 rows around ``N_CLUSTERS`` uniform centres in
    [-5, 5]^64, Gaussian noise of std ``BLOB_STD``, near-equal cluster
    sizes.  Generated in row blocks so set-up does not raise the peak
    memory above the program's own."""
    rng = np.random.default_rng(seed)
    centres = rng.uniform(-5.0, 5.0, size=(N_CLUSTERS, N_FEATURES))
    labels = rng.permutation(np.arange(m) % N_CLUSTERS)
    x = np.empty((m, N_FEATURES), dtype=np.float32)
    for lo in range(0, m, 16384):
        lab = labels[lo:lo + 16384]
        x[lo:lo + 16384] = centres[lab] + rng.normal(
            0.0, BLOB_STD, size=(lab.size, N_FEATURES))
    return x


def make_inputs(wl: Workload, seed: int) -> Inputs:
    pool = POOL_BATCHES * BATCH_ROWS + POOL_QUERIES * QUERY_ROWS
    data = blobs(wl.train_rows + pool, seed)
    x = data[:wl.train_rows]
    rest = data[wl.train_rows:]
    split = POOL_BATCHES * BATCH_ROWS
    batches = [rest[i:i + BATCH_ROWS] for i in range(0, split, BATCH_ROWS)]
    queries = [rest[i:i + QUERY_ROWS]
               for i in range(split, rest.shape[0], QUERY_ROWS)]
    init = None
    if wl.own_init:
        rng = np.random.default_rng([seed, 1])
        init = x[rng.choice(x.shape[0], N_CLUSTERS, replace=False)].copy()
    return Inputs(x, init, batches, queries)


def warm_up(wl: Workload, inputs: Inputs, seed: int) -> None:
    """Untimed warm-up: load every code path the timed calls use."""
    from repro import FTKMeans
    if wl.fit_kwargs.get("n_workers", 1) > 1:
        import repro.dist  # noqa: F401  (loaded lazily by a sharded fit)
    single = {k: v for k, v in wl.fit_kwargs.items()
              if k not in ("n_workers", "executor")}
    single.update(max_iter=2)
    FTKMeans(n_clusters=N_CLUSTERS, seed=seed, **single).fit(inputs.x[:8192])
    est = FTKMeans(n_clusters=N_CLUSTERS, seed=seed,
                   init_centroids=inputs.x[:N_CLUSTERS], **wl.stream_kwargs)
    est.partial_fit(inputs.batches[0])
    est.predict(inputs.queries[0])


def setup(wl: Workload, seed: int) -> Inputs:
    inputs = make_inputs(wl, seed)
    warm_up(wl, inputs, seed)
    return inputs


@dataclass
class Client:
    """One closed-loop client; see the module docstring.

    ``tracer`` is the run's ``TraceRecorder`` in a traced run, enabled
    around the traced calls only.  ``between``, if given, is called after
    each fit and each stream session, outside every timed region; the
    seconds it returns do not count against the time budget.
    """

    wl: Workload
    inputs: Inputs
    seed: int
    tracer: object = None
    between: object = None
    fit_s: list = field(default_factory=list)
    pf_s: list = field(default_factory=list)
    pr_s: list = field(default_factory=list)
    traced_fit_s: list = field(default_factory=list)
    traced_pair_s: list = field(default_factory=list)
    fit_iters: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    stopped: bool = False
    twin: object = None
    twin_mismatches: int = 0
    inertia_dev: float = 0.0
    last_fit: object = None
    last_traced_fit: object = None
    stream_est: object = None
    paused_s: float = 0.0

    def __post_init__(self):
        self.resources = ResourceCounter()
        self.injected = bool(self.wl.fit_kwargs.get("p_inject"))

    def _now(self) -> float:
        """The budget clock: wall time less the time spent in ``between``."""
        return time.perf_counter() - self.paused_s

    def _between(self) -> None:
        if self.between is not None:
            self.paused_s += self.between()

    # ------------------------------------------------------------------
    def _call(self, kind: str, fn, limit_s: float, traced: bool):
        """Time one public call from outside, under the watchdog.

        Returns the wall seconds, or None if the call raised or overran
        its deadline (counted as a failed op; an overrun also ends the
        run, since the program may be wedged)."""
        self.attempted += 1
        tr = self.tracer
        if traced:
            tr.enabled = True
            root = tr.span(f"{kind}()")
            root.__enter__()
        try:
            with deadline(limit_s):
                t0 = time.perf_counter()
                fn()
                wall = time.perf_counter() - t0
        except OpTimeout:
            self._fail(f"{kind}: no result within {limit_s} s")
            self.stopped = True
            return None
        except Exception as exc:  # a failed call is a result, not a crash
            self._fail(f"{kind}: {exc!r}")
            return None
        finally:
            if traced:
                root.__exit__(None, None, None)
                tr.enabled = False
            self.resources.sample()
        return wall

    def _fail(self, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(why)

    def _verdict(self, error: str | None) -> None:
        if error is not None:
            self._fail(error)

    # ------------------------------------------------------------------
    def _new_fit_estimator(self, **override):
        from repro import FTKMeans
        kwargs = {**self.wl.fit_kwargs, "tracer": self.tracer, **override}
        return FTKMeans(n_clusters=N_CLUSTERS, seed=self.seed,
                        init_centroids=self.inputs.init, **kwargs)

    def fit_twin(self) -> float:
        """Fit the reference twin of the workload's fits, if it has one;
        return its wall seconds (0 without a twin)."""
        if self.wl.twin_kwargs is None:
            return 0.0
        self.twin = self._new_fit_estimator(tracer=None,
                                            **self.wl.twin_kwargs)
        t0 = time.perf_counter()
        self.twin.fit(self.inputs.x)
        return time.perf_counter() - t0

    def check_fit(self, est) -> None:
        """One fit's outputs against its reference (see :mod:`checks`),
        outside every timed region."""
        if self.twin is None:
            self._verdict(check_fit(self.inputs.x, est.cluster_centers_,
                                    est.labels_, est.inertia_))
            return
        exact = check_twin(est, self.twin)
        if not self.injected:
            self._verdict(exact)
            return
        self.twin_mismatches += exact is not None
        self.inertia_dev = max(self.inertia_dev,
                               abs(est.inertia_ - self.twin.inertia_)
                               / self.twin.inertia_)
        self._verdict(check_close_to_twin(est.labels_, est.inertia_,
                                          self.twin.labels_,
                                          self.twin.inertia_))

    def run(self, budget_s: float, trace: bool) -> None:
        """Rounds of one fit and one stream session while ``budget_s`` has
        not run out, and at least the workload's ``min_rounds``.  A traced
        run alternates untraced and traced fits (and stream rounds), so
        that the tracing overhead is measured on the same run; it runs at
        least two rounds."""
        t_end = self._now() + budget_s
        least = max(self.wl.min_rounds, 2 if trace else 1)
        i = 0
        while not self.stopped and (i < least or self._now() < t_end):
            self._fit(trace and i % 2 == 1)
            i += 1
            self._between()
            if self.stopped:
                break
            self._session(trace)
            self._between()

    def _fit(self, traced: bool) -> None:
        x = self.inputs.x
        est = self._new_fit_estimator()
        wall = self._call("fit", lambda: est.fit(x), FIT_DEADLINE_S, traced)
        if wall is None:
            return
        (self.traced_fit_s if traced else self.fit_s).append(wall)
        self.fit_iters.append(est.n_iter_)
        self.check_fit(est)
        self.last_fit = est
        if traced:
            self.last_traced_fit = est

    def _session(self, trace: bool) -> None:
        """One fixed-length stream on a fresh estimator, started from the
        last fitted centres."""
        from repro import FTKMeans
        start = (self.last_fit.cluster_centers_ if self.last_fit is not None
                 else self.inputs.x[:N_CLUSTERS])
        est = FTKMeans(n_clusters=N_CLUSTERS, seed=self.seed,
                       init_centroids=start, tracer=self.tracer,
                       **self.wl.stream_kwargs)
        self.stream_est = est
        before = start
        for i in range(SESSION_PAIRS):
            if self.stopped:
                break
            # a traced run alternates untraced and traced rounds
            traced = trace and i % 2 == 1
            batch = self.inputs.batches[i % POOL_BATCHES]
            query = self.inputs.queries[i % POOL_QUERIES]
            pf = self._call("partial_fit", lambda: est.partial_fit(batch),
                            CALL_DEADLINE_S, traced)
            if pf is not None:
                self._verdict(check_nearest(batch, before, est.labels_,
                                            est.inertia_))
                before = est.cluster_centers_  # a new array per call
            labels = None

            def predict():
                nonlocal labels
                labels = est.predict(query)

            pr = self._call("predict", predict, CALL_DEADLINE_S, traced)
            if pr is not None:
                self._verdict(check_nearest(query, est.cluster_centers_,
                                            labels))
            if pf is None or pr is None:
                break  # the stream state is unknown now: end the session
            if traced:
                self.traced_pair_s.append(pf + pr)
            else:
                self.pf_s.append(pf)
                self.pr_s.append(pr)
