"""Spans of the traced run: wrappers around the public calls the program
does not trace itself, and the self-time aggregation.

The traced run hands one :class:`repro.obs.trace.TraceRecorder` to every
estimator it times (``FTKMeans(tracer=...)``), so the program records its
own stages into it: the engine's ``iteration``, ``assign_chunk``,
``gemm``, ``update_feed`` and ``bounds_refresh`` spans, and the sharded
coordinator's ``broadcast``, ``compute`` (waiting for the workers),
``gather``, ``merge`` and ``update`` spans.  :func:`install` adds spans,
into the same recorder, for the public calls the program leaves
untraced: ``initialize``, ``validate_*``, ``begin_fit``, the assigners'
``assign``, ``UpdateStage.update`` / ``accumulate_protected`` and the
sharded fleet's ``start`` / ``shutdown``.  The client opens one root span
around each public call it times, named after the call (``fit()``,
``partial_fit()``, ``predict()``).

A wrapper only calls through while the recorder is disabled, and on any
thread but the one that installed it (the workers of a thread fleet).
"""

from __future__ import annotations

import functools
import threading

#: program spans that only group layers: their self time, like a root's,
#: is time no layer covers ("unattributed")
STRUCTURE = ("fit", "iteration", "round")


def _wrap(rec, owner, attr: str, name: str, after=None):
    """Replace ``owner.attr`` by a wrapper recording a ``name`` span;
    ``after(span, result, args)``, if given, reads counts before the span
    closes."""
    orig = getattr(owner, attr)
    main = threading.get_ident()

    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        if not rec.enabled or threading.get_ident() != main:
            return orig(*args, **kwargs)
        with rec.span(name) as sp:
            result = orig(*args, **kwargs)
            if after is not None:
                after(sp, result, args)
            return result

    setattr(owner, attr, wrapper)


def install(rec) -> dict:
    """Wrap the public calls of every layer the benchmark reports that the
    program does not trace.  Returns a dict whose ``"init"`` entry holds
    the centres returned by the last traced ``initialize``."""
    import repro.core.api as api
    from repro.core.assignment import AssignmentKernelBase
    from repro.core.ft_kmeans import FtAssignment
    from repro.core.tensorop import TensorOpAssignment
    from repro.core.update import UpdateStage
    from repro.dist.executors import BaseExecutor

    captured = {"init": None}

    def after_init(sp, centres, args):
        captured["init"] = centres.copy()

    def after_assign(sp, result, args):
        assigner, x, y = args[0], args[1], args[2]
        sp.meta["flops"] = 2.0 * x.shape[0] * x.shape[1] * y.shape[0]
        engine = getattr(assigner, "_engine", None)
        if engine is not None:
            sp.meta["active_frac"] = engine.stats.last_active_frac

    _wrap(rec, api, "initialize", "init", after_init)
    _wrap(rec, api, "validate_data", "validate")
    _wrap(rec, api, "validate_centroids", "validate")
    _wrap(rec, AssignmentKernelBase, "begin_fit", "begin_fit")
    for cls in (TensorOpAssignment, FtAssignment):
        _wrap(rec, cls, "assign", "assign", after_assign)
    _wrap(rec, UpdateStage, "update", "update")
    _wrap(rec, UpdateStage, "accumulate_protected", "update")
    _wrap(rec, BaseExecutor, "start", "dist.boot")
    _wrap(rec, BaseExecutor, "shutdown", "dist.shutdown")
    return captured


class Tree:
    """The recorder's completed spans with their parents.

    A span's parent is the innermost span open when it began, found from
    the start times and nesting depths the recorder keeps; all spans are
    recorded on one thread, so they nest properly.
    """

    def __init__(self, spans):
        self.spans = list(spans)
        #: span indices, every parent before its children
        self.order = sorted(range(len(self.spans)),
                            key=lambda i: (self.spans[i].t0,
                                           self.spans[i].depth))
        self.parent = [-1] * len(self.spans)
        stack: list[int] = []
        for i in self.order:
            while stack and self.spans[stack[-1]].depth >= self.spans[i].depth:
                stack.pop()
            self.parent[i] = stack[-1] if stack else -1
            stack.append(i)

    def roots(self) -> list[int]:
        return [i for i in self.order if self.parent[i] == -1]

    def inside(self, root_names) -> list[int]:
        """Indices of the spans in the trees of the roots named in
        ``root_names``, parents first."""
        keep = set()
        out = []
        for i in self.order:
            p = self.parent[i]
            if (p == -1 and self.spans[i].name in root_names) or p in keep:
                keep.add(i)
                out.append(i)
        return out

    def find(self, name: str, root_names) -> list:
        """Outermost spans called ``name`` in the trees of the named roots."""
        return [self.spans[i] for i in self.inside(root_names)
                if self.spans[i].name == name and not self._nested(i)]

    def _nested(self, i: int) -> bool:
        """Is span ``i`` directly inside a span of its own name (a stage
        the program traces around a call the benchmark wraps)?"""
        p = self.parent[i]
        return p != -1 and self.spans[p].name == self.spans[i].name

    def self_times(self, root_names) -> tuple[dict, dict, float]:
        """Self time and call count per span name, over the trees of the
        roots named in ``root_names``, and the roots' total wall.

        A span's self time is its duration minus its children's, so the
        self times of one tree add up to its root's duration.  A span
        directly inside one of its own name counts as the same call.
        """
        idx = self.inside(root_names)
        child = {i: 0.0 for i in idx}
        for i in idx:
            if self.parent[i] != -1:
                child[self.parent[i]] += self.spans[i].wall_s
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        wall = 0.0
        for i in idx:
            s = self.spans[i]
            self_s[s.name] = self_s.get(s.name, 0.0) + s.wall_s - child[i]
            calls[s.name] = calls.get(s.name, 0) + (not self._nested(i))
            if self.parent[i] == -1:
                wall += s.wall_s
        return self_s, calls, wall
