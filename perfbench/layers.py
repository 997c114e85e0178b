"""Per-layer metrics of a traced run, and its self-time tables.

Layer times are seconds per *primary op*: one ``fit`` on the three fit
workloads, one ``partial_fit`` + ``predict`` pair on ``stream_mixed``.
A layer a workload does not exercise reads 0.
"""

from __future__ import annotations

import statistics

import numpy as np

from spans import STRUCTURE

#: per-layer metric name -> unit; the order BENCHMARK.json lists them in
PER_LAYER = {
    "init.s": "s",
    "begin_fit.s": "s",
    "assign.s": "s",
    "assign.calls": "count",
    "assign.gflops": "GFLOP/s",
    "gemm.s": "s",
    "bounds.s": "s",
    "bounds.active_frac_mean": "frac",
    "bounds.active_frac_final": "frac",
    "update.s": "s",
    "update.calls": "count",
    "update.dmr_mismatches": "count",
    "partial_fit.self_s": "s",
    "partial_fit.p50_ms": "ms",
    "partial_fit.p95_ms": "ms",
    "partial_fit.p99_ms": "ms",
    "predict.p50_ms": "ms",
    "predict.p95_ms": "ms",
    "predict.p99_ms": "ms",
    "validate.s": "s",
    "abft.injected": "count",
    "abft.detected": "count",
    "abft.corrected": "count",
    "abft.detect_ratio": "frac",
    "abft.overhead_frac": "frac",
    "twin.mismatches": "count",
    "twin.inertia_dev": "frac",
    "dist.boot_s": "s",
    "dist.broadcast_s": "s",
    "dist.collect_s": "s",
    "dist.merge_s": "s",
    "dist.update_s": "s",
    "dist.shutdown_s": "s",
    "dist.reduce_busy_s": "s",
    "dist.broadcast_bytes": "bytes",
    "dist.gather_bytes": "bytes",
    "dist.recoveries": "count",
    "dist.speedup_vs_single": "ratio",
    "sim.time_s": "s",
    "unattributed.frac": "frac",
    "trace.overhead_frac": "frac",
    "floor.iter_ms": "ms",
    "fit_vs_floor": "ratio",
    "res.extra_threads": "count",
    "res.extra_children": "count",
    "res.extra_shm": "count",
}

FIT_ROOTS = ("fit()",)
STREAM_ROOTS = ("partial_fit()", "predict()")
#: the spans of one assignment pass (the update feed aside)
ASSIGN = ("assign", "assign_chunk", "gemm", "bounds_refresh")


def percentile_ms(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) * 1e3 if values else 0.0


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def active_fracs(client, tree) -> list[float]:
    """Computed-row fraction of each assignment pass the bounds left
    active: per iteration of the last traced fit on a fit workload, per
    traced call on ``stream_mixed``."""
    stream = client.wl.name == "stream_mixed"
    assigns = tree.find("assign", STREAM_ROOTS if stream else FIT_ROOTS)
    fracs = [s.meta["active_frac"] for s in assigns if "active_frac" in s.meta]
    if not stream and client.last_traced_fit is not None:
        fracs = fracs[-client.last_traced_fit.n_iter_:]
    return fracs


def layer_metrics(client, tree, floor: dict, twin_s: float) -> dict:
    """Every per-layer metric of one traced run (name -> value)."""
    stream = client.wl.name == "stream_mixed"
    sharded = client.wl.fit_kwargs.get("n_workers", 1) > 1
    roots = STREAM_ROOTS if stream else FIT_ROOTS
    n = len(client.traced_pair_s) if stream else len(client.traced_fit_s)
    self_s, calls, wall = tree.self_times(roots)

    def per_op(*names) -> float:
        return _ratio(sum(self_s.get(k, 0.0) for k in names), n)

    assigns = tree.find("assign", roots)
    fracs = active_fracs(client, tree)
    pf_self, pf_calls, _ = tree.self_times(("partial_fit()",))

    est = client.stream_est if stream else client.last_traced_fit
    counters = est.counters_ if est is not None else None
    fit = client.last_traced_fit

    def count(field: str) -> float:
        return float(getattr(counters, field, 0)) if counters else 0.0

    untraced = ([a + b for a, b in zip(client.pf_s, client.pr_s)]
                if stream else client.fit_s)
    traced = client.traced_pair_s if stream else client.traced_fit_s
    fit_med = statistics.median(client.fit_s) if client.fit_s else 0.0
    floor_total = sum(floor.get("iter_s", []))
    return {
        "init.s": per_op("init"),
        "begin_fit.s": per_op("begin_fit"),
        "assign.s": per_op(*ASSIGN),
        "assign.calls": _ratio(calls.get("assign", 0), n),
        "assign.gflops": _ratio(sum(s.meta.get("flops", 0.0) for s in assigns),
                                sum(self_s.get(k, 0.0) for k in ASSIGN)) / 1e9,
        "gemm.s": per_op("gemm"),
        "bounds.s": per_op("bounds_refresh"),
        "bounds.active_frac_mean": statistics.fmean(fracs) if fracs else 0.0,
        "bounds.active_frac_final": fracs[-1] if fracs else 0.0,
        "update.s": per_op("update", "update_feed"),
        "update.calls": _ratio(calls.get("update", 0), n),
        "update.dmr_mismatches": count("dmr_mismatches"),
        "partial_fit.self_s": _ratio(pf_self.get("partial_fit()", 0.0),
                                     pf_calls.get("partial_fit()", 0)),
        # from the untraced rounds of this run: the host's speed swings
        # decide these, too unsteady from run to run to carry a bound end
        # to end (the p50 sits between two latency modes, the tails on
        # host stalls); the p90 carries it (partial_fit_ms_p90)
        "partial_fit.p50_ms": percentile_ms(client.pf_s, 50),
        "partial_fit.p95_ms": percentile_ms(client.pf_s, 95),
        "partial_fit.p99_ms": percentile_ms(client.pf_s, 99),
        "predict.p50_ms": percentile_ms(client.pr_s, 50),
        "predict.p95_ms": percentile_ms(client.pr_s, 95),
        "predict.p99_ms": percentile_ms(client.pr_s, 99),
        "validate.s": per_op("validate"),
        "abft.injected": count("errors_injected"),
        "abft.detected": count("errors_detected"),
        "abft.corrected": count("errors_corrected"),
        "abft.detect_ratio": _ratio(count("errors_detected"),
                                    count("errors_injected")),
        "abft.overhead_frac": (_ratio(fit_med, twin_s) - 1.0
                               if twin_s and client.wl.name == "ft_inject"
                               else 0.0),
        "twin.mismatches": float(client.twin_mismatches),
        "twin.inertia_dev": client.inertia_dev,
        "dist.boot_s": per_op("dist.boot"),
        "dist.broadcast_s": per_op("broadcast"),
        "dist.collect_s": per_op("compute", "gather"),
        "dist.merge_s": per_op("merge"),
        "dist.update_s": per_op("update") if sharded else 0.0,
        "dist.shutdown_s": per_op("dist.shutdown"),
        "dist.reduce_busy_s": float(getattr(fit, "dist_reduce_busy_s_", 0.0)),
        "dist.broadcast_bytes": float(getattr(fit, "dist_broadcast_bytes_",
                                              0)),
        "dist.gather_bytes": float(getattr(fit, "dist_gather_bytes_", 0)),
        "dist.recoveries": float(getattr(fit, "dist_recoveries_", 0)),
        "dist.speedup_vs_single": (_ratio(twin_s, fit_med)
                                   if sharded else 0.0),
        "sim.time_s": float(getattr(fit, "sim_time_s_", 0.0)),
        "unattributed.frac": _ratio(sum(self_s.get(r, 0.0)
                                        for r in roots + STRUCTURE), wall),
        "trace.overhead_frac": (_ratio(statistics.median(traced),
                                       statistics.median(untraced)) - 1.0
                                if traced and untraced else 0.0),
        "floor.iter_ms": (statistics.median(floor["iter_s"]) * 1e3
                          if floor.get("iter_s") else 0.0),
        "fit_vs_floor": _ratio(fit_med, floor_total),
        "res.extra_threads": float(client.resources.max["threads"]),
        "res.extra_children": float(client.resources.max["children"]),
        "res.extra_shm": float(client.resources.max["shm"]),
    }


def self_time_tables(tree) -> str:
    """One table per kind of traced root call: every span name's self
    time, summing to the roots' wall; the rows of the root and of the
    program's grouping spans are the time no layer span covers
    ("unattributed")."""
    lines = []
    kinds = []
    for i in tree.roots():
        if tree.spans[i].name not in kinds:
            kinds.append(tree.spans[i].name)
    for kind in kinds:
        self_s, calls, wall = tree.self_times((kind,))
        n = calls[kind]
        lines.append(f"-- self time under {kind} ({n} traced calls, "
                     f"wall {wall:.6f} s) --")
        lines.append(f"{'layer':<28}{'calls/op':>10}{'self s/op':>14}"
                     f"{'share':>9}")
        for name, t in sorted(self_s.items(), key=lambda kv: -kv[1]):
            label = (f"{name} (unattributed)"
                     if name == kind or name in STRUCTURE else name)
            lines.append(f"{label:<28}{calls[name] / n:>10.1f}"
                         f"{t / n:>14.6f}{t / wall:>9.1%}")
        lines.append(f"{'total':<28}{'':>10}{sum(self_s.values()) / n:>14.6f}"
                     f"{sum(self_s.values()) / wall:>9.1%}")
    return "\n".join(lines)
