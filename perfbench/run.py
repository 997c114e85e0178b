"""Benchmark of the FT K-Means reproduction: one workload, one seed.

    python3 perfbench/run.py --workload lloyd_default --seed 1 \\
        --seconds 12 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics (plus self-time tables
above the JSON line) with ``--trace 1``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from layers import (PER_LAYER, active_fracs, layer_metrics,  # noqa: E402
                    percentile_ms)
from procstat import peak_rss_mb, stop_children  # noqa: E402
from workloads import WORKLOADS, Client, setup  # noqa: E402

#: end-to-end metric name -> unit; the order BENCHMARK.json lists them in
END_TO_END = {
    "setup_s": "s",
    "fit_s": "s",
    "partial_fit_ms_p90": "ms",
    "predict_ms_p90": "ms",
    "stream_rows_per_s": "rows/s",
    "peak_rss_mb": "MiB",
    "ok_frac": "frac",
}

SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60.0


class SetupProbes:
    """Set-up time, interpreter start to ready, measured in fresh
    processes: each probe imports the program, builds the inputs and warms
    up, then prints the time it got ready on the system-wide monotonic
    clock.  The probes are spread over the run (:meth:`between` runs one
    when ``spacing_s`` has passed since the last) so that their median
    samples the host over the whole run, not one moment of it."""

    def __init__(self, workload: str, seed: int, spacing_s: float):
        self.args = [sys.executable, str(Path(__file__).resolve()),
                     "--setup-probe", "--workload", workload,
                     "--seed", str(seed)]
        self.spacing_s = spacing_s
        self.times: list[float] = []
        self.last = time.perf_counter()

    def probe(self) -> None:
        t0 = time.monotonic()
        proc = subprocess.Popen(self.args, stdout=subprocess.PIPE, text=True)
        try:
            out, _ = proc.communicate(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        word, _, ready = out.strip().partition(" ")
        if word != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        self.times.append(float(ready) - t0)
        self.last = time.perf_counter()

    def between(self) -> float:
        """Run one probe if it is due; return the seconds spent."""
        t0 = time.perf_counter()
        if (len(self.times) < SETUP_PROBES
                and t0 - self.last >= self.spacing_s):
            self.probe()
        return time.perf_counter() - t0

    def finish(self) -> list[float]:
        while len(self.times) < SETUP_PROBES:
            self.probe()
        return self.times


def end_to_end(client: Client, rss_mb: float, setup_s: list[float]) -> dict:
    pairs = len(client.pf_s)
    busy = sum(client.pf_s) + sum(client.pr_s)
    rows = pairs * (client.inputs.batches[0].shape[0]
                    + client.inputs.queries[0].shape[0])
    return {
        "setup_s": statistics.median(setup_s),
        "fit_s": statistics.median(client.fit_s) if client.fit_s else 0.0,
        "partial_fit_ms_p90": percentile_ms(client.pf_s, 90),
        "predict_ms_p90": percentile_ms(client.pr_s, 90),
        "stream_rows_per_s": rows / busy if busy else 0.0,
        "peak_rss_mb": rss_mb,
        "ok_frac": 1.0 - client.failed / max(client.attempted, 1),
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[workload]
    fleet = wl.fit_kwargs.get("executor") == "process"
    inputs = setup(wl, seed)
    tracer = probes = captured = None
    if trace:
        from repro.obs.trace import TraceRecorder
        import spans
        tracer = TraceRecorder(enabled=False, max_spans=4_000_000)
        captured = spans.install(tracer)
    else:
        # the probes are child processes too: on a process fleet they all
        # run after peak_rss_mb is read, whose largest reaped child is then
        # a fleet worker; elsewhere the program starts no child and the
        # probes run between the rounds
        probes = SetupProbes(workload, seed, float("inf") if fleet
                             else seconds / SETUP_PROBES)
    client = Client(wl, inputs, seed, tracer,
                    probes.between if probes else None)
    client.fit_twin()  # before the rounds, which check each fit against it
    client.run(seconds, trace)
    # the twin's wall for abft.overhead_frac and dist.speedup_vs_single,
    # timed again now that the process is as warm as for the timed fits
    twin_s = client.fit_twin() if trace else 0.0
    print(f"calls: {client.attempted} attempted, {client.failed} failed "
          f"({len(client.fit_s) + len(client.traced_fit_s)} fit, "
          f"{len(client.pf_s) + len(client.traced_pair_s)} stream pairs); "
          f"fit iterations {client.fit_iters}")
    if client.injected:
        print(f"outputs differing from the clean twin: "
              f"{client.twin_mismatches}")
    print("resources held after a call, max over calls: "
          + ", ".join(f"{k} +{v}" for k, v in client.resources.max.items()))
    for why in client.errors:
        print(f"FAILED {why}")
    if trace:
        from layers import self_time_tables
        from spans import Tree
        if tracer.dropped:
            raise RuntimeError(f"trace ring dropped {tracer.dropped} spans")
        tree = Tree(tracer.spans)
        floor = {}
        fit = client.last_traced_fit
        init = inputs.init if inputs.init is not None else captured["init"]
        if fit is not None and init is not None:
            from floor import lloyd_floor
            _, floor["iter_s"] = lloyd_floor(inputs.x, init, fit.n_iter_)
        metrics = layer_metrics(client, tree, floor, twin_s)
        units = PER_LAYER
        print(self_time_tables(tree))
        fracs = active_fracs(client, tree)
        if fracs and client.wl.name != "stream_mixed":
            print("bounds.active_frac per iteration of the last traced fit: "
                  + " ".join(f"{f:.4f}" for f in fracs))
    else:
        rss_mb = peak_rss_mb(children=fleet)  # before the last probes run
        metrics = end_to_end(client, rss_mb, probes.finish())
        units = END_TO_END
    for name, value in metrics.items():
        print(f"{name:<28} {value:>18.9g} {units[name]}")
    print(f"output check: {'pass' if client.failed == 0 else 'FAIL'}")
    return {
        "correct": client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        setup(WORKLOADS[args.workload], args.seed)
        print(f"ready {time.monotonic()!r}")
        return 0
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        stop_children()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
