"""Simulated clock: accumulates modelled kernel times for a run.

The benchmark harness executes kernels functionally (for numerics) while
charging their *modelled* duration to a :class:`SimClock`, so a full
K-means fit reports a simulated wall time / GFLOPS exactly the way the
paper's tables do.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.gpusim.timing import KernelTiming

__all__ = ["SimClock"]


@dataclass
class SimClock:
    """Accumulates simulated seconds, with a per-kernel log.

    ``charge`` and ``reset`` are the log's only writers: per-prefix
    totals are kept as running sums over the entries already folded in,
    so a long stream that asks for ``total('distance')`` after every
    batch pays for the new entries only, not for the whole log.
    """

    elapsed_s: float = 0.0
    log: list[tuple[str, float]] = field(default_factory=list)
    #: label prefix -> [running total, log entries folded into it]
    _totals: dict[str, list] = field(default_factory=dict, init=False,
                                     repr=False, compare=False)

    def charge(self, label: str, timing: KernelTiming | float) -> None:
        """Add one kernel's modelled duration."""
        dt = timing.time_s if isinstance(timing, KernelTiming) else float(timing)
        if dt < 0:
            raise ValueError(f"negative duration for {label!r}")
        self.elapsed_s += dt
        self.log.append((label, dt))

    def reset(self) -> None:
        self.elapsed_s = 0.0
        self.log.clear()
        self._totals.clear()

    def total(self, label_prefix: str | None = None) -> float:
        """Total time, optionally restricted to kernels whose label starts
        with ``label_prefix`` (e.g. 'distance')."""
        if label_prefix is None:
            return self.elapsed_s
        # same additions in the same order as a sum() over the whole
        # log (starting from int 0), so the bits match a full rescan
        run = self._totals.setdefault(label_prefix, [0, 0])
        for label, dt in self.log[run[1]:]:
            if label.startswith(label_prefix):
                run[0] += dt
        run[1] = len(self.log)
        return run[0]
