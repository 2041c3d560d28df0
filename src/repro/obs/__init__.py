"""repro.obs — unified metrics, tracing, and per-phase latency breakdowns.

One :class:`Observability` object per deployment bundles the two halves:

* a :class:`~repro.obs.metrics.MetricsRegistry` of typed counters, gauges
  and histograms (the replicas' and clients' ``stats`` views live here);
* a :class:`~repro.obs.tracer.Tracer` of spans/instants/phase marks on
  the simulation's common clock, exported for Perfetto by :mod:`repro.obs.export`
  and read as the paper's section 2.2 message log by :mod:`repro.obs.report`.

By default the tracer is *disabled* and adds no per-request work; pass
``Observability(tracing=True)`` (or ``trace_path=`` at the harness level)
to record.  The clock binds when the cluster builder attaches its
simulator, so an Observability can be constructed before the simulation
exists.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.obs.export import chrome_trace_events, write_chrome_trace, write_jsonl
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS_NS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    StatsView,
    nearest_rank_percentile,
)
from repro.obs.phases import PHASE_NAMES, phase_breakdown, request_phases
from repro.obs.tracer import NULL_SPAN, TraceEvent, Tracer

__all__ = [
    "Observability",
    "MetricsRegistry",
    "StatsView",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_LATENCY_BUCKETS_NS",
    "nearest_rank_percentile",
    "Tracer",
    "TraceEvent",
    "NULL_SPAN",
    "PHASE_NAMES",
    "phase_breakdown",
    "request_phases",
    "write_jsonl",
    "write_chrome_trace",
    "chrome_trace_events",
]


class Observability:
    """The registry + tracer pair everything in one deployment shares."""

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        tracing: bool = False,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        if tracer is not None:
            self.tracer = tracer
        else:
            # Clock starts at zero; attach_clock rebinds to the simulator.
            self.tracer = Tracer(lambda: 0, enabled=tracing)

    def attach_clock(self, clock: Callable[[], int]) -> None:
        """Bind the tracer to the deployment's simulated clock."""
        self.tracer.clock = clock

    def write_chrome_trace(self, path: str) -> int:
        return write_chrome_trace(self.tracer, path, registry=self.registry)

    def write_jsonl(self, path: str) -> int:
        return write_jsonl(self.tracer, path)
