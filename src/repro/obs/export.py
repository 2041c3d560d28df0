"""Trace exporters: JSONL and Chrome ``trace_event`` JSON.

The Chrome format (one JSON object with a ``traceEvents`` array) opens
directly in Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``:

* every *track* (simulated host, the network, subsystems) becomes a
  process with named rows;
* every completed request becomes a row in a synthetic ``requests``
  process, tiled by its six protocol-phase spans — the per-request
  latency breakdown, visually;
* instants (checkpoints, view changes, fsyncs, drops) render as ticks.

Timestamps: the tracer records integer nanoseconds of simulated time;
``trace_event`` wants microseconds, so we emit ``ns / 1000`` as floats
(Perfetto keeps sub-microsecond precision).
"""

from __future__ import annotations

import json
from typing import Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.phases import request_phases
from repro.obs.tracer import KIND_INSTANT, KIND_MARK, KIND_SPAN, TraceEvent, Tracer

REQUESTS_TRACK = "requests"


def _jsonable(value):
    if isinstance(value, bytes):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return value


def jsonl_record(event: TraceEvent) -> dict:
    """The one JSONL schema: a trace event as one JSON object."""
    record = {"kind": event.kind, "track": event.track, "name": event.name}
    record["ts_ns"] = event.ts
    if event.cat:
        record["cat"] = event.cat
    if event.dur is not None:
        record["dur_ns"] = event.dur
    if event.corr is not None:
        record["corr"] = _jsonable(event.corr)
    if event.args:
        record["args"] = _jsonable(event.args)
    return record


def write_jsonl(tracer: Tracer, path: str) -> int:
    """One JSON object per event, in recording order.  Returns the count."""
    with open(path, "w", encoding="utf-8") as fh:
        for event in tracer.events:
            fh.write(json.dumps(jsonl_record(event)) + "\n")
    return len(tracer.events)


def chrome_trace_events(tracer: Tracer) -> list[dict]:
    """The ``traceEvents`` array: spans, instants, and phase rows."""
    pids: dict[str, int] = {}
    events: list[dict] = []

    def pid_for(track: str) -> int:
        pid = pids.get(track)
        if pid is None:
            pid = len(pids) + 1
            pids[track] = pid
            events.append(
                {
                    "ph": "M",
                    "name": "process_name",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": track},
                }
            )
        return pid

    for event in tracer.events:
        if event.kind == KIND_MARK:
            continue  # marks surface below, as assembled phase spans
        pid = pid_for(event.track or "untracked")
        base = {
            "name": event.name,
            "cat": event.cat or "general",
            "pid": pid,
            "tid": 0,
            "ts": event.ts / 1000,
        }
        if event.args or event.corr is not None:
            args = dict(_jsonable(event.args) if event.args else {})
            if event.corr is not None:
                args["corr"] = _jsonable(event.corr)
            base["args"] = args
        if event.kind == KIND_SPAN:
            base["ph"] = "X"
            base["dur"] = (event.dur or 0) / 1000
        elif event.kind == KIND_INSTANT:
            base["ph"] = "i"
            base["s"] = "t"
        events.append(base)

    phases = request_phases(tracer)
    if phases:
        pid = pid_for(REQUESTS_TRACK)
        for tid, (corr, spans) in enumerate(sorted(phases.items(), key=str), start=1):
            corr_name = (
                f"client {corr[0]} req {corr[1]}"
                if isinstance(corr, tuple) and len(corr) == 2
                else str(corr)
            )
            events.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": corr_name},
                }
            )
            for phase, start, end in spans:
                events.append(
                    {
                        "ph": "X",
                        "name": phase,
                        "cat": "request-phase",
                        "pid": pid,
                        "tid": tid,
                        "ts": start / 1000,
                        "dur": (end - start) / 1000,
                        "args": {"corr": _jsonable(corr)},
                    }
                )
    return events


def write_chrome_trace(
    tracer: Tracer,
    path: str,
    registry: Optional[MetricsRegistry] = None,
) -> int:
    """Write the Chrome/Perfetto trace file.  Returns the event count.

    When a registry is supplied, its snapshot rides along in ``otherData``
    so a trace file is a self-contained record of the run.
    """
    events = chrome_trace_events(tracer)
    doc: dict[str, object] = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
    }
    other: dict[str, object] = {"clock": "simulated", "time_unit_in_file": "us"}
    if tracer.dropped:
        other["events_dropped_at_limit"] = tracer.dropped
    if registry is not None:
        other["metrics"] = registry.snapshot()
    doc["otherData"] = other
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return len(events)
