"""Flight recorder: black-box dumps cut from the tracer's own ring.

A :class:`FlightRecorder` is a :class:`~repro.obs.trace.Tracer` (every
exporter, the profiler, and the bundle harness work on it unchanged)
that also counts how many records each *lane* — each logical CPU, plus
:data:`SERIAL` for serial sections — has pushed. It keeps no ring of its
own: when a trigger fires — a security violation, a C1–C8 check
failure, an SLO breach (see :meth:`~repro.obs.trace.NullTracer.trigger`
call sites in ``core/monitor.py``, ``core/sandbox.py``,
``fleet/pool.py`` and the SLO monitor) — the recorder splits the
tracer's ring by lane, keeps each lane's last :data:`LANE_CAPACITY`
records that end inside the last :data:`LOOKBACK_KCYCLES` kilocycles,
and freezes them into a :class:`FlightDump`: a self-describing JSON
payload that also carries a Chrome ``traceEvents`` view (one thread lane
per CPU), the audit-chain head digest at the moment of the trigger, and
a per-CPU utilization timeline. A lane's ``dropped`` count is its pushes
beyond :data:`LANE_CAPACITY`, so it stays exact however far the tracer
ring has wrapped.

Like every obs component the recorder only *reads* the cycle clock; it
never charges it, so the simulated timeline is byte-identical with the
recorder on or off (the overhead benchmark pins this).
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from .trace import DEFAULT_CAPACITY, SPAN, TraceEvent, Tracer

#: lane key used for records charged in serial sections (no executing CPU)
SERIAL = -1
#: records a dump keeps per lane; small by design — recent history only
LANE_CAPACITY = 4096
#: dump window: keep records ending within the last N kilocycles
LOOKBACK_KCYCLES = 50
#: freeze at most this many dumps (later triggers only count)
MAX_DUMPS = 4
#: buckets in the per-CPU utilization timeline of each dump
TIMELINE_BUCKETS = 20


class FlightRecorder(Tracer):
    """Recording tracer that freezes per-lane dumps on every trigger."""

    __slots__ = ("lane_pushes", "dumps", "triggers")

    def __init__(self, clock, capacity: int = DEFAULT_CAPACITY):
        super().__init__(clock, capacity=capacity)
        #: record cpu slot (None for serial sections) → records pushed
        self.lane_pushes: defaultdict[int | None, int] = defaultdict(int)
        self.dumps: list[FlightDump] = []
        self.triggers = 0

    # -- recording ------------------------------------------------------- #

    def _emit(self, event: TraceEvent) -> None:
        # hot path: every record passes through here. One ring append
        # (inlined: increment + C append) plus one lane count; the lane
        # key is the record's raw cpu slot (slot 8), mapped at freeze.
        events = self.events
        events.pushed += 1
        events._buf.append(event)
        self.lane_pushes[event[8]] += 1

    def trigger(self, reason: str, detail: str = "") -> None:
        """Record the trigger event, then freeze a black-box dump.

        The dump names the request trace ID bound at the moment of the
        trigger (when any) — the offending request is the exemplar the
        on-call flow starts from (``repro.obs.reqtrace`` resolves it to
        the full causal span tree).
        """
        super().trigger(reason, detail)       # instant flight:<reason> event
        self.triggers += 1
        if len(self.dumps) < MAX_DUMPS:
            self.dumps.append(self._freeze(reason, detail))

    # -- freezing -------------------------------------------------------- #

    def _freeze(self, reason: str, detail: str) -> "FlightDump":
        from .ledger import capture_ledger   # late: ledger imports hw.cycles

        now = self.clock.cycles
        window_start = max(0, now - LOOKBACK_KCYCLES * 1000)
        by_lane: dict = {}
        for e in self.events:
            by_lane.setdefault(e[8], []).append(e)
        events_by_cpu: dict[int, list[TraceEvent]] = {}
        dropped_by_cpu: dict[int, int] = {}
        for cpu, pushed in self.lane_pushes.items():
            lane = SERIAL if cpu is None else cpu
            recent = by_lane.get(cpu, [])[-LANE_CAPACITY:]
            events_by_cpu[lane] = [e for e in recent if e[4] >= window_start]
            dropped_by_cpu[lane] = max(0, pushed - LANE_CAPACITY)
        return FlightDump(
            reason=reason, detail=detail, cycle=now,
            window_start=window_start,
            lookback_kcycles=LOOKBACK_KCYCLES,
            audit_head=getattr(self.clock, "audit_head", ""),
            wall_cycles=self.clock.wall_cycles,
            per_cpu_cycles=list(self.clock.per_cpu),
            events_by_cpu=dict(sorted(events_by_cpu.items())),
            dropped_by_cpu=dropped_by_cpu,
            trace_id=self._trace or "",
            # where the budget stood when the box froze: the postmortem
            # can see which plane was eating the machine at the trigger
            ledger=capture_ledger(self.clock),
        )

    def __repr__(self) -> str:
        return (f"FlightRecorder({len(self.events)} events, "
                f"{len(self.lane_pushes)} lanes, {self.triggers} triggers, "
                f"{len(self.dumps)} dumps)")


@dataclass
class FlightDump:
    """One frozen black box: the recent past of every core at a trigger."""

    reason: str
    detail: str
    cycle: int                      # trigger timestamp (serial clock)
    window_start: int               # oldest cycle retained in the dump
    lookback_kcycles: int
    audit_head: str                 # audit-chain head at freeze time
    wall_cycles: int
    per_cpu_cycles: list[int]
    events_by_cpu: dict[int, list[TraceEvent]]
    dropped_by_cpu: dict[int, int] = field(default_factory=dict)
    timeline_buckets: int = TIMELINE_BUCKETS
    #: request trace ID bound when the trigger fired ("" = none bound)
    trace_id: str = ""
    #: plane-attribution budget snapshot at freeze time (repro.obs.ledger)
    ledger: dict = field(default_factory=dict)

    def event_count(self) -> int:
        return sum(len(v) for v in self.events_by_cpu.values())

    def to_dict(self) -> dict:
        per_cpu = {}
        for cpu, events in sorted(self.events_by_cpu.items()):
            key = "serial" if cpu == SERIAL else str(cpu)
            per_cpu[key] = {
                "events": [e.to_dict() for e in events],
                "dropped": self.dropped_by_cpu.get(cpu, 0),
            }
        return {
            "reason": self.reason,
            "detail": self.detail,
            "trace_id": self.trace_id,
            "cycle": self.cycle,
            "window": {
                "start": self.window_start,
                "end": self.cycle,
                "lookback_kcycles": self.lookback_kcycles,
            },
            "audit_head": self.audit_head,
            "wall_cycles": self.wall_cycles,
            "per_cpu_cycles": list(self.per_cpu_cycles),
            "per_cpu": per_cpu,
            "ledger": dict(self.ledger),
            "utilization": utilization_timeline(
                self.events_by_cpu, self.window_start, self.cycle,
                buckets=self.timeline_buckets),
            "traceEvents": self._chrome_events(),
        }

    def _chrome_events(self) -> list[dict]:
        """Chrome ``trace_event`` view: one thread lane per CPU."""
        from .export import cycles_to_us   # late: export imports hw.cycles

        events: list[dict] = [{
            "name": "process_name", "ph": "M", "pid": 1, "tid": 0,
            "args": {"name": f"erebor-flight:{self.reason}"},
        }]
        lanes = sorted(self.events_by_cpu)
        for cpu in lanes:
            tid = 0 if cpu == SERIAL else cpu + 1
            name = "serial" if cpu == SERIAL else f"cpu{cpu}"
            events.append({"name": "thread_name", "ph": "M", "pid": 1,
                           "tid": tid, "args": {"name": name}})
        for cpu in lanes:
            tid = 0 if cpu == SERIAL else cpu + 1
            for e in self.events_by_cpu[cpu]:
                args = dict(e.args)
                args["cycles_begin"] = e.begin
                if e.trace is not None:
                    args["trace"] = e.trace
                record = {
                    "name": e.name, "cat": e.cat or "trace",
                    "pid": 1, "tid": tid,
                    "ts": cycles_to_us(e.begin), "args": args,
                }
                if e.kind == SPAN:
                    record["ph"] = "X"
                    record["dur"] = cycles_to_us(e.duration)
                    args["cycles_dur"] = e.duration
                else:
                    record["ph"] = "i"
                    record["s"] = "t"
                events.append(record)
        return events

    def write(self, path: str | Path) -> dict:
        """Serialize the dump to ``path``; returns the dict written."""
        payload = self.to_dict()
        Path(path).write_text(json.dumps(payload, indent=2))
        return payload


def utilization_timeline(events_by_cpu: dict[int, list[TraceEvent]],
                         start: int, end: int, *,
                         buckets: int = TIMELINE_BUCKETS) -> dict:
    """Per-CPU busy fraction over ``buckets`` equal slices of [start, end].

    Busy time is the interval *union* of span events per core (nested
    spans never double-count), clipped to the window. Serial-section
    records (cpu ``SERIAL``) are excluded: barrier work belongs to no
    single core.
    """
    span = max(end - start, 1)
    buckets = max(buckets, 1)
    width = span / buckets
    timeline: dict[str, list[float]] = {}
    for cpu, events in sorted(events_by_cpu.items()):
        if cpu == SERIAL:
            continue
        intervals = sorted(
            (max(e.begin, start), min(e.end, end))
            for e in events if e.kind == SPAN and e.end > start)
        merged: list[list[int]] = []
        for lo, hi in intervals:
            if hi <= lo:
                continue
            if merged and lo <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], hi)
            else:
                merged.append([lo, hi])
        fractions = []
        for b in range(buckets):
            b_lo = start + b * width
            b_hi = start + (b + 1) * width
            covered = sum(max(0.0, min(hi, b_hi) - max(lo, b_lo))
                          for lo, hi in merged)
            fractions.append(round(covered / width, 6))
        timeline[str(cpu)] = fractions
    return {
        "start": start, "end": end, "buckets": buckets,
        "bucket_cycles": round(width, 6), "cpus": timeline,
    }
