"""Flight recorder: per-lane dumps cut from the ring, timelines.

The recorder is a drop-in :class:`~repro.obs.trace.Tracer` subclass —
every exporter and the profiler must keep working on it unchanged — that
counts each CPU lane's pushes and, on every trigger, freezes a black-box
:class:`~repro.obs.flight.FlightDump` cut from its own ring.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.hw.cycles import CycleClock
from repro.obs import flight
from repro.obs.export import chrome_trace, prometheus_text, trace_json
from repro.obs.flight import SERIAL, FlightRecorder, utilization_timeline
from repro.obs.metrics import MetricsRegistry
from repro.obs.schema import check_flight_dump
from repro.obs.trace import NULL_TRACER, SPAN, TraceEvent, Tracer


def _recorder(n_cpus: int = 2,
              capacity: int = 1 << 17) -> tuple[CycleClock, FlightRecorder]:
    clock = CycleClock()
    clock.ensure_cpus(n_cpus)
    recorder = FlightRecorder(clock, capacity=capacity)
    clock.tracer = recorder
    clock.metrics = MetricsRegistry()
    return clock, recorder


def _work(clock, cpu: int, name: str, cycles: int) -> None:
    with clock.on_cpu(cpu):
        with clock.tracer.span(name, cat="test"):
            clock.charge(cycles, "work")


def _names(events) -> list[str]:
    return [e.name for e in events]


# --------------------------------------------------------------------------- #
# recording: one ring, dumps split it by executing CPU
# --------------------------------------------------------------------------- #

def test_events_land_in_the_executing_cpus_ring():
    clock, recorder = _recorder()
    _work(clock, 0, "a", 100)
    _work(clock, 1, "b", 200)
    clock.tracer.event("serial-note", cat="test")   # no CPU scope
    recorder.trigger("manual", "")
    lanes = recorder.dumps[0].events_by_cpu
    assert list(lanes) == [SERIAL, 0, 1]
    assert _names(lanes[0]) == ["a"]
    assert _names(lanes[1]) == ["b"]
    # the trigger's own instant event lands in the serial lane too
    assert _names(lanes[SERIAL]) == ["serial-note", "flight:manual"]
    # the tracer ring is the only store, in commit order
    assert _names(recorder.events) == ["a", "b", "serial-note",
                                       "flight:manual"]


def test_rings_are_bounded_and_count_drops(monkeypatch):
    monkeypatch.setattr(flight, "LANE_CAPACITY", 4)
    clock, recorder = _recorder()
    for i in range(10):
        _work(clock, 0, f"s{i}", 10)
    recorder.trigger("manual", "")
    dump = recorder.dumps[0]
    assert _names(dump.events_by_cpu[0]) == ["s6", "s7", "s8", "s9"]
    assert dump.dropped_by_cpu[0] == 6
    assert dump.dropped_by_cpu[SERIAL] == 0
    assert dump.to_dict()["per_cpu"]["0"]["dropped"] == 6
    # the cap bounds the dump, not the tracer ring
    assert len(recorder.events) == 11


def _lane(event) -> int:
    return SERIAL if event.cpu is None else event.cpu


def _expected_lanes(pushed, capacity, cap, window_start):
    """Per lane: the last ``cap`` of its records still in a ring of
    ``capacity``, kept if they end in the window; drops from all pushes."""
    ring = pushed[-capacity:]
    lanes, dropped = {}, {}
    for lane in sorted({_lane(e) for e in pushed}):
        recent = [e for e in ring if _lane(e) == lane][-cap:]
        lanes[lane] = [e for e in recent if e.end >= window_start]
        dropped[lane] = max(0, sum(_lane(e) == lane for e in pushed) - cap)
    return lanes, dropped


@settings(max_examples=80, deadline=None)
@given(records=st.lists(st.tuples(st.one_of(st.none(), st.integers(0, 3)),
                                  st.integers(0, 400),     # cycles charged
                                  st.integers(0, 1500)),   # end lag
                        max_size=150),
       n_lanes=st.integers(1, 4),
       capacity=st.sampled_from([2, 5, 16, 1 << 17]),
       cap=st.integers(1, 6),
       triggers=st.sets(st.integers(0, 149), max_size=3))
def test_dump_lanes_are_the_last_cap_ring_records_in_the_window(
        records, n_lanes, capacity, cap, triggers):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flight, "LANE_CAPACITY", cap)
        mp.setattr(flight, "LOOKBACK_KCYCLES", 1)     # a 1000-cycle window
        clock, recorder = _recorder(n_lanes, capacity=capacity)
        pushed: list[TraceEvent] = []

        def trigger_and_check(detail: str) -> None:
            recorder.trigger("gen", detail)
            pushed.append(recorder.events[-1])        # the trigger's event
            dump = recorder.dumps[-1]
            lanes, dropped = _expected_lanes(pushed, capacity, cap,
                                             dump.window_start)
            assert dump.events_by_cpu == lanes
            assert list(dump.events_by_cpu) == list(lanes)
            assert dump.dropped_by_cpu == dropped

        for i, (lane, cycles, lag) in enumerate(records):
            if i in triggers:
                trigger_and_check(str(i))
            clock.charge(cycles, "work")
            # ends lag the clock by up to 1.5 windows, out of push order
            end = max(0, clock.cycles - lag)
            event = TraceEvent(f"r{i}", "gen", SPAN, max(0, end - cycles),
                               end, cpu=None if lane is None
                               else lane % n_lanes)
            recorder._emit(event)
            pushed.append(event)
        trigger_and_check("end")
    assert recorder.events.pushed == len(pushed)


def test_recorder_reads_but_never_charges_the_clock():
    clock, recorder = _recorder()
    _work(clock, 0, "a", 500)
    before = (clock.cycles, clock.wall_cycles, list(clock.per_cpu))
    recorder.trigger("manual", "probe")
    recorder.dumps[0].to_dict()
    assert (clock.cycles, clock.wall_cycles, list(clock.per_cpu)) == before


# --------------------------------------------------------------------------- #
# triggers freeze dumps
# --------------------------------------------------------------------------- #

def test_trigger_freezes_a_dump_with_the_recent_window(monkeypatch):
    monkeypatch.setattr(flight, "LOOKBACK_KCYCLES", 1)  # 1000-cycle window
    clock, recorder = _recorder()
    _work(clock, 0, "ancient", 100)
    with clock.on_cpu(0):
        clock.charge(5000, "gap")                       # ages "ancient" out
    _work(clock, 0, "recent", 100)
    recorder.trigger("test_violation", "something broke")
    (dump,) = recorder.dumps
    assert dump.reason == "test_violation"
    names = [e.name for e in dump.events_by_cpu[0]]
    assert "recent" in names and "ancient" not in names
    assert dump.window_start == dump.cycle - 1000


def test_trigger_event_itself_reaches_the_trace():
    clock, recorder = _recorder()
    recorder.trigger("scrub_leak", "frame 0x40")
    assert any(e.name == "flight:scrub_leak" for e in recorder.events)
    assert recorder.triggers == 1


def test_max_dumps_caps_storage_but_triggers_keep_counting(monkeypatch):
    monkeypatch.setattr(flight, "MAX_DUMPS", 2)
    clock, recorder = _recorder()
    for i in range(5):
        recorder.trigger("again", str(i))
    assert recorder.triggers == 5
    assert len(recorder.dumps) == 2
    assert [d.detail for d in recorder.dumps] == ["0", "1"]


def test_null_tracer_trigger_is_a_safe_noop():
    assert NULL_TRACER.trigger("anything", "at all") is None


def test_plain_tracer_trigger_records_without_dumping():
    clock = CycleClock()
    tracer = Tracer(clock)
    clock.tracer = tracer
    tracer.trigger("policy_deny", "cr4 write")
    assert any(e.name == "flight:policy_deny" for e in tracer.events)
    assert not hasattr(tracer, "dumps")


# --------------------------------------------------------------------------- #
# the dump payload
# --------------------------------------------------------------------------- #

def test_dump_schema_and_contents(tmp_path):
    clock, recorder = _recorder()
    _work(clock, 0, "span-a", 300)
    _work(clock, 1, "span-b", 700)
    clock.audit_head = "ab" * 32
    recorder.trigger("sandbox_kill", "sandbox #3: EMC quota")
    dump = recorder.dumps[0]
    payload = dump.write(tmp_path / "flight.json")
    check_flight_dump(payload)
    reread = json.loads((tmp_path / "flight.json").read_text())
    assert reread == payload
    assert payload["audit_head"] == "ab" * 32
    assert payload["window"]["end"] == payload["cycle"]
    assert payload["per_cpu"]["0"]["dropped"] == 0
    names = [e["name"] for e in payload["per_cpu"]["1"]["events"]]
    assert "span-b" in names
    assert dump.event_count() == 3          # two spans + the trigger event


def test_dump_chrome_view_has_one_lane_per_cpu():
    clock, recorder = _recorder()
    _work(clock, 0, "a", 100)
    _work(clock, 1, "b", 100)
    recorder.trigger("manual", "")
    trace = recorder.dumps[0].to_dict()["traceEvents"]
    lanes = {e["args"]["name"]: e["tid"] for e in trace
             if e["name"] == "thread_name"}
    assert lanes == {"cpu0": 1, "cpu1": 2, "serial": 0}
    spans = {e["name"]: e["tid"] for e in trace if e.get("ph") == "X"}
    assert spans["a"] == 1 and spans["b"] == 2


# --------------------------------------------------------------------------- #
# utilization timeline
# --------------------------------------------------------------------------- #

def test_utilization_timeline_busy_fractions():
    busy = TraceEvent("w", "t", "span", begin=0, end=500, depth=0,
                      path=("w",), cpu=0)
    idle_then_busy = TraceEvent("w", "t", "span", begin=500, end=1000,
                                depth=0, path=("w",), cpu=1)
    serial = TraceEvent("s", "t", "span", begin=0, end=1000, depth=0,
                        path=("s",), cpu=None)
    timeline = utilization_timeline({0: [busy], 1: [idle_then_busy],
                                     SERIAL: [serial]},
                                    0, 1000, buckets=2)
    assert timeline["cpus"]["0"] == [1.0, 0.0]
    assert timeline["cpus"]["1"] == [0.0, 1.0]
    assert str(SERIAL) not in timeline["cpus"]   # barrier work: no lane
    assert timeline["bucket_cycles"] == 500.0


def test_utilization_merges_nested_spans_without_double_count():
    outer = TraceEvent("o", "t", "span", begin=0, end=100, depth=0,
                       path=("o",), cpu=0)
    inner = TraceEvent("i", "t", "span", begin=20, end=80, depth=1,
                       path=("o", "i"), cpu=0)
    timeline = utilization_timeline({0: [outer, inner]}, 0, 100, buckets=1)
    assert timeline["cpus"]["0"] == [1.0]        # union, not 1.6


# --------------------------------------------------------------------------- #
# drop-in Tracer compatibility: every exporter works unchanged
# --------------------------------------------------------------------------- #

def test_exporters_work_on_a_flight_recorder():
    clock, recorder = _recorder()
    _work(clock, 0, "gate", 100)
    recorder.finish()
    trace = chrome_trace(recorder)
    assert any(e.get("ph") == "X" and e["name"] == "gate"
               for e in trace["traceEvents"])
    data = trace_json(recorder)
    assert data["events"] and data["dropped"] == 0
    text = prometheus_text(clock.metrics, recorder)
    assert "erebor_obs_trace_dropped_events_total 0" in text


def test_chrome_trace_places_cpu_events_on_their_own_lane():
    clock, recorder = _recorder()
    _work(clock, 1, "on-cpu-1", 50)
    clock.tracer.event("serial", cat="test")
    trace = chrome_trace(recorder)
    by_name = {e["name"]: e for e in trace["traceEvents"]}
    assert by_name["on-cpu-1"]["tid"] == 1 + 1 + 1   # base tid 1 + cpu 1 + 1
    assert by_name["serial"]["tid"] == 1             # base lane
    assert by_name["thread_name"]["args"]["name"] == "cpu1"
