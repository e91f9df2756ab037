"""Cycle-clock ledger tests: snapshots, rates, tag attribution."""

from collections import Counter
from contextlib import ExitStack

import pytest
from hypothesis import given, settings, strategies as st

from repro.hw.cycles import CPU_FREQ_HZ, Cost, CycleClock


def test_charge_and_tags():
    clock = CycleClock()
    clock.charge(100, "a")
    clock.charge(50, "b")
    clock.charge(25)
    assert clock.cycles == 175
    assert clock.by_tag["a"] == 100 and clock.by_tag["b"] == 50


def test_negative_charge_rejected():
    with pytest.raises(ValueError):
        CycleClock().charge(-1)


def test_seconds_conversion():
    clock = CycleClock()
    clock.charge(CPU_FREQ_HZ)
    assert clock.seconds == 1.0


def test_event_rates():
    clock = CycleClock()
    clock.charge(CPU_FREQ_HZ // 2)
    clock.count("emc", 500)
    assert clock.rate_per_second("emc") == 1000.0
    assert CycleClock().rate_per_second("emc") == 0.0


def test_snapshot_deltas():
    clock = CycleClock()
    clock.charge(100, "x")
    clock.count("e", 3)
    snap = clock.snapshot()
    clock.charge(40, "x")
    clock.charge(10, "y")
    clock.count("e", 2)
    delta = clock.since(snap)
    assert delta.cycles == 50
    assert delta.by_tag == {"x": 40, "y": 10}
    assert delta.events == {"e": 2}
    assert delta.rate_per_second("e") == 2 / (50 / CPU_FREQ_HZ)


def test_table3_constants_composition():
    assert (Cost.TDX_WORLD_SWITCH + Cost.TDX_WORLD_RESUME
            + Cost.TDCALL_DISPATCH) == Cost.TDCALL_ROUND_TRIP
    assert (Cost.VM_WORLD_SWITCH + Cost.VM_WORLD_RESUME
            + Cost.VMCALL_DISPATCH) == Cost.VMCALL_ROUND_TRIP
    assert (Cost.SYSCALL_ENTRY + Cost.SYSRET + Cost.KERNEL_FRAME_SAVE
            + Cost.KERNEL_FRAME_RESTORE) == Cost.SYSCALL_ROUND_TRIP


def test_table4_composites_derive_from_parts():
    assert Cost.EREBOR_MMU == (Cost.EMC_ROUND_TRIP + Cost.VALIDATE_MMU
                               + Cost.PTE_WRITE_NATIVE)
    assert Cost.EREBOR_GHCI == (Cost.EMC_ROUND_TRIP + Cost.VALIDATE_GHCI
                                + Cost.TDREPORT_NATIVE)


# --- snapshot interval semantics (nested attribution + obs sinks) ----------

def test_snapshot_deltas_attribute_nested_tags():
    """Interval deltas keep per-tag attribution exact across nested charges
    (the pattern the runner uses: outer window, inner tagged sub-work)."""
    clock = CycleClock()
    clock.charge(10, "emc")
    outer = clock.snapshot()
    clock.charge(Cost.EMC_ROUND_TRIP, "emc")
    inner = clock.snapshot()
    clock.charge(Cost.VALIDATE_MMU, "emc_validate")
    clock.charge(Cost.PTE_WRITE_NATIVE, "mmu_op")

    inner_delta = clock.since(inner)
    outer_delta = clock.since(outer)
    assert inner_delta.by_tag == {"emc_validate": Cost.VALIDATE_MMU,
                                  "mmu_op": Cost.PTE_WRITE_NATIVE}
    assert outer_delta.by_tag["emc"] == Cost.EMC_ROUND_TRIP   # 10 predates it
    assert outer_delta.cycles == inner_delta.cycles + Cost.EMC_ROUND_TRIP
    # intervals nest: the outer window contains the inner one exactly
    assert (outer_delta.by_tag["emc_validate"]
            == inner_delta.by_tag["emc_validate"])


def test_snapshot_unaffected_by_later_charges():
    clock = CycleClock()
    clock.charge(5, "a")
    snap = clock.snapshot()
    clock.charge(7, "a")
    assert snap.cycles == 5 and snap.by_tag["a"] == 5


def test_default_sinks_are_noop_and_free():
    """A fresh clock carries the disabled tracer/registry, and recording
    through them adds zero simulated cycles (observability is free)."""
    from repro.obs.metrics import NULL_METRICS
    from repro.obs.trace import NULL_TRACER
    clock = CycleClock()
    assert clock.tracer is NULL_TRACER and clock.metrics is NULL_METRICS
    with clock.tracer.span("gate"):
        clock.metrics.inc("x", cls="y")
        clock.tracer.event("e")
    assert clock.cycles == 0 and clock.events == {}


def test_gate_cost_pinned_with_disabled_tracer():
    """Satellite (c): with the default no-op recorder, the measured EMC
    round trip is the calibrated 1224 — no hidden cycles from obs."""
    from repro.core.emc import EmcCall
    from repro.core.microrig import GateRig
    rig = GateRig()
    assert not rig.clock.tracer.enabled
    assert rig.run_emc(int(EmcCall.NOP)) == Cost.EMC_ROUND_TRIP == 1224


# --- one ledger: derived totals against an independent tally ----------------

_TAGS = st.sampled_from([None, "instr", "mem", "emc", "sched", "untagged"])
_EVENTS = st.sampled_from(["emc", "syscall", "page_fault"])
_SCOPE = st.lists(st.integers(0, 3), max_size=2)   # nested on_cpu stack
_OPS = st.lists(st.one_of(
    st.tuples(st.just("charge"), _SCOPE, st.integers(0, 5000), _TAGS),
    st.tuples(st.just("count"), _SCOPE, _EVENTS, st.integers(0, 9)),
    st.tuples(st.just("fast_forward"), st.integers(0, 3)),
    st.tuples(st.just("ensure_cpus"), st.integers(1, 4)),
    st.tuples(st.just("snapshot"),),
), max_size=40)


class _Tally:
    """The clock's contract, kept by hand: positions plus flat counters."""

    def __init__(self, cores: int):
        self.cycles = 0
        self.per_cpu = [0] * cores
        self.by_tag = Counter()
        self.events = Counter()
        self.busy = Counter()
        self.cpu_events = {}

    def grow(self, n: int) -> None:
        wall = max(self.per_cpu)
        self.per_cpu += [wall] * (n - len(self.per_cpu))

    def charge(self, scope, n, tag) -> None:
        for cpu in scope:
            self.grow(cpu + 1)
        self.cycles += n
        if tag is not None and tag != "untagged":
            self.by_tag[tag] += n
        if scope:
            self.per_cpu[scope[-1]] += n
            self.busy[scope[-1]] += n
        else:
            wall = max(self.per_cpu) + n
            self.per_cpu = [wall] * len(self.per_cpu)

    def count(self, scope, event, n) -> None:
        for cpu in scope:
            self.grow(cpu + 1)
        self.events[event] += n
        if scope:
            self.cpu_events.setdefault(scope[-1], Counter())[event] += n

    def fast_forward(self, cpu: int) -> None:
        self.grow(cpu + 1)
        self.per_cpu[cpu] = max(self.per_cpu)


@settings(max_examples=200, deadline=None)
@given(cores=st.integers(1, 4), ops=_OPS)
def test_derived_totals_match_an_independent_tally(cores, ops):
    from repro.obs.ledger import capture_ledger
    clock = CycleClock()
    clock.ensure_cpus(cores)
    tally = _Tally(cores)
    snap = (clock.snapshot(), tally.cycles, Counter(tally.by_tag),
            Counter(tally.events), max(tally.per_cpu))
    for op, *args in ops:
        if op in ("charge", "count"):
            scope, *rest = args
            with ExitStack() as stack:
                for cpu in scope:
                    stack.enter_context(clock.on_cpu(cpu))
                getattr(clock, op)(*rest)
            getattr(tally, op)(scope, *rest)
        elif op == "fast_forward":
            clock.fast_forward(*args)
            tally.fast_forward(*args)
        elif op == "ensure_cpus":
            clock.ensure_cpus(*args)
            tally.grow(*args)
        else:
            snap = (clock.snapshot(), tally.cycles, Counter(tally.by_tag),
                    Counter(tally.events), max(tally.per_cpu))

    assert clock.cycles == tally.cycles
    assert clock.per_cpu == tally.per_cpu
    assert clock.by_tag == tally.by_tag
    assert clock.events == tally.events
    for cpu in range(len(clock.per_cpu)):
        assert clock.cpu_busy(cpu) == tally.busy[cpu]
        assert clock.cpu_events(cpu) == tally.cpu_events.get(cpu, Counter())

    now = clock.snapshot()
    assert (now.cycles, now.by_tag, now.events, now.wall_cycles) == (
        tally.cycles, tally.by_tag, tally.events, max(tally.per_cpu))
    taken, cycles0, tags0, events0, wall0 = snap
    delta = clock.since(taken)
    assert delta.cycles == tally.cycles - cycles0
    assert delta.by_tag == tally.by_tag - tags0
    assert delta.events == tally.events - events0
    assert delta.wall_cycles == max(tally.per_cpu) - wall0

    assert capture_ledger(clock)["conservation"]["ok"]
