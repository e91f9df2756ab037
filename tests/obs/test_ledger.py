"""Budget ledger: plane attribution with a bit-exact conservation law.

The contract under test (DESIGN §8):

* every simulated cycle a run charges lands in exactly one plane of
  exactly one lane, and the per-lane sums equal the clock's own busy
  ledgers **bit-exactly** — on seeded 1/2/4-core fleets with every obs
  plane armed (certificates, SLO, anomaly, flight recorder);
* capturing a ledger is read-only: pinned digests are byte-identical
  whether or not a ledger was ever captured;
* interpreted ISA execution lands wholly in the ``exec.interpret`` plane.
"""

import pytest

from repro.fleet.loadgen import run_fleet
from repro.hw.cycles import SERIAL_LANE, CycleClock
from repro.obs.ledger import (
    TAG_PLANES,
    capture_ledger,
    history_entry,
    host_planes,
    translation_summary,
    verify_conservation,
)
from repro.obs.schema import check_ledger, validate_ledger

#: pinned digests from tests/fleet/test_smp_scaling.py — the ledger
#: rides outside the preimage, so these must keep reproducing
SMP_PINNED = {
    1: "ac56b4d36619825613ca95d6b8798cf6a5b3514014efd23af3e42bd699661e84",
    2: "b5c4370350c831ad6ec9ac795b5410edbd48cf02f7346793dc197d922da0ae65",
    4: "b214646e8d839a90c3009b6b798166eb32510827d660194249e7d48a6e5e54ff",
}

SMP_PARAMS = dict(workload="helloworld", clients=4, requests=2,
                  pool_size=2, tenants=2, seed=2025, scale=1.0)


# --------------------------------------------------------------------------- #
# unit-level: the clock's lane-resolved tag ledgers
# --------------------------------------------------------------------------- #

def test_scoped_charges_land_in_the_cpu_lane():
    clock = CycleClock()
    clock.ensure_cpus(2)
    with clock.on_cpu(0):
        clock.charge(100, "instr")
    with clock.on_cpu(1):
        clock.charge(50, "mem")
    assert clock.cpu_tags(0) == {"instr": 100}
    assert clock.cpu_tags(1) == {"mem": 50}
    assert clock.cpu_tags(SERIAL_LANE) == {}


def test_serial_and_untagged_charges_land_in_the_serial_lane():
    clock = CycleClock()
    clock.ensure_cpus(2)
    clock.charge(70, "sched")      # serial barrier: no cpu scope
    clock.charge(30)               # untagged
    assert clock.cpu_tags(SERIAL_LANE) == {"sched": 70, "untagged": 30}
    # by_tag keeps its historical contents: no synthetic "untagged" key
    assert "untagged" not in clock.by_tag


def test_single_cpu_unscoped_charges_are_serial_lane():
    # single-core unscoped charges advance per_cpu[0] but not busy —
    # the tags ledger must agree with the busy ledger, not the lane pos
    clock = CycleClock()
    clock.charge(40, "compute")
    assert clock.cpu_busy(0) == 0
    assert clock.cpu_tags(0) == {}
    assert clock.cpu_tags(SERIAL_LANE) == {"compute": 40}


def test_lane_sums_equal_busy_ledgers_bit_exactly():
    clock = CycleClock()
    clock.ensure_cpus(3)
    with clock.on_cpu(0):
        clock.charge(11, "instr")
        clock.charge(7, "mem")
    with clock.on_cpu(2):
        clock.charge(5, "emc")
    clock.charge(13, "sched")
    for cpu in range(3):
        assert sum(clock.cpu_tags(cpu).values()) == clock.cpu_busy(cpu)
    assert (sum(clock.cpu_tags(SERIAL_LANE).values())
            == clock.cycles - sum(map(clock.cpu_busy, range(3))))


def test_cpu_tags_returns_a_copy():
    clock = CycleClock()
    with clock.on_cpu(0):
        clock.charge(10, "instr")
    snapshot = clock.cpu_tags(0)
    snapshot["instr"] = 999999
    assert clock.cpu_tags(0) == {"instr": 10}


# --------------------------------------------------------------------------- #
# capture: structure, taxonomy, and the conservation verdict
# --------------------------------------------------------------------------- #

def test_capture_maps_tags_to_planes_and_conserves():
    clock = CycleClock()
    clock.ensure_cpus(2)
    with clock.on_cpu(0):
        clock.charge(100, "instr")
        clock.charge(20, "pagefault")
    with clock.on_cpu(1):
        clock.charge(30, "mem")
    clock.charge(9, "scrub")
    ledger = capture_ledger(clock)
    check_ledger(ledger)
    assert ledger["conservation"]["ok"]
    assert ledger["lanes"]["cpu0"]["planes"] == {
        "exec.interpret": 100, "fault": 20}
    assert ledger["lanes"]["cpu1"]["planes"] == {"mmu": 30}
    assert ledger["lanes"]["serial"]["planes"] == {"scrub": 9}
    assert ledger["planes"] == {"exec.interpret": 100, "fault": 20,
                                "mmu": 30, "scrub": 9}


def test_unknown_tags_degrade_to_other_not_silently():
    clock = CycleClock()
    with clock.on_cpu(0):
        clock.charge(42, "some-future-tag")
    ledger = capture_ledger(clock)
    assert ledger["lanes"]["cpu0"]["planes"] == {"other": 42}
    assert ledger["conservation"]["ok"]


def test_every_charge_site_tag_is_in_the_taxonomy():
    """Grep the tree for charge tags; each must map to a named plane."""
    import re
    from pathlib import Path
    src = Path(__file__).resolve().parents[2] / "src" / "repro"
    pattern = re.compile(
        r"\.(?:charge|count)\(\s*[^,)]+,\s*\n?\s*\"([a-z_-]+)\"")
    tags = set()
    for path in src.rglob("*.py"):
        if "obs" in path.parts:
            continue
        tags |= set(pattern.findall(path.read_text()))
    # count() tags are event names, not cycle tags; keep charge-born ones
    unmapped = {t for t in tags if t not in TAG_PLANES}
    # events counted but never charged are fine; cycle tags must map.
    # Re-grep strictly for charge( calls:
    charge_only = re.compile(
        r"\.charge\((?:[^()]|\([^()]*\))*?,\s*\n?\s*\"([a-z_-]+)\"")
    charged = set()
    for path in src.rglob("*.py"):
        if "obs" in path.parts:
            continue
        charged |= set(charge_only.findall(path.read_text()))
    missing = {t for t in charged if t not in TAG_PLANES}
    assert not missing, f"charge tags without a plane: {sorted(missing)}"


def test_verify_conservation_flags_corruption():
    clock = CycleClock()
    with clock.on_cpu(0):
        clock.charge(100, "instr")
    ledger = capture_ledger(clock)
    ledger["lanes"]["cpu0"]["tags"]["instr"] = 99      # corrupt
    verdict = verify_conservation(ledger)
    assert not verdict["ok"]
    assert any("busy ledger" in v for v in verdict["violations"])
    with pytest.raises(ValueError):
        check_ledger(ledger)


@pytest.mark.parametrize("bad_name", ["cpuX", "cpu-1"])
def test_malformed_lane_names_are_schema_errors(bad_name):
    # neither name is one capture_ledger writes: both must come back as
    # violations, not as an exception or a check against busy[-1]
    clock = CycleClock()
    with clock.on_cpu(0):
        clock.charge(100, "instr")
    ledger = capture_ledger(clock)
    ledger["lanes"][bad_name] = ledger["lanes"].pop("cpu0")
    ledger.pop("conservation")
    verdict = verify_conservation(ledger)
    assert not verdict["ok"]
    assert any(repr(bad_name) in v for v in verdict["violations"])
    ledger["conservation"] = {"ok": True, "violations": []}
    errors = validate_ledger(ledger)
    assert any(repr(bad_name) in e for e in errors), errors


def test_isa_run_lands_wholly_in_exec_interpret():
    from repro.hw.testbench import KERNEL_CODE_VA, MicroMachine
    from repro.hw.isa import I
    m = MicroMachine()
    body = [I("movi", "rax", imm=0)] + [I("addi", "rax", imm=1)] * 30 \
        + [I("hlt")]
    m.load_code(KERNEL_CODE_VA, body)
    m.cpu.rip = KERNEL_CODE_VA
    steps = m.cpu.run(deliver_faults=False)
    ledger = capture_ledger(m.clock, m)
    check_ledger(ledger)
    lane = ledger["lanes"]["cpu0"]
    assert lane["tags"] == {"instr": lane["busy"]}
    assert lane["planes"] == {"exec.interpret": lane["busy"]}
    assert steps == 32 and lane["busy"] > 0
    assert ledger["conservation"]["ok"]


# --------------------------------------------------------------------------- #
# fleet-level: seeded 1/2/4-core runs, all obs planes armed
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("n_cpus", [1, 2, 4])
def test_fleet_ledger_conserves_with_all_obs_planes_armed(n_cpus):
    from repro.fleet.scheduler import AnomalyConfig, SloConfig
    from repro.obs import install
    report, system = run_fleet(
        n_cpus=n_cpus, certificates=True, slo=SloConfig(),
        anomaly=AnomalyConfig(),
        instrument=lambda machine: install(machine.clock, flight=True),
        **SMP_PARAMS)
    ledger = report.ledger
    check_ledger(ledger)
    assert ledger["conservation"]["ok"], ledger["conservation"]
    clock = system.machine.clock
    # plane sums == the clock's own ledgers, bit-exact
    for cpu in range(len(clock.per_cpu)):
        lane = ledger["lanes"].get(f"cpu{cpu}", {"planes": {}})
        assert sum(lane["planes"].values()) == clock.cpu_busy(cpu)
    total = sum(sum(lane["tags"].values())
                for lane in ledger["lanes"].values())
    assert total == clock.cycles
    assert ledger["wall_cycles"] == clock.wall_cycles
    # obs armed everywhere, yet the obs plane spent nothing (rule D2)
    assert ledger["planes"].get("obs", 0) == 0
    assert ledger["obs_cycles"] == 0


@pytest.mark.parametrize("n_cpus", sorted(SMP_PINNED))
def test_pinned_digests_survive_ledger_capture(n_cpus):
    report, _ = run_fleet(n_cpus=n_cpus, **SMP_PARAMS)
    assert report.ledger and report.ledger["conservation"]["ok"]
    assert report.digest() == SMP_PINNED[n_cpus]
    # ledger and translation ride in to_dict() but not the preimage
    assert "ledger" not in report._base_dict()
    assert "translation" not in report._base_dict()
    assert "ledger" in report.to_dict()


def test_translation_summary_surfaces_in_fleet_report():
    report, system = run_fleet(n_cpus=2, **SMP_PARAMS)
    summary = report.translation
    cpu0 = system.machine.cpu
    assert summary["tlb_hits"] == cpu0.mmu.tlb_hits
    assert summary["tlb_misses"] == cpu0.mmu.tlb_misses
    walks = summary["tlb_hits"] + summary["tlb_misses"]
    if walks:
        assert summary["tlb_hit_rate"] == pytest.approx(
            summary["tlb_hits"] / walks, abs=1e-6)
    assert report.to_dict()["translation"] == summary


def test_flight_dump_embeds_a_ledger_snapshot():
    from repro.obs.flight import FlightRecorder
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.schema import check_flight_dump
    clock = CycleClock()
    clock.ensure_cpus(2)
    recorder = FlightRecorder(clock)
    clock.tracer = recorder
    clock.metrics = MetricsRegistry()
    with clock.on_cpu(0):
        with recorder.span("work", cat="test"):
            clock.charge(500, "instr")
    recorder.trigger("test", "ledger snapshot")
    dump = recorder.dumps[0].to_dict()
    check_flight_dump(dump)
    assert dump["ledger"]["conservation"]["ok"]
    assert dump["ledger"]["lanes"]["cpu0"]["planes"] == {
        "exec.interpret": 500}


# --------------------------------------------------------------------------- #
# host-plane folding + history entries
# --------------------------------------------------------------------------- #

def test_host_planes_folds_subsystem_labels():
    report = {
        "window_s": 2.0, "attributed_s": 1.5,
        "subsystems": [
            {"name": "cpu:fetch-decode", "self_s": 0.8},
            {"name": "mmu:walk", "self_s": 0.4},
            {"name": "mmu:leaf-path", "self_s": 0.1},
            {"name": "something:new", "self_s": 0.2},
        ],
    }
    folded = host_planes(report)
    assert folded["planes"]["exec.interpret"] == pytest.approx(0.8)
    assert folded["planes"]["mmu"] == pytest.approx(0.5)
    assert folded["planes"]["other"] == pytest.approx(0.2)


def test_history_entry_shape():
    clock = CycleClock()
    with clock.on_cpu(0):
        clock.charge(100, "instr")
    ledger = capture_ledger(clock)
    entry = history_entry("unit", ledger, digest="d" * 64,
                          host_seconds={"total": 1.23456789})
    assert entry["bench"] == "unit"
    assert entry["cycles"] == 100
    assert entry["planes"] == {"exec.interpret": 100}
    assert entry["host_seconds"] == {"total": 1.234568}


def test_translation_summary_handles_machines_without_counters():
    assert translation_summary(object())["tlb_hits"] == 0
