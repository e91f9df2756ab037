"""The committed ``BENCH_*.json`` artifacts match the current tree.

Four artifacts record report digests of one shared fleet configuration
(8 llama clients × 2 requests, seed 7, scale 0.1, 1 GiB machine, 512 MiB
CMA): the obs-overhead bench, the sim-speed bench, the certificate bench
and the SMP scaling sweep. Each digest pins the simulated run, so a
change that moves the cycle model and does not regenerate the artifacts
fails here, at every core count the SMP sweep records. The sim-speed
artifact's SMP pins must also equal the goldens the fleet tests pin.
"""

import json
from pathlib import Path

import pytest

from repro.fleet import run_fleet
from repro.vm import MIB
from tests.fleet.test_smp_scaling import PINNED_DIGESTS

ROOT = Path(__file__).resolve().parents[1]

#: the fleet every digest below was recorded from
CONFIG = dict(workload="llama.cpp", clients=8, requests=2, pool_size=8,
              tenants=8, seed=7, scale=0.1, memory_bytes=1024 * MIB,
              cma_bytes=512 * MIB)


def _artifact(name: str) -> dict:
    return json.loads((ROOT / name).read_text())


SMP = _artifact("BENCH_fleet_smp.json")
SIM_SPEED = _artifact("BENCH_sim_speed.json")


@pytest.fixture(scope="module")
def digests():
    """Report digest of the shared config at each recorded core count."""
    return {row["n_cpus"]: run_fleet(n_cpus=row["n_cpus"], **CONFIG)[0]
            .digest() for row in SMP["scaling"]}


def test_artifacts_record_the_shared_config():
    fleet_params = dict(SIM_SPEED["fleet"]["params"])
    assert fleet_params.pop("n_cpus") == 4
    assert fleet_params == CONFIG
    for payload in (SMP, _artifact("BENCH_obs_overhead.json"),
                    _artifact("BENCH_certs.json")):
        assert (payload["workload"], payload["clients"], payload["seed"]) \
            == (CONFIG["workload"], CONFIG["clients"], CONFIG["seed"])


def test_smp_rows_are_current(digests):
    for row in SMP["scaling"]:
        assert row["digest"] == digests[row["n_cpus"]], row["n_cpus"]


def test_obs_overhead_digests_are_current(digests):
    payload = _artifact("BENCH_obs_overhead.json")
    current = digests[payload["n_cpus"]]
    assert payload["obs_off"]["digest"] == current
    assert payload["obs_on"]["digest"] == current


def test_sim_speed_fleet_digest_is_current(digests):
    fleet = SIM_SPEED["fleet"]
    assert fleet["digest"] == digests[fleet["params"]["n_cpus"]]


def test_certs_digests_are_current(digests):
    payload = _artifact("BENCH_certs.json")
    current = digests[payload["n_cpus"]]
    assert payload["digest_off"] == current
    assert payload["digest_on"] == current


def test_sim_speed_smp_pins_match_the_fleet_goldens():
    assert {int(n): row["pinned"] for n, row in SIM_SPEED["smp"].items()} \
        == PINNED_DIGESTS
