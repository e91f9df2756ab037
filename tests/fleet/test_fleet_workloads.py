"""Every registered workload serves a fleet end to end.

The load generator asks each workload for its requests
(:meth:`~repro.apps.base.Workload.fleet_request`), so apps that parse
their input get a request they can parse, and every request carries the
client's secret: the pool's C8 scrub-verify scans for plaintext that
really entered the sandbox.
"""

import pytest

import repro.apps  # noqa: F401  (populates the workload registry)
from repro.apps.base import REGISTRY
from repro.fleet import run_fleet


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_every_workload_serves_a_fleet(name):
    report, system = run_fleet(workload=name, clients=2, requests=1,
                               scale=0.05)
    assert report.outcomes == {"completed": 2}
    assert report.requests_served == 2
    assert report.scrub_verifications == 2
    for session in system.fleet_scheduler.finished:
        assert all(session.secret in p for p in session.payloads)
