"""Pin: certificate issuance ticks its two registry series, exactly.

``erebor_certs_issued_total{tenant}`` counts one per certifiable session
and ``erebor_certs_bytes`` observes each certificate's serialized size —
the capacity-planning surface for certificate storage. Neither series
exists until issuance is armed, so plain runs export byte-identical
metric snapshots. Both runs arm a registry: a bare fleet records none.
"""

from repro.certs import serialize_certificate
from repro.fleet import run_fleet
from repro.obs import install

PARAMS = dict(workload="helloworld", clients=2, requests=1, pool_size=1,
              tenants=2, seed=7, scale=1.0,
              instrument=lambda machine: install(machine.clock, trace=False))


def test_issuance_ticks_both_series_with_exact_values():
    report, system = run_fleet(certificates=True, **PARAMS)
    registry = system.machine.clock.metrics
    assert registry.counter_total("erebor_certs_issued_total") == 2
    for tenant in ("tenant-0", "tenant-1"):
        assert registry.counter_value("erebor_certs_issued_total",
                                      tenant=tenant) == 1
    hist = registry.histograms["erebor_certs_bytes"][""]
    assert hist["count"] == 2
    # the observed sizes are exactly the on-disk serializations
    expected = sum(len(serialize_certificate(c))
                   for c in system.fleet_certificates.values())
    assert hist["sum"] == expected
    assert report.certs and len(report.certs) == 2


def test_series_stay_absent_when_issuance_is_off():
    _, system = run_fleet(**PARAMS)
    registry = system.machine.clock.metrics
    assert registry.counter_total("erebor_certs_issued_total") == 0
    assert "erebor_certs_bytes" not in registry.histograms
