"""One benchmark repetition, run in a fresh interpreter by ``run.py``.

Runs one fleet workload through the public :func:`repro.fleet.run_fleet`
API with the arguments ``python -m repro.fleet`` passes, checks its
outputs, and prints one JSON object on stdout. Every ``repro`` module the
run touches is imported before the clock starts, so interpreter start-up
and ``numpy``/``repro`` import time are never counted.

``--mode plain`` is the end-to-end run: its only wrappers are one-shot
timers around ``erebor_boot``, ``SandboxTemplate.capture`` and
``CertificateIssuer.issue_all``. ``--mode traced`` wraps every layer
entry point in :data:`layers.TARGETS` and reports per-layer host time.
Both modes time the :mod:`calib` mix before ``run_fleet``, when the
template capture returns, after ``run_fleet`` and, with certificates,
after the offline verification. Each of the three segments between them
is scaled by the mixes at its ends (``scaled``); the time the mixes take
is in no reported time. ``host_scale`` is the factor from all the mixes.

Usage (from the repository root; ``run.py`` is the real entry point)::

    python3 perfbench/rep.py --workload fleet-sessions --seed 7 --mode plain
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
from time import perf_counter

import calib

MIB = 1 << 20
DEFAULT_SEED = 7

_LLAMA = dict(workload="llama.cpp", clients=8, requests=2, pool_size=8,
              tenants=8, n_cpus=4, scale=0.1, memory_bytes=1024 * MIB,
              cma_bytes=512 * MIB)

#: benchmark workload → ``run_fleet`` keyword arguments. Every client is
#: submitted at t=0 and sends its next request only after the previous
#: reply (closed loop); sessions beyond the pool wait in admission.
#: The bare ``fleet-llama`` fleet (``_LLAMA`` itself) is not a workload:
#: three workloads left too little time per run to be steady on a shared
#: host, and every layer it drives also runs in ``fleet-llama-certified``.
WORKLOADS: dict[str, dict] = {
    "fleet-sessions": dict(_LLAMA, workload="helloworld", clients=128,
                           tenants=4),
    # two clients, not eight: at eight, issuing and verifying certificates
    # took ~10 s a repetition, too few repetitions fit a run to be steady
    "fleet-llama-certified": dict(_LLAMA, clients=2, pool_size=2, tenants=2,
                                  certificates=True),
}

#: smoke-test size: same shape, a few seconds per repetition
TINY = dict(clients=2, requests=1, pool_size=2, tenants=2, scale=0.05)

#: report digest and response digest of each workload at DEFAULT_SEED
PINS: dict[str, tuple[str, str]] = {
    "fleet-sessions": (
        "67322f9e1fd44a2f72144195615bd211214d35c3df3bded867780fadc1fa543d",
        "7e45ee4de8563d67dd0072fcc7e43db7b3974d82a4bf3d0d58680489e3656522"),
    "fleet-llama-certified": (
        "2be92ce363798f5578808998d809064e61f103d2678faea645018cf8ed156ee3",
        "295697ec36f239812d6d6efbbe436aeee856f6764879b27b36dedb6bcac86110"),
}


#: certificate sections whose serialised size is reported: the top-level
#: sections and each attachment kind
CERT_SECTIONS = ("body", "quote", "attachments", "attachments.audit_segment",
                 "attachments.scrub_record", "attachments.trace_tree")


def fleet_kwargs(workload: str, seed: int, tiny: bool) -> dict:
    kwargs = dict(WORKLOADS[workload], seed=seed)
    if tiny:
        kwargs.update(TINY)
    return kwargs


def _import_program() -> None:
    """Import every module the run reaches before any timer starts."""
    import repro.apps            # noqa: F401  (workload registry)
    import repro.certs.issue     # noqa: F401
    import repro.certs.verify    # noqa: F401
    import repro.fleet.loadgen   # noqa: F401
    import repro.obs.ledger      # noqa: F401
    import repro.obs.reqtrace    # noqa: F401
    import repro.obs.trace       # noqa: F401


class OneShotTimers:
    """Host seconds spent inside a few calls."""

    def __init__(self):
        self.spent: dict[str, float] = {}

    def timer(self, name: str):
        def make(func):
            def timed(*args, **kwargs):
                t0 = perf_counter()
                try:
                    return func(*args, **kwargs)
                finally:
                    self.spent[name] = (self.spent.get(name, 0.0)
                                        + perf_counter() - t0)
            return timed
        return make


class MidCalibration:
    """Times the :mod:`calib` mix once, when the template capture returns:
    between set-up and serving, inside ``run_fleet``. The time the mix
    takes is kept out of every reported time."""

    def __init__(self):
        self.mix: dict[str, float] | None = None
        self.start = self.end = 0.0

    def after(self, func):
        def wrapped(*args, **kwargs):
            result = func(*args, **kwargs)
            if self.mix is None:
                self.start = perf_counter()
                self.mix = calib.measure()
                self.end = perf_counter()
            return result
        return wrapped


class Checks:
    """Named correctness checks; a failed one is kept by name."""

    def __init__(self):
        self.attempted = 0
        self.failed: list[str] = []

    def check(self, ok: bool, name: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(name)


def _responses_digest(sessions) -> str:
    h = hashlib.sha256()
    for session in sorted(sessions, key=lambda s: s.name):
        h.update(session.name.encode())
        for response in session.responses:
            h.update(len(response).to_bytes(8, "big"))
            h.update(response)
    return h.hexdigest()


def _check_sessions(checks: Checks, report, sessions, kwargs) -> None:
    clients, requests = kwargs["clients"], kwargs["requests"]
    checks.check(report.outcomes == {"completed": clients},
                 f"outcomes {report.outcomes}")
    checks.check(report.requests_served == clients * requests,
                 f"served {report.requests_served}")
    for session in sessions:
        ok = (session.outcome == "completed"
              and len(session.responses) == requests
              and all(session.responses))
        if kwargs["workload"] == "helloworld":
            ok = ok and all(r == b"A" * 10 for r in session.responses)
        checks.check(ok, f"session {session.name}")
    conservation = report.ledger.get("conservation", {})
    checks.check(bool(conservation.get("ok")), "ledger conservation")


def _verify_certificates(checks: Checks, report, certs: dict,
                         out: dict) -> None:
    """Serialise, parse and verify every certificate offline."""
    from repro.certs import serialize_certificate
    from repro.certs.issue import published_refs
    from repro.certs.verify import CertificateVerifier

    verifier = CertificateVerifier(refs=published_refs())
    checks.check(len(certs) == report.clients,
                 f"certificates {len(certs)}")
    sizes = []
    t0 = perf_counter()
    for name, cert in sorted(certs.items()):
        text = serialize_certificate(cert)
        sizes.append(len(text))
        result = verifier.verify(json.loads(text),
                                 expect_trace=report.traces.get(name))
        checks.check(result.ok, f"certificate {name}: {result.code}")
        checks.check(cert["body_sha256"] == report.certs.get(name),
                     f"certificate {name}: body hash")
    out["cert_verify_s"] = perf_counter() - t0
    out["cert_bytes"] = sizes


def _section_bytes(certs: dict) -> dict[str, int]:
    """Serialised size of each :data:`CERT_SECTIONS` entry of one
    certificate; every certificate of a run has the same shape."""
    from repro.certs import serialize_certificate
    sample = certs[min(certs)]
    sizes = {}
    for section in CERT_SECTIONS:
        value = sample
        for key in section.split("."):
            value = value[key]
        sizes[section] = len(serialize_certificate(value))
    return sizes


def _sim(report) -> dict:
    """Deterministic simulated figures (identical on every repetition)."""
    from layers import sim_planes, sim_tags
    starts = [s["start_kind"] for s in report.sessions]
    return {
        "rps": report.throughput_rps,
        "total_cycles": report.total_cycles,
        "fleet_bytes": report.fleet_bytes,
        "planes": sim_planes(sim_tags(report.ledger)),
        "cow_breaks": report.cow_breaks,
        "scrub_verifications": report.scrub_verifications,
        "fork_cycles_p50": statistics.median(report.fork_start_cycles or [0]),
        "warm_cycles_p50": statistics.median(report.warm_start_cycles or [0]),
        "warm_reuse_ratio": starts.count("warm") / max(len(starts), 1),
        "admit_ratio": report.counts.get("admit", 0) / report.clients,
        "queued": report.counts.get("queue", 0),
        "tlb_hit_ratio": report.translation.get("tlb_hit_rate", 0.0),
    }


def run_once(workload: str, seed: int, mode: str, tiny: bool) -> dict:
    """One timed repetition; returns the JSON-able result."""
    _import_program()
    from repro.fleet.loadgen import run_fleet

    from layers import Patches, SpanRecorder

    kwargs = fleet_kwargs(workload, seed, tiny)
    timers = OneShotTimers()
    recorder = SpanRecorder() if mode == "traced" else None
    mid = MidCalibration()
    out: dict = {"workload": workload, "seed": seed, "mode": mode}
    mix_start = calib.measure()
    with Patches() as patches:
        if recorder is None:
            patches.wrap("repro.fleet.loadgen", "erebor_boot",
                         timers.timer("boot"))
            patches.wrap("repro.fleet.template", "SandboxTemplate.capture",
                         timers.timer("capture"))
            patches.wrap("repro.certs.issue", "CertificateIssuer.issue_all",
                         timers.timer("issue"))
        else:
            recorder.install(patches)
        # outermost, so neither the timers nor the spans hold the mix
        patches.wrap("repro.fleet.template", "SandboxTemplate.capture",
                     mid.after)
        t0 = perf_counter()
        report, system = run_fleet(**kwargs)
        t_fleet = perf_counter()
        mix_fleet = calib.measure()
        t_checks = perf_counter()
        checks = Checks()
        sessions = system.fleet_scheduler.finished
        certs = getattr(system, "fleet_certificates", None) or {}
        if kwargs.get("certificates"):
            _verify_certificates(checks, report, certs, out)
        t_end = perf_counter()
    mix_end = calib.measure() if certs else mix_fleet
    if mid.mix is None:
        raise RuntimeError("SandboxTemplate.capture was never called")
    _check_sessions(checks, report, sessions, kwargs)
    if certs and recorder is not None:
        out["cert_section_bytes"] = _section_bytes(certs)

    # three segments, each scaled by the mixes timed at its two ends
    setup_seg, fleet_seg, check_seg = (mid.start - t0, t_fleet - mid.end,
                                       t_end - t_checks)
    scale = (calib.host_scale(mix_start, mid.mix),
             calib.host_scale(mid.mix, mix_fleet),
             calib.host_scale(mix_fleet, mix_end))
    run_s = setup_seg + fleet_seg + check_seg
    out.update(
        run_s=run_s,
        digest=report.digest(),
        responses=_responses_digest(sessions),
        certs=len(certs),
        requests=report.requests_served,
        attempted=checks.attempted,
        failed=checks.failed,
        peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        sim=_sim(report),
        host_scale=calib.host_scale(mix_start, mid.mix, mix_fleet, mix_end),
        scaled={"run_s": setup_seg * scale[0] + fleet_seg * scale[1]
                + check_seg * scale[2]},
    )
    if recorder is None:
        issue_s = timers.spent.get("issue", 0.0)
        out.update(
            setup_s=timers.spent["boot"] + timers.spent["capture"],
            serve_s=t_fleet - mid.end - issue_s,
            cert_issue_s=issue_s)
        out["scaled"].update(
            setup_s=out["setup_s"] * scale[0],
            serve_s=out["serve_s"] * scale[1],
            cert_issue_s=issue_s * scale[1],
            cert_verify_s=out.get("cert_verify_s", 0.0) * scale[2])
    else:
        out.update(layers=recorder.layers(), spans=recorder.spans,
                   request_ids=recorder.requests)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--mode", choices=("plain", "traced"),
                        default="plain")
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test size (no pinned digests)")
    args = parser.parse_args(argv)
    result = run_once(args.workload, args.seed, args.mode, args.tiny)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
