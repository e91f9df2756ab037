"""Per-layer host tracing for the benchmark's traced run.

The traced run wraps the public entry points of each ``src/repro`` layer
(:data:`TARGETS`) from outside the program: every call becomes a span
with a layer, a start, an end, a parent span and a request id. Spans stay
in compact in-memory arrays until the run ends; :meth:`SpanRecorder.layers`
then folds them into per-layer call counts and self times (span duration
minus the time covered by its child spans).

The simulated half of the table comes from the run's cycle ledger. It is
read by charge *tag* (:data:`SIM_TAG_PLANES`), not by the ledger's plane
names, so a re-mapping of tags onto planes inside ``repro.obs.ledger``
does not move any benchmark number.
"""

from __future__ import annotations

import importlib
import sys
from array import array
from time import perf_counter

import numpy as np

#: (layer, module, attribute path) of every wrapped entry point. A layer
#: may own several entry points; re-entering the same layer (``charge_emc``
#: calling ``charge_emc_batch``) counts as one call.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("hw.mmu_check", "repro.hw.mmu", "Mmu.check"),
    ("hw.clock_charge", "repro.hw.cycles", "CycleClock.charge"),
    ("kernel.page_fault", "repro.kernel.kernel",
     "GuestKernel.handle_page_fault"),
    ("kernel.syscall", "repro.kernel.kernel", "GuestKernel.syscall"),
    ("core.emc", "repro.core.monitor", "EreborMonitor.charge_emc"),
    ("core.emc", "repro.core.monitor", "EreborMonitor.charge_emc_batch"),
    ("core.boot", "repro.core.boot", "erebor_boot"),
    ("client.connect", "repro.client.client", "RemoteClient.connect"),
    ("client.request", "repro.client.client", "RemoteClient.request"),
    ("client.fetch", "repro.client.client", "RemoteClient.fetch_result"),
    ("crypto.dh", "repro.crypto.dh", "generate_keypair"),
    ("crypto.dh", "repro.crypto.dh", "shared_secret"),
    ("crypto.aead", "repro.crypto.aead", "SealedSession.seal"),
    ("crypto.aead", "repro.crypto.aead", "SealedSession.open"),
    ("tdx.quote", "repro.tdx.attestation", "AttestationAuthority.sign"),
    ("tdx.quote", "repro.tdx.attestation", "AttestationAuthority.verify"),
    ("fleet.template_capture", "repro.fleet.template",
     "SandboxTemplate.capture"),
    ("fleet.fork", "repro.fleet.template", "SandboxTemplate.fork"),
    ("fleet.pool_acquire", "repro.fleet.pool", "WarmPool.acquire"),
    ("fleet.pool_release", "repro.fleet.pool", "WarmPool.release"),
    ("fleet.admit", "repro.fleet.scheduler", "FleetScheduler.submit"),
    ("fleet.sched_step", "repro.fleet.scheduler", "FleetScheduler.step"),
    ("apps.serve", "repro.apps.llama", "LlamaWorkload.serve"),
    ("apps.serve", "repro.apps.helloworld", "HelloworldWorkload.serve"),
    ("obs.metrics_write", "repro.obs.metrics", "MetricsRegistry.inc"),
    ("obs.metrics_write", "repro.obs.metrics", "MetricsRegistry.set_gauge"),
    ("obs.metrics_write", "repro.obs.metrics", "MetricsRegistry.observe"),
    ("obs.metrics_write", "repro.obs.metrics", "CounterHandle.inc"),
    ("obs.metrics_write", "repro.obs.metrics", "HistogramHandle.observe"),
    ("obs.metrics_write", "repro.obs.metrics", "HistogramHandle.observe_n"),
    ("obs.metrics_write", "repro.obs.metrics", "HandleCache.get"),
    ("obs.metrics_write", "repro.obs.metrics", "sandbox_label"),
    ("obs.tracer_record", "repro.obs.trace", "Tracer.span"),
    ("obs.tracer_record", "repro.obs.trace", "Tracer.event"),
    ("obs.tracer_record", "repro.obs.trace", "Tracer.audit"),
    ("obs.tracer_record", "repro.obs.trace", "_Span.__enter__"),
    ("obs.tracer_record", "repro.obs.trace", "_Span.__exit__"),
    ("obs.ledger_capture", "repro.obs.ledger", "capture_ledger"),
    ("certs.index", "repro.obs.reqtrace", "RequestTraceIndex.from_tracer"),
    ("certs.issue", "repro.certs.issue", "CertificateIssuer.issue"),
    ("certs.serialize", "repro.certs", "serialize_certificate"),
    ("certs.verify", "repro.certs.verify", "CertificateVerifier.verify"),
    ("analysis.verify", "repro.analysis.verifier",
     "StaticVerifier.verify_image"),
    ("analysis.verify", "repro.analysis.absint",
     "DataflowVerifier.verify_image"),
)

#: every layer, in table order
LAYERS: tuple[str, ...] = tuple(dict.fromkeys(t[0] for t in TARGETS))

#: the entry points that open and close a request id (see SpanRecorder)
REQUEST_OPEN = "client.request"
REQUEST_CLOSE = "client.fetch"

#: simulated plane → the clock charge tags it prices (read from the
#: ledger's per-lane ``tags``; ``compute`` and ``instr`` are reported as
#: tags of their own so modelled compute is never read as interpreted ISA)
SIM_TAG_PLANES: dict[str, tuple[str, ...]] = {
    "fault": ("pagefault", "cow_copy"),
    "mmu": ("mem",),
    "emc": ("emc", "emc_validate"),
    "privop": ("mmu_op", "cr_op", "msr_op", "idt_op", "wrmsr", "cpuid",
               "module_load"),
    "transition": ("syscall", "syscall_work", "ve", "tdcall", "tdreport",
                   "vmcall", "exc_delivery", "irq", "int_gate",
                   "exit_interpose"),
    "sandbox": ("sandbox_state", "secure_pager", "uarch", "fork", "sst"),
    "sched": ("sched", "libos_spin"),
    "scrub": ("scrub",),
    "verify": ("verify", "verify-cfg"),
    "io": ("net", "channel_crypto", "channel_copy", "user_copy", "libos"),
}
SIM_TAGS = ("compute", "instr")

#: host layer → the simulated plane (or tag) it is joined with in the table
LAYER_SIM = {
    "hw.mmu_check": "mmu", "kernel.page_fault": "fault",
    "kernel.syscall": "transition", "core.emc": "emc",
    "crypto.aead": "io", "fleet.fork": "sandbox",
    "fleet.pool_release": "scrub", "fleet.sched_step": "sched",
    "apps.serve": "compute", "analysis.verify": "verify",
}


def resolve(module: str, path: str):
    """``(owner, attribute, raw)`` for one target; raises if it is gone.

    ``raw`` is the object as stored on its owner (a ``classmethod`` stays
    a ``classmethod``), so restoring it puts back exactly what was there.
    """
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    if isinstance(owner, type):
        if attr not in owner.__dict__:
            raise AttributeError(f"{module}:{path} is not defined on "
                                 f"{owner.__name__} itself")
        raw = owner.__dict__[attr]
    else:
        raw = getattr(owner, attr)
    func = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) \
        else raw
    if not callable(func):
        raise TypeError(f"{module}:{path} is not callable")
    return owner, attr, raw


class Patches:
    """Replaces attributes and puts every original back on :meth:`restore`.

    A module-level function is also replaced wherever another loaded
    ``repro`` module imported it by name, so call sites that bound the
    name at import time see the wrapper too.
    """

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, module: str, path: str, make) -> None:
        owner, attr, raw = resolve(module, path)
        if isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(make(raw.__func__))
        else:
            new = make(raw)
        sites = [(owner, attr)]
        if not isinstance(owner, type):
            sites += [(mod, key)
                      for name, mod in list(sys.modules.items())
                      if name.startswith("repro") and mod is not owner
                      for key, value in list(vars(mod).items())
                      if value is raw]
        for target, key in sites:
            self._saved.append((target, key, raw))
            setattr(target, key, new)

    def restore(self) -> None:
        while self._saved:
            target, key, raw = self._saved.pop()
            setattr(target, key, raw)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


class SpanRecorder:
    """In-memory span store: one row per call into a wrapped layer."""

    def __init__(self):
        self.layer = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self._stack: list[int] = []
        #: id of the request in flight (0 = none); shared by its spans
        self.current_request = 0
        self._next_request = 1

    def span_wrapper(self, layer_id: int, func):
        layer, start, end = self.layer, self.start, self.end
        parent, request, stack = self.parent, self.request, self._stack
        recorder = self

        def traced(*args, **kwargs):
            index = len(start)
            layer.append(layer_id)
            parent.append(stack[-1] if stack else -1)
            request.append(recorder.current_request)
            end.append(0.0)
            stack.append(index)
            start.append(perf_counter())
            try:
                return func(*args, **kwargs)
            finally:
                end[index] = perf_counter()
                stack.pop()

        traced.__wrapped__ = func
        return traced

    def opens_request(self, func):
        recorder = self

        def opening(*args, **kwargs):
            recorder.current_request = recorder._next_request
            recorder._next_request += 1
            return func(*args, **kwargs)

        return opening

    def closes_request(self, func):
        recorder = self

        def closing(*args, **kwargs):
            try:
                return func(*args, **kwargs)
            finally:
                recorder.current_request = 0

        return closing

    def install(self, patches: Patches) -> None:
        """Wrap every target; ``patches.restore()`` undoes all of it."""
        ids = {name: i for i, name in enumerate(LAYERS)}
        for layer, module, path in TARGETS:
            lid = ids[layer]

            def make(func, lid=lid, layer=layer):
                traced = self.span_wrapper(lid, func)
                if layer == REQUEST_OPEN:
                    return self.opens_request(traced)
                if layer == REQUEST_CLOSE:
                    return self.closes_request(traced)
                return traced

            patches.wrap(module, path, make)

    @property
    def spans(self) -> int:
        return len(self.start)

    @property
    def requests(self) -> int:
        return self._next_request - 1

    def layers(self) -> dict[str, dict]:
        """Layer → ``{"calls", "self_s"}`` folded from the recorded spans."""
        n = len(self.start)
        out = {name: {"calls": 0, "self_s": 0.0} for name in LAYERS}
        if not n:
            return out
        layer = np.frombuffer(self.layer, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = (np.frombuffer(self.end, dtype=np.float64)
                    - np.frombuffer(self.start, dtype=np.float64))
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=duration[nested],
                            minlength=n)
        self_time = np.bincount(layer, weights=duration - child,
                                minlength=len(LAYERS))
        reentry = np.zeros(n, dtype=bool)
        reentry[nested] = layer[parent[nested]] == layer[nested]
        calls = np.bincount(layer[~reentry], minlength=len(LAYERS))
        for i, name in enumerate(LAYERS):
            out[name] = {"calls": int(calls[i]),
                         "self_s": float(self_time[i])}
        return out


def sim_tags(ledger: dict) -> dict[str, int]:
    """Total cycles per charge tag, summed over every ledger lane."""
    tags: dict[str, int] = {}
    for lane in ledger.get("lanes", {}).values():
        for tag, cycles in lane.get("tags", {}).items():
            tags[tag] = tags.get(tag, 0) + cycles
    return tags


def sim_planes(tags: dict[str, int]) -> dict[str, int]:
    """Cycles per simulated plane (:data:`SIM_TAG_PLANES`) and per
    :data:`SIM_TAGS` tag; tags in neither land in ``"unmapped"``."""
    out = {plane: sum(tags.get(t, 0) for t in members)
           for plane, members in SIM_TAG_PLANES.items()}
    for tag in SIM_TAGS:
        out[tag] = tags.get(tag, 0)
    known = {t for members in SIM_TAG_PLANES.values() for t in members}
    known.update(SIM_TAGS)
    out["unmapped"] = sum(c for t, c in tags.items() if t not in known)
    return out


def render_table(workload: str, layers: dict[str, dict], run_s: float,
                 planes: dict[str, int]) -> str:
    """The joined per-layer table: host calls and self time next to the
    simulated megacycles of the plane each layer prices."""
    lines = [f"per-layer table: {workload} (traced run_s {run_s:.3f} s)",
             f"  {'layer':<24}{'calls':>10}{'self_s':>10}{'share':>8}"
             f"  {'sim plane':<12}{'sim Mcycles':>12}"]
    for name in LAYERS:
        row = layers[name]
        plane = LAYER_SIM.get(name, "")
        mcycles = f"{planes[plane] / 1e6:.3f}" if plane else ""
        share = row["self_s"] / run_s if run_s else 0.0
        lines.append(f"  {name:<24}{row['calls']:>10}{row['self_s']:>10.4f}"
                     f"{share:>8.1%}  {plane:<12}{mcycles:>12}")
    covered = sum(row["self_s"] for row in layers.values())
    lines.append(f"  {'covered':<24}{'':>10}{covered:>10.4f}"
                 f"{covered / run_s if run_s else 0.0:>8.1%}")
    return "\n".join(lines)
