"""Workload base class + registry (the evaluation's Table 5 programs)."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

from ..libos.libos import CommonSpec, Manifest, PreloadFile

MIB = 1024 * 1024


@dataclass
class WorkloadProfile:
    """System-interaction profile of one workload (scaled from Table 5).

    ``bg_mmu_ops_per_tick`` / ``bg_copy_ops_per_tick`` model the whole-CVM
    privileged-operation traffic the paper's Table 6 EMC/s column counts
    (proxy copies, page-cache churn, per-vCPU housekeeping) — executed
    through the kernel's PrivilegedOps so the native/Erebor cost gap is
    emergent, not painted.
    """

    heap_bytes: int = 16 * MIB
    threads: int = 1
    common: list[CommonSpec] = field(default_factory=list)
    preload: list[PreloadFile] = field(default_factory=list)
    bg_mmu_ops_per_tick: int = 4
    bg_copy_ops_per_tick: int = 2
    #: system-task demand faults per tick (proxy / page-cache churn)
    bg_faults_per_tick: float = 1.0
    #: extra host-emulated #VE per tick (virtio doorbells etc.)
    bg_ve_per_tick: float = 0.7
    #: modelled program start-up work (loading/parsing, cycles)
    init_compute_cycles: int = 400_000_000
    #: common-region pages reclaimed per tick (sustains runtime fault rates)
    reclaim_pages_per_tick: int = 2
    #: stride (bytes) the app streams common memory with; reclaim targets
    #: the same grid so evicted pages actually refault
    common_touch_stride: int = 64 * 1024


class Workload(ABC):
    """One request-response service application."""

    name: str = "workload"
    description: str = ""

    def __init__(self, seed: int = 0, scale: float = 1.0):
        self.seed = seed
        self.scale = scale

    @property
    @abstractmethod
    def profile(self) -> WorkloadProfile: ...

    def manifest(self) -> Manifest:
        p = self.profile
        return Manifest(name=self.name, heap_bytes=p.heap_bytes,
                        threads=p.threads, common=list(p.common),
                        preload=list(p.preload))

    @abstractmethod
    def serve(self, rt, request: bytes) -> bytes:
        """Process one client request on runtime ``rt``; returns the result."""

    def default_request(self) -> bytes:
        """A representative client request for benchmarking."""
        return b"default-request"

    def fleet_request(self, secret: bytes, index: int,
                      filler: bytes) -> bytes:
        """Request ``index`` of one fleet client (see ``repro.fleet``).

        ``secret`` is the client's plaintext the pool's scrub-verify
        scans for after the session; ``filler`` is seeded random bytes.
        This default suits apps that ignore their input; apps that parse
        their request override it to embed ``secret`` where they read it.
        """
        return secret + b"|req-%d|" % index + filler


REGISTRY: dict[str, type[Workload]] = {}


def register(cls: type[Workload]) -> type[Workload]:
    REGISTRY[cls.name] = cls
    return cls


def workload(name: str, **kw) -> Workload:
    try:
        return REGISTRY[name](**kw)
    except KeyError:
        raise ValueError(f"unknown workload {name!r}; have {sorted(REGISTRY)}")
