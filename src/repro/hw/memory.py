"""Simulated guest-physical memory: frames, owners, and byte storage.

The guest-physical address space is a sparse collection of 4 KiB frames.
Frames carry an *owner tag* (``"free"``, ``"kernel"``, ``"monitor"``,
``"pt"``, ``"sandbox:<id>"`` …) used by the monitor's mapping policies and
by the memory-accounting benchmarks, plus *type flags* the hardware model
consults (page-table page, shadow-stack page).

Byte storage is lazy: a frame only materialises a 4 KiB ``bytearray`` when
somebody actually reads or writes bytes through it. Page-table frames and
code/data frames therefore cost real memory, while the bulk pages of a
multi-GiB workload remain metadata-only — the simulation still *counts*
their faults and mappings without allocating gigabytes on the host.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush

from .errors import SimulatorError

PAGE_SIZE = 4096
PAGE_SHIFT = 12


def page_align_down(addr: int) -> int:
    return addr & ~(PAGE_SIZE - 1)


def page_align_up(addr: int) -> int:
    return (addr + PAGE_SIZE - 1) & ~(PAGE_SIZE - 1)


def pages_for(nbytes: int) -> int:
    """Number of 4 KiB pages needed to hold ``nbytes``."""
    return (nbytes + PAGE_SIZE - 1) // PAGE_SIZE


@dataclass
class Frame:
    """One guest-physical 4 KiB frame.

    Attributes:
        fn: frame number (physical address ``fn << 12``).
        owner: logical owner tag used by allocation and mapping policy.
        is_page_table: frame holds page-table entries.
        is_shadow_stack: frame is CET shadow-stack memory (writable only
            through shadow-stack operations, per the SDM's
            "non-writable-but-dirty" encoding).
        data: lazily-allocated byte contents.
    """

    fn: int
    owner: str = "free"
    is_page_table: bool = False
    is_shadow_stack: bool = False
    data: bytearray | None = field(default=None, repr=False)

    def materialize(self) -> bytearray:
        if self.data is None:
            self.data = bytearray(PAGE_SIZE)
        return self.data


class PhysicalMemory:
    """Sparse physical memory of ``num_frames`` 4 KiB frames."""

    def __init__(self, size_bytes: int):
        if size_bytes % PAGE_SIZE:
            raise SimulatorError("physical memory size must be page aligned")
        self.num_frames = size_bytes // PAGE_SIZE
        self.frames: dict[int, Frame] = {}
        self._next_free = 0
        #: min-heap of explicitly freed frame numbers below the bump
        #: pointer, so reallocation never rescans the allocated prefix.
        #: Entries may be stale (re-taken by the bump scan); consumers
        #: re-check the owner tag. Allocation order — ascending, lowest
        #: free frame first — is identical to a full scan.
        self._freed: list[int] = []
        #: gates the host-plane walk memoization over this memory: the TLB
        #: of every :class:`~repro.hw.mmu.Mmu` and the paging-structure
        #: cache of every AddressSpace (see AddressSpace.leaf_slot).
        #: Cleared to select the reference path that re-walks every
        #: access; the simulated ledger is identical either way.
        self.walk_caches_enabled = True

    # ------------------------------------------------------------------ #
    # frame lifecycle
    # ------------------------------------------------------------------ #

    def frame(self, fn: int) -> Frame:
        """Return (creating on first touch) the frame with number ``fn``."""
        f = self.frames.get(fn)
        if f is None:
            if not 0 <= fn < self.num_frames:
                raise SimulatorError(f"frame {fn:#x} outside physical memory")
            f = Frame(fn)
            self.frames[fn] = f
        return f

    def alloc_frames(self, count: int, owner: str, *, contiguous: bool = False) -> list[int]:
        """Allocate ``count`` free frames and tag them with ``owner``.

        A simple bump allocator with a free-list fallback; ``contiguous``
        requests physically-contiguous frames (used for the CMA-style
        reserved region backing confined sandbox memory).
        """
        if count <= 0:
            raise SimulatorError("allocation count must be positive")
        got: list[int] = []
        freed = self._freed
        if contiguous:
            # rare path: scan for a run, starting at the lowest free frame
            fn = min(freed[0], self._next_free) if freed else self._next_free
            while len(got) < count and fn < self.num_frames:
                f = self.frames.get(fn)
                if f is None or f.owner == "free":
                    got.append(fn)
                elif got:
                    for g in got:
                        heappush(freed, g)
                    got.clear()
                fn += 1
        else:
            # take explicitly freed frames first (ascending), then bump
            while freed and len(got) < count and freed[0] < self._next_free:
                cand = heappop(freed)
                f = self.frames.get(cand)
                if f is None or f.owner == "free":
                    got.append(cand)
            fn = self._next_free
            while len(got) < count and fn < self.num_frames:
                f = self.frames.get(fn)
                if f is None or f.owner == "free":
                    got.append(fn)
                fn += 1
        if len(got) < count:
            for g in got:          # return candidates: nothing was tagged
                heappush(freed, g)
            raise MemoryError(f"out of physical frames (wanted {count})")
        for g in got:
            frame = self.frame(g)
            frame.owner = owner
        if got and got[-1] == fn - 1:
            self._next_free = fn
        return got

    def alloc_frame(self, owner: str) -> int:
        return self.alloc_frames(1, owner)[0]

    def free_frames(self, fns: list[int]) -> None:
        for fn in fns:
            f = self.frame(fn)
            if f.owner != "free":   # guard: double-free must not enqueue twice
                heappush(self._freed, fn)
            f.owner = "free"
            f.is_page_table = False
            f.is_shadow_stack = False
            f.data = None

    def owned_by(self, owner: str) -> list[int]:
        return [fn for fn, f in self.frames.items() if f.owner == owner]

    # ------------------------------------------------------------------ #
    # raw byte access (no permission checks; the MMU layers checks on top)
    # ------------------------------------------------------------------ #

    def read(self, pa: int, size: int) -> bytes:
        out = bytearray()
        while size > 0:
            fn, off = pa >> PAGE_SHIFT, pa & (PAGE_SIZE - 1)
            chunk = min(size, PAGE_SIZE - off)
            data = self.frame(fn).data
            if data is None:
                out += b"\x00" * chunk
            else:
                out += data[off:off + chunk]
            pa += chunk
            size -= chunk
        return bytes(out)

    def write(self, pa: int, data: bytes) -> None:
        off_in = 0
        size = len(data)
        while off_in < size:
            fn, off = pa >> PAGE_SHIFT, pa & (PAGE_SIZE - 1)
            chunk = min(size - off_in, PAGE_SIZE - off)
            frame = self.frame(fn)
            buf = frame.materialize()
            buf[off:off + chunk] = data[off_in:off_in + chunk]
            pa += chunk
            off_in += chunk

    def read_u64(self, pa: int) -> int:
        off = pa & (PAGE_SIZE - 1)
        if off <= PAGE_SIZE - 8:
            fn = pa >> PAGE_SHIFT
            f = self.frames.get(fn)
            if f is None:
                if not 0 <= fn < self.num_frames:
                    raise SimulatorError(f"frame {fn:#x} outside physical memory")
                return 0
            data = f.data
            if data is None:
                return 0
            return int.from_bytes(data[off:off + 8], "little")
        return int.from_bytes(self.read(pa, 8), "little")

    def write_u64(self, pa: int, value: int) -> None:
        off = pa & (PAGE_SIZE - 1)
        value &= 2 ** 64 - 1
        if off <= PAGE_SIZE - 8:
            frame = self.frame(pa >> PAGE_SHIFT)
            data = frame.data
            if data is None:
                data = frame.materialize()
            data[off:off + 8] = value.to_bytes(8, "little")
            return
        self.write(pa, value.to_bytes(8, "little"))

    def zero_frame(self, fn: int) -> None:
        f = self.frame(fn)
        if f.data is not None:
            f.data = bytearray(PAGE_SIZE)

    # ------------------------------------------------------------------ #
    # accounting
    # ------------------------------------------------------------------ #

    def usage_by_owner(self) -> dict[str, int]:
        """Bytes of physical memory per owner tag (metadata frames count)."""
        usage: dict[str, int] = {}
        for f in self.frames.values():
            if f.owner != "free":
                usage[f.owner] = usage.get(f.owner, 0) + PAGE_SIZE
        return usage
