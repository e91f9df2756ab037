"""Runtime adapters: one app API over native syscalls or the LibOS.

The evaluation runs every workload under several settings (Native,
LibOS-only, Erebor ablations, full Erebor). Apps are written once against
:class:`AppRuntime`; the two adapters below realize it:

* :class:`LibOsRuntime` — Gramine-style userspace emulation (both the
  sandboxed and the plain LibOS boots);
* :class:`NativeRuntime` — a conventional Linux program: heap via mmap
  syscalls, files via the kernel VFS, futex-based synchronization, and
  client I/O through the DebugFS channel files.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from ..hw.memory import PAGE_SIZE
from ..kernel.process import FileBacking, PROT_READ, PROT_WRITE
from ..libos.libos import DEBUGFS_IN, DEBUGFS_OUT, LibOs


class AppRuntime(ABC):
    """What a service application may do (§3.1's application model)."""

    kernel = None
    task = None

    @abstractmethod
    def malloc(self, size: int) -> int: ...

    @abstractmethod
    def touch_range(self, va: int, size: int, *, write: bool = False,
                    stride: int = PAGE_SIZE) -> int: ...

    @abstractmethod
    def touch_common(self, name: str, size: int | None = None, *,
                     offset: int = 0, stride: int = PAGE_SIZE) -> int: ...

    @abstractmethod
    def compute(self, cycles: int) -> None: ...

    @abstractmethod
    def parallel_for(self, items: int, cycles_per_item: int, *,
                     sync_every: int = 1) -> None: ...

    @abstractmethod
    def recv_input(self) -> bytes | None: ...

    @abstractmethod
    def send_output(self, data: bytes) -> None: ...

    def end_session(self) -> None:
        """Between-clients reset (stateless service)."""


class LibOsRuntime(AppRuntime):
    """App API over a booted LibOS (sandboxed or plain)."""

    def __init__(self, libos: LibOs):
        self.libos = libos
        self.kernel = libos.kernel
        self.task = libos.task

    def malloc(self, size):
        return self.libos.malloc(size)

    def touch_range(self, va, size, *, write=False, stride=PAGE_SIZE):
        return self.kernel.touch_pages(self.task, va, size, write=write,
                                       stride=stride)

    def touch_common(self, name, size=None, *, offset=0, stride=PAGE_SIZE):
        return self.libos.touch_common(name, size, offset=offset,
                                       stride=stride)

    def compute(self, cycles):
        self.libos.compute(cycles)

    def parallel_for(self, items, cycles_per_item, *, sync_every=1):
        self.libos.pool.parallel_for(items, cycles_per_item,
                                     sync_every=sync_every)

    def recv_input(self):
        return self.libos.recv_input()

    def send_output(self, data):
        self.libos.send_output(data)

    def end_session(self):
        self.libos.end_session()


class NativeRuntime(AppRuntime):
    """A plain Linux program: everything is a syscall."""

    def __init__(self, kernel, name: str = "native-app", *, threads: int = 1,
                 common: list | None = None):
        self.kernel = kernel
        self.task = kernel.spawn(name)
        self.threads = threads
        self._heap_cursor = 0
        self._heap_vma = None
        self._common_vmas: dict[str, object] = {}
        for spec in common or []:
            path = f"/shared/{spec.name}"
            if not kernel.vfs.exists(path):
                kernel.vfs.create(path, synthetic_size=spec.size)
            backing = FileBacking(kernel.vfs.lookup(path))
            self._common_vmas[spec.name] = kernel.mmap(
                self.task, spec.size, PROT_READ, backing=backing,
                kind="common")
        for _ in range(threads - 1):
            kernel.syscall(self.task, "clone")
        for path in (DEBUGFS_IN, DEBUGFS_OUT):
            if not kernel.vfs.exists(path):
                kernel.vfs.create(path)

    def malloc(self, size):
        size = (size + PAGE_SIZE - 1) & ~(PAGE_SIZE - 1)
        vma = self.kernel.syscall(self.task, "mmap", size,
                                  PROT_READ | PROT_WRITE)
        return vma.start

    def touch_range(self, va, size, *, write=False, stride=PAGE_SIZE):
        return self.kernel.touch_pages(self.task, va, size, write=write,
                                       stride=stride)

    def touch_common(self, name, size=None, *, offset=0, stride=PAGE_SIZE):
        vma = self._common_vmas[name]
        length = size if size is not None else vma.length
        offset = offset % max(vma.length, 1)
        length = min(length, vma.length - offset)
        return self.kernel.touch_pages(self.task, vma.start + offset, length,
                                       stride=stride)

    def compute(self, cycles):
        self.kernel.advance(cycles, self.task)

    def parallel_for(self, items, cycles_per_item, *, sync_every=1):
        if items <= 0:
            return
        wall = items * cycles_per_item // self.threads
        syncs = max(items // max(sync_every, 1), 1)
        chunk = max(wall // syncs, 1)
        for _ in range(syncs):
            self.kernel.advance(chunk, self.task)
            self.kernel.syscall(self.task, "futex")   # kernel-assisted sync
        remainder = wall - chunk * syncs
        if remainder > 0:
            self.kernel.advance(remainder, self.task)

    def recv_input(self):
        fd = self.kernel.syscall(self.task, "open", DEBUGFS_IN)
        data = self.kernel.syscall(self.task, "read", fd, 1 << 30)
        self.kernel.syscall(self.task, "close", fd)
        return data or None

    def send_output(self, data):
        fd = self.kernel.syscall(self.task, "open", DEBUGFS_OUT, create=True,
                                 write=True, truncate=True)
        self.kernel.syscall(self.task, "write", fd, data)
        self.kernel.syscall(self.task, "close", fd)
