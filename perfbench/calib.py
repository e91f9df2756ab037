"""Host-speed calibration for the benchmark's host times.

The benchmark runs on shared hosts whose speed drifts with what the
neighbours do: interpreter-bound code can run at half speed for seconds
to minutes, then recover. A median over the repetitions of one run
cannot average out a phase that outlasts the run, so every repetition
also times a fixed calibration mix at the ends of each part of its timed
section, in the same process (see ``rep.py``), and :func:`host_scale`
turns those timings into a factor that scales the part's host time to a
nominal host speed.

The mix has one kernel per kind of work the fleet does on the host:

- ``interp``: bytecode-bound object, attribute and dict traffic (the
  simulator's hot loops);
- ``bigint``: 2048-bit modular exponentiation (Diffie-Hellman);
- ``numpy``: element-wise passes over a 1 MiB array (the apps);
- ``sha256``: hashing a 1 MiB buffer (digests, measurements, AEAD).

Each kernel takes 15 to 50 ms on a 2-vCPU Intel Xeon host, depending on
the host's phase, so each weighs about the same in the sum. The mix is
not program code: a change to ``src`` moves the scaled times exactly as
it moves wall time.
"""

from __future__ import annotations

import hashlib
from time import perf_counter

import numpy as np

#: seconds one :func:`measure` takes at the nominal host speed, about
#: its time on the tuning host; scaled host times are seconds at that speed
NOMINAL_S = 0.09

_MODULUS = (1 << 2048) - 159
_ARRAY = np.arange(1 << 17, dtype=np.int64)
_BLOB = bytes(range(256)) * (1 << 12)


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a = a
        self.b = b


def _interp() -> int:
    table: dict[int, _Point] = {}
    acc = 0
    for i in range(50_000):
        p = _Point(i, i ^ 5)
        table[i & 1023] = p
        q = table.get((i * 7) & 1023)
        if q is not None:
            acc += q.a
        acc ^= p.b
    return acc


def _bigint() -> int:
    return pow(3, _MODULUS - 2, _MODULUS) & 0xFFFFFFFF


def _numpy() -> int:
    total = 0
    for i in range(120):
        total += int((_ARRAY * 3 + i).sum())
    return total


def _sha256() -> int:
    digest = b""
    for _ in range(20):
        digest = hashlib.sha256(_BLOB + digest).digest()
    return int.from_bytes(digest[:4], "big")


KERNELS = {"interp": _interp, "bigint": _bigint, "numpy": _numpy,
           "sha256": _sha256}

#: what every kernel returns; checked so a kernel cannot silently change
EXPECTED = {"interp": 1254099576, "bigint": 3392162183,
            "numpy": 3093288714240, "sha256": 3828058022}


def measure() -> dict[str, float]:
    """Seconds each kernel takes now; raises if a kernel's result moved."""
    times = {}
    for name, kernel in KERNELS.items():
        t0 = perf_counter()
        value = kernel()
        times[name] = perf_counter() - t0
        if value != EXPECTED[name]:
            raise RuntimeError(f"calibration kernel {name} returned {value}")
    return times


def host_scale(*mixes: dict[str, float]) -> float:
    """Factor from host seconds to seconds at the nominal host speed: the
    nominal mix time over the mean time of ``mixes``."""
    measured = sum(sum(mix.values()) for mix in mixes) / len(mixes)
    return NOMINAL_S / measured
