"""Intrusion detection — the reproduction's Unicorn APT detector (Table 5).

Real provenance-graph analysis: the client submits a parsed system log
(process/file/socket events); the service builds a streaming provenance
graph, computes windowed WL-style label histograms (Unicorn's graph
sketches), and scores anomalies against a baseline profile. Scaled from
the paper's 20 MB log to ~1 MB with the same shape: 8 threads, 2 GB→16 MiB
confined analysis cache, no common memory.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter

from ..hw.memory import PAGE_SIZE
from .base import MIB, Workload, WorkloadProfile, register

EVENT_TYPES = ("exec", "open", "write", "connect", "fork", "chmod")
WINDOW = 500
#: per-barrier-item compute within a window's sketch computation
CYCLES_PER_ITEM = 96_000_000


def synth_log(seed: int, events: int, *, attack: bool = False) -> bytes:
    """Generate a synthetic parsed audit log (optionally with an APT)."""
    rng = random.Random(seed)
    lines = []
    for i in range(events):
        etype = rng.choice(EVENT_TYPES)
        src = f"proc{rng.randrange(64)}"
        dst = f"obj{rng.randrange(256)}"
        if attack and i % 29 == 0:
            # low-and-slow exfil pattern: one process fanning out widely
            etype, src, dst = "connect", "proc7", f"exfil{i}"
        lines.append(f"{i},{etype},{src},{dst}")
    return "\n".join(lines).encode()


@register
class UnicornWorkload(Workload):
    name = "unicorn"
    description = ("Unicorn-style provenance-graph APT detector over a "
                   "parsed audit log, windowed WL sketch histograms")

    events = 12_000

    @property
    def profile(self) -> WorkloadProfile:
        return WorkloadProfile(
            heap_bytes=16 * MIB,
            threads=8,
            common=[],
            bg_mmu_ops_per_tick=13,
            bg_copy_ops_per_tick=6,
            bg_faults_per_tick=0.7,
            bg_ve_per_tick=1.0,
            reclaim_pages_per_tick=0,
            init_compute_cycles=250_000_000,
        )

    def default_request(self) -> bytes:
        return synth_log(self.seed + 31, max(int(self.events * self.scale), 500),
                         attack=True)

    def fleet_request(self, secret: bytes, index: int,
                      filler: bytes) -> bytes:
        # the client's secret is the acting process of one extra event
        return (b"-1,exec,%s,req-%d\n" % (secret, index)
                + self.default_request())

    # ------------------------------------------------------------------ #

    def _sketch(self, edges: list[tuple[str, str, str]]) -> Counter:
        """WL-style behavior histogram: (event type, source) labels."""
        sketch: Counter = Counter()
        for etype, src, dst in edges:
            label = hashlib.sha1(f"{etype}|{src}".encode()).hexdigest()[:6]
            sketch[label] += 1
        return sketch

    @staticmethod
    def _max_fanout(edges: list[tuple[str, str, str]]) -> tuple[str, int]:
        """Widest (source, event-type) fan-out to distinct destinations —
        the low-and-slow exfiltration signature Unicorn's provenance
        graphs surface."""
        fanout: dict[tuple[str, str], set[str]] = {}
        for etype, src, dst in edges:
            fanout.setdefault((src, etype), set()).add(dst)
        (src, etype), dsts = max(fanout.items(), key=lambda kv: len(kv[1]))
        return f"{src}/{etype}", len(dsts)

    #: distinct destinations per (src, etype) per window above which a
    #: window counts as anomalous
    FANOUT_THRESHOLD = 10

    def serve(self, rt, request: bytes) -> bytes:
        lines = request.decode().splitlines()
        cache_va = rt.malloc(4 * MIB)
        baseline: Counter = Counter()
        anomalies = []
        for w_start in range(0, len(lines), WINDOW):
            window = lines[w_start:w_start + WINDOW]
            edges = []
            for line in window:
                _, etype, src, dst = line.split(",", 3)
                edges.append((etype, src, dst))
            baseline.update(self._sketch(edges))
            who, width = self._max_fanout(edges)
            # analysis cache writes (confined memory)
            rt.touch_range(cache_va + (w_start % (3 * MIB)), 256 * 1024,
                           write=True)
            rt.parallel_for(8, CYCLES_PER_ITEM, sync_every=4)
            if width > self.FANOUT_THRESHOLD:
                anomalies.append((w_start // WINDOW, width))
        verdict = "ALERT" if anomalies else "clean"
        output = (f"{verdict};windows={len(lines) // WINDOW};"
                  + ",".join(f"w{w}:{s}" for w, s in anomalies[:10])).encode()
        rt.send_output(output)
        return output
