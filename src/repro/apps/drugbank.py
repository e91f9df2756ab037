"""Private information retrieval — the reproduction's DrugBank service.

A real in-memory hash index over synthetic drug records (the paper uses a
~400 MB c_hashmap-backed DrugBank; we build a 1/25-scale index with the
same access pattern: hash lookup + record fetch touching a random page of
the *common* database region per query). The client's query stream is the
sensitive input.
"""

from __future__ import annotations

import random

from ..hw.memory import PAGE_SIZE
from ..libos.libos import CommonSpec
from .base import MIB, Workload, WorkloadProfile, register

N_RECORDS = 4000
#: per-query modelled compute (hash, record parse, response append)
CYCLES_PER_QUERY = 560_000


def _make_records(seed: int) -> dict[str, str]:
    rng = random.Random(seed + 17)
    records = {}
    for i in range(N_RECORDS):
        name = f"drug-{i:05d}"
        records[name] = (
            f"{name}|target=GPCR-{rng.randrange(400)}"
            f"|halflife={rng.randrange(1, 48)}h"
            f"|interactions={rng.randrange(12)}"
        )
    return records


@register
class DrugbankWorkload(Workload):
    name = "drugbank"
    description = ("in-memory DrugBank-style database retrieval: hashed "
                   "record lookups over a common read-only database")

    queries = 20_000

    def __init__(self, seed: int = 0, scale: float = 1.0):
        super().__init__(seed, scale)
        self.records = _make_records(seed)
        self.db_pages = (16 * MIB) // PAGE_SIZE

    @property
    def profile(self) -> WorkloadProfile:
        return WorkloadProfile(
            heap_bytes=8 * MIB,
            threads=4,
            common=[CommonSpec("drugbank-db", 16 * MIB, initializer=True)],
            bg_mmu_ops_per_tick=18,
            bg_copy_ops_per_tick=14,
            bg_faults_per_tick=0.8,
            bg_ve_per_tick=0.7,
            reclaim_pages_per_tick=1,
            common_touch_stride=4096,
            init_compute_cycles=350_000_000,
        )

    def default_request(self) -> bytes:
        rng = random.Random(self.seed + 19)
        n = max(int(self.queries * self.scale), 16)
        wanted = [f"drug-{rng.randrange(N_RECORDS):05d}" for _ in range(n)]
        return ",".join(wanted).encode()

    def fleet_request(self, secret: bytes, index: int,
                      filler: bytes) -> bytes:
        # the client's secret is its first query name
        return secret + b"," + self.default_request()

    def serve(self, rt, request: bytes) -> bytes:
        names = request.decode().split(",")
        rng = random.Random(self.seed + 23)
        hits = 0
        sample_answers = []
        batch = 64
        for start in range(0, len(names), batch):
            chunk = names[start:start + batch]
            for name in chunk:
                record = self.records.get(name)   # the real index lookup
                if record is not None:
                    hits += 1
                    if len(sample_answers) < 8:
                        sample_answers.append(record)
                # record fetch touches one random page of the common DB
                page = rng.randrange(self.db_pages)
                rt.touch_common("drugbank-db", PAGE_SIZE,
                                offset=page * PAGE_SIZE)
            rt.parallel_for(len(chunk), CYCLES_PER_QUERY, sync_every=2)
        output = (f"hits={hits}/{len(names)};" + "&".join(sample_answers)).encode()
        rt.send_output(output)
        return output
