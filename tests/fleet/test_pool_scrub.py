"""Warm-pool recycling + the C8 scrub-verify pass at fleet scale.

Every reused slot is scanned for the previous client's plaintext; the
verifier must both pass on honest resets and actually *catch* a planted
leak (a verifier that can't fail proves nothing).
"""

import pytest

from repro.apps.base import workload as make_workload
from repro.client import RemoteClient
from repro.core.boot import published_measurement
from repro.core.channel import SecureChannel, UntrustedProxy
from repro.fleet import PoolConfig, ScrubVerificationError, WarmPool
from repro.hw.memory import PAGE_SHIFT


def serve_one(system, work, instance, proxy, secret, seed):
    """One full attested helloworld session on a pool instance."""
    channel = SecureChannel(system.monitor, instance.sandbox)
    client = RemoteClient(system.machine.authority, published_measurement(),
                          seed=seed)
    client.connect(proxy, channel)
    client.request(proxy, channel, secret)
    system.kernel.current = instance.libos.task
    request = instance.runtime.recv_input()
    output = work.serve(instance.runtime, request)
    assert client.fetch_result(proxy, channel) == output
    return output


def test_pool_preforks_to_size(system, template):
    pool = WarmPool(system, template, PoolConfig(size=3))
    assert len(pool.slots) == 3
    assert len(pool.free_slots()) == 3
    assert all(s.instance.start_kind == "fork" for s in pool.slots)
    assert len(pool.fork_cycles) == 3


def test_acquire_release_cycle(system, template):
    pool = WarmPool(system, template, PoolConfig(size=2))
    a = pool.acquire()
    b = pool.acquire()
    assert (a.index, b.index) == (0, 1)
    assert pool.acquire() is None            # exhausted -> caller queues
    pool.release(a, patterns=[b"client-a-secret"])
    assert not a.busy
    assert a.sessions_served == 1
    assert a.instance.start_kind == "warm"
    assert pool.acquire() is a               # lowest free index again
    assert pool.scrub_verifications == 1


def test_dead_slot_is_replaced_by_fresh_fork(system, template):
    pool = WarmPool(system, template, PoolConfig(size=2))
    slot = pool.acquire()
    slot.instance.sandbox.kill("test violation")
    pool.release(slot)
    # lazy watermark: the dead slot is dropped now, replaced on demand
    assert slot not in pool.slots
    assert len(pool.slots) == 1
    first = pool.acquire()
    second = pool.acquire()          # no free slot left -> refill kicks in
    assert second is not None and second is not first
    assert len(pool.slots) == 2
    assert all(not s.instance.sandbox.dead for s in pool.slots)


def test_scrub_verifier_catches_planted_leak(system, template):
    pool = WarmPool(system, template, PoolConfig(size=1))
    slot = pool.acquire()
    sandbox = slot.instance.sandbox
    secret = b"LEAKED-CLIENT-PLAINTEXT"
    # plant the "previous client's" bytes where the scrub should have
    # removed them: in a frame of the image the next client will map
    fn = sandbox.confined_vmas[0].backing.template_frames[0]
    system.monitor.phys.write(fn << PAGE_SHIFT, secret)
    with pytest.raises(ScrubVerificationError):
        pool.verify_scrub(slot, [], [secret])


def test_real_session_leaves_no_plaintext_after_reuse(system, template):
    """S1 regression: previously-confined frames hold no prior plaintext."""
    work = make_workload("helloworld", seed=3)
    pool = WarmPool(system, template, PoolConfig(size=1))
    proxy = UntrustedProxy(system.monitor)
    prev_frames: list[int] = []
    prev_secret = None
    for n in range(3):
        slot = pool.acquire()
        secret = f"client-{n}-medical-record-{n:04d}".encode()
        serve_one(system, work, slot.instance, proxy, secret, seed=100 + n)
        if prev_secret is not None:
            # the frames the previous client dirtied are zeroed or back
            # in the CMA pool: its record must be gone from all of them
            blob = b"".join(
                bytes(system.monitor.phys.frame(fn).data or b"")
                for fn in prev_frames)
            assert prev_secret not in blob
        prev_frames = list(slot.instance.sandbox.confined_frames)
        prev_secret = secret
        pool.release(slot, patterns=[secret])
    assert pool.scrub_verifications == 3
    assert len(pool.warm_reset_cycles) == 3


def test_warm_reset_much_cheaper_than_cold_capture(system, template):
    pool = WarmPool(system, template, PoolConfig(size=1))
    slot = pool.acquire()
    work = make_workload("helloworld", seed=3)
    proxy = UntrustedProxy(system.monitor)
    serve_one(system, work, slot.instance, proxy, b"warm-cost-probe", seed=9)
    pool.release(slot, patterns=[b"warm-cost-probe"])
    warm = pool.warm_reset_cycles[0]
    assert warm * 5 < template.cold_start_cycles
    assert slot.instance.start_cycles == warm
