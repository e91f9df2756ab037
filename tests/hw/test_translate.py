"""MMU TLB and paging-structure cache: lockstep oracle + invalidation matrix.

Two obligations from the design:

* **Lockstep oracle equivalence** — for every ISA opcode, a program run
  with the TLB and the paging-structure cache *on* must be
  observationally identical to the same program run with both *off*,
  re-walking the page tables on every access: same registers, rip,
  flags, mode, retired-step count, cycle total, per-tag ledger, event
  counters and memory image. Faults (including faults raised in the
  middle of a straight-line run) must land on the same instruction with
  the same state.

* **Invalidation** — a cached translation must never outlive the bytes
  that justified it: PTE rewrites (mprotect-style downgrades, template
  seals), PTE clears, CoW-style frame replacement, pool scrub / slot
  reuse, raw direct-map scribbles on paging structures and shadow-stack
  flag flips must all miss or fault exactly as a fresh page walk would.
"""

import pytest

from repro.hw import regs
from repro.hw.cpu import CpuHalt  # noqa: F401 - imported for doc cross-refs
from repro.hw.errors import (
    ControlProtectionFault,
    DivideError,
    GeneralProtectionFault,
    PageFault,
    SimulatorError,
)
from repro.hw.isa import INSTR_SIZE, OPCODES, SENSITIVE_OPS, I
from repro.hw.mmu import AccessContext, USER_MODE
from repro.hw.paging import PTE_P, PTE_W
from repro.hw.testbench import (
    IDT_VA,
    KERNEL_CODE_VA,
    KERNEL_DATA_VA,
    USER_CODE_VA,
    MicroMachine,
)

K = KERNEL_CODE_VA
D = KERNEL_DATA_VA
STUB_VA = KERNEL_CODE_VA + 0x10_0000      # syscall entry stub
HANDLER_VA = KERNEL_CODE_VA + 0x20_0000   # interrupt handler code
NEG1 = (1 << 64) - 1


def at(i):
    """VA of instruction index ``i`` in a program loaded at K."""
    return K + i * INSTR_SIZE


def make_machine(enabled, **kw):
    m = MicroMachine(**kw)
    m.phys.walk_caches_enabled = enabled
    return m


def snapshot(m):
    """Everything architecturally observable about a machine."""
    return {
        "rip": m.cpu.rip,
        "regs": dict(m.cpu.regs),
        "zf": m.cpu.zf,
        "ac": m.cpu.ac,
        "mode": m.cpu.mode,
        "crs": dict(m.cpu.crs),
        "msrs": dict(m.cpu.msrs),
        "ibt_wait": m.cpu._ibt_wait,
        "cycles": m.clock.cycles,
        "by_tag": dict(m.clock.by_tag),
        "events": dict(m.clock.events),
        "per_cpu": list(m.clock.per_cpu),
        "lanes": {lane: dict(tags)
                  for lane, tags in m.clock.tags_by_cpu.items()},
        "mem": {fn: bytes(f.data) for fn, f in sorted(m.phys.frames.items())
                if f.data is not None},
    }


def lockstep(setup, *, run=None, expect=None):
    """Run ``setup`` on a TLB-off and a TLB-on machine and compare.

    ``run`` defaults to ``m.cpu.run()`` (to hlt, faults raised).
    ``expect`` is an exception type both runs must raise.
    Returns the (identical) snapshots' TLB-on machine for extra asserts.
    """
    run = run or (lambda m: m.cpu.run(deliver_faults=False))
    results = []
    for enabled in (False, True):
        m = make_machine(enabled)
        setup(m)
        if expect is None:
            steps = run(m)
        else:
            with pytest.raises(expect) as exc_info:
                run(m)
            steps = str(exc_info.value)
        results.append((m, steps))
    (off, off_steps), (on, on_steps) = results
    assert off_steps == on_steps
    assert snapshot(off) == snapshot(on)
    return on


def load_at_k(program):
    """Standard setup: program at K, data pages at D, GS base armed."""
    def setup(m):
        m.map_data(D, pages=2)
        m.cpu.msrs[regs.IA32_GS_BASE] = D + 4096
        m.load_code(K, program)
        m.cpu.rip = K
    return setup


# --------------------------------------------------------------------------- #
# lockstep oracle: straight-line programs, one per opcode family
# --------------------------------------------------------------------------- #

PROGRAMS = {
    "alu": [
        I("movi", "rax", imm=7), I("movi", "rbx", imm=3),
        I("mov", "rcx", "rax"), I("add", "rax", "rbx"),
        I("sub", "rcx", "rbx"), I("and", "rax", "rcx"),
        I("or", "rax", "rbx"), I("xor", "rdx", "rax"),
        I("movi", "r8", imm=2), I("shl", "rax", "r8"),
        I("shr", "rbx", "r8"), I("mul", "rax", "rbx"),
        I("addi", "rdx", imm=5), I("cmp", "rax", "rbx"),
        I("cmpi", "rdx", imm=9), I("nop"), I("hlt"),
    ],
    "div": [
        I("movi", "rax", imm=144), I("movi", "rbx", imm=12),
        I("div", "rax", "rbx"), I("hlt"),
    ],
    "memory": [
        I("movi", "rax", imm=D), I("movi", "rbx", imm=0xDEAD),
        I("store", "rax", "rbx", imm=16), I("load", "rcx", "rax", imm=16),
        I("push", "rcx"), I("pop", "rdx"), I("hlt"),
    ],
    "gs_percpu": [
        I("movi", "rax", imm=0x77), I("gsstore", None, "rax", imm=8),
        I("gsload", "rbx", imm=8), I("hlt"),
    ],
    "branches": [
        I("movi", "rax", imm=1),            # 0
        I("cmpi", "rax", imm=1),            # 1: zf := True
        I("jz", imm=at(4)),                 # 2: taken
        I("hlt"),                           # 3: skipped
        I("cmpi", "rax", imm=2),            # 4: zf := False
        I("jnz", imm=at(7)),                # 5: taken
        I("hlt"),                           # 6: skipped
        I("jmp", imm=at(9)),                # 7
        I("hlt"),                           # 8: skipped
        I("hlt"),                           # 9
    ],
    "back_loop": [
        I("movi", "rcx", imm=5),            # 0
        I("addi", "rcx", imm=NEG1),         # 1: rcx -= 1, sets zf
        I("jnz", imm=at(1)),                # 2
        I("hlt"),                           # 3
    ],
    "call_ret": [
        I("call", imm=at(2)),               # 0
        I("hlt"),                           # 1
        I("ret"),                           # 2
    ],
    "icall": [
        I("movi", "rax", imm=at(3)),        # 0
        I("icall", "rax"),                  # 1
        I("hlt"),                           # 2
        I("ret"),                           # 3
    ],
    "ijmp": [
        I("movi", "rbx", imm=at(3)),        # 0
        I("ijmp", "rbx"),                   # 1
        I("hlt"),                           # 2 (skipped)
        I("hlt"),                           # 3
    ],
    "endbr_plain": [
        I("endbr"), I("nop"), I("hlt"),
    ],
    "sys_misc": [
        I("fence"), I("cpuid"),
        I("rdcr", "rax", imm=4),
        I("movi", "rcx", imm=regs.IA32_PKRS), I("rdmsr"),
        I("clac"), I("hlt"),
    ],
    "stac_clac": [
        I("stac"), I("clac"), I("hlt"),
    ],
    "wrmsr_rdmsr": [
        I("movi", "rcx", imm=regs.IA32_GS_BASE),
        I("movi", "rax", imm=0x1234), I("wrmsr"),
        I("rdmsr"), I("hlt"),
    ],
    "mov_cr": [
        I("rdcr", "rbx", imm=4), I("mov_cr", 4, "rbx"),
        I("rdcr", "rax", imm=0), I("mov_cr", 0, "rax"),
        I("hlt"),
    ],
}


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_lockstep_program(name):
    lockstep(load_at_k(PROGRAMS[name]))


#: ops exercised by the scaffolded / faulting tests below, not PROGRAMS
EXTRA_COVERED = frozenset({
    "lidt", "int", "iret", "syscall", "sysret", "tdcall", "senduipi",
})


def test_every_opcode_has_a_lockstep_test():
    covered = {i.op for prog in PROGRAMS.values() for i in prog}
    covered |= EXTRA_COVERED
    missing = (set(OPCODES) | set(SENSITIVE_OPS)) - covered
    assert missing == set()


# --------------------------------------------------------------------------- #
# lockstep oracle: scaffolded ops (IDT, syscall entry, fault equivalence)
# --------------------------------------------------------------------------- #

def test_lockstep_lidt():
    def setup(m):
        m.install_idt({})          # registers the table at IDT_VA
        m.cpu.idt = None           # ...but force the program to lidt it
        m.load_code(K, [
            I("movi", "rax", imm=IDT_VA), I("lidt", None, "rax"), I("hlt"),
        ])
        m.cpu.rip = K
    on = lockstep(setup)
    assert on.cpu.idt is not None


def test_lockstep_int_iret_roundtrip():
    def setup(m):
        m.load_code(HANDLER_VA, [I("addi", "rbx", imm=1), I("iret")])
        m.install_idt({33: HANDLER_VA})
        m.load_code(K, [
            I("movi", "rax", imm=5),
            I("int", imm=33),
            I("addi", "rax", imm=1),
            I("hlt"),
        ])
        m.cpu.rip = K
    on = lockstep(setup)
    assert on.cpu.regs["rax"] == 6 and on.cpu.regs["rbx"] == 1


def test_lockstep_syscall_sysret():
    def setup(m):
        m.load_code(STUB_VA, [I("addi", "rdx", imm=1), I("hlt")])
        m.load_code(USER_CODE_VA, [I("nop"), I("syscall")], user=True)
        m.cpu.msrs[regs.IA32_LSTAR] = STUB_VA
        m.load_code(K, [
            I("movi", "rcx", imm=USER_CODE_VA),
            I("sysret"),
        ])
        m.cpu.rip = K
    on = lockstep(setup)
    assert on.cpu.regs["rdx"] == 1
    # syscall stashed the user return address in rcx
    assert on.cpu.regs["rcx"] == USER_CODE_VA + 2 * INSTR_SIZE


def test_lockstep_tdcall_outside_td_faults():
    lockstep(load_at_k([I("nop"), I("tdcall"), I("hlt")]),
             expect=GeneralProtectionFault)


def test_lockstep_senduipi_without_table_faults():
    lockstep(load_at_k([I("nop"), I("senduipi", "rax"), I("hlt")]),
             expect=GeneralProtectionFault)


def test_lockstep_hlt_from_user_mode_faults():
    def setup(m):
        m.load_code(USER_CODE_VA, [I("nop"), I("hlt")], user=True)
        m.cpu.mode = USER_MODE
        m.cpu.rip = USER_CODE_VA
    on = lockstep(setup, expect=GeneralProtectionFault)
    # the fault rip points at the hlt itself, mid-run
    assert on.cpu.rip == USER_CODE_VA + INSTR_SIZE


# --------------------------------------------------------------------------- #
# lockstep oracle: faults raised mid-run
# --------------------------------------------------------------------------- #

MID_RUN_DIV0 = [
    I("movi", "rax", imm=9),
    I("movi", "rbx", imm=0),
    I("movi", "rdx", imm=7),
    I("div", "rax", "rbx"),       # faults after three retired movi
    I("hlt"),
]

MID_RUN_BAD_LOAD = [
    I("movi", "rax", imm=0xDEAD_0000),   # unmapped
    I("movi", "rbx", imm=1),
    I("load", "rcx", "rax"),             # #PF mid-run
    I("addi", "rbx", imm=2),
    I("hlt"),
]


def test_divide_error_mid_run_raised():
    on = lockstep(load_at_k(MID_RUN_DIV0), expect=DivideError)
    assert on.cpu.rip == at(3)           # rip parked on the div


def test_divide_error_mid_run_delivered():
    def setup(m):
        m.load_code(HANDLER_VA, [I("addi", "r15", imm=1), I("hlt")])
        m.install_idt({0: HANDLER_VA})
        m.load_code(K, MID_RUN_DIV0)
        m.cpu.rip = K
    on = lockstep(setup, run=lambda m: m.cpu.run(deliver_faults=True))
    assert on.cpu.regs["r15"] == 1


def test_page_fault_mid_run_raised():
    on = lockstep(load_at_k(MID_RUN_BAD_LOAD), expect=PageFault)
    assert on.cpu.rip == at(2)           # rip parked on the load
    assert on.cpu.regs["rbx"] == 1       # earlier instructions retired


def test_page_fault_mid_run_delivered():
    def setup(m):
        m.load_code(HANDLER_VA, [I("addi", "r15", imm=1), I("hlt")])
        m.install_idt({14: HANDLER_VA})
        m.load_code(K, MID_RUN_BAD_LOAD)
        m.cpu.rip = K
    on = lockstep(setup, run=lambda m: m.cpu.run(deliver_faults=True))
    assert on.cpu.regs["r15"] == 1


def test_fetch_fault_at_block_entry():
    def setup(m):
        m.load_code(K, [I("jmp", imm=0xBAD_000)])  # jump into the void
        m.cpu.rip = K
    on = lockstep(setup, expect=PageFault)
    assert on.cpu.rip == 0xBAD_000


# --------------------------------------------------------------------------- #
# lockstep oracle: CET / IBT
# --------------------------------------------------------------------------- #

def arm_ibt(m):
    m.cpu.crs[4] |= regs.CR4_CET
    m.cpu.msrs[regs.IA32_S_CET] = regs.S_CET_ENDBR_EN


def test_lockstep_ibt_landing_pad():
    def setup(m):
        arm_ibt(m)
        m.load_code(K, [
            I("movi", "rax", imm=at(4)),   # 0
            I("icall", "rax"),             # 1: arms _ibt_wait
            I("hlt"),                      # 2
            I("nop"),                      # 3 (pad)
            I("endbr"),                    # 4: landing pad
            I("ret"),                      # 5
        ])
        m.cpu.rip = K
    lockstep(setup)


def test_lockstep_ibt_violation():
    def setup(m):
        arm_ibt(m)
        m.load_code(K, [
            I("movi", "rax", imm=at(3)),
            I("icall", "rax"),
            I("hlt"),
            I("nop"),                      # 3: not endbr -> #CP
        ])
        m.cpu.rip = K
    on = lockstep(setup, expect=ControlProtectionFault)
    assert on.cpu.rip == at(3)


# --------------------------------------------------------------------------- #
# lockstep oracle: step budgets
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("budget", [1, 2, 3, 4])
def test_budget_tail_bisects_block(budget):
    """run(max_steps=k) mid-program retires exactly k steps on both."""
    program = PROGRAMS["alu"]

    def partial(m):
        with pytest.raises(SimulatorError):
            m.cpu.run(max_steps=budget)
        return budget

    on = lockstep(load_at_k(program), run=partial)
    assert on.cpu.rip == at(budget)
    # and resuming finishes identically
    snaps = []
    for enabled in (False, True):
        m = make_machine(enabled)
        load_at_k(program)(m)
        with pytest.raises(SimulatorError):
            m.cpu.run(max_steps=budget)
        m.cpu.run()
        snaps.append(snapshot(m))
    assert snaps[0] == snaps[1]


def test_page_straddling_program_falls_back():
    """A fetch straddling the page boundary stays bit-exact."""
    # 4096 % 12 == 4, so instruction 341 straddles pages 0 and 1
    program = [I("addi", "rax", imm=1) for _ in range(345)] + [I("hlt")]
    on = lockstep(load_at_k(program))
    assert on.cpu.regs["rax"] == 345


# --------------------------------------------------------------------------- #
# lockstep oracle: self-modifying code
# --------------------------------------------------------------------------- #

def test_self_modifying_store_mid_block():
    """A store into the program's own later bytes must be honoured.

    The store rewrites the imm field of a movi further down the same
    page through a TLB-cached data mapping; the next fetch of that
    instruction must decode the new bytes on both machines.
    """
    w_va = 0x0050_0000
    patch_va = w_va + 4 * INSTR_SIZE + 4    # imm field of instruction 4

    def setup(m):
        fn = m.phys.alloc_frame("kernel")
        m.phys.frame(fn).materialize()
        m.aspace.map_page(w_va, fn, PTE_P | PTE_W, 0)
        program = [
            I("movi", "rax", imm=2),            # 0: the new immediate
            I("movi", "rbx", imm=patch_va),     # 1
            I("store", "rbx", "rax"),           # 2: rewrite instr 4's imm
            I("nop"),                           # 3
            I("movi", "rcx", imm=1),            # 4: becomes movi rcx, 2
            I("hlt"),                           # 5
        ]
        m.write_phys(w_va, b"".join(i.encode() for i in program))
        m.cpu.rip = w_va

    on = lockstep(setup)
    assert on.cpu.regs["rcx"] == 2


# --------------------------------------------------------------------------- #
# TLB invalidation matrix (MMU-level)
# --------------------------------------------------------------------------- #

VA = 0x0070_0000


class TestTlbInvalidation:
    def setup_method(self):
        self.m = make_machine(True)
        self.mmu = self.m.cpu.mmu
        self.ctx = AccessContext()

    def map_rw(self, va=VA):
        fn = self.m.phys.alloc_frame("kernel")
        self.m.phys.frame(fn).materialize()
        self.m.aspace.map_page(va, fn, PTE_P | PTE_W, 0)
        return fn

    def check(self, access="read", va=VA):
        return self.mmu.check(self.m.aspace, va, access, self.ctx)

    def assert_hit(self, access="read", va=VA):
        before = self.mmu.tlb_hits
        pa, _ = self.check(access, va)
        assert self.mmu.tlb_hits == before + 1
        return pa

    def test_hit_after_walk(self):
        self.map_rw()
        self.check("write")
        self.assert_hit("write")

    def test_mprotect_downgrade_misses(self):
        fn = self.map_rw()
        self.check("write")
        self.assert_hit("write")
        slot = self.m.aspace.leaf_slot(VA)
        pte = self.m.phys.read_u64(slot.pa)
        self.m.aspace.set_pte(VA, pte & ~PTE_W)   # mprotect / template seal
        with pytest.raises(PageFault):
            self.check("write")
        pa, _ = self.check("read")                # read-only still maps
        assert pa >> 12 == fn

    def test_clear_pte_unmaps(self):
        self.map_rw()
        self.check("read")
        self.assert_hit("read")
        self.m.aspace.clear_pte(VA)
        with pytest.raises(PageFault) as exc:
            self.check("read")
        assert not exc.value.present

    def test_cow_frame_replacement_retargets(self):
        fn_a = self.map_rw()
        self.m.phys.write(fn_a << 12, b"A" * 8)
        assert self.check("read")[0] >> 12 == fn_a
        self.assert_hit("read")
        # CoW resolution: same VA, new frame, new contents
        fn_b = self.m.phys.alloc_frame("kernel")
        self.m.phys.frame(fn_b).materialize()
        self.m.phys.write(fn_b << 12, b"B" * 8)
        self.m.aspace.map_page(VA, fn_b, PTE_P | PTE_W, 0)
        pa, _ = self.check("read")
        assert pa >> 12 == fn_b
        assert self.m.phys.read(pa, 8) == b"B" * 8

    def test_pool_scrub_slot_reuse_never_stale(self):
        """A freed + reallocated + remapped slot must re-walk, not hit."""
        fn_a = self.map_rw()
        self.check("write")
        self.assert_hit("write")
        self.m.aspace.clear_pte(VA)
        self.m.phys.free_frames([fn_a])
        fn_new = self.m.phys.alloc_frame("tenant-2")
        self.m.phys.frame(fn_new).materialize()
        self.m.phys.zero_frame(fn_new)            # pool scrub
        self.m.aspace.map_page(VA, fn_new, PTE_P | PTE_W, 0)
        pa, _ = self.check("write")
        assert pa >> 12 == fn_new
        assert self.m.phys.frame(pa >> 12).owner == "tenant-2"

    def test_direct_map_pte_scribble_misses(self):
        """A raw write to the PTE's physical bytes defeats the cache."""
        self.map_rw()
        self.check("write")
        self.assert_hit("write")
        slot = self.m.aspace.leaf_slot(VA)
        pte = self.m.phys.read_u64(slot.pa)
        self.m.phys.write_u64(slot.pa, pte & ~PTE_W)
        with pytest.raises(PageFault):
            self.check("write")

    def test_shadow_stack_flip_without_byte_write(self):
        fn = self.map_rw()
        self.check("write")
        self.assert_hit("write")
        self.m.phys.frame(fn).is_shadow_stack = True
        with pytest.raises(PageFault):
            self.check("write")                   # normal write now denied
        ss_ctx = AccessContext(shadow_stack_op=True)
        pa, _ = self.mmu.check(self.m.aspace, VA, "write", ss_ctx)
        assert pa >> 12 == fn

    def test_interior_entry_scribble_misses(self):
        """Zeroing the root entry kills hits even with the leaf intact."""
        self.map_rw()
        self.check("read")
        self.assert_hit("read")
        root_pa = (self.m.aspace.root_fn << 12) + ((VA >> 30) & 511) * 8
        saved = self.m.phys.read_u64(root_pa)
        self.m.phys.write_u64(root_pa, 0)
        with pytest.raises(PageFault) as exc:
            self.check("read")
        assert not exc.value.present
        self.m.phys.write_u64(root_pa, saved)
        self.check("read")                        # walk works again

    def test_flush_then_rewalk_same_answer(self):
        fn = self.map_rw()
        pa1, _ = self.check("read")
        self.mmu.tlb_flush()
        before = self.mmu.tlb_hits
        pa2, _ = self.check("read")
        assert pa1 == pa2 == ((fn << 12) | (VA & 0xFFF))
        assert self.mmu.tlb_hits == before        # it was a miss
        self.assert_hit("read")

    def test_neighbour_ad_traffic_keeps_entry(self):
        """A/D updates on a *neighbouring* PTE don't evict this entry."""
        self.map_rw()
        self.map_rw(VA + 4096)
        self.check("read")
        self.check("read", va=VA + 4096)          # sets A on the neighbour
        self.assert_hit("read")
