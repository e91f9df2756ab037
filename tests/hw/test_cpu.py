"""Unit tests for the CPU core: execution, privilege, faults, interrupts."""

import pytest

from repro.hw import regs
from repro.hw.cpu import CpuHalt
from repro.hw.errors import (
    DivideError,
    GeneralProtectionFault,
    PageFault,
    VirtualizationException,
)
from repro.hw.isa import INSTR_SIZE, I
from repro.hw.memory import PAGE_SIZE
from repro.hw.paging import PTE_P
from repro.hw.testbench import (
    KERNEL_CODE_VA,
    KERNEL_DATA_VA,
    MicroMachine,
    USER_CODE_VA,
    USER_DATA_VA,
)


@pytest.fixture
def m():
    return MicroMachine()


def test_mov_and_arith(m):
    m.load_code(KERNEL_CODE_VA, [
        I("movi", "rax", imm=10),
        I("movi", "rbx", imm=32),
        I("add", "rax", "rbx"),
        I("hlt"),
    ])
    m.run_kernel()
    assert m.cpu.regs["rax"] == 42


def test_load_store_roundtrip(m):
    m.map_data(KERNEL_DATA_VA)
    m.load_code(KERNEL_CODE_VA, [
        I("movi", "rbx", imm=KERNEL_DATA_VA),
        I("movi", "rax", imm=0xABCD),
        I("store", "rbx", "rax", imm=8),
        I("load", "rcx", "rbx", imm=8),
        I("hlt"),
    ])
    m.run_kernel()
    assert m.cpu.regs["rcx"] == 0xABCD


def test_push_pop(m):
    m.load_code(KERNEL_CODE_VA, [
        I("movi", "rax", imm=7),
        I("push", "rax"),
        I("pop", "rbx"),
        I("hlt"),
    ])
    m.run_kernel()
    assert m.cpu.regs["rbx"] == 7


def test_conditional_jumps(m):
    skip = KERNEL_CODE_VA + 4 * 12
    m.load_code(KERNEL_CODE_VA, [
        I("movi", "rax", imm=5),
        I("cmpi", "rax", imm=5),
        I("jz", imm=skip),
        I("movi", "rbx", imm=111),   # skipped
        I("movi", "rcx", imm=222),
        I("hlt"),
    ])
    m.run_kernel()
    assert m.cpu.regs["rbx"] == 0
    assert m.cpu.regs["rcx"] == 222


def test_call_ret(m):
    fn_va = KERNEL_CODE_VA + 3 * 12
    m.load_code(KERNEL_CODE_VA, [
        I("call", imm=fn_va),
        I("movi", "rbx", imm=2),
        I("hlt"),
        # fn:
        I("movi", "rax", imm=1),
        I("ret"),
    ])
    m.run_kernel()
    assert (m.cpu.regs["rax"], m.cpu.regs["rbx"]) == (1, 2)


def test_loop_with_jnz(m):
    loop = KERNEL_CODE_VA + 12
    m.load_code(KERNEL_CODE_VA, [
        I("movi", "rax", imm=5),
        I("addi", "rax", imm=-1 & (2**64 - 1)),
        I("jnz", imm=loop),
        I("hlt"),
    ])
    steps = m.run_kernel()
    assert m.cpu.regs["rax"] == 0
    assert steps == 1 + 2 * 5 + 1


def test_sensitive_instructions_fault_from_user(m):
    cases = [
        [I("mov_cr", 4, "rax")],
        [I("wrmsr")],
        [I("stac")],
        [I("lidt", src="rax")],
        [I("tdcall")],
        [I("rdmsr")],
        [I("hlt")],
    ]
    for idx, prog in enumerate(cases):
        machine = MicroMachine()
        machine.load_code(USER_CODE_VA, prog, user=True)
        with pytest.raises(GeneralProtectionFault):
            machine.run_user()


def test_mov_cr_updates_cr4(m):
    m.load_code(KERNEL_CODE_VA, [
        I("movi", "rax", imm=regs.CR4_SMEP | regs.CR4_PKS),
        I("mov_cr", 4, "rax"),
        I("hlt"),
    ])
    m.run_kernel()
    assert m.cpu.crs[4] == regs.CR4_SMEP | regs.CR4_PKS


def test_wrmsr_rdmsr_roundtrip(m):
    m.load_code(KERNEL_CODE_VA, [
        I("movi", "rcx", imm=regs.IA32_LSTAR),
        I("movi", "rax", imm=0x1234),
        I("wrmsr"),
        I("movi", "rax", imm=0),
        I("rdmsr"),
        I("hlt"),
    ])
    m.run_kernel()
    assert m.cpu.regs["rax"] == 0x1234


def test_stac_clac_toggle_ac(m):
    m.map_data(USER_DATA_VA, user=True)
    # without stac, kernel touching user data faults (SMAP)
    m.load_code(KERNEL_CODE_VA, [
        I("movi", "rbx", imm=USER_DATA_VA),
        I("load", "rax", "rbx"),
        I("hlt"),
    ])
    with pytest.raises(PageFault):
        m.run_kernel()
    m2 = MicroMachine()
    m2.map_data(USER_DATA_VA, user=True)
    m2.load_code(KERNEL_CODE_VA, [
        I("movi", "rbx", imm=USER_DATA_VA),
        I("stac"),
        I("load", "rax", "rbx"),
        I("clac"),
        I("hlt"),
    ])
    m2.run_kernel()
    assert m2.cpu.ac is False


def test_syscall_transitions_to_kernel_entry(m):
    entry = KERNEL_CODE_VA
    m.load_code(entry, [I("movi", "rbx", imm=0x5CA11), I("hlt")])
    m.cpu.msrs[regs.IA32_LSTAR] = entry
    m.load_code(USER_CODE_VA, [I("syscall"), I("nop")], user=True)
    m.run_user()
    assert m.cpu.regs["rbx"] == 0x5CA11
    assert m.cpu.regs["rcx"] == USER_CODE_VA + 12  # saved return point


def test_syscall_without_lstar_faults(m):
    m.load_code(USER_CODE_VA, [I("syscall")], user=True)
    with pytest.raises(GeneralProtectionFault):
        m.run_user()


def test_sysret_returns_to_user(m):
    m.load_code(USER_CODE_VA, [I("syscall"), I("movi", "rax", imm=9), I("hlt")],
                user=True)
    kernel_entry = KERNEL_CODE_VA
    m.load_code(kernel_entry, [I("sysret")])
    m.cpu.msrs[regs.IA32_LSTAR] = kernel_entry
    # user hlt faults (#GP) - expected end marker
    with pytest.raises(GeneralProtectionFault):
        m.run_user()
    assert m.cpu.regs["rax"] == 9
    assert m.cpu.mode == "user"


def test_cpuid_native_when_no_tdx(m):
    m.load_code(KERNEL_CODE_VA, [I("cpuid"), I("hlt")])
    m.run_kernel()
    assert m.cpu.regs["rax"] == m.env.cpuid_values[0]


def test_cpuid_raises_ve_in_td_guest():
    m = MicroMachine(tdx=object())
    m.load_code(KERNEL_CODE_VA, [I("cpuid"), I("hlt")])
    with pytest.raises(VirtualizationException) as exc:
        m.run_kernel()
    assert exc.value.exit_reason == "cpuid"


def test_exit_msr_write_raises_ve(m):
    m.env.td_exit_msrs.add(0x9999)
    m.load_code(KERNEL_CODE_VA, [
        I("movi", "rcx", imm=0x9999),
        I("movi", "rax", imm=1),
        I("wrmsr"),
        I("hlt"),
    ])
    with pytest.raises(VirtualizationException):
        m.run_kernel()


def test_interrupt_delivery_and_iret(m):
    handler_va = KERNEL_CODE_VA + 0x1000
    m.load_code(handler_va, [I("movi", "r8", imm=0x1EE7), I("iret")])
    m.install_idt({33: handler_va})
    m.load_code(KERNEL_CODE_VA, [
        I("movi", "rax", imm=1),
        I("int", imm=33),
        I("movi", "rbx", imm=2),
        I("hlt"),
    ])
    m.run_kernel()
    assert m.cpu.regs["r8"] == 0x1EE7
    assert m.cpu.regs["rbx"] == 2
    assert m.cpu.mode == "kernel"


def test_interrupt_from_user_switches_stack_and_mode(m):
    handler_va = KERNEL_CODE_VA + 0x1000
    m.load_code(handler_va, [I("movi", "r9", imm=5), I("iret")])
    m.install_idt({34: handler_va})
    m.load_code(USER_CODE_VA, [
        I("int", imm=34),
        I("movi", "r10", imm=6),
        I("syscall"),  # just to stop: faults without LSTAR
    ], user=True)
    with pytest.raises(GeneralProtectionFault):
        m.run_user()
    assert m.cpu.regs["r9"] == 5
    assert m.cpu.regs["r10"] == 6
    assert m.cpu.mode == "user"  # iret restored user mode


def test_fault_vectors_through_idt_when_delivering(m):
    seen = []

    def on_pf(cpu, vector, fault):
        seen.append((vector, fault.address))
        cpu._halted = True

    m.install_idt(py_handlers={14: on_pf})
    m.load_code(KERNEL_CODE_VA, [
        I("movi", "rbx", imm=0xDEAD000),
        I("load", "rax", "rbx"),   # unmapped -> #PF
        I("hlt"),
    ])
    m.run_kernel(deliver_faults=True)
    assert seen == [(14, 0xDEAD000)]


def test_senduipi_requires_valid_target_table(m):
    m.load_code(USER_CODE_VA, [I("senduipi", "rax")], user=True)
    with pytest.raises(GeneralProtectionFault):
        m.run_user()


def test_senduipi_delivers_when_enabled():
    from repro.hw.uintr import UintrFabric
    fabric = UintrFabric()
    got = []
    fabric.register_receiver(3, lambda sender, idx: got.append((sender, idx)))
    m = MicroMachine(uintr=fabric)
    m.cpu.msrs[regs.IA32_UINTR_TT] = 1  # valid
    m.load_code(USER_CODE_VA, [
        I("movi", "rax", imm=3),
        I("senduipi", "rax"),
        I("int", imm=99),  # stop via missing vector
    ], user=True)
    with pytest.raises(Exception):
        m.run_user()
    assert got == [(0, 3)]


def test_run_livelock_guard(m):
    m.load_code(KERNEL_CODE_VA, [I("jmp", imm=KERNEL_CODE_VA)])
    from repro.hw.errors import SimulatorError
    with pytest.raises(SimulatorError):
        m.run_kernel(max_steps=50)


def test_cycle_accounting_charges_instructions(m):
    m.load_code(KERNEL_CODE_VA, [I("nop"), I("nop"), I("hlt")])
    before = m.clock.cycles
    m.run_kernel()
    assert m.clock.cycles > before


# --------------------------------------------------------------------------- #
# interpreter regressions: faulting-rip parking, page-straddling fetch
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("faulting, fault", [
    (I("load", "rax", "rbx"), PageFault),     # rbx is unmapped
    (I("div", "rax", "rcx"), DivideError),    # rcx is zero
])
def test_fault_parks_rip_on_the_faulting_instruction(m, faulting, fault):
    """step() advances rip before the handler runs; a handler fault must
    leave rip on the faulting instruction, raised or delivered."""
    m.load_code(KERNEL_CODE_VA, [
        I("movi", "rbx", imm=0xDEAD000), faulting, I("hlt"),
    ])
    faulting_va = KERNEL_CODE_VA + INSTR_SIZE
    with pytest.raises(fault):
        m.run_kernel()
    assert m.cpu.rip == faulting_va

    seen = []

    def on_fault(cpu, vector, exc):
        seen.append(cpu.rip)
        cpu._halted = True

    m.install_idt(py_handlers={fault.vector: on_fault})
    m.run_kernel(deliver_faults=True)
    assert seen == [faulting_va]


STRADDLE_PAGE = 0x0050_0000
#: three instructions whose second one straddles the page boundary
STRADDLE_RIP = STRADDLE_PAGE + PAGE_SIZE - INSTR_SIZE - 4


def _map_code_page(m, va, fn):
    m.phys.frame(fn).materialize()
    m.aspace.map_page(va, fn, PTE_P, 0)


def test_fetch_straddling_pages_reads_both_mapped_frames(m):
    """The two halves come from the frames the two pages map, which need
    not be physically adjacent (here they are in reverse order)."""
    low, _gap, high = (m.phys.alloc_frame("kernel") for _ in range(3))
    _map_code_page(m, STRADDLE_PAGE, high)
    _map_code_page(m, STRADDLE_PAGE + PAGE_SIZE, low)
    m.write_phys(STRADDLE_RIP, b"".join(i.encode() for i in [
        I("movi", "rbx", imm=5), I("movi", "rax", imm=0x1234), I("hlt"),
    ]))
    assert m.run_kernel(STRADDLE_RIP) == 3
    assert (m.cpu.regs["rax"], m.cpu.regs["rbx"]) == (0x1234, 5)


def test_fetch_straddling_into_unmapped_page_faults_on_that_instruction(m):
    _map_code_page(m, STRADDLE_PAGE, m.phys.alloc_frame("kernel"))
    m.write_phys(STRADDLE_RIP, I("movi", "rbx", imm=5).encode()
                 + I("movi", "rax", imm=0x1234).encode()[:4])
    with pytest.raises(PageFault) as exc_info:
        m.run_kernel(STRADDLE_RIP)
    assert exc_info.value.address == STRADDLE_PAGE + PAGE_SIZE
    assert m.cpu.rip == STRADDLE_RIP + INSTR_SIZE
    assert m.cpu.regs["rbx"] == 5
