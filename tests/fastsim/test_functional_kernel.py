"""Edge semantics of the native functional kernel, one hand-written
program per edge.

Each program runs on the reference interpreter and on
``FastFunctionalSim``, which must agree on everything observable: the
``crosscheck`` report (with and without outcome recording), the failure
(exception type, message, pc and step count), the final pc, the pages
``Memory`` allocated (and their order), ``index_counts``, the
``ExecStats`` payload and the batched trace.  Where it matters, the test
also pins whether the kernel ran the whole program itself or handed off
to the reference interpreter before an instruction it does not model.
"""

import pytest

from repro.fastsim import crosscheck
from repro.fastsim.functional import FastFunctionalSim
from repro.isa.parser import parse
from repro.sim.functional import FunctionalSim

MAX_STEPS = 10_000


def _outcome(sim):
    try:
        sim.run()
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return (type(exc).__name__, str(exc), getattr(exc, "pc", None),
                getattr(exc, "steps", None))
    return None


def _reference_trace(prog, max_steps):
    sim = FunctionalSim(prog, max_steps=max_steps, record_outcomes=False)
    idxs, brs, mems, anns = [], [], [], []
    try:
        for step, e in enumerate(sim.trace()):
            idxs.append(e.index)
            if e.annulled:
                anns.append(step)
                continue
            if e.taken is not None:
                brs.append(e.taken)
            if e.addr is not None:
                mems.append(e.addr)
    except Exception:  # noqa: BLE001 - the failure is compared elsewhere
        pass
    return idxs, brs, mems, anns


def _fast_trace(prog, max_steps):
    sim = FastFunctionalSim(prog, max_steps=max_steps, record_outcomes=False)
    out = ([], [], [], [])
    try:
        for batch in sim.batches():
            for acc, part in zip(out, batch):
                acc.extend(part)
    except Exception:  # noqa: BLE001
        pass
    return tuple([int(v) for v in acc] for acc in out)


def agree(text: str, *, max_steps: int = MAX_STEPS,
          kernel_only: bool = None):
    """Assert both backends agree on *text*; returns the failure tuple."""
    prog = parse(text, name="edge")
    for record in (True, False):
        report = crosscheck(prog, max_steps=max_steps,
                            record_outcomes=record)
        assert report.equivalent, (report.reason, report.mismatches[:3])
    ref = FunctionalSim(prog, max_steps=max_steps)
    fast = FastFunctionalSim(prog, max_steps=max_steps)
    failure = _outcome(ref)
    assert _outcome(fast) == failure
    assert fast.pc == ref.pc
    assert list(fast.mem._pages) == list(ref.mem._pages)
    assert fast.index_counts == ref.index_counts
    assert fast.stats.to_dict() == ref.stats.to_dict()
    ref_trace = _reference_trace(prog, max_steps)
    assert _fast_trace(prog, max_steps) == ref_trace
    if kernel_only is not None:
        assert (fast._slow is None) == kernel_only
    return failure


def test_division_by_zero_and_int_min_over_minus_one():
    failure = agree("""
    main:
        li r1, 7
        li r2, 0
        div r3, r1, r2
        rem r4, r1, r2
        div r0, r1, r2
        li r5, -2147483648
        li r6, -1
        div r7, r5, r6
        rem r8, r5, r6
        li r9, -7
        li r10, 2
        div r11, r9, r10
        rem r12, r9, r10
        div r13, r10, r9
        rem r14, r10, r9
        cvtif f1, r1
        cvtif f2, r2
        fdiv f3, f1, f2
        fdiv f4, f1, f1
        halt
    """, kernel_only=True)
    assert failure is None


def test_shift_masking_and_sign_extension():
    agree("""
        .data
    bytes:  .byte 0x80, 0x7f, 0xff, 0x01
    halfs:  .word 0x7fff8001
        .text
    main:
        li r1, -1
        li r2, 37
        li r20, 0x40000000
        sllv r3, r1, r2
        srlv r4, r1, r2
        srav r5, r1, r2
        srav r21, r20, r2
        sll r6, r1, 33
        srl r7, r1, 63
        sra r8, r1, 36
        sra r22, r20, 62
        la r10, bytes
        lb r11, 0(r10)
        lbu r12, 0(r10)
        lb r13, 1(r10)
        lb r14, 2(r10)
        la r15, halfs
        lh r16, 0(r15)
        lhu r17, 0(r15)
        lh r18, 2(r15)
        lhu r19, 2(r15)
        lb r0, 0(r10)
        halt
    """, kernel_only=True)


@pytest.mark.parametrize("access", [
    "lw r3, 2(r2)", "lh r3, 1(r2)", "lhu r3, 3(r2)", "sw r3, 1(r2)",
    "sh r3, 3(r2)", "lw r0, 1(r2)"])
@pytest.mark.parametrize("base", ["buf", "0x20000000"])
def test_unaligned_access_fails_identically(access, base):
    # The 0x20000000 base is a page nothing wrote: the faulting store
    # must not allocate it.
    failure = agree(f"""
        .data
    buf:    .word 1, 2, 3, 4
        .text
    main:
        la r2, {base}
        li r3, 9
        sw r3, 4(r2)
        {access}
        halt
    """, kernel_only=False)
    assert failure[0] == "AlignmentError"


def test_float_load_and_store_of_nan_and_denormals():
    # The NaNs stay in their registers too: crosscheck compares fp
    # registers bit for bit.
    agree("""
        .data
    words:  .word 0x7fc00001, 0x7f800001, 0x00000001, 0x80400000
    out:    .space 32
        .text
    main:
        la r1, words
        la r2, out
        lwf f1, 0(r1)
        lwf f2, 4(r1)
        lwf f3, 8(r1)
        lwf f4, 12(r1)
        swf f1, 0(r2)
        swf f2, 4(r2)
        fadd f5, f3, f3
        fmul f6, f3, f4
        swf f3, 8(r2)
        swf f5, 12(r2)
        swf f6, 16(r2)
        fcmpeq cc1, f1, f1
        fcmplt cc2, f1, f3
        swf f4, 30(r2)
        halt
    """, kernel_only=True)


def test_float_store_overflow_hands_off():
    failure = agree("""
        .data
    out:    .space 8
        .text
    main:
        li r1, 2147483647
        cvtif f1, r1
        fmul f2, f1, f1
        fmul f3, f2, f2
        fmul f4, f3, f1
        la r2, out
        swf f3, 0(r2)
        swf f4, 4(r2)
        halt
    """, kernel_only=False)
    assert failure[0] == "OverflowError"


@pytest.mark.parametrize("word,error,kernel_only", [
    ("0x7fc00000", "ValueError", False),       # nan
    ("0x7f800000", "OverflowError", False),    # inf
    ("0xff800000", "OverflowError", False),    # -inf
    ("0x7149f2ca", None, False),               # 1e30: no error, huge int
    ("0x5effffff", None, True),                # just below 2^63
    ("0xdeffffff", None, True),                # just above -2^63
    ("0xc0600000", None, True),                # -3.5 truncates toward 0
])
def test_cvtfi_edges(word, error, kernel_only):
    failure = agree(f"""
        .data
    val:    .word {word}
        .text
    main:
        la r1, val
        lwf f1, 0(r1)
        cvtfi r2, f1
        cvtfi r0, f1
        addi r3, r2, 1
        cvtif f1, r0
        halt
    """, kernel_only=kernel_only)
    assert (failure[0] if failure else None) == error


@pytest.mark.parametrize("target", [1000, -1, 11])
def test_jr_out_of_range(target):
    failure = agree(f"""
    main:
        li r1, {target}
        li r2, 3
        jr r1
        halt
    """, kernel_only=False)
    assert failure[0] == "SimulationDiverged"


def test_jr_into_the_middle_of_a_block():
    agree("""
    main:
        li r1, 5
        li r2, 0
        li r4, 3
        jr r1
        addi r2, r2, 100
        addi r2, r2, 1
        addi r4, r4, -1
        li r1, 5
        bnez r4, back
        halt
    back:
        jr r1
    """, kernel_only=True)


@pytest.mark.parametrize("budget", [0, 1, 5, 6, 7, 8, 9, 17])
def test_step_budget_expires_mid_block(budget):
    failure = agree("""
    main:
        li r1, 3
        li r2, 0
    loop:
        addi r2, r2, 1
        addi r2, r2, 2
        sw r2, 64(r0)
        addi r1, r1, -1
        bnez r1, loop
        halt
    """, max_steps=budget, kernel_only=False)
    assert failure[0] == "StepBudgetExceeded"


def test_immediates_wider_than_32_bits():
    agree("""
        .data
    buf:    .word 0, 0
        .text
    main:
        addi r1, r0, 0x100000005
        subi r2, r1, 0x100000001
        addi r3, r1, 0x400000000000000001
        slti r4, r1, 0x100000000
        slti r5, r1, -0x100000000
        slti r6, r1, 0x400000000000000000
        cmpi cc1, r1, 0x200000000
        cmpi cc2, r1, -0x4000000000000000000
        muli r7, r1, 0x100000003
        muli r8, r1, -0x100000003
        lui r9, 0x12345
        lui r10, -1
        li r11, 0x123456789
        li r12, -0x100000001
        andi r13, r11, 0x1ffffffff
        ori r14, r0, -0x100000000
        xori r15, r11, 0x300000000
        sll r16, r1, 0x100000003
        la r20, buf
        li r21, 0x100000000
        add r21, r20, r21
        sw r1, 0x100000004(r20)
        lw r22, -0xfffffffc(r20)
        halt
    """, kernel_only=True)


def test_guarded_terminators_and_writes_to_r0():
    agree("""
        .data
    buf:    .word 5
    tbl:    .word &after
        .text
    main:
        li r1, 1
        la r9, buf
        cmpeq cc1, r1, r1
        cmpne cc2, r1, r1
        (cc2) j bad
        (!cc2) j next
        li r5, 99
    next:
        (!cc1) bnez r1, bad
        (cc1) beqz r0, over
        li r6, 1
    over:
        (cc2) jal bad
        (cc1) jal func
        add r0, r1, r1
        addi r0, r0, 5
        lw r0, 0(r9)
        mov r0, r1
        lw r7, 4(r9)
        jalr r0, r7
    bad:
        li r10, 1
        halt
    func:
        (cc2) jr r31
        (!cc1) jr r31
        (cc1) jr r31
    after:
        (cc2) halt
        li r11, 1
        halt
    """, kernel_only=True)


def test_reads_of_unwritten_pages_do_not_allocate():
    agree("""
    main:
        li r1, 0x30000000
        lw r2, 0(r1)
        lb r3, 5(r1)
        lhu r4, 8(r1)
        lwf f1, 12(r1)
        li r5, 0x30001ffe
        lwf f2, 0(r5)
        li r6, 0x40000ffe
        cvtif f3, r1
        swf f3, 0(r6)
        li r7, 0x50000000
        sb r1, 3(r7)
        lw r8, 0(r7)
        halt
    """, kernel_only=True)
    prog = parse("""
    main:
        li r1, 0x30000000
        lw r2, 0(r1)
        halt
    """)
    fast = FastFunctionalSim(prog)
    fast.run()
    assert 0x30000 not in fast.mem._pages
