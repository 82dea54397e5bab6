"""IR verifier: clean pipelines verify clean; every violation class fires."""

import pytest

from repro.core import compile_baseline, compile_proposed
from repro.isa import parse
from repro.isa.instruction import Guard, Instruction
from repro.isa.opcodes import Fmt, opinfo
from repro.isa.program import Program
from repro.isa.randprog import random_program
from repro.robust import VerificationError, assert_valid, verify_program
from repro.robust.verifier import Violation

TINY = """.text
main:
    li   r1, 5
    li   r2, 7
    beq  r1, r2, skip
    add  r3, r1, r2
skip:
    halt
"""


def _tiny():
    return parse(TINY, name="tiny")


def test_clean_program_verifies():
    assert verify_program(_tiny()) == []


@pytest.mark.parametrize("seed", range(3))
def test_pipelines_emit_verified_ir(seed):
    prog = random_program(seed)
    for result in (compile_baseline(prog), compile_proposed(prog)):
        assert verify_program(result.program) == []


def test_dangling_target_flagged():
    prog = _tiny()
    prog.instructions[2].target = ".nowhere"
    assert any(v.check == "targets" for v in verify_program(prog))


def test_label_out_of_range_flagged():
    prog = _tiny()
    prog.labels["skip"] = len(prog.instructions) + 7
    assert any(v.check in ("labels", "targets")
               for v in verify_program(prog))


def test_wrong_register_class_flagged():
    prog = _tiny()
    # Mutate behind the Instruction constructor's back, the way a buggy
    # in-place pass would.
    prog.instructions[3].srcs = ("r1", "cc0")
    assert any(v.check == "registers" for v in verify_program(prog))


def test_bogus_register_name_flagged():
    prog = _tiny()
    prog.instructions[3].srcs = ("r1", "q7")
    assert any(v.check == "registers" for v in verify_program(prog))


def test_stale_guard_flagged():
    prog = _tiny()
    prog.instructions[3].guard = Guard("cc3", sense=True)
    vs = verify_program(prog)
    assert any(v.check == "guards" for v in vs)


def test_defined_guard_accepted():
    prog = parse(""".text
main:
    li     r1, 5
    li     r2, 7
    cmplt  cc0, r1, r2
    (cc0) add r3, r1, r2
    halt
""", name="guarded")
    assert verify_program(prog) == []


def test_fall_off_end_flagged():
    prog = parse(".text\nmain:\n    li r1, 1\n    add r2, r1, r1\n    halt\n",
                 name="no-halt")
    prog.instructions.pop()  # a buggy pass dropped the terminator
    assert any(v.check == "structure" for v in verify_program(prog))


def test_assert_valid_raises_with_diagnosis():
    prog = _tiny()
    prog.instructions[2].target = ".nowhere"
    with pytest.raises(VerificationError, match="dangling target"):
        assert_valid(prog)


# -- register classes, one case per opcode format ------------------------------

#: (opcode, dest, srcs, wrong-class dest, dest class, index of the
#: wrong-class src, that src, its class).  A None dest means the format
#: has no destination.
REGISTER_CASES = [
    ("add", "r1", ("r2", "r3"), "f1", "int", 1, "cc0", "int"),        # rrr
    ("addi", "r1", ("r2",), "cc1", "int", 0, "f2", "int"),            # rri
    ("li", "r1", (), "f1", "int", None, None, None),                  # ri
    ("mov", "r1", ("r2",), "cc0", "int", 0, "f0", "int"),             # rr
    ("lw", "r1", ("r2",), "f3", "int", 0, "cc2", "int"),              # load
    ("sw", None, ("r3", "r2"), None, None, 0, "f3", "int"),           # store
    ("beq", None, ("r1", "r2"), None, None, 1, "cc0", "int"),         # branch2
    ("bct", None, ("cc0",), None, None, 0, "r1", "cc"),               # branch1
    ("j", None, (), None, None, None, None, None),                    # jump
    ("jr", None, ("r31",), None, None, 0, "f31", "int"),              # jr
    ("jalr", "r31", ("r4",), "cc7", "int", 0, "f4", "int"),           # jalr
    ("cmpeq", "cc0", ("r1", "r2"), "r3", "cc", 0, "cc1", "int"),      # cmp
    ("cand", "cc0", ("cc1", "cc2"), "r1", "cc", 1, "r2", "cc"),       # cclogic2
    ("cnot", "cc1", ("cc0",), "f1", "cc", 0, "r1", "cc"),             # cclogic1
    ("cmovt", "r1", ("r2", "cc0"), "cc1", "int", 1, "r3", "cc"),      # cmovcc
    ("movz", "r1", ("r2", "r3"), "f1", "int", 1, "cc0", "int"),       # cmovr
    ("nop", None, (), None, None, None, None, None),                  # none
    ("fadd", "f1", ("f2", "f3"), "r1", "fp", 0, "r2", "fp"),          # fp rrr
    ("lwf", "f1", ("r2",), "r1", "fp", 0, "f2", "int"),               # fp load
    ("swf", None, ("f2", "r2"), None, None, 0, "r3", "fp"),           # fp store
    ("cvtif", "f1", ("r2",), "r1", "fp", 0, "f2", "int"),             # int->fp
    ("cvtfi", "r1", ("f2",), "f1", "int", 0, "r2", "fp"),             # fp->int
    ("fcmplt", "cc2", ("f1", "f2"), "f3", "cc", 1, "r2", "fp"),       # fp cmp
]


def _lone(op, dest, srcs):
    """*op* as the first instruction of a two-instruction program."""
    target = "main" if opinfo(op).fmt in (Fmt.BRANCH1, Fmt.BRANCH2,
                                          Fmt.JUMP) else None
    prog = Program(name=op)
    prog.add_label("main", 0)
    prog.append(Instruction(op, dest=dest, srcs=srcs, target=target))
    prog.append(Instruction("halt"))
    return prog


@pytest.mark.parametrize("case", REGISTER_CASES, ids=lambda c: c[0])
def test_register_classes_per_format(case):
    op, dest, srcs, bad_dest, dest_cls, k, bad_src, src_cls = case
    prog = _lone(op, dest, srcs)
    assert verify_program(prog) == []
    ins = prog.instructions[0]
    # Corrupt behind the constructor's back, the way a buggy pass would.
    expected = []
    where = f"instr 0 ({op})"
    if bad_dest is not None:
        ins.dest = bad_dest
        expected.append(Violation(
            "registers", where, f"dest {bad_dest!r} not in class "
                                f"{dest_cls!r}"))
    if k is not None:
        ins.srcs = srcs[:k] + (bad_src,) + srcs[k + 1:]
        expected.append(Violation(
            "registers", where, f"src{k} {bad_src!r} not in class "
                                f"{src_cls!r}"))
    ins.guard = Guard("r5")
    expected.append(Violation(
        "registers", where, "guard register 'r5' is not a cc register"))
    assert verify_program(prog) == expected


def test_register_check_survives_an_op_rewritten_in_place():
    # The cached opcode metadata keeps an unknown mnemonic checkable.
    prog = _tiny()
    prog.instructions[3].op = "__undocumented_op__"
    prog.instructions[3].srcs = ("r1", "f2")
    assert verify_program(prog) == [Violation(
        "registers", "instr 3 (__undocumented_op__)",
        "src1 'f2' not in class 'int'")]
