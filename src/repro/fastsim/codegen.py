"""Lowering: a decoded program as the native functional kernel's tables.

:func:`get_compiled` lowers a :class:`~repro.fastsim.decode.DecodedProgram`
once into a :class:`LoweredProgram` -- one fixed-size ``int32`` record per
PC (``L_*`` in ``functional_kernel.c``: opcode id, guard, the three
register operands as indices into their own register file, static
target, branch-outcome slot) plus a parallel ``int64`` immediate array --
which the kernel validates and then interprets without ever looking at an
:class:`Instruction` again.

The opcode ids and operand signatures come from the kernel itself
(``fk_optable()``), so the kernel's opcode table is the only one.
Anything the records cannot express lowers to the kernel's ``HANDOFF``
opcode, on which it stops *before* that instruction and hands the run to
the reference interpreter: an unknown opcode, an operand in the wrong
register file or missing, a non-integer immediate, a branch without a
target.  Integer immediates of any width are exact: every use is either
modulo 2^32 (arithmetic, addresses, shift counts, ``li``/``lui``) or a
signed comparison against a 32-bit value (``slti``/``cmpi``), where
clamping to +-2^40 changes no outcome.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Callable, Optional

from . import native
from .decode import F_BRANCH, DecodedProgram, DecodeError

#: int32 fields per lowered record (``FK_STRIDE``).
STRIDE = 7
_HANDOFF = 0
_CLAMP = 1 << 40
#: register file -> {register name: index in that file}
_FILES = {"r": {f"r{i}": i for i in range(32)},
          "f": {f"f{i}": i for i in range(32)},
          "c": {f"cc{i}": i for i in range(8)},
          "-": None}

#: Test/fault-injection hook: when set, applied to each freshly lowered
#: program before validation (and the lowering cache is bypassed so
#: corrupted tables never outlive the hook).  See repro.fastsim.faults.
_TABLE_TRANSFORM: Optional[
    Callable[["LoweredProgram"], "LoweredProgram"]] = None


@dataclass(frozen=True)
class LoweredProgram:
    """The functional kernel's view of one program."""

    code: array        # int32, STRIDE fields per PC
    imms: array        # int64, one per PC
    #: branch-outcome slot -> instruction uid (first static occurrence
    #: order; instructions sharing a uid share a slot)
    slot_uids: tuple

    @property
    def n(self) -> int:
        return len(self.imms)

    @property
    def source(self) -> bytes:
        """The lowered program's bytes, as the kernel reads them."""
        return self.code.tobytes() + self.imms.tobytes()


_OPTABLE: Optional[dict] = None


def _optable() -> dict:
    """mnemonic -> (opcode id, signature), read from the kernel."""
    global _OPTABLE
    if _OPTABLE is None:
        mod = native.kernel()
        text = mod.ffi.string(mod.lib.fk_optable()).decode()
        _OPTABLE = {name: (i, sig) for i, (name, sig) in enumerate(
            entry.split(":") for entry in text.split())}
    return _OPTABLE


def _operand(name, kind: str) -> int:
    """Index of register *name* in register file *kind* ('r'/'f'/'c'),
    0 for an unused operand ('-')."""
    regs = _FILES[kind]
    if regs is None:
        return 0
    i = regs.get(name) if isinstance(name, str) else None
    if i is None:
        raise DecodeError(f"{name!r} is not a {kind} register")
    return i


def _lower_one(ins, pc: int, dec: DecodedProgram, table: dict,
               slots: dict) -> tuple:
    """(record, immediate) of one instruction; raises DecodeError when
    the kernel cannot express it."""
    op = ins.op[:-1] if ins.is_likely else ins.op
    opid, sig = table.get(op, (_HANDOFF, "-----"))
    if opid == _HANDOFF:
        raise DecodeError(f"opcode {ins.op!r}")
    srcs = list(ins.srcs) + [None, None]
    d = _operand(ins.dest, sig[0])
    a = _operand(srcs[0], sig[1])
    b = _operand(srcs[1], sig[2])
    imm = 0
    if sig[3] != "-":
        imm = ins.imm
        if type(imm) is not int:
            raise DecodeError(f"immediate {imm!r}")
        imm = (max(-_CLAMP, min(_CLAMP, imm)) if sig[3] == "s"
               else imm & 0xFFFF_FFFF)
    target = dec.targets[pc] if sig[4] == "t" else 0
    if target < 0:
        raise DecodeError("no branch target")
    slot = -1
    if dec.flags[pc] & F_BRANCH:
        slot = slots.setdefault(ins.uid, len(slots))
    guard = dec.guards[pc]
    g = -1 if guard is None else guard[0] << 1 | guard[1]
    return (opid, g, d, a, b, target, slot), imm


def lower(dec: DecodedProgram) -> LoweredProgram:
    """Lower *dec* (no caching, no validation)."""
    table = _optable()
    code = array("i")
    imms = array("q")
    slots: dict = {}
    for pc, ins in enumerate(dec.prog.instructions):
        try:
            rec, imm = _lower_one(ins, pc, dec, table, slots)
        except DecodeError:
            rec, imm = (_HANDOFF, -1, 0, 0, 0, 0, -1), 0
        code.extend(rec)
        imms.append(imm)
    return LoweredProgram(code, imms, tuple(slots))


def validate(low: LoweredProgram) -> None:
    """Have the kernel check every record; raise DecodeError if not."""
    mod = native.kernel()
    if len(low.code) != STRIDE * low.n:
        raise DecodeError(f"lowered program has {len(low.code)} record "
                          f"fields for {low.n} instructions")
    bad = mod.lib.fk_validate(mod.ffi.from_buffer("int32_t[]", low.code),
                              low.n, len(low.slot_uids))
    if bad >= 0:
        raise DecodeError(f"lowered program rejected at pc={bad}")


def get_compiled(dec: DecodedProgram, *, record: bool,
                 trace: bool) -> LoweredProgram:
    """The validated lowering of *dec* (cached on it).

    One lowering serves every run mode; *record* and *trace* only select
    what the kernel writes at run time.
    """
    del record, trace
    if _TABLE_TRANSFORM is None and dec._lowered is not None:
        return dec._lowered
    low = lower(dec)
    if _TABLE_TRANSFORM is not None:
        low = _TABLE_TRANSFORM(low)
    validate(low)
    if _TABLE_TRANSFORM is None:
        dec._lowered = low
    return low
