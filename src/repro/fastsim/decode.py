"""Decode-once lowering: a program as dense per-PC tables.

The reference simulators re-inspect :class:`Instruction` objects on every
dynamic step (string compares, ``info`` property lookups, dict-keyed
register reads).  :func:`decode_program` does that inspection exactly once
per static instruction, producing :class:`DecodedProgram` — flat lists
indexed by PC — shared by both fast simulators:

* :mod:`repro.fastsim.codegen` lowers the per-PC operands, targets and
  guards into the native functional kernel's records;
* the fast timing model (:mod:`repro.fastsim.timing`) packs the
  pre-resolved queue/unit/latency/dependence tables into flat integer
  arrays for the native timing kernel.

Registers are mapped into one flat id space so the timing model's rename
and dependence state can live in a single 72-slot table::

    r0..r31 -> 0..31      f0..f31 -> 32..63      cc0..cc7 -> 64..71

Decoded tables are cached per program *identity* (``id`` + weakref, the
Program dataclass is unhashable) and carry a staleness signature
(instruction count + label layout) so a table decoded from a program
that was later mutated in place is rejected instead of mis-executed —
see ``fastsim-stale-decode`` in :mod:`repro.fastsim.faults`.  The
tables refer to their program weakly too, so the cache never keeps a
program (or the lowered and timing tables hanging off its decode)
alive.
"""

from __future__ import annotations

import weakref
from array import array
from dataclasses import dataclass, field
from typing import Optional

from ..isa.opcodes import Unit
from ..isa.program import Program

#: Per-PC flag bits (``DecodedProgram.flags``).
F_BRANCH = 1       # conditional branch (incl. branch-likely)
F_LIKELY = 2
F_JUMP = 4         # any jump: j/jal/jr/jalr
F_JRJALR = 8       # register-target jump
F_FENCE = 16
F_MEM = 32         # load or store
F_HALT = 64
F_UNMODELED = 128  # Unit.NONE op the timing model does not admit
F_GUARDED = 256
F_BTB = 512        # may hold a branch target buffer entry (has_btb_entry)

#: Reservation-queue ids, mirroring ``pipeline._QUEUE_OF_UNIT`` order.
QUEUE_NAMES = ("alu", "ldst", "fp", "br")
#: Functional-unit ids, mirroring ``pipeline._UNIT_NAME`` order.
UNIT_NAMES = ("alu", "sft", "ldst", "br", "fpadd", "fpmul", "fpdiv")

_QUEUE_ID = {
    Unit.ALU: 0, Unit.SHIFT: 0, Unit.NONE: 0,
    Unit.MEM: 1,
    Unit.FPADD: 2, Unit.FPMUL: 2, Unit.FPDIV: 2,
    Unit.BRANCH: 3,
}
_UNIT_ID = {
    Unit.ALU: 0, Unit.NONE: 0,   # NONE ops occupy an ALU slot (reference)
    Unit.SHIFT: 1,
    Unit.MEM: 2,
    Unit.BRANCH: 3,
    Unit.FPADD: 4, Unit.FPMUL: 5, Unit.FPDIV: 6,
}

#: ``Unit.NONE`` opcodes the cycle model explicitly handles (keep in sync
#: with ``pipeline._MODELED_NONE_OPS``).
_MODELED_NONE_OPS = frozenset(("nop", "halt", "fence"))


class DecodeError(ValueError):
    """The program cannot be lowered (odd operands, unknown registers)."""


def reg_id(name: str) -> int:
    """Flat register id: r0..r31 -> 0..31, f -> 32..63, cc -> 64..71."""
    try:
        if name[0] == "r":
            i = int(name[1:])
            if 0 <= i < 32:
                return i
        elif name[0] == "f":
            i = int(name[1:])
            if 0 <= i < 32:
                return 32 + i
        elif name[0] == "c" and name[1] == "c":
            i = int(name[2:])
            if 0 <= i < 8:
                return 64 + i
    except (ValueError, IndexError):
        pass
    raise DecodeError(f"unknown register {name!r}")


@dataclass
class DecodedProgram:
    """Dense per-PC operand tables for one program."""

    #: weak reference to the decoded program (see :attr:`prog`)
    prog_ref: weakref.ref
    n: int
    #: staleness signature: (len(instructions), sorted label layout)
    nlabels: int
    labels_sig: tuple
    ops: list[str]
    flags: list[int]
    targets: list[int]                    # resolved target index, -1 if none
    queue_ids: list[int]
    unit_ids: list[int]
    lat_classes: list[str]
    use_ids: list[tuple]                  # register-id tuple per PC
    def_ids: list[int]                    # flat id of the renamed def, -1
    rename_ids: list[int]                 # 0 none / 1 int / 2 fp
    guards: list[Optional[tuple]]         # (cc index 0..7, sense) or None
    #: per-PC target map in FunctionalSim._targets form (slow-path seeding)
    targets_map: dict = field(default_factory=dict)
    #: the functional kernel's tables (repro.fastsim.codegen.get_compiled)
    _lowered: object = field(default=None, repr=False)
    #: packed timing tables per machine config, keyed (cache_line,
    #: latencies)
    _timing_tables: dict = field(default_factory=dict, repr=False)

    @property
    def prog(self) -> Optional[Program]:
        """The decoded program, or None once it has been collected."""
        return self.prog_ref()

    def check_stale(self, prog: Program) -> None:
        """Reject tables decoded from a since-mutated program."""
        if (prog is not self.prog
                or len(prog.instructions) != self.n
                or len(prog.labels) != self.nlabels
                or tuple(sorted(prog.labels.items())) != self.labels_sig):
            raise DecodeError(
                f"stale decode tables for program {prog.name!r}: "
                f"{self.n} decoded instructions / {self.nlabels} labels vs "
                f"{len(prog.instructions)} / {len(prog.labels)} now")

    def timing_tables(self, cfg) -> tuple:
        """Per-config tables for the native timing kernel.

        Returns ``(meta, uses)``, two ``array('i')``: one nine-int record
        per PC (``M_*`` in ``timing_kernel.c``) -- flags (including
        ``F_LIKELY`` and ``F_BTB``), icache line, queue id, rename class,
        unit id, def id, resolved latency, and the offset and count of
        its use ids -- and the flattened use ids.
        """
        key = (cfg.cache_line, cfg.latencies)
        hit = self._timing_tables.get(key)
        if hit is None:
            shift = cfg.cache_line.bit_length() - 1
            meta = array("i")
            uses = array("i")
            for pc in range(self.n):
                ids = self.use_ids[pc]
                meta.extend((
                    self.flags[pc], (pc * 4) >> shift, self.queue_ids[pc],
                    self.rename_ids[pc], self.unit_ids[pc],
                    self.def_ids[pc],
                    cfg.latencies.of_class(self.lat_classes[pc]),
                    len(uses), len(ids)))
                uses.extend(ids)
            hit = self._timing_tables[key] = (meta, uses)
        return hit


def _decode(prog: Program) -> DecodedProgram:
    instrs = prog.instructions
    n = len(instrs)
    if n == 0:
        raise DecodeError("cannot decode an empty program")
    ops, flags, targets = [], [], []
    queue_ids, unit_ids, lat_classes = [], [], []
    use_ids, def_ids, rename_ids, guards = [], [], [], []
    targets_map: dict[int, int] = {}
    for pc, ins in enumerate(instrs):
        info = ins.info
        op = ins.op
        fl = 0
        if info.is_branch:
            fl |= F_BRANCH
            if info.is_likely:
                fl |= F_LIKELY
        if info.has_btb_entry:
            fl |= F_BTB
        if info.is_jump:
            fl |= F_JUMP
            if op in ("jr", "jalr"):
                fl |= F_JRJALR
        if info.is_fence:
            fl |= F_FENCE
        if info.is_load or info.is_store:
            fl |= F_MEM
        if info.is_halt:
            fl |= F_HALT
        if info.unit is Unit.NONE and op not in _MODELED_NONE_OPS:
            fl |= F_UNMODELED
        if ins.guard is not None:
            fl |= F_GUARDED
            gid = reg_id(ins.guard.reg)
            if gid < 64:
                raise DecodeError(f"guard on non-cc register at pc={pc}")
            guards.append((gid - 64, bool(ins.guard.sense)))
        else:
            guards.append(None)
        tgt = -1
        if ins.target is not None:
            tgt = prog.target_index(ins.target)
            targets_map[pc] = tgt
        dest = ins.dest
        rid = 0
        if dest is not None and dest != "r0":
            if dest[0] == "r":
                rid = 1
            elif dest[0] == "f":
                rid = 2
        defs = ins.defs()
        ops.append(op)
        flags.append(fl)
        targets.append(tgt)
        queue_ids.append(_QUEUE_ID[info.unit])
        unit_ids.append(_UNIT_ID[info.unit])
        lat_classes.append(info.latency_class)
        use_ids.append(tuple(reg_id(r) for r in ins.uses()))
        def_ids.append(reg_id(defs[0]) if defs else -1)
        rename_ids.append(rid)
    return DecodedProgram(
        prog_ref=weakref.ref(prog), n=n, nlabels=len(prog.labels),
        labels_sig=tuple(sorted(prog.labels.items())),
        ops=ops, flags=flags, targets=targets,
        queue_ids=queue_ids, unit_ids=unit_ids, lat_classes=lat_classes,
        use_ids=use_ids, def_ids=def_ids, rename_ids=rename_ids,
        guards=guards, targets_map=targets_map)


#: id -> (weakref to program, decoded tables).  Keyed by identity because
#: the Program dataclass defines __eq__ without __hash__.  Nothing in a
#: slot refers to its program strongly, so the weakref callback evicts
#: the slot when the program is collected, and a recycled id can never
#: alias a dead program's tables.
_DECODE_CACHE: dict = {}


def decode_program(prog: Program) -> DecodedProgram:
    """Decode *prog* (cached per identity; staleness-checked)."""
    key = id(prog)
    hit = _DECODE_CACHE.get(key)
    if hit is not None:
        ref, dec = hit
        if ref() is prog:
            try:
                dec.check_stale(prog)
                return dec
            except DecodeError:
                pass  # program mutated in place: re-decode
    dec = _decode(prog)

    # Bind the dict itself: at interpreter shutdown the module global may
    # already be None when the weakref callback fires.
    def _evict(_r, _key=key, _cache=_DECODE_CACHE):
        _cache.pop(_key, None)

    _DECODE_CACHE[key] = (weakref.ref(prog, _evict), dec)
    return dec
