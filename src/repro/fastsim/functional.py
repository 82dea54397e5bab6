"""FastFunctionalSim: the Python front end of the native functional kernel.

Runs a program's lowered tables (:mod:`repro.fastsim.codegen`) on the C
interpreter in ``functional_kernel.c`` and exposes the same observable
surface as :class:`repro.sim.functional.FunctionalSim`:

* :meth:`run` → the same :class:`ExecStats` (every counter, branch
  outcome vector and ``branch_pc`` map byte-identical);
* :attr:`regs` / :attr:`fregs` / :attr:`ccregs` / :attr:`pc` /
  :attr:`index_counts` / :attr:`mem` for final-state comparison;
* :meth:`batches` — the trace stream, batched: instead of one
  ``TraceEntry`` object per step it yields ``(idxs, brs, mems, anns)``
  tuples of ``array('i')`` / ``array('b')`` / ``array('q')`` /
  ``array('q')`` (pc per step, taken flag per non-annulled branch,
  address per non-annulled memory op, absolute step index per annulled
  step) — everything the timing kernel consumes, in its own dtypes.

The kernel works on this object's own state: the register files, the
counters and the per-PC execution counts are arrays owned here, and
memory is the :class:`Memory` object's page ``bytearray``\\ s, read and
written in place.  A store to a page Memory has not allocated comes back
here to allocate it, so page allocation matches the reference.

Exactness rule: the kernel stops *before* any instruction it does not
model — an alignment fault, ``cvtfi`` of nan, inf or a magnitude of at
least 2^63, an ``swf`` that overflows a float, a pc out of range, an
exhausted step budget, an opcode or operand the lowering could not
express — and hands the rest of the run to a real :class:`FunctionalSim`
seeded with the current architectural state and *sharing this sim's
Memory and ExecStats objects*.  That interpreter then executes (or
rejects) the instruction itself, so every exception it raises is the
reference's, with identical message, pc and step count.
"""

from __future__ import annotations

from array import array
from typing import Iterator, Optional

from ..isa.program import Program
from ..sim.functional import ExecStats, FunctionalSim
from ..sim.memory import Memory
from . import native
from .codegen import get_compiled
from .decode import DecodedProgram, decode_program

#: Trace entries per yielded batch.
FLUSH = 16384

# fk_run() status codes (FK_* in functional_kernel.c).
_HALT, _BATCH_FULL, _NEED_PAGE, _HANDOFF, _NOMEM = range(5)

# State vector layout (S_* in functional_kernel.c).
(_S_N, _S_NSLOTS, _S_CAP, _S_MAX_STEPS, _S_PC) = range(5)
_COUNTERS = ("steps", "annulled", "branches", "taken_branches", "jumps",
             "loads", "stores", "div_by_zero", "fences")
_S_COUNTERS = _S_PC + 1
_S_NIDX = _S_COUNTERS + len(_COUNTERS)
_S_NBR, _S_NMEM, _S_NANN, _S_NORDER, _S_PAGE = range(_S_NIDX + 1,
                                                     _S_NIDX + 6)
_NSTATE = _S_PAGE + 1

_TRACE_TYPES = (("i", "int32_t[]"), ("b", "int8_t[]"), ("q", "int64_t[]"),
                ("q", "int64_t[]"))


class FastFunctionalSim:
    """Drop-in functional executor backed by the native kernel."""

    def __init__(self, prog: Program, max_steps: int = 20_000_000,
                 record_outcomes: bool = True,
                 decoded: Optional[DecodedProgram] = None):
        prog.validate()
        self.prog = prog
        self.max_steps = max_steps
        self.record_outcomes = record_outcomes
        self.decoded = decoded if decoded is not None else \
            decode_program(prog)
        self.decoded.check_stale(prog)
        self.mem = Memory()
        self.mem.load_image(prog.data_image)
        for addr, label in prog.code_refs.items():
            self.mem.write_word(addr, prog.target_index(label))
        self._R = array("I", bytes(4 * 32))
        self._R[29] = 0x7FFF_FF00
        self._F = array("d", bytes(8 * 32))
        self._C = array("B", bytes(8))
        self._counts = array("q", bytes(8 * self.decoded.n))
        self._state = array("q", bytes(8 * _NSTATE))
        self.pc = 0
        self.stats = ExecStats()
        #: reference sub-simulator, once the kernel handed off to it
        self._slow: Optional[FunctionalSim] = None

    # -- public API ----------------------------------------------------------

    def run(self) -> ExecStats:
        """Execute until halt; returns statistics."""
        for _ in self._drive(trace=False):
            pass
        return self.stats

    def batches(self) -> Iterator[tuple]:
        """Yield (idxs, brs, mems, anns) array batches until halt."""
        return self._drive(trace=True)

    # -- state views (reference-shaped) --------------------------------------

    @property
    def regs(self) -> dict:
        if self._slow is not None:
            return self._slow.regs
        return {f"r{i}": v for i, v in enumerate(self._R)}

    @property
    def fregs(self) -> dict:
        if self._slow is not None:
            return self._slow.fregs
        return {f"f{i}": v for i, v in enumerate(self._F)}

    @property
    def ccregs(self) -> dict:
        if self._slow is not None:
            return self._slow.ccregs
        return {f"cc{i}": bool(v) for i, v in enumerate(self._C)}

    @property
    def index_counts(self) -> list:
        if self._slow is not None:
            return self._slow.index_counts
        return self._counts.tolist()

    # -- the drive loop ------------------------------------------------------

    def _drive(self, trace: bool) -> Iterator[tuple]:
        low = get_compiled(self.decoded, record=self.record_outcomes,
                           trace=trace)
        mod = native.kernel()
        ffi, lib = mod.ffi, mod.lib
        st = self._state
        st[_S_N] = low.n
        st[_S_NSLOTS] = nslots = len(low.slot_uids)
        st[_S_CAP] = FLUSH
        st[_S_MAX_STEPS] = self.max_steps
        st[_S_PC] = self.pc
        # The kernel keeps these pointers: the cdata objects in `keep`
        # hold their buffers for as long as it runs.
        keep = [ffi.from_buffer(t, a) for t, a in (
            ("int32_t[]", low.code), ("int64_t[]", low.imms),
            ("int64_t[]", st), ("int64_t[]", self._counts),
            ("uint32_t[]", self._R), ("double[]", self._F),
            ("uint8_t[]", self._C))]
        sim = lib.fk_new(*keep)
        if sim == ffi.NULL:
            raise MemoryError("functional kernel allocation failed")
        sim = ffi.gc(sim, lib.fk_free)

        def lend(ctype: str, buf):
            keep.append(ffi.from_buffer(ctype, buf))
            return keep[-1]

        def add_page(pno: int, page: bytearray) -> None:
            if lib.fk_set_page(sim, pno, lend("uint8_t[]", page)) < 0:
                raise MemoryError("functional kernel page table full")

        bufs = []
        if trace:
            bufs = [array(t, bytes(FLUSH * array(t).itemsize))
                    for t, _ in _TRACE_TYPES]
            lib.fk_trace_to(sim, *(lend(ct, b) for (_, ct), b
                                   in zip(_TRACE_TYPES, bufs)))
        if self.record_outcomes:
            # slots in first-execution order, and the pc each first ran at
            order = array("i", bytes(4 * max(1, nslots)))
            first_pc = array("i", bytes(4 * max(1, nslots)))
            if lib.fk_record_to(sim, lend("int32_t[]", order),
                                lend("int32_t[]", first_pc)) < 0:
                raise MemoryError("functional kernel allocation failed")
        for pno, page in self.mem._pages.items():
            add_page(pno, page)
        while True:
            status = lib.fk_run(sim)
            if status == _NEED_PAGE:
                pno = st[_S_PAGE]
                add_page(pno, self.mem._page(pno << 12))
            elif status == _BATCH_FULL:
                yield self._take(bufs)
            elif status == _NOMEM:
                raise MemoryError("branch outcome vector could not grow")
            else:
                break
        self.pc = st[_S_PC]
        stats = self.stats
        for i, name in enumerate(_COUNTERS):
            setattr(stats, name, st[_S_COUNTERS + i])
        if self.record_outcomes:
            length = ffi.new("int64_t *")
            for slot in order[:st[_S_NORDER]]:
                bits = ffi.buffer(lib.fk_outcomes(sim, slot, length),
                                  length[0])
                uid = low.slot_uids[slot]
                stats.branch_outcomes[uid] = list(map(bool, bits[:]))
                stats.branch_pc[uid] = first_pc[slot]
        pending = self._take(bufs)
        if status == _HALT:
            stats.halted = True
            if pending and pending[0]:
                yield pending
            return
        # _HANDOFF: the reference interpreter takes over at self.pc and
        # executes, or rejects, that instruction itself.
        yield from self._slow_drive(trace, pending)

    def _take(self, bufs: list) -> tuple:
        """The filled prefix of each trace buffer; empties them."""
        st = self._state
        fills = (st[_S_NIDX], st[_S_NBR], st[_S_NMEM], st[_S_NANN])
        st[_S_NIDX] = st[_S_NBR] = st[_S_NMEM] = st[_S_NANN] = 0
        return tuple(b[:k] for b, k in zip(bufs, fills))

    # -- reference hand-off --------------------------------------------------

    def _make_slow(self, start_pc: int) -> FunctionalSim:
        sim = FunctionalSim.__new__(FunctionalSim)
        sim.prog = self.prog
        sim.max_steps = self.max_steps
        sim.record_outcomes = self.record_outcomes
        sim.mem = self.mem                      # shared: no copy
        sim.regs = {f"r{i}": v for i, v in enumerate(self._R)}
        sim.fregs = {f"f{i}": v for i, v in enumerate(self._F)}
        sim.ccregs = {f"cc{i}": bool(v) for i, v in enumerate(self._C)}
        sim.pc = start_pc
        sim.stats = self.stats                  # shared: counters continue
        sim.index_counts = self._counts.tolist()
        sim._targets = dict(self.decoded.targets_map)
        return sim

    def _slow_drive(self, trace: bool, pending: tuple) -> Iterator[tuple]:
        sim = self._make_slow(self.pc)
        self._slow = sim
        stats = sim.stats
        idxs, brs, mems, anns = pending or ((),) * 4
        it = sim.trace()
        while True:
            try:
                entry = next(it)
            except StopIteration:
                break
            except BaseException:
                self.pc = sim.pc
                if trace and idxs:
                    yield (idxs, brs, mems, anns)
                raise
            if not trace:
                continue
            idxs.append(entry.index)
            if entry.annulled:
                anns.append(stats.steps - 1)
            else:
                if entry.taken is not None:
                    brs.append(entry.taken)
                if entry.addr is not None:
                    mems.append(entry.addr)
            if len(idxs) >= FLUSH:
                yield (idxs, brs, mems, anns)
                idxs, brs, mems, anns = (array(t) for t, _ in _TRACE_TYPES)
        self.pc = sim.pc
        if trace and idxs:
            yield (idxs, brs, mems, anns)
