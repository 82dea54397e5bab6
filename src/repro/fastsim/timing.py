"""FastTimingSim: the native batched-event cycle model.

Cycle-for-cycle equivalent to :class:`repro.sim.pipeline.TimingSim`
(default configuration: ``model_wrong_path=False``, no observer), fed by
the batch stream of :meth:`FastFunctionalSim.batches` instead of one
``TraceEntry`` object per dynamic instruction.

The cycle loop itself is C (``timing_kernel.c``, built and cached by
:mod:`repro.fastsim.native` on the first :meth:`FastTimingSim.run`):
event-bucket issue in age order with unit caps, dispatch with inline
I/D-cache LRU lookups, span skipping over fetch-gated cycles, and all
four :func:`~repro.sim.branch_pred.make_predictor` schemes.  This module
is its Python front end:

* it packs the decoded program's timing tables once per (program,
  timing key) -- :meth:`DecodedProgram.timing_tables`;
* it hands each ``(idxs, brs, mems, anns)`` batch -- ``array('i')``,
  ``array('b')``, ``array('q')``, ``array('q')``, as
  :meth:`FastFunctionalSim.batches` yields them -- to the kernel in place,
  whenever the kernel suspends for more trace, which is exactly where
  the reference model pulls its next trace entry, so a functional-side
  exception (step budget, divergence) surfaces at the same point
  relative to the timing side's ``UnmodeledOpcode``;
* it turns the kernel's status codes into the reference's exceptions and
  writes its counters back into ``SimStats``, the predictor's
  ``PredictorStats`` and the I/D ``CacheStats``.

Wrong-path modeling and observer hooks are not supported here;
:func:`repro.fastsim.backend.simulate` falls back to the reference for
those runs.  When the kernel cannot be built, :meth:`run` raises
:class:`~repro.fastsim.native.NativeBuildError`.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Optional

from ..sim.branch_pred import make_predictor
from ..sim.cache import CacheStats, cache_geometry
from ..sim.config import MachineConfig, R10K
from ..sim.functional import UnmodeledOpcode
from ..sim.stats import SimStats
from . import native
from .decode import QUEUE_NAMES, UNIT_NAMES, DecodedProgram

# tk_run() status codes (TK_* in timing_kernel.c).
_DONE, _NEED_BATCH, _UNMODELED, _NO_CONVERGE, _BTB_EMPTY = range(5)

_PREDICTOR_ID = {"twobit": 0, "twolevel": 1, "perfect": 2,
                 "static-taken": 3}

# Result vector layout (R_* in timing_kernel.c).
_SIM_FIELDS = ("cycles", "committed", "annulled", "fetch_stall_cycles",
               "icache_stall_cycles", "mispredict_events",
               "indirect_stall_events", "fence_stall_cycles",
               "fence_events")
_R_QFULL = len(_SIM_FIELDS)
_R_UFULL = _R_QFULL + len(QUEUE_NAMES)
_R_UISSUES = _R_UFULL + len(UNIT_NAMES)
_R_CACHES = _R_UISSUES + len(UNIT_NAMES)
_R_PREDICTOR = _R_CACHES + 4
_PREDICTOR_FIELDS = ("conditional", "correct", "mispredicted",
                     "likely_branches", "likely_correct", "btb_misses",
                     "indirect_stalls")
_R_ERROR_PC = _R_PREDICTOR + len(_PREDICTOR_FIELDS)
_NRESULTS = _R_ERROR_PC + 1


class FastTimingSim:
    """Cycle-accurate replay of a batched trace over decoded tables."""

    def __init__(self, config: MachineConfig = R10K,
                 decoded: Optional[DecodedProgram] = None):
        self.cfg = config
        self.decoded = decoded
        self.stats = SimStats()
        self.predictor = make_predictor(
            config.predictor, config.bht_entries, config.btb_entries)
        self.stats.predictor = self.predictor.stats
        # the kernel keeps the cache tags; only the geometry is needed here
        self._sets = tuple(
            cache_geometry(size, config.cache_line, config.cache_assoc)
            for size in (config.icache_size, config.dcache_size))
        self.stats.icache = CacheStats()
        self.stats.dcache = CacheStats()
        for q in QUEUE_NAMES:
            self.stats.queue_full_cycles[q] = 0
        for u in UNIT_NAMES:
            self.stats.unit_full_cycles[u] = 0
            self.stats.unit_issues[u] = 0

    def _params(self, n: int) -> array:
        cfg = self.cfg
        return array("q", (
            cfg.commit_width, cfg.dispatch_width, cfg.rob_size,
            cfg.int_queue_size, cfg.addr_queue_size, cfg.fp_queue_size,
            cfg.branch_buffer_size,
            cfg.num_alus, cfg.num_shifters, cfg.num_mem_units,
            cfg.num_branch_units, cfg.num_fpadd, cfg.num_fpmul,
            cfg.num_fpdiv,
            cfg.misprediction_recovery, cfg.fence_stall,
            cfg.latencies.cache_miss_penalty,
            cfg.phys_int_regs - cfg.arch_int_regs,
            cfg.phys_fp_regs - cfg.arch_fp_regs,
            cfg.cache_line.bit_length() - 1,
            *self._sets, cfg.cache_assoc,
            _PREDICTOR_ID[cfg.predictor], cfg.bht_entries,
            cfg.btb_entries, n))

    def run(self, batches: Iterable[tuple],
            decoded: Optional[DecodedProgram] = None) -> SimStats:
        """Replay *batches* ((idxs, brs, mems, anns) array tuples, see
        :meth:`FastFunctionalSim.batches`) to completion."""
        dec = decoded if decoded is not None else self.decoded
        if dec is None:
            raise ValueError("FastTimingSim needs a DecodedProgram")
        mod = native.kernel()
        ffi, lib = mod.ffi, mod.lib
        meta, uses = dec.timing_tables(self.cfg)
        # The kernel keeps these pointers: the cdata objects below keep
        # their buffers alive for as long as it runs.
        bufs = [ffi.from_buffer("int64_t[]", self._params(dec.n)),
                ffi.from_buffer("int32_t[]", meta),
                ffi.from_buffer("int32_t[]", uses)]
        sim = lib.tk_new(*bufs)
        if sim == ffi.NULL:
            raise MemoryError("timing kernel allocation failed")
        sim = ffi.gc(sim, lib.tk_free)
        gen = iter(batches)
        while True:
            status = lib.tk_run(sim)
            if status != _NEED_BATCH:
                break
            # Mirrors the reference's eager ``pending = next(it, None)``:
            # functional-side exceptions surface here and propagate.
            for idxs, brs, mems, anns in gen:
                if idxs:
                    bufs[3:] = [
                        ffi.from_buffer(t, a) for t, a in zip(
                            ("int32_t[]", "int8_t[]", "int64_t[]",
                             "int64_t[]"), (idxs, brs, mems, anns))]
                    lib.tk_set_batch(sim, bufs[3], len(idxs), bufs[4],
                                     bufs[5], bufs[6], len(anns))
                    break
            else:
                lib.tk_end_of_trace(sim)
        out = array("q", bytes(8 * _NRESULTS))
        lib.tk_results(sim, ffi.from_buffer("int64_t[]", out))
        if status == _UNMODELED:
            pc = out[_R_ERROR_PC]
            raise UnmodeledOpcode(
                f"opcode {dec.ops[pc]!r} reached the timing simulator but "
                f"has no modeled functional unit", pc=pc)
        if status == _NO_CONVERGE:
            raise RuntimeError("timing simulation did not converge")
        if status == _BTB_EMPTY:
            # what the reference predictor's eviction from an empty
            # (btb_entries < 1) target buffer raises
            raise StopIteration
        return self._write_back(out)

    def _write_back(self, out: array) -> SimStats:
        st = self.stats
        for i, name in enumerate(_SIM_FIELDS):
            setattr(st, name, out[i])
        st.dispatched = st.committed + st.annulled
        for i, name in enumerate(QUEUE_NAMES):
            st.queue_full_cycles[name] = out[_R_QFULL + i]
        for i, name in enumerate(UNIT_NAMES):
            st.unit_full_cycles[name] = out[_R_UFULL + i]
            st.unit_issues[name] = out[_R_UISSUES + i]
        ist, dst = st.icache, st.dcache
        ist.accesses, ist.misses, dst.accesses, dst.misses = \
            out[_R_CACHES:_R_CACHES + 4]
        pst = self.predictor.stats
        for i, name in enumerate(_PREDICTOR_FIELDS):
            setattr(pst, name, out[_R_PREDICTOR + i])
        return st
