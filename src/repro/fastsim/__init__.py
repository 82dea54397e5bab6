"""Fast simulator backends: decode-once lowering + specialized-step codegen.

The reference simulators (:mod:`repro.sim.functional`,
:mod:`repro.sim.pipeline`) interpret one :class:`Instruction` object per
dynamic step — string opcode dispatch, dict-keyed register files, one
method call per trace entry.  That is the right shape for a readable
model and exactly the wrong shape for sweep/fuzz/serve throughput, where
the artifact cache is cold by construction.

This package adds a second, *semantically identical* execution path:

* :mod:`repro.fastsim.decode` — a decode-once pass lowering a program to
  dense per-PC operand tables plus a basic-block index, shared by both
  fast simulators;
* :mod:`repro.fastsim.codegen` — ``exec``-compiles one straight-line
  Python function per basic block (superblock dispatch: fall through
  inside a block, branch logic only at block ends);
* :mod:`repro.fastsim.functional` — :class:`FastFunctionalSim`, the
  generated-step functional executor producing the same
  :class:`~repro.sim.functional.ExecStats` and a batched trace stream;
* :mod:`repro.fastsim.timing` — :class:`FastTimingSim`, the Python
  front end of a native (C, cffi-built) batched-event cycle loop that skips cycles
  with no pipeline activity (mispredict recovery, fence drains, icache
  refills, the final ROB drain); :mod:`repro.fastsim.native` builds the
  kernel on first use and caches it per user;
* :mod:`repro.fastsim.backend` — backend selection (``"reference"`` /
  ``"fast"``, ``REPRO_BACKEND`` env var) and the contained entry point
  used by :mod:`repro.engine.cells`: internal fastsim faults fall back
  to the reference interpreter and record a decision trail, while
  program-semantic failures propagate byte-identically;
* :mod:`repro.fastsim.check` — cross-backend diffcheck helpers built on
  :mod:`repro.robust.diffcheck`.

Equality contract: for any program and any machine config, the fast
backend produces ``SimStats``/``ExecStats`` payloads whose serde dicts
equal the reference backend's — enforced by ``tests/fastsim``.
"""

from .backend import (BACKENDS, DEFAULT_BACKEND, ENV_BACKEND, FastsimError,
                      fallback_trail, resolve_backend, simulate)
from .check import crosscheck, crosscheck_cell
from .decode import DecodedProgram, decode_program
from .functional import FastFunctionalSim
from .timing import FastTimingSim

__all__ = [
    "BACKENDS", "DEFAULT_BACKEND", "ENV_BACKEND", "FastsimError",
    "DecodedProgram", "decode_program", "FastFunctionalSim",
    "FastTimingSim", "resolve_backend", "simulate", "fallback_trail",
    "crosscheck", "crosscheck_cell",
]
