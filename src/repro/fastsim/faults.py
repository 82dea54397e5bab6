"""Fastsim fault injection: prove the backend containment ladder holds.

The fast backend's contract (:mod:`repro.fastsim.backend`) is that
*internal* fastsim failures never change results — the run transparently
restarts on the reference interpreter and the decision lands on the
fallback trail.  These injectors corrupt the fast path at each of its
stages so ``tools/inject_faults.py`` and ``tests/robust`` can assert the
claim end to end:

* ``fastsim-bad-codegen`` — the lowered program's first record is
  corrupted to an opcode id the kernel does not have, so the kernel's
  validation rejects it; contained at the **codegen** stage.
* ``fastsim-stale-decode`` — the decode pass returns operand tables
  built from a different (re-parsed) program object, tripping the
  staleness signature check; contained at the **codegen** stage with a
  ``DecodeError: stale decode tables ...`` reason.
* ``fastsim-runtime-crash`` — the functional front end raises a
  non-semantic exception (``KeyError``) on entry; contained at the
  **execute** stage after lowering succeeded.

Program-semantic failures (``UnmodeledOpcode``, alignment traps, step
budgets) are deliberately NOT injectable here: both backends must raise
them identically, producing the same ``FAIL(...)`` cell — that half of
the contract is asserted directly by the containment tests.

All injection happens through module hooks
(:data:`repro.fastsim.codegen._TABLE_TRANSFORM`, the backend's
``decode_program`` binding, the functional front end's ``_drive``) inside a
context manager that always restores the pristine state.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import replace
from typing import Iterator

from ..isa.program import Program
from . import backend as _backend
from . import codegen as _codegen
from .functional import FastFunctionalSim

#: Fault-class name -> one-line description (harness report text).
FASTSIM_FAULTS = {
    "fastsim-bad-codegen":
        "lowered program corrupted so the kernel's validation rejects it "
        "(contained: codegen-stage fallback)",
    "fastsim-stale-decode":
        "decode tables from a different program object "
        "(contained: codegen-stage fallback, DecodeError)",
    "fastsim-runtime-crash":
        "functional front end raises a non-semantic error on entry "
        "(contained: execute-stage fallback)",
}


def _bad_codegen(low):
    code = low.code[:]
    code[0] = 1 << 20            # no such opcode id
    return replace(low, code=code)


def _runtime_crash(self, trace):
    raise KeyError("injected fastsim runtime fault")
    yield  # a generator, like the method it stands in for


@contextmanager
def inject_fastsim_fault(name: str) -> Iterator[None]:
    """Corrupt the fast path for the duration of the ``with`` block."""
    if name not in FASTSIM_FAULTS:
        raise ValueError(f"unknown fastsim fault {name!r}: expected one "
                         f"of {sorted(FASTSIM_FAULTS)}")
    if name == "fastsim-stale-decode":
        real = _backend.decode_program

        def stale_decode(prog):
            # Tables from an equal-content clone: the identity half of
            # the staleness signature (prog is not dec.prog) trips.
            return real(Program.from_dict(prog.to_dict()))

        _backend.decode_program = stale_decode
        try:
            yield
        finally:
            _backend.decode_program = real
        return
    if name == "fastsim-runtime-crash":
        real_drive = FastFunctionalSim._drive
        FastFunctionalSim._drive = _runtime_crash
        try:
            yield
        finally:
            FastFunctionalSim._drive = real_drive
        return
    prev = _codegen._TABLE_TRANSFORM
    _codegen._TABLE_TRANSFORM = _bad_codegen
    try:
        yield
    finally:
        _codegen._TABLE_TRANSFORM = prev
