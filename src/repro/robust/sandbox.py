"""Pass sandbox: crash containment + rollback for pipeline stages.

Each stage of the proposed pipeline (branch splitting, if-conversion,
branch-likely rewriting, region scheduling, cleanup) runs inside a
:class:`PassSandbox`.  Before a stage runs, the sandbox snapshots the CFG;
if the stage raises, or its output fails the :mod:`repro.robust.verifier`,
the CFG is restored bit-for-bit (same block ids, so downstream decisions
keyed by block id stay valid), a structured :class:`PassFailure` is
recorded, and compilation continues with the remaining stages.  The program
degrades — proposed → partially-transformed → baseline schedule — instead
of the whole compile (or the whole evaluation suite) aborting.

This is the discipline production compilers apply around unproven passes:
contain, diagnose, fall back.

The verifier runs after every pass that produces a new IR state: each
sandbox memoizes :func:`verify_cfg` results by :func:`ir_key` (the IR
content the verifier reads), so a pass that leaves the IR as it was
(``annotate``, ``decide``, a branch-likely pass that converts nothing)
is not re-verified.  The memo belongs to one sandbox, i.e. one compile;
a compile resuming from a checkpoint (:meth:`PassSandbox.checkpoint`)
seeds its sandbox with the checkpoint's memo.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from ..cfg.basic_block import BasicBlock
from ..cfg.graph import CFG, Edge
from ..isa.instruction import Instruction
from ..obs.trace import span as obs_span
from .verifier import Violation, verify_cfg

#: Failure kinds, in the order the containment ladder encounters them.
FAILURE_KINDS = ("exception", "verify", "diffcheck", "skip")


class CellTimeout(RuntimeError):
    """A cell attempt exceeded its wall-clock budget.

    Raised by the engine's cell watchdog (:mod:`repro.engine.cells`)
    inside whatever code the cell is running.  A sandbox never contains
    it: the attempt fails as a whole, so no degraded compile (or
    pipeline checkpoint saved after the interrupted pass) outlives it.
    """


@dataclass
class PassFailure:
    """One contained pass failure (or recorded skip) with its diagnosis."""

    stage: str                 # e.g. "split", "ifconvert", "speculate"
    kind: str                  # one of FAILURE_KINDS
    reason: str                # one line: what went wrong
    detail: str = ""           # traceback tail / verifier violations
    rolled_back: bool = True   # False for "skip" records (nothing happened)

    def __str__(self) -> str:
        tag = "skipped" if self.kind == "skip" else "contained"
        return f"[{self.stage}] {tag} ({self.kind}): {self.reason}"

    def to_dict(self) -> dict:
        """JSON-serializable form (engine artifact-cache payload)."""
        return {"stage": self.stage, "kind": self.kind,
                "reason": self.reason, "detail": self.detail,
                "rolled_back": self.rolled_back}

    @classmethod
    def from_dict(cls, d: dict) -> "PassFailure":
        """Inverse of :meth:`to_dict`."""
        return cls(stage=d["stage"], kind=d["kind"], reason=d["reason"],
                   detail=d["detail"], rolled_back=d["rolled_back"])


def _copy(ins: Instruction) -> Instruction:
    """Field-for-field copy of *ins*: same uid, shallow-copied ``ann``.

    Skips :meth:`Instruction.__post_init__`: the opcode and registers
    were validated when *ins* was built, and the cached opcode metadata
    is carried over with the fields.
    """
    c = object.__new__(Instruction)
    c.__dict__.update(ins.__dict__)
    c.ann = dict(ins.ann)
    return c


def snapshot_cfg(cfg: CFG) -> dict[str, Any]:
    """Capture everything a pass may mutate, preserving block ids."""
    return {
        "blocks": [
            (bb.bid, bb.label, [_copy(ins) for ins in bb.instructions],
             bb.freq)
            for bb in cfg.blocks
        ],
        "succ": {bid: [(e.src, e.dst, e.kind, e.freq) for e in edges]
                 for bid, edges in cfg.succ_edges.items()},
        "data_symbols": dict(cfg.data_symbols),
        "data_image": dict(cfg.data_image),
        "code_refs": dict(cfg.code_refs),
        "name": cfg.name,
    }


def restore_cfg(cfg: CFG, snap: dict[str, Any]) -> None:
    """Restore *cfg* in place from a :func:`snapshot_cfg` capture.

    In-place so that references held by callers (profiles, loop forests
    rebuilt afterwards, decision plans keyed by block id) stay meaningful.
    The capture itself is left untouched, so one snapshot can be restored
    any number of times (rollback, or a compile resuming from it).
    """
    cfg.name = snap["name"]
    cfg.blocks = []
    cfg._by_id = {}
    cfg.succ_edges = {}
    cfg.pred_edges = {}
    for bid, label, instrs, freq in snap["blocks"]:
        bb = BasicBlock(bid=bid, label=label,
                        instructions=[_copy(ins) for ins in instrs],
                        freq=freq)
        cfg.blocks.append(bb)
        cfg._by_id[bid] = bb
        cfg.succ_edges[bid] = []
        cfg.pred_edges[bid] = []
    for bid, edges in snap["succ"].items():
        for src, dst, kind, freq in edges:
            e = Edge(src, dst, kind, freq)
            cfg.succ_edges[src].append(e)
            cfg.pred_edges[dst].append(e)
    cfg.data_symbols = dict(snap["data_symbols"])
    cfg.data_image = dict(snap["data_image"])
    cfg.code_refs = dict(snap["code_refs"])


def ir_key(cfg: CFG) -> tuple:
    """Content key of everything :func:`verify_cfg` reads from *cfg*.

    Block order, ids and labels; each instruction's op, operands, target
    and guard; each successor edge's destination and kind; the data
    tables and code references.  Frequencies and ``ann`` are excluded:
    the verifier never reads them, so a pass that only re-annotates
    (``annotate``) leaves the key unchanged.
    """
    return (
        tuple((bb.bid, bb.label,
               tuple((i.op, i.dest, i.srcs, i.imm, i.target, i.guard)
                     for i in bb.instructions),
               tuple((e.dst, e.kind) for e in cfg.succ_edges[bb.bid]))
              for bb in cfg.blocks),
        tuple(cfg.data_symbols.items()),
        tuple(cfg.data_image.items()),
        tuple(cfg.code_refs.items()),
    )


class PassSandbox:
    """Run pipeline stages over a CFG with rollback on crash or bad IR.

    Usage::

        box = PassSandbox(cfg)
        ok = box.run("ifconvert", lambda: if_convert_diamond(cfg, bid))
        if not ok:
            ...  # cfg already restored; box.failures has the diagnosis

    ``run`` returns the stage callable's return value on success and
    ``None`` on contained failure; :attr:`last_ok` distinguishes a stage
    that legitimately returned ``None`` from one that was rolled back.
    """

    def __init__(self, cfg: CFG, *, verify: bool = True,
                 max_failures: int = 64,
                 verified: Optional[dict] = None):
        self.cfg = cfg
        self.verify = verify
        self.max_failures = max_failures
        self.failures: list[PassFailure] = []
        self.last_ok: bool = True
        #: :func:`verify_cfg` result of each IR state this sandbox has
        #: checked, by :func:`ir_key`; *verified* seeds it (a compile
        #: resuming from a checkpoint inherits the checkpoint's memo)
        self.verified: dict[tuple, list[Violation]] = dict(verified or {})
        self._on_snapshot: Optional[Callable[[dict], None]] = None

    # -- recording -------------------------------------------------------------

    def record_skip(self, stage: str, reason: str, detail: str = "") -> None:
        """Record a pass that declined to run (not a rollback)."""
        self._record(PassFailure(stage=stage, kind="skip", reason=reason,
                                 detail=detail, rolled_back=False))

    def _record(self, failure: PassFailure) -> None:
        if len(self.failures) < self.max_failures:
            self.failures.append(failure)

    # -- execution -------------------------------------------------------------

    def checkpoint(self, sink: Callable[[dict], None]) -> None:
        """Hand the snapshot the next :meth:`run` takes to *sink*.

        *sink* receives the pre-stage snapshot before the stage runs, so
        a caller can keep the state at a stage boundary without a copy of
        its own.  The snapshot must be treated as read-only; restore it
        with :func:`restore_cfg`.
        """
        self._on_snapshot = sink

    def _verify(self) -> list[Violation]:
        """:func:`verify_cfg` of the current CFG, once per IR state."""
        try:
            key = ir_key(self.cfg)
            found = self.verified.get(key)
        except Exception:  # noqa: BLE001 - too broken to key: check uncached
            return verify_cfg(self.cfg)
        if found is None:
            found = self.verified[key] = verify_cfg(self.cfg)
        return found

    def run(self, stage: str, fn: Callable[[], Any],
            skip_exceptions: tuple = ()) -> Any:
        """Execute *fn* with snapshot/verify/rollback containment.

        Exception types listed in *skip_exceptions* are "pass declined"
        signals (e.g. ``SplitNotApplicable``), recorded as kind ``"skip"``
        with the pass's own reason — still rolled back, but not counted as
        containment events.

        Each execution emits a ``pass.<name>`` tracing span (the stage's
        ``@bbN`` site suffix travels as the ``stage`` attribute, so all
        sites of one pass aggregate under one span name) whose
        ``outcome`` attribute is ``ok``/``skip``/``exception``/``verify``.
        """
        with obs_span("pass." + stage.split("@", 1)[0], stage=stage) as sp:
            snap = snapshot_cfg(self.cfg)
            if self._on_snapshot is not None:
                sink, self._on_snapshot = self._on_snapshot, None
                sink(snap)
            try:
                result = fn()
            except CellTimeout:
                raise
            except skip_exceptions as exc:
                restore_cfg(self.cfg, snap)
                self.last_ok = False
                self._record(PassFailure(
                    stage=stage, kind="skip",
                    reason=f"{exc}" or type(exc).__name__))
                sp.set("outcome", "skip")
                return None
            except Exception as exc:  # noqa: BLE001 - containment is the point
                restore_cfg(self.cfg, snap)
                self.last_ok = False
                self._record(PassFailure(
                    stage=stage, kind="exception",
                    reason=f"{type(exc).__name__}: {exc}",
                    detail=traceback.format_exc(limit=6)))
                sp.set("outcome", "exception")
                return None
            if self.verify:
                violations = self._verify()
                if violations:
                    restore_cfg(self.cfg, snap)
                    self.last_ok = False
                    self._record(PassFailure(
                        stage=stage, kind="verify",
                        reason=f"{len(violations)} IR invariant "
                               f"violation(s); first: {violations[0]}",
                        detail="\n".join(str(v) for v in violations[:20])))
                    sp.set("outcome", "verify")
                    return None
            self.last_ok = True
            sp.set("outcome", "ok")
            return result

    # -- reporting -------------------------------------------------------------

    @property
    def contained(self) -> list[PassFailure]:
        """Failures that actually rolled a pass back (skips excluded)."""
        return [f for f in self.failures if f.kind != "skip"]

    def summary(self) -> str:
        """One line per recorded failure/skip (empty string when clean)."""
        return "\n".join(str(f) for f in self.failures)
