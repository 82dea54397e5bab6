"""End-to-end compilation pipelines.

* :func:`compile_baseline` — what the paper's column 1 runs: the program as
  the native compiler laid it out, locally list-scheduled.
* :func:`compile_proposed` — the paper's proposed approach (column 2):
  profile -> Figure 6 decisions -> split branches / if-conversion /
  branch-likely conversion -> profile-prioritized region scheduling
  (speculation) -> cleanup.  Runs *on top of* the same 2-bit hardware
  prediction.

Every pipeline returns a :class:`CompileResult` carrying the output program
plus the decision trail, so experiments can report what was applied where.

Crash containment
-----------------
Every stage of the proposed pipeline runs inside a
:class:`repro.robust.sandbox.PassSandbox`: a stage that raises, or whose
output fails the IR verifier, is rolled back and recorded as a
:class:`~repro.robust.sandbox.PassFailure` in ``CompileResult.failures``
while the remaining stages continue.  If the final program cannot be
emitted or verified, compilation degrades down the ladder

    proposed  ->  baseline schedule  ->  native (untransformed)

recording which rung it landed on in ``CompileResult.fallback`` — a broken
pass costs performance, never a crashed evaluation.

Shared compiles
---------------
The proposed kinds (Proposed, safe-speculative, melded) differ only in
the lowering of guarded diamonds and in the hoist guard.  Given a
per-program ``share`` dict, :func:`compile_proposed` saves the pipeline
state before lowering and before speculation, and a later kind resumes
from the latest one whose key (:func:`_stage_key`) matches.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from ..cfg.graph import CFG, build_cfg
from ..cfg.loops import LoopForest
from ..isa.program import Program
from ..obs.metrics import REGISTRY
from ..obs.trace import span as obs_span
from ..profilefb.profiledb import ProfileDB
from ..robust.sandbox import (CellTimeout, PassFailure, PassSandbox,
                              restore_cfg)
from ..robust.verifier import VerificationError, verify_program
from ..sched.machine_model import DEFAULT_MODEL, MachineModel
from ..sched.list_scheduler import reorder_block
from ..sched.region import RegionReport, schedule_region
from ..transform.branch_likely import LikelyReport, apply_branch_likely
from ..transform.branch_split import SplitNotApplicable, split_from_profile
from ..transform.dce import eliminate_dead_code
from ..transform.ifconvert import if_convert_diamond
from ..transform.meld import meld_diamond
from .algorithm import DecisionPlan, decide
from .heuristics import DEFAULT_HEURISTICS, FeedbackHeuristics
from .serde import check as serde_check, stamp as serde_stamp


@dataclass
class CompileResult:
    """A compiled program plus the pipeline's decision trail."""

    program: Program
    plan: Optional[DecisionPlan] = None
    splits_applied: int = 0
    ifconverts_applied: int = 0
    melds_applied: int = 0
    likely_report: Optional[LikelyReport] = None
    region_report: Optional[RegionReport] = None
    profile: Optional[ProfileDB] = None
    #: contained pass failures and recorded skips, in pipeline order
    failures: list[PassFailure] = field(default_factory=list)
    #: degradation rung the compile landed on: None (full proposed
    #: pipeline output), "baseline" (local schedule only) or "native"
    #: (input program returned untransformed)
    fallback: Optional[str] = None

    @property
    def degraded(self) -> bool:
        """True when any pass was contained or a fallback was taken."""
        return self.fallback is not None or any(
            f.kind != "skip" for f in self.failures)

    def summary(self) -> str:
        lines = [f"compiled {self.program.name}: "
                 f"{len(self.program)} instructions"]
        if self.plan is not None:
            lines.append(self.plan.summary())
        lines.append(f"  splits applied:      {self.splits_applied}")
        lines.append(f"  if-conversions:      {self.ifconverts_applied}")
        if self.melds_applied:
            lines.append(f"  branches melded:     {self.melds_applied}")
        if self.likely_report is not None:
            lines.append(f"  branch-likelies:     {self.likely_report.converted}")
        if self.region_report is not None:
            lines.append(f"  ops speculated:      {self.region_report.speculated}")
            lines.append(f"  ops duplicated down: {self.region_report.duplicated}")
            if self.region_report.fenced or self.region_report.suppressed:
                lines.append(f"  hoists fenced:       {self.region_report.fenced}"
                             f" (suppressed: {self.region_report.suppressed})")
        if self.fallback is not None:
            lines.append(f"  DEGRADED to:         {self.fallback}")
        for f in self.failures:
            lines.append(f"  {f}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-serializable form, reconstructible by :meth:`from_dict`.

        Everything round-trips except ``profile``: a :class:`ProfileDB`
        holds per-branch outcome vectors keyed by process-local instruction
        uids, so it is deliberately dropped — ``from_dict`` restores
        ``profile=None``.  Consumers needing feedback data re-profile.
        """
        return serde_stamp({
            "program": self.program.to_dict(),
            "plan": self.plan.to_dict() if self.plan is not None else None,
            "splits_applied": self.splits_applied,
            "ifconverts_applied": self.ifconverts_applied,
            "melds_applied": self.melds_applied,
            "likely_report": (self.likely_report.to_dict()
                              if self.likely_report is not None else None),
            "region_report": (self.region_report.to_dict()
                              if self.region_report is not None else None),
            "failures": [f.to_dict() for f in self.failures],
            "fallback": self.fallback,
        })

    @classmethod
    def from_dict(cls, d: dict) -> "CompileResult":
        """Inverse of :meth:`to_dict` (``profile`` is restored as None;
        the schema version is checked)."""
        serde_check(d, "CompileResult")
        return cls(
            program=Program.from_dict(d["program"]),
            plan=(DecisionPlan.from_dict(d["plan"])
                  if d["plan"] is not None else None),
            splits_applied=d["splits_applied"],
            ifconverts_applied=d["ifconverts_applied"],
            melds_applied=d.get("melds_applied", 0),
            likely_report=(LikelyReport.from_dict(d["likely_report"])
                           if d["likely_report"] is not None else None),
            region_report=(RegionReport.from_dict(d["region_report"])
                           if d["region_report"] is not None else None),
            failures=[PassFailure.from_dict(f) for f in d["failures"]],
            fallback=d["fallback"],
        )


def compile_baseline(prog: Program,
                     model: MachineModel = DEFAULT_MODEL) -> CompileResult:
    """Locally schedule each block; no global transformation."""
    with obs_span("compile.baseline", program=prog.name):
        cfg = build_cfg(prog)
        for bb in cfg.blocks:
            if bb.instructions:
                reorder_block(bb, model)
        result = CompileResult(program=cfg.to_program(prog.name + ".base"))
    REGISTRY.inc("compiler.compiles_baseline")
    return result


def _fallback_result(prog: Program, model: MachineModel,
                     result: "CompileResult") -> "CompileResult":
    """Degrade *result* down the ladder: baseline schedule, else native."""
    try:
        base = compile_baseline(prog, model)
        base.program.name = prog.name + ".proposed"
        result.program = base.program
        result.fallback = "baseline"
    except Exception as exc:  # noqa: BLE001 - last rung must not raise
        result.failures.append(PassFailure(
            stage="fallback-baseline", kind="exception",
            reason=f"{type(exc).__name__}: {exc}"))
        result.program = prog
        result.fallback = "native"
    return result


def collect_profile(prog: Program,
                    heur: FeedbackHeuristics = DEFAULT_HEURISTICS,
                    max_steps: int = 20_000_000,
                    backend: str = "reference") -> ProfileDB | PassFailure:
    """The profiling run of :func:`compile_proposed`, on its own.

    Returns the :class:`ProfileDB`, or -- when the run raises -- the
    :class:`PassFailure` the compile records for it.  Either one can be
    passed as ``compile_proposed(profile=...)``, so compiles that share
    (program, ``heur.classify``, *max_steps*, *backend*) can share one
    run, failure included.
    """
    try:
        with obs_span("pass.profile", program=prog.name):
            return ProfileDB.from_run(prog, max_steps=max_steps,
                                      config=heur.classify, backend=backend)
    except CellTimeout:
        raise
    except Exception as exc:  # noqa: BLE001
        return PassFailure(stage="profile", kind="exception",
                           reason=f"{type(exc).__name__}: {exc}")


def compile_proposed(prog: Program,
                     heur: FeedbackHeuristics = DEFAULT_HEURISTICS,
                     model: MachineModel = DEFAULT_MODEL,
                     profile: ProfileDB | PassFailure | None = None,
                     max_steps: int = 20_000_000,
                     verify: bool = True,
                     backend: str = "reference",
                     share: Optional[dict] = None) -> CompileResult:
    """The paper's proposed scheme, end to end, with crash containment.

    Pass a pre-built *profile* to skip the profiling run (e.g. to reuse one
    run across ablation variants); a :class:`PassFailure` from
    :func:`collect_profile` replays that run's failure.  *verify* runs the
    IR verifier after every pass that produces a new IR state (rolling
    back passes that break an invariant); disable it only for trusted
    perf-measurement loops.  *backend* selects the execution backend of
    the profiling run (``"fast"`` uses the :mod:`repro.fastsim` native
    functional kernel; the profile — and therefore the compile output —
    is byte-identical either way).

    *share* is a dict the caller keeps for one program (the suite keeps
    one per benchmark) and passes to each of its compiles.  The compiles
    then share one profiling run (when *profile* is None) and pipeline
    *checkpoints*: each compile resumes from the latest saved stage
    boundary whose heuristics key matches — the fields read before that
    boundary — instead of starting over, and a compile whose whole key
    matches returns the earlier :class:`CompileResult` itself (treat it
    as read-only).  Results are byte-identical to unshared compiles; see
    docs/ROBUSTNESS.md for the stages and their keys.
    """
    with obs_span("compile.proposed", program=prog.name) as sp:
        result = _compile_proposed_inner(prog, heur, model, profile,
                                         max_steps, verify, backend, share)
        sp.set("fallback", result.fallback)
        sp.set("failures", len(result.failures))
    if REGISTRY.enabled:
        REGISTRY.inc("compiler.compiles_proposed")
        REGISTRY.inc("compiler.splits_applied", result.splits_applied)
        REGISTRY.inc("compiler.ifconverts_applied",
                     result.ifconverts_applied)
        if result.likely_report is not None:
            REGISTRY.inc("compiler.likelies_converted",
                         result.likely_report.converted)
        if result.region_report is not None:
            REGISTRY.inc("compiler.ops_speculated",
                         result.region_report.speculated)
            REGISTRY.inc("compiler.ops_duplicated",
                         result.region_report.duplicated)
        REGISTRY.inc("compiler.passes_contained",
                     sum(1 for f in result.failures if f.kind != "skip"))
    return result


#: Spectre knobs read only under ``spectre_safe``.
_SPECTRE_FIELDS = ("spectre_sew", "spectre_fence", "spectre_untrusted")


def _stage_key(heur: FeedbackHeuristics, plan: Optional[DecisionPlan],
               stage: str) -> FeedbackHeuristics:
    """*heur* with every field the pipeline reads only from *stage* on
    reset to its default: the heuristics key of a checkpoint.

    *stage* is ``"lower"`` (if-conversion / melding), ``"speculate"``
    (region scheduling), or ``"done"`` (the finished result).  Nothing
    before lowering reads the meld or spectre fields; lowering reads the
    meld fields only when *plan* has an ``ifconvert`` decision
    (``meld_max_arm_ops`` only under ``enable_meld``); speculation reads
    ``spectre_safe`` only when it runs, the other spectre fields only
    under ``spectre_safe``.
    """
    d = DEFAULT_HEURISTICS
    lowers = stage != "lower" and bool(plan.by_action("ifconvert"))
    speculates = stage == "done" and heur.enable_speculation
    reset: dict = {}
    if not lowers:
        reset["enable_meld"] = d.enable_meld
    if not (lowers and heur.enable_meld):
        reset["meld_max_arm_ops"] = d.meld_max_arm_ops
    if not speculates:
        reset["spectre_safe"] = d.spectre_safe
    if not (speculates and heur.spectre_safe):
        reset.update((f, getattr(d, f)) for f in _SPECTRE_FIELDS)
    return replace(heur, **reset)


def _partial(result: CompileResult,
             failures: list[PassFailure]) -> CompileResult:
    """A copy of an in-progress *result* with *failures* as its trail;
    no list is shared with *result* (its decisions are never mutated)."""
    plan, likely = result.plan, result.likely_report
    if plan is not None:
        plan = DecisionPlan(list(plan.decisions))
    if likely is not None:
        likely = replace(likely, details=list(likely.details))
    return CompileResult(
        program=result.program, plan=plan,
        splits_applied=result.splits_applied,
        ifconverts_applied=result.ifconverts_applied,
        melds_applied=result.melds_applied, likely_report=likely,
        profile=result.profile, failures=list(failures))


@dataclass
class _Checkpoint:
    """Pipeline state at a stage boundary: the sandbox's snapshot of the
    CFG when the stage started, its verify memo, and the partial result.
    Read-only once saved; :meth:`resume` works on copies."""

    result: CompileResult
    verified: dict
    snap: Optional[dict] = None

    def resume(self, verify: bool) -> tuple[CFG, PassSandbox, CompileResult]:
        cfg = CFG()
        restore_cfg(cfg, self.snap)
        box = PassSandbox(cfg, verify=verify, verified=self.verified)
        result = _partial(self.result, self.result.failures)
        box.failures = result.failures
        return cfg, box, result


class _SharedCompiles:
    """The checkpoints and finished results of one program's compiles,
    kept in a caller's ``share`` dict (:func:`compile_proposed`)."""

    def __init__(self, prog: Program, profile: ProfileDB,
                 model: MachineModel):
        #: keeps the objects whose ids key this entry alive
        self.refs = (prog, profile, model)
        self.saved: dict[tuple, object] = {}

    @staticmethod
    def of(share: Optional[dict], prog: Program, profile: ProfileDB,
           model: MachineModel, verify: bool) -> Optional["_SharedCompiles"]:
        if share is None:
            return None
        key = ("compile_proposed", id(prog), id(profile), id(model), verify)
        if key not in share:
            share[key] = _SharedCompiles(prog, profile, model)
        return share[key]

    def get(self, stage: str, heur: FeedbackHeuristics,
            plan: Optional[DecisionPlan] = None):
        return self.saved.get((stage, _stage_key(heur, plan, stage)))

    def save_at_next_pass(self, stage: str, heur: FeedbackHeuristics,
                          box: PassSandbox, result: CompileResult) -> None:
        """Save the state before *stage* from the snapshot the sandbox
        takes at its next pass (no copy of the CFG of its own)."""
        ck = _Checkpoint(_partial(result, box.failures), dict(box.verified))
        key = (stage, _stage_key(heur, result.plan, stage))

        def sink(snap: dict) -> None:
            ck.snap = snap
            self.saved[key] = ck

        box.checkpoint(sink)

    def save_result(self, heur: FeedbackHeuristics,
                    result: CompileResult) -> None:
        self.saved[("done", _stage_key(heur, result.plan, "done"))] = result


def _compile_proposed_inner(prog: Program, heur: FeedbackHeuristics,
                            model: MachineModel,
                            profile: ProfileDB | PassFailure | None,
                            max_steps: int, verify: bool,
                            backend: str = "reference",
                            share: Optional[dict] = None) -> CompileResult:
    result = CompileResult(program=prog)

    # 0. Profiling run.  Without feedback there is nothing to propose:
    #    degrade straight to the baseline schedule.
    if profile is None:
        if share is None:
            profile = collect_profile(prog, heur, max_steps, backend)
        else:
            pkey = ("profile", heur.classify, max_steps, backend)
            if pkey not in share:
                share[pkey] = collect_profile(prog, heur, max_steps, backend)
            profile = share[pkey]
    if isinstance(profile, PassFailure):
        result.failures.append(profile)
        return _fallback_result(prog, model, result)
    result.profile = profile

    # Resume from the latest stage boundary an earlier compile of this
    # program saved under a matching key.
    shared = _SharedCompiles.of(share, prog, profile, model, verify)
    lower = shared and shared.get("lower", heur)
    speculate = lower and shared.get("speculate", heur, lower.result.plan)
    if speculate:
        done = shared.get("done", heur, lower.result.plan)
        if done is not None:
            return done
        cfg, box, result = speculate.resume(verify)
    elif lower:
        cfg, box, result = lower.resume(verify)
    else:
        try:
            cfg = build_cfg(prog)
        except Exception as exc:  # noqa: BLE001 - input program is broken
            result.failures.append(PassFailure(
                stage="build_cfg", kind="exception",
                reason=f"{type(exc).__name__}: {exc}"))
            return _fallback_result(prog, model, result)
        box = PassSandbox(cfg, verify=verify)
        _front(cfg, box, result, profile, heur, model)
        if shared:
            shared.save_at_next_pass("lower", heur, box, result)
    if not speculate:
        _lower(cfg, box, result, profile, heur)
        if shared:
            shared.save_at_next_pass("speculate", heur, box, result)
    _schedule(cfg, box, result, profile, heur, model)
    result = _emit(cfg, result, prog, model, verify)
    if shared:
        shared.save_result(heur, result)
    return result


def _front(cfg: CFG, box: PassSandbox, result: CompileResult,
           profile: ProfileDB, heur: FeedbackHeuristics,
           model: MachineModel) -> None:
    """Annotate, decide (Figure 6) and split branches."""
    box.run("annotate", lambda: profile.annotate(cfg))
    forest = LoopForest(cfg)

    plan = box.run("decide", lambda: decide(cfg, forest, profile, heur, model))
    if plan is None:
        plan = DecisionPlan()
    result.plan = plan

    # 1. Branch splitting.  A split that declines records *why* in the
    #    decision trail instead of dropping the reason.  (Splitting
    #    changes loop structure; no later stage reads the loop forest.)
    for d in plan.by_action("split"):
        box.run(f"split@bb{d.block}",
                lambda d=d: split_from_profile(cfg, forest, d.block, profile,
                                               style=heur.split_style),
                skip_exceptions=(SplitNotApplicable,))
        if box.last_ok:
            result.splits_applied += 1


def _lower(cfg: CFG, box: PassSandbox, result: CompileResult,
           profile: ProfileDB, heur: FeedbackHeuristics) -> None:
    """If-convert (or meld) and convert branch-likelies."""
    # 2. If-conversion (guarded execution) — or, under the melded scheme,
    #    branch melding: the same Figure 6 "ifconvert" decisions are
    #    consumed, but the diamond is flattened into an unconditional
    #    select sequence (repro.transform.meld) instead of guarded ops.
    for d in result.plan.by_action("ifconvert"):
        if d.block not in cfg._by_id:
            continue
        if heur.enable_meld:
            melded = box.run(
                f"meld@bb{d.block}",
                lambda d=d: meld_diamond(cfg, d.block,
                                         max_arm_ops=heur.meld_max_arm_ops))
            if melded is not None:
                result.melds_applied += 1
            continue
        converted = box.run(f"ifconvert@bb{d.block}",
                            lambda d=d: if_convert_diamond(cfg, d.block))
        if converted is not None:
            result.ifconverts_applied += 1

    # 3. Branch-likely conversion — the global pass also covers clones via
    #    their profile linkage; the Figure 6 "likely" decisions are a
    #    subset of what it converts.
    if heur.enable_likely:
        result.likely_report = box.run(
            "likely", lambda: apply_branch_likely(cfg, profile))


def _schedule(cfg: CFG, box: PassSandbox, result: CompileResult,
              profile: ProfileDB, heur: FeedbackHeuristics,
              model: MachineModel) -> None:
    """Profile-prioritized speculation + local scheduling (or cleanup)."""
    # 4. Under the safe-speculative scheme a taint-analysis guard vets
    #    every hoist (imported lazily: robust.spectre is an optional
    #    consumer of core).
    box.run("annotate", lambda: profile.annotate(cfg))
    if heur.enable_speculation:
        hoist_guard = None
        if heur.spectre_safe:
            from ..robust.spectre import (SpectreHoistGuard,
                                          config_from_heuristics)
            hoist_guard = SpectreHoistGuard(config_from_heuristics(heur))
        result.region_report = box.run(
            "speculate",
            lambda: schedule_region(
                cfg, model, bias_threshold=heur.speculation_bias,
                max_moves_per_block=heur.max_moves_per_block,
                profile=profile, mispredict_window=heur.mispredict_penalty,
                hoist_guard=hoist_guard))
    else:
        def _cleanup() -> None:
            eliminate_dead_code(cfg)
            for bb in cfg.blocks:
                if bb.instructions:
                    reorder_block(bb, model)
        box.run("cleanup", _cleanup)

    result.failures = box.failures


def _emit(cfg: CFG, result: CompileResult, prog: Program,
          model: MachineModel, verify: bool) -> CompileResult:
    """Emission + final whole-program verification; degrade on failure."""
    try:
        out = cfg.to_program(prog.name + ".proposed")
        if verify:
            violations = verify_program(out)
            if violations:
                raise VerificationError(violations, name=out.name)
    except CellTimeout:
        raise
    except Exception as exc:  # noqa: BLE001
        result.failures.append(PassFailure(
            stage="emit", kind="exception" if not isinstance(
                exc, VerificationError) else "verify",
            reason=f"{type(exc).__name__}: {exc}"))
        return _fallback_result(prog, model, result)
    result.program = out
    return result


def compile_variant(prog: Program, *, likely: bool = True, split: bool = True,
                    ifconvert: bool = True, speculation: bool = True,
                    spectre: bool = False, meld: bool = False,
                    heur: FeedbackHeuristics = DEFAULT_HEURISTICS,
                    **kw) -> CompileResult:
    """Ablation helper: the proposed pipeline with features toggled.

    ``spectre=True`` additionally arms the speculative-safety guard
    (the safe-speculative scheme; see :mod:`repro.robust.spectre`).
    ``meld=True`` replaces if-conversion with branch melding (the melded
    scheme; see :mod:`repro.transform.meld`).
    """
    heur = replace(heur, enable_likely=likely, enable_split=split,
                   enable_ifconvert=ifconvert, enable_speculation=speculation,
                   spectre_safe=spectre, enable_meld=meld)
    return compile_proposed(prog, heur=heur, **kw)
