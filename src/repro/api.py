"""The unified experiment front door: :class:`Session` + :class:`RunOptions`.

:class:`Session` is the one way to run an experiment: it calls the
implementations (``eval.runner.run_benchmark_impl``,
``engine.suite.run_suite``, ``engine.sweep.run_sweep_impl``,
``qa.campaign.run_campaign_impl``, ``tune.run_tune``) and bundles every
*execution* knob — worker count, artifact cache, execution backend,
observability sinks — into one frozen
:class:`RunOptions` value held once per session.  Every experiment
method (``run_benchmark`` / ``run_suite`` / ``sweep`` / ``fuzz`` /
``tune``) resolves its knobs through it instead of re-declaring the same
parameter list, with three precedence levels::

    session default  <  per-call options=RunOptions(...)  <  explicit kwarg

Usage::

    from repro.api import RunOptions, Session

    opts = RunOptions(jobs=4, cache=True, trace="trace.jsonl")
    with Session(options=opts) as s:
        runs = s.run_suite(scale=0.3)
        campaign = s.fuzz(budget=50, seed=0)
        # one-off override without touching the session default:
        cold = s.run_suite(scale=0.3, options=replace(opts, cache=None))

Every pre-RunOptions keyword keeps working (``Session(jobs=4,
cache=True)`` maps onto the options value, byte-identically), and the
CLI builds its per-invocation options through one shared
:func:`options_from_args` helper so ``--jobs`` / ``--no-cache`` /
``--backend`` / ``--trace`` behave identically across every subcommand.

Entering the session installs the JSONL tracer (when ``trace`` is set)
and enables the metrics registry (when ``metrics=True``); exiting
restores both, so observability state never leaks across sessions.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dc_fields, replace as dc_replace
from pathlib import Path
from typing import Callable, Optional, Union

from .core.heuristics import DEFAULT_HEURISTICS, FeedbackHeuristics
from .engine.suite import CacheLike, coerce_cache
from .obs import metrics as _metrics
from .obs import trace as _trace

#: Sentinel distinguishing "keyword not passed" from an explicit value
#: (so a legacy kwarg can override ``options=`` only when actually given).
_UNSET = object()


@dataclass(frozen=True)
class RunOptions:
    """Every execution knob of an experiment run, as one frozen value.

    Passed to :class:`Session` (held as the session default) or to any
    experiment method (one-off override).  Being frozen, variants are
    derived with :func:`dataclasses.replace` — which is exactly how
    explicit per-call keywords are layered on top.

    ``cache`` accepts the same forms as before (None/False = off, True =
    the default store, a path, or an :class:`~repro.engine.ArtifactCache`
    instance); ``cache_dir`` names the directory used when ``cache`` is
    True (None = ``.repro-cache/`` or ``$REPRO_CACHE_DIR``).  ``backend``
    is the execution backend (``"reference"``/``"fast"``; None defers to
    ``$REPRO_BACKEND``).
    """

    jobs: int = 1
    cache: CacheLike = None
    cache_dir: Optional[Union[str, Path]] = None
    backend: Optional[str] = None
    trace: Optional[Union[str, Path]] = None
    metrics: bool = False
    max_steps: int = 50_000_000
    strict: bool = False
    timeout: Optional[float] = None

    def resolve_cache(self):
        """The options' artifact store (or None): ``cache`` coerced, with
        ``cache=True`` landing at ``cache_dir`` when one is set."""
        if self.cache is True and self.cache_dir is not None:
            from .engine import ArtifactCache

            return ArtifactCache(self.cache_dir)
        return coerce_cache(self.cache)

    def resolve_backend(self) -> str:
        """The options' execution backend with the env default applied."""
        from .fastsim.backend import resolve_backend

        return resolve_backend(self.backend)


#: RunOptions field names, for legacy-kwarg mapping and validation.
_OPTION_FIELDS = tuple(f.name for f in dc_fields(RunOptions))


def options_from_args(args) -> RunOptions:
    """Build :class:`RunOptions` from a CLI argparse namespace.

    The one shared translation of the engine flags (``--jobs``,
    ``--no-cache``, ``--cache-dir``, ``--backend``, ``--trace``) every
    subcommand routes through, so the flags behave identically
    everywhere.  Flags a subcommand does not
    declare fall back to the option defaults (with the CLI-wide default
    of caching *on* unless ``--no-cache``).
    """
    return RunOptions(
        jobs=getattr(args, "jobs", 1),
        cache=not getattr(args, "no_cache", False),
        cache_dir=getattr(args, "cache_dir", None),
        backend=getattr(args, "backend", None),
        trace=getattr(args, "trace", None),
        metrics=getattr(args, "metrics", False),
        max_steps=getattr(args, "max_steps", RunOptions.max_steps),
        strict=getattr(args, "strict", False),
        timeout=getattr(args, "timeout", None),
    )


class Session:
    """One configured experiment context (see module docstring).

    Construction only records configuration; :meth:`start` (or entering
    the context manager) activates the observability sinks.  Running
    methods outside the context works too — they just run untraced
    unless a tracer is already installed.

    Execution knobs live on :attr:`options` (a :class:`RunOptions`);
    the legacy constructor keywords (``jobs=``, ``cache=``, ...) are
    mapped onto it and override an explicit ``options=`` value.
    ``trace_path=`` is the pre-RunOptions spelling of ``trace``.
    """

    def __init__(self,
                 heur: FeedbackHeuristics = DEFAULT_HEURISTICS,
                 config_overrides: Optional[dict] = None,
                 cache: CacheLike = _UNSET,
                 jobs: int = _UNSET,
                 max_steps: int = _UNSET,
                 strict: bool = _UNSET,
                 timeout: Optional[float] = _UNSET,
                 trace_path: Optional[Union[str, Path]] = _UNSET,
                 metrics: bool = _UNSET,
                 backend: Optional[str] = _UNSET,
                 options: Optional[RunOptions] = None):
        self.heur = heur
        self.config_overrides = dict(config_overrides or {})
        opts = options if options is not None else RunOptions()
        legacy = {"cache": cache, "jobs": jobs, "max_steps": max_steps,
                  "strict": strict, "timeout": timeout, "trace": trace_path,
                  "metrics": metrics, "backend": backend}
        overrides = {k: v for k, v in legacy.items() if v is not _UNSET}
        if overrides:
            opts = dc_replace(opts, **overrides)
        # The session's backend is pinned at construction (environment
        # lookup happens once, here — not per experiment).
        opts = dc_replace(opts, backend=opts.resolve_backend())
        #: The session's default :class:`RunOptions`.
        self.options = opts
        # The cache store is coerced once so its hit/miss counters (and
        # identity, when an ArtifactCache instance was passed) persist
        # across the session's experiments.
        self._cache = opts.resolve_cache()
        self._tracer: Optional[_trace.Tracer] = None

    # -- option plumbing ---------------------------------------------------

    def _resolve(self, options: Optional[RunOptions],
                 **explicit) -> RunOptions:
        """One experiment's effective options.

        Precedence: session default < per-call ``options=`` < explicit
        per-call keyword (``None`` means "not passed" for the keywords,
        which all have non-None session-level defaults).
        """
        opts = self.options if options is None else options
        overrides = {k: v for k, v in explicit.items() if v is not None}
        return dc_replace(opts, **overrides) if overrides else opts

    def _cache_of(self, opts: RunOptions):
        """*opts*' artifact store — the session's own coerced store
        whenever the cache knobs are untouched (preserving identity and
        counters), a freshly coerced one otherwise."""
        if opts.cache is self.options.cache \
                and opts.cache_dir == self.options.cache_dir:
            return self._cache
        return opts.resolve_cache()

    # -- legacy attribute surface (reads resolve through the options) ------

    @property
    def jobs(self) -> int:
        """Worker-process count (``options.jobs``)."""
        return self.options.jobs

    @property
    def cache(self):
        """The session's coerced artifact store (None when caching is off)."""
        return self._cache

    @property
    def max_steps(self) -> int:
        """Per-cell functional step budget (``options.max_steps``)."""
        return self.options.max_steps

    @property
    def strict(self) -> bool:
        """Fail-fast flag (``options.strict``)."""
        return self.options.strict

    @property
    def timeout(self) -> Optional[float]:
        """Per-cell wall-clock budget in seconds (``options.timeout``)."""
        return self.options.timeout

    @property
    def trace_path(self):
        """JSONL span-trace destination (``options.trace``)."""
        return self.options.trace

    @property
    def metrics(self) -> bool:
        """Whether the metrics registry is enabled (``options.metrics``)."""
        return self.options.metrics

    @property
    def backend(self) -> str:
        """Execution backend of every experiment this session runs:
        "reference" or "fast" (:mod:`repro.fastsim`)."""
        return self.options.backend

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "Session":
        """Activate the observability sinks (idempotent)."""
        if self.trace_path is not None and self._tracer is None:
            self._tracer = _trace.Tracer(self.trace_path)
            _trace.install(self._tracer)
        if self.metrics:
            _metrics.metrics_enable()
        return self

    def close(self) -> None:
        """Deactivate and flush the observability sinks (idempotent)."""
        if self._tracer is not None:
            if _trace.active_tracer() is self._tracer:
                _trace.uninstall()
            self._tracer.close()
            self._tracer = None
        if self.metrics:
            _metrics.metrics_disable()

    def __enter__(self) -> "Session":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # -- experiments -------------------------------------------------------

    def run_benchmark(self, name: str, prog, *,
                      max_steps: Optional[int] = None,
                      strict: Optional[bool] = None,
                      options: Optional[RunOptions] = None):
        """Run every evaluation scheme on one program (in-process,
        uncached)."""
        from .eval.runner import run_benchmark_impl

        opts = self._resolve(options, max_steps=max_steps, strict=strict)
        return run_benchmark_impl(
            name, prog, heur=self.heur,
            config_overrides=self.config_overrides or None,
            max_steps=opts.max_steps, strict=opts.strict,
            backend=opts.resolve_backend())

    def run_suite(self, scale: float = 1.0, *,
                  benchmarks: Optional[dict] = None,
                  progress: Optional[Callable[[str], None]] = None,
                  seed: Optional[int] = None,
                  max_steps: Optional[int] = None,
                  strict: Optional[bool] = None,
                  options: Optional[RunOptions] = None):
        """Run the full suite through the session's cache and pool."""
        opts = self._resolve(options, max_steps=max_steps, strict=strict)
        from .engine import suite as _suite

        return _suite.run_suite(
            scale=scale, heur=self.heur, benchmarks=benchmarks,
            config_overrides=self.config_overrides or None,
            progress=progress, max_steps=opts.max_steps,
            strict=opts.strict, jobs=opts.jobs,
            cache=self._cache_of(opts), timeout=opts.timeout,
            seed=seed, backend=opts.resolve_backend())

    def sweep(self, spec, *,
              progress: Optional[Callable[[str], None]] = None,
              options: Optional[RunOptions] = None):
        """Evaluate a :class:`~repro.engine.sweep.SweepSpec` grid."""
        opts = self._resolve(options)
        from .engine.sweep import run_sweep_impl

        return run_sweep_impl(spec, jobs=opts.jobs,
                              cache=self._cache_of(opts), progress=progress,
                              timeout=opts.timeout,
                              backend=opts.resolve_backend())

    def fuzz(self, cfg=None, *,
             progress: Optional[Callable[[str], None]] = None,
             options: Optional[RunOptions] = None, **kw):
        """Run a differential fuzzing campaign.

        Pass a full :class:`~repro.qa.campaign.CampaignConfig` as *cfg*,
        or keyword fields for one — the session supplies ``jobs`` and
        ``cache`` unless overridden.
        """
        from .qa import campaign as _campaign

        opts = self._resolve(options)
        if cfg is None:
            kw.setdefault("jobs", opts.jobs)
            kw.setdefault("cache", self._cache_of(opts))
            cfg = _campaign.CampaignConfig(**kw)
        return _campaign.run_campaign_impl(cfg, progress=progress)

    def tune(self, spec, *,
             progress: Optional[Callable[[str], None]] = None,
             options: Optional[RunOptions] = None):
        """Run a closed-loop heuristic search (see :mod:`repro.tune`).

        Candidates are evaluated as ordinary cached engine cells through
        the session's cache/pool.  Returns a
        :class:`~repro.tune.TuneResult`.
        """
        from .tune import run_tune

        opts = self._resolve(options)
        return run_tune(spec, cache=self._cache_of(opts), jobs=opts.jobs,
                        backend=opts.resolve_backend(),
                        timeout=opts.timeout, progress=progress)

    def spectre(self, prog, *, sew: Optional[int] = None,
                untrusted: Optional[tuple] = None):
        """Run the speculative-safety analysis on one program.

        Returns the (possibly empty) list of
        :class:`~repro.robust.spectre.SpectreFinding` records.  Knobs
        default to the session heuristics' ``spectre_sew`` /
        ``spectre_untrusted`` / ``spectre_fence`` fields.
        """
        from .robust.spectre import SpectreConfig, analyze_program

        config = SpectreConfig(
            untrusted=(tuple(untrusted) if untrusted is not None
                       else tuple(self.heur.spectre_untrusted)),
            sew=self.heur.spectre_sew if sew is None else sew,
            mode="fence" if self.heur.spectre_fence else "suppress")
        with _trace.span("spectre.analyze", program=prog.name,
                         sew=config.sew):
            return analyze_program(prog, config)

    # -- reporting ---------------------------------------------------------

    def cache_stats(self) -> Optional[dict]:
        """The artifact cache's stats snapshot (None when caching is off)."""
        return self.cache.stats() if self.cache is not None else None

    def __repr__(self) -> str:
        return (f"Session(jobs={self.jobs}, "
                f"cache={'on' if self.cache else 'off'}, "
                f"trace={self.trace_path!r}, metrics={self.metrics})")
