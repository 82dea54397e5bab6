"""Client side of the evaluation service: HTTP access + remote runners.

:class:`ServeClient` wraps the wire protocol (submission with
backpressure-aware retry, long-polled JSONL result streaming, job and
stats queries).  On top of it, :func:`remote_run_suite`,
:func:`remote_run_sweep`, and :func:`remote_fuzz_executor` reproduce the
local engine entry points **byte-identically**:

* the client builds the same programs, :class:`CellSpec`\\ s, and
  content-addressed cell keys the local engine would build;
* the server executes each unique cell through the same
  :func:`~repro.engine.cells.execute_cell` containment;
* the client reassembles :class:`~repro.eval.runner.BenchmarkRun`
  objects from the returned payloads exactly like
  :mod:`repro.engine.suite` does from cache hits.

Because keys are content-addressed and process-independent, a result
computed remotely is indistinguishable from one computed locally — which
is the property ``Session(remote=...)`` advertises and
``tests/serve/test_service_e2e.py`` asserts.

Backpressure: a 429 response carries ``retry_after_s``; the client
sleeps exactly that long (bounded) and retries up to
:data:`MAX_BACKPRESSURE_RETRIES` times before raising
:class:`Backpressure` with the structured details attached.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Callable, Optional

from ..core.heuristics import DEFAULT_HEURISTICS, FeedbackHeuristics
from ..engine.cells import CellSpec, benchmark_cells, overrides_as_items
from ..engine.keys import cell_key
from ..obs.metrics import REGISTRY
from ..obs.trace import span as obs_span
from . import protocol

#: 429 retries before :class:`Backpressure` propagates to the caller.
MAX_BACKPRESSURE_RETRIES = 5

#: Cap on one backpressure sleep (a misconfigured server cannot park the
#: client for minutes).
MAX_RETRY_SLEEP_S = 10.0


class ServeError(RuntimeError):
    """The server answered with a structured error envelope."""

    def __init__(self, status: int, code: str, message: str,
                 details: Optional[dict] = None):
        super().__init__(f"[{status}/{code}] {message}")
        self.status = status
        self.code = code
        self.details = details or {}


class Backpressure(ServeError):
    """Rate-limit rejections outlasted every retry."""


class ServeClient:
    """One tenant's HTTP handle on a serve instance."""

    def __init__(self, base_url: str, tenant: str = "default",
                 timeout: float = 60.0,
                 sleep: Callable[[float], None] = time.sleep):
        self.base_url = base_url.rstrip("/")
        self.tenant = tenant
        self.timeout = timeout
        self._sleep = sleep

    # -- HTTP plumbing -----------------------------------------------------

    def _request(self, method: str, path: str,
                 body: Optional[dict] = None) -> tuple[int, bytes]:
        data = (json.dumps(body).encode("utf-8")
                if body is not None else None)
        req = urllib.request.Request(
            f"{self.base_url}{path}", data=data, method=method,
            headers={"Content-Type": "application/json"})
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                return resp.status, resp.read()
        except urllib.error.HTTPError as exc:
            return exc.code, exc.read()

    def _json(self, method: str, path: str,
              body: Optional[dict] = None) -> dict:
        """One request decoded as JSON; structured errors raise."""
        status, raw = self._request(method, path, body)
        decoded = json.loads(raw.decode("utf-8"))
        if "error" in decoded:
            err = decoded["error"]
            cls = Backpressure if err.get("code") == "rate_limited" \
                else ServeError
            raise cls(status, err.get("code", "?"),
                      err.get("message", ""), err)
        return decoded

    # -- core API ----------------------------------------------------------

    def healthz(self) -> dict:
        """Liveness probe (raises on protocol mismatch)."""
        return protocol.check_protocol(
            self._json("GET", "/v1/healthz"), "healthz")

    def stats(self) -> dict:
        """The server's stats snapshot."""
        return self._json("GET", "/v1/stats")

    def submit_cells(self, cells: list[tuple[str, dict]],
                     kind: str = "cells") -> dict:
        """Submit one batch; returns the job record dict.

        Honors structured backpressure: each 429 sleeps the advertised
        ``retry_after_s`` (capped) and retries; persistent rejection
        raises :class:`Backpressure`.
        """
        body = {"protocol": protocol.PROTOCOL_VERSION,
                "tenant": self.tenant, "kind": kind,
                "cells": [{"key": k, "spec": s} for k, s in cells]}
        last: Optional[Backpressure] = None
        for _ in range(MAX_BACKPRESSURE_RETRIES + 1):
            try:
                resp = self._json("POST", "/v1/jobs", body)
                return resp["job"]
            except Backpressure as exc:
                last = exc
                REGISTRY.inc("serve.client.backpressure")
                self._sleep(min(float(exc.details.get("retry_after_s", 1.0)),
                                MAX_RETRY_SLEEP_S))
        raise last  # type: ignore[misc]  # loop ran at least once

    def job(self, job_id: str) -> dict:
        """One job's status record."""
        return self._json("GET", f"/v1/jobs/{job_id}")["job"]

    def jobs(self, all_tenants: bool = False) -> list[dict]:
        """Job listing (this tenant's by default)."""
        query = "" if all_tenants else f"?tenant={self.tenant}"
        return self._json("GET", f"/v1/jobs{query}")["jobs"]

    def results(self, job_id: str,
                poll_s: float = 2.0) -> list[tuple[str, dict]]:
        """Block until *job_id* finishes; returns ``[(key, payload)]``.

        Uses the server's long-poll (bounded per request by the client
        timeout) and falls back to re-polling on 202.
        """
        wait = max(1.0, min(poll_s * 10, self.timeout / 2))
        while True:
            status, raw = self._request(
                "GET", f"/v1/jobs/{job_id}/results?wait={wait}")
            if status == 202:
                self._sleep(poll_s)
                continue
            if status != 200:
                decoded = json.loads(raw.decode("utf-8"))
                err = decoded.get("error", {})
                raise ServeError(status, err.get("code", "?"),
                                 err.get("message", ""), err)
            out = []
            for line in raw.decode("utf-8").splitlines():
                if not line.strip():
                    continue
                record = json.loads(line)
                out.append((record["key"], record["payload"]))
            return out

    def run_cells(self, cells: list[tuple[str, dict]],
                  kind: str = "cells") -> dict[str, dict]:
        """Submit + wait; returns ``{key: payload}`` for the batch."""
        job = self.submit_cells(cells, kind=kind)
        return dict(self.results(job["job_id"]))


# -- remote engine entry points --------------------------------------------

def suite_cells(programs: dict, heur: FeedbackHeuristics,
                config_overrides: Optional[dict], max_steps: int,
                timeout: Optional[float] = None,
                backend: str = "reference"
                ) -> list[tuple[str, str, str, CellSpec, str]]:
    """The suite's cell grid: (name, scheme, key, spec, spec-payload).

    Factored out so the client, the bench harness, and the CI smoke job
    derive *identical* cells for identical inputs — the dedup and
    warm-replay assertions depend on that.
    """
    out = []
    over_items = overrides_as_items(config_overrides)
    for name, prog in programs.items():
        for spec in benchmark_cells(
                name, prog.to_dict(), heur=heur, config_overrides=over_items,
                max_steps=max_steps, timeout=timeout, backend=backend):
            key = cell_key(prog, spec.scheme, heur, spec.resolve_config(),
                           max_steps, backend=backend)
            out.append((name, spec.scheme, key, spec,
                        protocol.cellspec_to_payload(spec)))
    return out


def remote_run_suite(client: ServeClient, scale: float = 1.0,
                     heur: FeedbackHeuristics = DEFAULT_HEURISTICS,
                     benchmarks: Optional[dict] = None,
                     config_overrides: Optional[dict] = None,
                     progress: Optional[Callable[[str], None]] = None,
                     max_steps: int = 50_000_000,
                     timeout: Optional[float] = None,
                     seed: Optional[int] = None,
                     backend: Optional[str] = None) -> dict:
    """The service-backed twin of :func:`repro.engine.suite.run_suite`.

    Same signature surface, same return shape (``{name:
    BenchmarkRun}``), byte-identical cells — execution just happens on
    the other side of the wire, deduplicated fleet-wide.
    """
    from ..eval.runner import BenchmarkRun, SchemeResult
    from ..fastsim.backend import resolve_backend
    from ..workloads import benchmark_programs

    backend = resolve_backend(backend)
    programs = benchmarks if benchmarks is not None \
        else benchmark_programs(scale, seed=seed)
    with obs_span("serve.client.suite", scale=scale, tenant=client.tenant,
                  benchmarks=len(programs), backend=backend):
        grid = suite_cells(programs, heur, config_overrides, max_steps,
                           timeout, backend=backend)
        if progress:
            progress(f"submitting {len(grid)} cells to {client.base_url} "
                     f"as tenant {client.tenant!r}")
        payloads = client.run_cells([(key, payload)
                                     for _, _, key, _, payload in grid])
        runs: dict[str, BenchmarkRun] = {}
        for name, scheme, key, _, _ in grid:
            run = runs.setdefault(name, BenchmarkRun(name=name))
            run.results[scheme] = SchemeResult.from_dict(payloads[key])
        return runs


def remote_run_sweep(client: ServeClient, spec,
                     progress: Optional[Callable[[str], None]] = None,
                     timeout: Optional[float] = None,
                     backend: Optional[str] = None) -> list[dict]:
    """The service-backed twin of :func:`repro.engine.sweep.run_sweep_impl`.

    Iterates the same cartesian points and emits the same flat records;
    every point's suite goes through :func:`remote_run_suite`, so
    overlapping points (and overlapping tenants) share executions.
    """
    from dataclasses import replace

    from ..engine.sweep import _cell_record
    from ..workloads import benchmark_programs

    spec.validate()
    records: list[dict] = []
    for i, point in enumerate(spec.points()):
        if progress:
            progress(f"point {i + 1}/{spec.num_points}: "
                     f"scale={point['scale']} config={point['config']} "
                     f"heur={point['heur']}")
        heur = (replace(DEFAULT_HEURISTICS, **point["heur"])
                if point["heur"] else DEFAULT_HEURISTICS)
        programs = benchmark_programs(point["scale"], seed=spec.seed)
        if spec.benchmarks is not None:
            programs = {n: p for n, p in programs.items()
                        if n in spec.benchmarks}
        runs = remote_run_suite(
            client, benchmarks=programs, heur=heur,
            config_overrides=point["config"], max_steps=spec.max_steps,
            timeout=timeout, backend=backend)
        for name, run in runs.items():
            for cell in run.results.values():
                records.append(_cell_record(point, name, cell))
    return records


def remote_cell_executor(client: ServeClient) -> Callable:
    """A batched cell executor for :func:`repro.tune.run_tune`.

    Returns ``executor(cells) -> {key: payload}`` where *cells* is a
    ``[(key, CellSpec)]`` batch: each tuning round submits its whole
    candidate grid as one job (kind ``"cells"``), so the fleet dedups
    identical cells across rounds, candidates, and tenants exactly as it
    does for suite submissions.
    """
    def _execute(cells: list) -> dict[str, dict]:
        if not cells:
            return {}
        batch = [(key, protocol.cellspec_to_payload(spec))
                 for key, spec in cells]
        with obs_span("serve.client.tune_batch", tenant=client.tenant,
                      cells=len(batch)):
            return client.run_cells(batch)

    return _execute


def remote_fuzz_executor(client: ServeClient) -> Callable:
    """An executor for :func:`repro.qa.campaign.run_campaign_impl`'s hook.

    Returns ``executor(specs) -> payloads``: the campaign's cache-miss
    fuzz cells ride the service queue (kind ``"fuzz"``) instead of the
    local process pool; generation, shrinking, and triage stay local.
    """
    from ..qa.cells import fuzz_cell_key

    def _execute(specs: list) -> list[dict]:
        if not specs:
            return []
        cells = [(fuzz_cell_key(s),
                  {"strategy": s.strategy, "seed": s.seed,
                   "max_steps": s.max_steps}) for s in specs]
        payloads = client.run_cells(cells, kind="fuzz")
        return [payloads[key] for key, _ in cells]

    return _execute
