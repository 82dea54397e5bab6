"""Repository benchmark: four workloads on the ``fast`` backend.

Usage (from the repository root)::

    python3 perfbench/run.py --workload stock-cold --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 10 --trace 1

One run times its set-up -- the imports, in a fresh interpreter, and the
workload's own set-up -- ``SETUP_REPEATS`` times each and reports the
medians' sum, repeats timed passes for ``--seconds`` seconds (at least
``MIN_PASSES``), checks every pass against its oracle and, with
``--trace 1``, makes one more pass that calls each layer's public
function itself.  It prints the metrics by name with their units, then
the stamped record as one ``record: {...}`` line, then, as the last line,
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer ones with ``--trace 1``.  A rejected
correctness gate exits 1; a checkout without ``src/repro`` exits 2.
``--all`` runs every workload in its own process and prints one table.
End-to-end times are in reference-host seconds (``bench.host_slowdown``);
the record keeps the raw figures too.
"""

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("stock-cold", "randprog-cold", "sweep-warm", "tune-pool")
#: Set-up repetitions per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3
#: Timed passes made even when ``--seconds`` runs out sooner.
MIN_PASSES = 3
#: Seconds one workload of ``--all`` may take before it is stopped.
CHILD_TIMEOUT = 900


def ensure_repro_importable() -> bool:
    """Put this checkout's ``src/`` first on the import path; False when
    the checkout has no ``src/repro`` to benchmark."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        return False
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    return True


def commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def host() -> dict:
    """Host stamp of the record."""
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"host": platform.node(), "cpu": cpu,
            "python": platform.python_version(),
            "nproc": os.cpu_count() or 1}


def peak_rss_mb(workers: int) -> float:
    """Peak resident set size in MiB so far: this process, plus *workers*
    times the largest child when a pool ran (an upper bound on their
    sum)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + (workers * child if workers > 1 else 0)) / 1024


def import_seconds() -> float:
    """Seconds a fresh interpreter takes to import this benchmark and the
    program under test (the import part of every run's set-up)."""
    code = ("import sys, time; t0 = time.perf_counter(); "
            f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(HERE)!r}]; "
            "import bench, layers; print(time.perf_counter() - t0)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, timeout=120)
    return float(proc.stdout)


def live_programs() -> int:
    """``Program`` objects still alive after a full collection."""
    from repro.isa.program import Program

    gc.collect()
    return sum(1 for obj in gc.get_objects() if isinstance(obj, Program))


def measure(args, workdir: str) -> tuple[dict, dict, list[str]]:
    """One run of one workload: ``(record, result line, printable
    lines)``."""
    import bench
    import layers
    from repro.obs.metrics import REGISTRY

    wl = bench.WORKLOADS[args.workload](args.seed, args.tiny, workdir)

    def setup_seconds() -> float:
        t0 = time.perf_counter()
        wl.setup()
        return time.perf_counter() - t0

    slowdowns = [bench.host_slowdown()]
    reps = {"imports": [], "setup": []}
    for part, fn in (("imports", import_seconds), ("setup", setup_seconds)):
        for _ in range(SETUP_REPEATS):
            raw = fn()
            slowdowns.append(bench.host_slowdown())
            reps[part].append((raw, raw / (sum(slowdowns[-2:]) / 2)))
    raw_setup_s, setup_s = (
        sum(statistics.median(r[i] for r in rs) for rs in reps.values())
        for i in (0, 1))
    slowdowns = slowdowns[-1:]

    held_before = live_programs()
    passes = []
    start = time.perf_counter()
    while (len(passes) < MIN_PASSES
           or time.perf_counter() - start < args.seconds):
        if REGISTRY.enabled:
            raise RuntimeError("metrics registry enabled: fast cells would "
                               "run on the reference simulator")
        gc.collect()
        passes.append(wl.run_pass())
        slowdowns.append(bench.host_slowdown())
        passes[-1].slowdown = (slowdowns[-2] + slowdowns[-1]) / 2
        if len(passes) == MIN_PASSES:
            # A fixed amount of work, so that memory a pass leaves behind
            # counts the same in every run however many passes fit.
            rss = peak_rss_mb(max(p.pool_workers for p in passes))
    held = (live_programs() - held_before) / len(passes)

    errors = wl.check(passes)
    record = {
        "commit": commit(), **host(), "backend": bench.BACKEND,
        "workload": wl.name, "why": wl.why, "seed": args.seed,
        "seconds": args.seconds, "tiny": args.tiny,
        "params": wl.params(),
        "setup_repeats_s": reps,
        "pass_wall_s": [p.wall_s for p in passes],
        "host_slowdown": slowdowns, "raw_setup_s": raw_setup_s,
        "raw_cells_per_s": statistics.median(p.cells / p.wall_s
                                             for p in passes),
        "cells_per_pass": [p.cells for p in passes],
        "not_exercised": bench.NOT_EXERCISED,
        "model_validation": bench.MODEL_VALIDATION,
    }
    e2e = bench.end_to_end(wl, passes, setup_s, rss)
    shown = bench.report_view(wl, e2e)
    record["end_to_end"] = as_metrics(shown)
    record["samples"] = len(passes)
    lines = [f"{wl.name}: {len(passes)} passes of {passes[-1].cells} cells "
             f"(seed {args.seed}, {bench.BACKEND} backend)"]
    lines += metric_lines(shown, len(passes))
    lines.append(f"  (times in reference-host seconds; host slowdown "
                 f"{statistics.median(slowdowns):.3f}x, raw cells_per_s "
                 f"{record['raw_cells_per_s']:.4f}, raw setup_s "
                 f"{raw_setup_s:.4f})")

    if args.trace and not errors:
        gc.collect()
        if REGISTRY.enabled:
            raise RuntimeError("metrics registry enabled before the traced "
                               "pass")
        try:
            tr, wall, cells = layers.run_traced(wl, passes)
        except bench.GateError as exc:
            errors.append(str(exc))
        else:
            layer = layers.per_layer(wl, passes, tr, wall, cells, held)
            record["layers"] = as_metrics(layer)
            lines.append("per-layer (traced pass, host self time):")
            lines += layers.layer_table(tr, wall)
            lines += metric_lines(layer, 1)
    metrics = (record.get("layers", {}) if args.trace
               else as_metrics(e2e))
    for name, m in metrics.items():
        if not math.isfinite(m["value"]):
            errors.append(f"{name} was not measured ({m['value']})")
            m["value"] = 0.0  # keeps the result line valid JSON
    record["gate"] = {"correct": not errors, "errors": errors[:20]}
    result = {"correct": not errors,
              "attempted": sum(p.attempted for p in passes),
              "failed": sum(p.failed for p in passes),
              "metrics": metrics}
    return record, result, lines


def as_metrics(metrics: dict) -> dict:
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}


def metric_lines(metrics: dict, samples: int) -> list[str]:
    return [f"  {name:<30} {value:>14.4f} {unit}"
            + (f"  (median of {samples})" if name == "cells_per_s" else "")
            for name, (value, unit) in metrics.items()]


def run_one(args) -> int:
    if not ensure_repro_importable():
        print(f"error: no src/repro under {ROOT}: nothing to benchmark",
              file=sys.stderr)
        return 2
    base = ROOT / ".perfbench-work"
    base.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base)
    try:
        record, result, lines = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass  # another run is still using it
    print("\n".join(lines))
    for err in record["gate"]["errors"]:
        print(f"GATE: {err}", file=sys.stderr)
    print("record: " + json.dumps(record, sort_keys=True))
    print(json.dumps(result, allow_nan=False))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload in its own process (so set-up and peak memory are
    per workload), then one summary table."""
    status = 0
    rows = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT)
        sys.stderr.write(proc.stderr)
        out = proc.stdout.splitlines()
        print("\n".join(line for line in out
                        if not line.startswith(("record: ", "{"))))
        if proc.returncode != 0:
            status = 1
        record = next((json.loads(line[8:]) for line in out
                       if line.startswith("record: ")), None)
        if record is not None:
            rows.append((name, record))
    print(f"\n{'workload':<15} {'setup_s':>8} {'cells/s':>9} {'n':>3} "
          f"{'rss MiB':>8} {'fail %':>7} {'gain':>8}  correct")
    print("(gain: proposed_gain, or tuned_gain for tune-pool)")
    for name, rec in rows:
        e = {k: v["value"] for k, v in rec["end_to_end"].items()}
        gain = e.get("proposed_gain", e.get("tuned_gain"))
        print(f"{name:<15} {e['setup_s']:8.3f} {e['cells_per_s']:9.2f} "
              f"{rec['samples']:3d} {e['peak_rss_mb']:8.1f} "
              f"{e['fail_pct']:7.2f} {gain:8.4f}  "
              f"{rec['gate']['correct']}")
    return status


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=WORKLOAD_NAMES)
    which.add_argument("--all", action="store_true",
                       help="run every workload, one process each")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0,
                   help="minimum timed seconds per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny inputs (the benchmark's own tests)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.all else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
