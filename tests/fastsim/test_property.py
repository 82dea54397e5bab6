"""Property-based conformance: random programs, instruction-for-instruction.

Hypothesis draws (strategy, seed) points from the full fuzz lattice of
:mod:`repro.qa.strategies` — including ``gadgets`` (Spectre-shaped
double-load diamonds) and the guarded families that exercise annulment —
and asserts the fast backend's execution equals the reference
*per dynamic instruction*, not just in aggregate:

* the committed pc stream (one entry per step, annulled steps included),
* the taken flag of every non-annulled branch, in order,
* the effective address of every non-annulled memory op, in order,
* which absolute step indices were annulled,
* the full ``ExecStats`` payload and final architectural state.

The reference trace is the source of truth: the fast backend's batched
trace stream (:meth:`FastFunctionalSim.batches`) is flattened and must
reproduce it exactly.  Failure behavior must match too — if the
reference raises (step budget, divergence), the fast path must raise the
same exception type with the same message.

A second property drives the same lattice through the native timing
kernel under drawn machine configurations — all four predictors, and
the width, ROB/queue, cache geometry, miss-penalty, recovery and
fence-stall axes — and asserts its ``SimStats`` payload equals the
reference ``TimingSim``'s, failures included.

``derandomize=True`` keeps the tier-1 run deterministic; the example
count is deliberately modest because the exhaustive corpus lives in
``test_conformance.py`` — this test exists to search the space *between*
the checked-in reproducers.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.fastsim.decode import decode_program
from repro.fastsim.functional import FastFunctionalSim
from repro.fastsim.timing import FastTimingSim
from repro.isa.parser import parse
from repro.qa.strategies import BY_NAME
from repro.sim.config import Latencies, r10k_config
from repro.sim.functional import FunctionalSim
from repro.sim.pipeline import TimingSim

STEP_BUDGET = 200_000
LATTICE = sorted(BY_NAME)


def _reference_trace(sim):
    """(idxs, brs, mems, anns, failure) from a reference run."""
    idxs, brs, mems, anns = [], [], [], []
    failure = None
    try:
        for step, e in enumerate(sim.trace()):
            idxs.append(e.index)
            if e.annulled:
                anns.append(step)
                continue
            if e.taken is not None:
                brs.append(e.taken)
            if e.addr is not None:
                mems.append(e.addr)
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        failure = f"{type(exc).__name__}: {exc}"
    return idxs, brs, mems, anns, failure


def _fast_trace(sim):
    idxs, brs, mems, anns = [], [], [], []
    failure = None
    try:
        for bi, bb, bm, ba in sim.batches():
            idxs.extend(bi)
            brs.extend(bb)
            mems.extend(bm)
            anns.extend(ba)
    except Exception as exc:  # noqa: BLE001
        failure = f"{type(exc).__name__}: {exc}"
    return list(idxs), list(brs), list(mems), list(anns), failure


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(LATTICE), seed=st.integers(0, 4095))
def test_random_program_trace_equality(name, seed):
    prog = BY_NAME[name].program(seed)
    ref = FunctionalSim(prog, max_steps=STEP_BUDGET, record_outcomes=True)
    fast = FastFunctionalSim(prog, max_steps=STEP_BUDGET,
                             record_outcomes=True)
    r_idxs, r_brs, r_mems, r_anns, r_fail = _reference_trace(ref)
    f_idxs, f_brs, f_mems, f_anns, f_fail = _fast_trace(fast)

    assert r_fail == f_fail, \
        f"{name}-{seed}: failure mismatch {r_fail!r} vs {f_fail!r}"
    if r_idxs != f_idxs:
        first = next((i for i, (a, b) in enumerate(zip(r_idxs, f_idxs))
                      if a != b), min(len(r_idxs), len(f_idxs)))
        raise AssertionError(
            f"{name}-{seed}: pc stream diverged at step {first} "
            f"(lengths {len(r_idxs)} vs {len(f_idxs)})")
    assert r_brs == f_brs, f"{name}-{seed}: branch outcomes diverged"
    assert r_mems == f_mems, f"{name}-{seed}: memory addresses diverged"
    assert r_anns == f_anns, f"{name}-{seed}: annulment steps diverged"
    assert ref.stats.to_dict() == fast.stats.to_dict()
    if r_fail is None:
        assert ref.regs == fast.regs
        assert ref.fregs == fast.fregs
        assert ref.ccregs == fast.ccregs
        assert ref.index_counts == fast.index_counts


TIMING_BUDGET = 20_000

#: Machine-configuration axes of the timing parity property.
MACHINES = st.fixed_dictionaries({
    "predictor": st.sampled_from(
        ("twobit", "twolevel", "perfect", "static-taken")),
    "fetch_width": st.integers(1, 8),
    "dispatch_width": st.integers(1, 8),
    "commit_width": st.integers(1, 8),
    "rob_size": st.sampled_from((4, 8, 16, 32, 128)),
    "int_queue_size": st.integers(1, 32),
    "addr_queue_size": st.integers(1, 32),
    "fp_queue_size": st.integers(1, 32),
    "branch_buffer_size": st.integers(1, 8),
    "num_alus": st.integers(1, 4),
    "num_mem_units": st.integers(1, 2),
    "bht_entries": st.sampled_from((16, 512)),
    "btb_entries": st.sampled_from((1, 2, 4, 512)),
    "icache_size": st.sampled_from((1024, 4096, 32 * 1024)),
    "dcache_size": st.sampled_from((1024, 4096, 32 * 1024)),
    "cache_line": st.sampled_from((16, 32, 64)),
    "cache_assoc": st.sampled_from((1, 2, 4)),
    "misprediction_recovery": st.integers(0, 8),
    "fence_stall": st.integers(0, 6),
    "latencies": st.builds(Latencies,
                           ldst=st.integers(1, 4),
                           fpdiv=st.integers(1, 12),
                           cache_miss_penalty=st.integers(0, 12)),
})


def _stress_program(seed: int):
    """A loop the fuzz lattice does not generate: fp-divider chains, a
    cache-conflicting load pair, many branch sites (BTB pressure), a
    branch-likely, a call/return pair and a fence."""
    sites = 1 + seed % 12
    lines = ["main:", f"    li r1, {10 + seed % 60}", "    li r5, 65536",
             "    li r4, 3", "    cvtif f3, r4",
             "loop:",
             "    lw r2, 0(r5)", "    addi r2, r2, 1", "    sw r2, 0(r5)",
             f"    lw r3, {(0, 32, 1024, 4096)[seed % 4]}(r5)",
             "    cvtif f1, r2", "    fdiv f2, f1, f3", "    fdiv f7, f1, f1",
             "    fdiv f4, f2, f3",
             "    fmul f5, f4, f2", "    fadd f6, f5, f1"]
    for k in range(sites):
        lines += [f"    andi r6, r1, {1 << (k % 4)}", f"    beqz r6, skip{k}",
                  "    addi r9, r9, 1", f"skip{k}:"]
    lines += ["    andi r7, r1, 2", "    bnezl r7, tail", "    addi r9, r9, 2",
              "tail:", "    jal helper", "    fence",
              "    addi r1, r1, -1", "    bnez r1, loop", "    halt",
              "helper:", "    addi r8, r8, 3", "    jr r31"]
    return parse("\n".join(lines), name=f"stress-{seed}")


def _stats_or_failure(run):
    try:
        return run().to_dict(), None
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return None, f"{type(exc).__name__}: {exc}"


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(LATTICE + ["stress"]),
       seed=st.integers(0, 4095), machine=MACHINES)
def test_timing_kernel_simstats_parity(name, seed, machine):
    prog = (_stress_program(seed) if name == "stress"
            else BY_NAME[name].program(seed))
    cfg = r10k_config(**machine)

    def reference():
        fsim = FunctionalSim(prog, max_steps=TIMING_BUDGET,
                             record_outcomes=False)
        return TimingSim(cfg).run(fsim.trace())

    def native():
        dec = decode_program(prog)
        fsim = FastFunctionalSim(prog, max_steps=TIMING_BUDGET,
                                 record_outcomes=False, decoded=dec)
        return FastTimingSim(cfg, decoded=dec).run(fsim.batches())

    ref, ref_fail = _stats_or_failure(reference)
    fast, fast_fail = _stats_or_failure(native)
    assert ref_fail == fast_fail, \
        f"{name}-{seed}: failure mismatch {ref_fail!r} vs {fast_fail!r}"
    assert ref == fast, f"{name}-{seed} under {machine}: SimStats differ"
