"""Pass sandbox: containment, bit-for-bit rollback, skip recording."""

import pytest

from repro.cfg.graph import build_cfg
from repro.isa import format_program, parse
from repro.isa.instruction import make
from repro.robust import PassSandbox, restore_cfg, snapshot_cfg

PROG = """.text
main:
    li   r1, 5
    li   r2, 7
    beq  r1, r2, skip
    add  r3, r1, r2
skip:
    sub  r4, r2, r1
    halt
"""


class _NotApplicable(Exception):
    """Stand-in for a pass's legitimate declines (SplitNotApplicable)."""


@pytest.fixture
def cfg():
    return build_cfg(parse(PROG, name="sandboxed"))


def test_success_returns_value_and_records_nothing(cfg):
    box = PassSandbox(cfg)
    assert box.run("noop", lambda: 42) == 42
    assert box.last_ok
    assert box.failures == []
    assert not box.contained


def test_crash_mid_pass_rolls_back(cfg):
    before = format_program(cfg.to_program("snap"))
    bids = [bb.bid for bb in cfg.blocks]
    box = PassSandbox(cfg)

    def bad_pass():
        cfg.blocks[0].instructions.insert(0, make("li", "r9", 0xDEAD))
        raise RuntimeError("pass died after mutating")

    assert box.run("boom", bad_pass) is None
    assert not box.last_ok
    assert [f.kind for f in box.failures] == ["exception"]
    assert "pass died" in box.failures[0].reason
    assert box.failures[0].detail  # traceback tail captured
    # Rollback is in place: same block ids, same linearization.
    assert [bb.bid for bb in cfg.blocks] == bids
    assert format_program(cfg.to_program("snap")) == before


def test_invariant_break_rolls_back(cfg):
    before = format_program(cfg.to_program("snap"))
    box = PassSandbox(cfg)

    def drops_taken_edge():
        for bb in cfg.blocks:
            if bb.terminator is not None and bb.terminator.is_branch:
                for e in list(cfg.succ_edges[bb.bid]):
                    if e.kind == "taken":
                        cfg.succ_edges[bb.bid].remove(e)
                        cfg.pred_edges[e.dst].remove(e)

    box.run("edge-dropper", drops_taken_edge)
    assert [f.kind for f in box.failures] == ["verify"]
    assert format_program(cfg.to_program("snap")) == before


def test_skip_recorded_with_reason(cfg):
    box = PassSandbox(cfg)

    def declines():
        raise _NotApplicable("loop body too small to split")

    assert box.run("split@bb1", declines,
                   skip_exceptions=(_NotApplicable,)) is None
    assert not box.last_ok
    assert [f.kind for f in box.failures] == ["skip"]
    assert "too small" in box.failures[0].reason
    assert not box.contained  # a recorded skip is not a contained crash


def test_snapshot_restore_roundtrip(cfg):
    snap = snapshot_cfg(cfg)
    before = format_program(cfg.to_program("snap"))
    cfg.blocks[0].instructions.insert(0, make("li", "r9", 1))
    cfg.blocks[-1].instructions.insert(0, make("li", "r9", 2))
    restore_cfg(cfg, snap)
    assert format_program(cfg.to_program("snap")) == before


def test_later_passes_continue_after_containment(cfg):
    box = PassSandbox(cfg)
    box.run("boom", lambda: (_ for _ in ()).throw(RuntimeError("x")))
    assert box.run("works", lambda: "ok") == "ok"
    assert box.last_ok
    assert len(box.failures) == 1


def test_snapshot_keeps_uids_and_copies_annotations(cfg):
    cfg.blocks[0].instructions[0].ann["mark"] = 1
    snap = snapshot_cfg(cfg)
    copy = snap["blocks"][0][2][0]
    orig = cfg.blocks[0].instructions[0]
    assert copy is not orig and copy == orig and copy.uid == orig.uid
    assert copy.info is orig.info
    copy.ann["mark"] = 2
    assert orig.ann["mark"] == 1
    restore_cfg(cfg, snap)
    assert cfg.blocks[0].instructions[0] is not copy  # snapshot reusable
    assert cfg.blocks[0].instructions[0].ann["mark"] == 2


@pytest.fixture
def verifies(monkeypatch):
    """Count the sandbox's verify_cfg calls."""
    from repro.robust import sandbox

    calls = []
    real = sandbox.verify_cfg
    monkeypatch.setattr(sandbox, "verify_cfg",
                        lambda c: calls.append(1) or real(c))
    return calls


def _reweigh(cfg):
    for bb in cfg.blocks:
        bb.freq += 1.0


def test_each_ir_state_is_verified_once(cfg, verifies):
    box = PassSandbox(cfg)
    box.run("annotate", lambda: _reweigh(cfg))
    box.run("decide", lambda: None)
    box.run("annotate", lambda: _reweigh(cfg))
    assert len(verifies) == 1  # frequencies are not part of the IR state
    box.run("insert", lambda: cfg.blocks[0].instructions.insert(
        0, make("li", "r9", 1)))
    assert len(verifies) == 2
    box.run("boom", lambda: (_ for _ in ()).throw(RuntimeError("x")))
    box.run("remove", lambda: cfg.blocks[0].instructions.pop(0))
    assert len(verifies) == 2  # back to the first, already verified state
    assert len(box.verified) == 2


def test_failed_verification_is_remembered_too(cfg, verifies):
    cfg.blocks[0].instructions[0].dest = "cc0"  # li into a cc register
    box = PassSandbox(cfg)
    box.run("same", lambda: None)
    box.run("same-again", lambda: None)
    assert [f.kind for f in box.failures] == ["verify", "verify"]
    assert box.failures[0].reason == box.failures[1].reason
    assert len(verifies) == 1


def test_resumed_sandbox_inherits_verified_states(cfg, verifies):
    box = PassSandbox(cfg)
    box.run("annotate", lambda: _reweigh(cfg))
    snap = snapshot_cfg(cfg)
    other = build_cfg(parse(PROG, name="resumed"))
    restore_cfg(other, snap)
    resumed = PassSandbox(other, verified=box.verified)
    resumed.run("annotate", lambda: _reweigh(other))
    assert len(verifies) == 1
    fresh = PassSandbox(other)  # memos are per sandbox, never global
    fresh.run("annotate", lambda: _reweigh(other))
    assert len(verifies) == 2


def test_checkpoint_hands_over_the_pre_stage_snapshot(cfg, monkeypatch):
    from repro.robust import sandbox

    taken = []
    real = sandbox.snapshot_cfg
    monkeypatch.setattr(sandbox, "snapshot_cfg",
                        lambda c: taken.append(real(c)) or taken[-1])
    before = format_program(cfg.to_program("snap"))
    box = PassSandbox(cfg)
    got = []
    box.checkpoint(got.append)
    box.run("insert", lambda: cfg.blocks[0].instructions.insert(
        0, make("li", "r9", 1)))
    box.run("noop", lambda: None)
    assert got == [taken[0]] and len(taken) == 2  # no snapshot of its own
    restore_cfg(cfg, got[0])
    assert format_program(cfg.to_program("snap")) == before
