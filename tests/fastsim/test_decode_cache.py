"""The decode cache must not keep its programs alive.

``decode_program`` caches tables per program identity.  The tables, the
generated code and the native timing tables hanging off them refer to
their program only weakly, so once a program is garbage the cache slot
is evicted and the program itself is collected.
"""

import gc
import weakref

from repro.fastsim import backend as fb
from repro.fastsim.decode import _DECODE_CACHE, decode_program
from repro.isa.program import Program
from repro.sim.config import r10k_config
from repro.workloads import benchmark_programs


def _live_programs() -> int:
    gc.collect()
    return sum(1 for obj in gc.get_objects() if isinstance(obj, Program))


def test_simulated_programs_are_collected():
    before = _live_programs()
    progs = benchmark_programs(scale=0.02)
    refs = [weakref.ref(p) for p in progs.values()]
    for prog in progs.values():
        fb.simulate(prog, r10k_config("twobit"), max_steps=1_000_000)
        assert id(prog) in _DECODE_CACHE
    del prog, progs
    assert _live_programs() == before
    assert all(r() is None for r in refs)
    assert not any(ref() is None for ref, _ in _DECODE_CACHE.values())


def test_cache_hit_while_program_lives():
    prog = benchmark_programs(scale=0.02)["grep"]
    dec = decode_program(prog)
    assert decode_program(prog) is dec
    assert dec.prog is prog
