"""Buffer pool unit tests: hand-traced acquire/release behavior and invariants."""

import random
import subprocess
import sys
from pathlib import Path

import pytest

from poolgp import expr_pool
from poolgp.engine import Individual
from poolgp.errors import InvariantError
from poolgp.expr_pool import NO_SLOT, BufferPool
from simharness import free_slots


def make_pool(popsize=1, nthreads=1, buffer_bytes=4):
    return BufferPool(popsize, nthreads, buffer_bytes)


def test_capacity_formula_reference_run():
    # 500 members bred by 8 threads need exactly 516 buffers
    pool = BufferPool(500, 8, 16)
    assert pool.capacity == 516


def test_capacity_formula_serial():
    pool = BufferPool(500, 0, 16)
    assert pool.capacity == 502


def test_smallest_pool_chain_layout():
    pool = BufferPool(1, 1, 4)
    assert pool.capacity == 3
    assert pool.free == [3, 2, 1]  # stack top last: slot 1 goes first
    assert free_slots(pool) == [1, 2, 3]


def test_acquire_trace_fresh_pool():
    pool = make_pool()
    who = Individual()
    slot = pool.acquire(who)
    assert slot == 1
    assert who.slot_id == 1
    assert free_slots(pool) == [2, 3]
    assert pool.used == 1
    assert pool.max_used == 1


def test_acquire_after_release_reuses_released_slot():
    pool = make_pool()
    inds = [Individual() for _ in range(3)]
    for ind in inds:
        pool.acquire(ind)
    assert pool.free == []
    pool.release(inds[1])  # gives slot 2 back
    assert pool.used == 2
    who = Individual()
    assert pool.acquire(who) == 2
    assert pool.used == 3


def test_exhaustion_is_fatal():
    pool = make_pool()
    for _ in range(3):
        pool.acquire(Individual())
    with pytest.raises(InvariantError):
        pool.acquire(Individual())


def test_release_trace():
    pool = make_pool()
    a, b = Individual(), Individual()
    pool.acquire(a)  # slot 1
    pool.acquire(b)  # slot 2, slot 3 now on top
    pool.release(a)
    assert free_slots(pool) == [1, 3]
    assert pool.used == 1
    assert a.slot_id == NO_SLOT
    assert pool.slots[a.slot_id] is None  # the released handle reaches no buffer


def test_second_release_is_invariant_violation():
    pool = make_pool()
    a = Individual()
    pool.acquire(a)
    pool.release(a)
    snapshot = (list(pool.free), pool.used, pool.max_used)
    with pytest.raises(InvariantError):
        pool.release(a)  # each buffer is released exactly once
    assert (list(pool.free), pool.used, pool.max_used) == snapshot


def test_release_then_acquire_is_lifo():
    pool = make_pool()
    a = Individual()
    pool.acquire(a)  # slot 1
    pool.release(a)
    b = Individual()
    assert pool.acquire(b) == 1


def test_usage_counters_lifecycle():
    pool = make_pool()

    def stats():
        return pool.used, pool.peak, pool.max_used

    assert stats() == (0, 0, 0)
    a = Individual()
    pool.acquire(a)
    pool.acquire(Individual())
    assert stats() == (2, 2, 2)
    pool.release(a)
    pool.reset_peak()  # a new peak window starts at the current use
    assert stats() == (1, 1, 2)
    pool.acquire(Individual())
    assert stats() == (2, 2, 2)


def test_conservation_and_no_aliasing_under_random_traffic():
    pool = BufferPool(5, 3, 8)
    rng = random.Random(7)
    held = []
    for _ in range(2000):
        if held and (rng.random() < 0.5 or pool.used == pool.capacity):
            victim = held.pop(rng.randrange(len(held)))
            pool.release(victim)
            with pytest.raises(InvariantError):
                pool.release(victim)  # a double release is refused
        else:
            ind = Individual()
            pool.acquire(ind)
            held.append(ind)
        free = free_slots(pool)
        assert pool.used + len(free) == pool.capacity
        owned = [ind.slot_id for ind in held]
        assert sorted(owned + free) == list(range(1, pool.capacity + 1))


def test_buffer_storage_is_reused_not_reallocated():
    pool = make_pool(buffer_bytes=8)
    a = Individual()
    pool.acquire(a)
    first = pool.slots[a.slot_id]
    first[0] = 99
    pool.release(a)
    b = Individual()
    pool.acquire(b)
    # same backing object, stale contents and all
    assert pool.slots[b.slot_id] is first
    assert pool.slots[b.slot_id][0] == 99


def test_release_of_foreign_slot_is_invariant_violation():
    pool = make_pool()
    held = Individual()
    pool.acquire(held)
    for slot in (pool.capacity + 1, -1, 2):  # out of range twice, then never handed out
        stranger = Individual(slot_id=slot)
        with pytest.raises(InvariantError):
            pool.release(stranger)
    assert pool.used == 1  # a rejected release changes nothing
    assert free_slots(pool) == [2, 3]


def test_release_with_nothing_in_use_is_invariant_violation():
    pool = make_pool()
    ind = Individual()
    pool.acquire(ind)
    slot = ind.slot_id
    pool.release(ind)
    with pytest.raises(InvariantError):
        pool.release(Individual(slot_id=slot))  # stale handle to a freed slot


def test_stale_handle_release_while_others_in_use_is_invariant_violation():
    # without a per-slot in-use flag this release pushed slot 1 onto the
    # free stack twice, and the next two acquires both got slot 1
    pool = BufferPool(3, 1, 8)
    a, b = Individual(), Individual()
    pool.acquire(a)
    pool.acquire(b)
    stale = Individual(slot_id=a.slot_id)
    pool.release(a)
    with pytest.raises(InvariantError):
        pool.release(stale)
    c, d = Individual(), Individual()
    pool.acquire(c)
    pool.acquire(d)
    assert len({b.slot_id, c.slot_id, d.slot_id}) == 3


def test_every_buffer_is_built_up_front():
    pool = BufferPool(4, 2, 8)
    bufs = pool.slots[1:]
    assert len({id(buf) for buf in bufs}) == pool.capacity == 8
    assert all(buf == bytearray(8) for buf in bufs)
    assert pool.used == pool.max_used == 0
    # slot 0 is the "no buffer" sentinel: a read through a released handle fails
    assert len(pool.slots) == pool.capacity + 1
    assert pool.slots[NO_SLOT] is None


def test_pool_invariants_hold_under_python_optimize():
    src = Path(expr_pool.__file__).resolve().parents[1]
    script = (
        "import sys\n"
        "from poolgp.engine import Individual\n"
        "from poolgp.errors import InvariantError\n"
        "from poolgp.expr_pool import BufferPool\n"
        "if not sys.flags.optimize:\n"
        "    sys.exit(2)\n"
        "try:\n"
        "    BufferPool(1, 1, 4).release(Individual(slot_id=2))\n"
        "except InvariantError:\n"
        "    sys.exit(0)\n"
        "sys.exit(3)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script], cwd=src,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
