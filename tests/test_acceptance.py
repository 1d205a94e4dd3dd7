"""Acceptance suite: every exit criterion, one pass line each, exact tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. All comparisons are exact unless a criterion says otherwise.
"""

import csv
import gc
import random
import time
import tracemalloc
from array import array

import pytest

from poolgp.breeding_plan import BreedingPlan
from poolgp.engine import Individual, RunConfig, run_evolution
from poolgp.errors import InvariantError
from poolgp.expr_pool import BufferPool
from poolgp.naive import run_evolution_naive
from simharness import (
    BreedingSim,
    check_integrity,
    explore_all,
    parents,
    queues,
    random_walk,
    tiny_population_scenarios,
)


def config(m, threads, generations, seed):
    return RunConfig(popsize=m, nthreads=threads, generations=generations,
                     buffer_bytes=63, max_initial_depth=4, seed=seed)


def test_memory_bound_across_sizes_threads_and_seeds():
    """Peak live buffers stay within [M+1, M+2*nthreads] for every run."""
    t0 = time.perf_counter()
    for m in (4, 16, 50, 500):
        for threads in (1, 2, 4, 8):
            for seed in range(5):
                result = run_evolution(config(m, threads, 20, seed))
                bound = m + 2 * threads
                for row in result.stats:
                    assert row.pool_max_used <= bound, (m, threads, seed, row)
                for row in result.stats[1:]:  # generations that ran crossover
                    assert row.pool_used_peak >= m + 1, (m, threads, seed, row)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"memory-bound sweep took {elapsed:.1f}s"
    print(f"\nPASS memory bound: peaks in [M+1, M+2*threads] for 80 runs "
          f"({elapsed:.1f}s)")


def test_reference_run_uses_exactly_516_buffers():
    """500 members bred by 8 threads: capacity 516, never more in use."""
    result = run_evolution(config(500, 8, 8, seed=3))
    assert result.capacity == 516
    assert result.peak_buffers <= 516
    assert all(row.pool_max_used <= 516 for row in result.stats)
    print(f"\nPASS capacity figure: capacity=516, peak={result.peak_buffers}")


def test_serial_mode_needs_m_plus_two():
    peaks = {}
    for m in (4, 16, 50):
        result = run_evolution(config(m, 0, 10, seed=2))
        assert result.capacity == m + 2
        assert result.peak_buffers <= m + 2
        peaks[m] = result.peak_buffers
    print(f"\nPASS serial limit: capacity=M+2, peaks={peaks}")


def traced_peak(run, cfg):
    """Run with the cyclic collector off; return (result, peak bytes allocated).

    With gc off, a buffer is freed only when its last reference goes, so the
    peak does not depend on when the collector would have run.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        return run(cfg), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        if was_enabled:
            gc.enable()


def test_memory_bound_in_bytes():
    """The bound holds for memory, not only for the buffer counter."""
    m, buffer_bytes, slack = 200, 65536, 2 ** 20
    peaks = {}
    for name, run, threads in (("threads 0", run_evolution, 0),
                               ("threads 2", run_evolution, 2),
                               ("naive", run_evolution_naive, 0)):
        cfg = RunConfig(popsize=m, nthreads=threads, generations=4,
                        buffer_bytes=buffer_bytes, seed=3)
        result, peaks[name] = traced_peak(run, cfg)
        assert peaks[name] <= result.capacity * buffer_bytes + slack, (name, peaks)
    # the oracle's capacity is 2M, and it does hold both populations while breeding
    assert peaks["naive"] >= 2 * m * buffer_bytes, peaks
    mib = {k: round(v / 2 ** 20, 2) for k, v in peaks.items()}
    print(f"\nPASS bound in bytes: traced peaks {mib} MiB at "
          f"{buffer_bytes}-byte buffers")


def test_pooled_engine_equals_naive_oracle():
    """Same seed, same config: both engines breed identical populations."""
    for m in (4, 16, 50):
        naive = run_evolution_naive(config(m, 1, 10, seed=11))
        for threads in (1, 4):
            pooled = run_evolution(config(m, threads, 10, seed=11))
            assert pooled.genomes == naive.genomes, (m, threads)
            assert pooled.fitness_history == naive.fitness_history, (m, threads)
    print("\nPASS oracle equivalence: genomes and fitness series identical "
          "for M in {4,16,50}, threads in {1,4}")


def test_hand_traced_operation_tables():
    """Hand-traced operation tables, exact match."""
    # acquire/release: (op, who) -> expected (slot, stack top or 0, used, max_used)
    pool = BufferPool(1, 1, 4)
    a, b, c = Individual(), Individual(), Individual()
    trace = [
        ("acquire", a, (1, 2, 1, 1)),
        ("acquire", b, (2, 3, 2, 2)),
        ("acquire", c, (3, 0, 3, 3)),
        ("release", b, (0, 2, 2, 3)),
        ("acquire", b, (2, 0, 3, 3)),  # LIFO: just-released slot comes back
        ("release", a, (0, 1, 2, 3)),
        ("refused", a, (0, 1, 2, 3)),  # second release: InvariantError, no state change
        ("acquire", a, (1, 0, 3, 3)),
    ]
    for op, who, (slot, head, used, max_used) in trace:
        if op == "acquire":
            assert pool.acquire(who) == slot
        elif op == "release":
            pool.release(who)
            assert who.slot_id == 0
        else:
            with pytest.raises(InvariantError):
                pool.release(who)
            assert who.slot_id == 0
        top = pool.free[-1] if pool.free else 0
        assert (top, pool.used, pool.max_used) == (head, used, max_used)

    # build_plan: three children, parent edge counts 3/2/1
    plan = BreedingPlan(array("i", [0, 0, 1]), array("i", [1, 0, 2]))  # parent edge counts 3/2/1
    assert queues(plan) == ([2], [0, 1])
    assert plan.children[0] == [0, 1, 1]
    assert plan.children[1] == [0, 2]
    assert plan.children[2] == [2]

    # claim priority: chain 1 drains before chain 2
    assert [plan.claim_next() for _ in range(4)] == [2, 0, 1, None]

    # rem_child: (list, child) -> (after, remaining, last)
    rem_table = [
        ([3, 7], 7, [3], 1, 3),
        ([5, 5], 5, [5], 1, 5),  # self-crossover: one instance only
        ([4], 4, [], 0, -1),
        ([2, 3, 4], 3, [2, 4], 2, -1),
    ]
    for entries, child, after, remaining, last in rem_table:
        p = BreedingPlan(array("i", range(8)), array("i", range(8)))
        p.children[0] = list(entries)
        assert p.rem_child(0, child) == (remaining, last)
        assert p.children[0] == after

    # move21: take child 1 out of class 2 [0,1,5], push onto chain1
    pairs = [(0, 1), (0, 1), (2, 0), (3, 0), (4, 0), (0, 1), (6, 0), (7, 0)]
    p = BreedingPlan(*parents(pairs))
    assert queues(p)[1] == [0, 1, 5]
    p.move21(7, 1)
    assert queues(p) == ([1, 2, 3, 4, 6, 7], [0, 5])
    assert p.chainhd1 == 1 and p.status[1] == 1
    before = (list(p.chain1), list(p.status), p.chainhd1, p.next2)
    p.move21(5, 5)  # active child: ignored
    p.move21(7, 2)  # already class 1: ignored
    assert (list(p.chain1), list(p.status), p.chainhd1, p.next2) == before
    assert check_integrity(p) is None
    print("\nPASS operation traces: acquire/release, build_plan, rem_child, move21")


def test_exhaustive_interleaving_safety():
    """Every lock-acquisition schedule on tiny runs is read-safe and intact."""
    total = 0
    for nworkers in (1, 2):
        for pairs in tiny_population_scenarios():
            schedules, peak = explore_all(
                lambda p=pairs, n=nworkers: BreedingSim(p, n, seed=5)
            )
            assert len(pairs) + 1 <= peak <= len(pairs) + 2 * nworkers
            total += schedules
    print(f"\nPASS interleaving safety: {total} complete schedules explored, "
          "no stale reads, chains intact at every step")


def test_chain_priority_randomized():
    """1000 random plans: a class-2 child is claimed only when chain 1 is empty."""
    rng = random.Random(2024)
    class2_claims = 0
    for _ in range(1000):
        m = rng.randrange(1, 65)
        pairs = [(rng.randrange(m), rng.randrange(m)) for _ in range(m)]
        sim = random_walk(
            BreedingSim(pairs, rng.randrange(1, 5), seed=rng.randrange(10000),
                        buffer_bytes=15, init_depth=2),
            rng,
        )
        for _, was_class2, chain1_empty in sim.claims:
            if was_class2:
                class2_claims += 1
                assert chain1_empty
    assert class2_claims > 0  # the property was actually exercised
    print(f"\nPASS chain priority: {class2_claims} class-2 claims, "
          "chain 1 empty at every one")


def test_desk_scale_smoke_run(tmp_path):
    """Stand-in for the long reference run: M=500, 50 generations, 8 threads."""
    t0 = time.perf_counter()
    path = tmp_path / "smoke.csv"
    cfg = RunConfig(popsize=500, nthreads=8, generations=50, buffer_bytes=128,
                    max_initial_depth=6, seed=7)
    result = run_evolution(cfg)
    from poolgp.metrics import emit_csv

    emit_csv(result.stats, path)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"smoke run took {elapsed:.1f}s"
    with open(path, newline="") as fh:
        peaks = [int(row["pool_max_used"]) for row in csv.DictReader(fh)]
    assert len(peaks) == 50
    assert peaks == sorted(peaks)  # non-decreasing
    assert peaks[-1] <= result.capacity == 516
    print(f"\nPASS smoke run: 50 generations in {elapsed:.1f}s, "
          f"CSV well-formed, pool_max_used non-decreasing (final {peaks[-1]})")
