"""Engine-level tests: selection, breeding traces, determinism, memory envelope."""

import hashlib
import itertools
import math
import os
import random
import re
import struct
import subprocess
import sys
import threading
import time
import tracemalloc
from array import array
from pathlib import Path

import numpy as np
import pytest

from poolgp import engine, genome
from poolgp.breeding_plan import BreedingPlan
from poolgp.engine import (
    MAX_THREADS,
    TOURNAMENT_BLOCK,
    Individual,
    PooledEngine,
    RunConfig,
    child_stream,
    draw_outcome,
    initial_depth,
    run_evolution,
)
from poolgp.expr_pool import NO_SLOT, BufferPool
from poolgp.genome import POINTS_PER_CHILD
from poolgp.naive import run_evolution_naive
from poolgp.problems import QUARTIC, Problem
from simharness import word_for


def untemper(word: int) -> int:
    """The Mersenne Twister state word that CPython tempers to the uint32 `word`."""
    y = word ^ word >> 18
    y ^= y << 15 & 0xEFC60000
    x = y
    for _ in range(5):  # each pass fixes 7 more low bits
        x = y ^ (x << 7 & 0x9D2C5680)
    return x ^ x >> 11 ^ x >> 22


def scripted_random(words) -> random.Random:
    """A plain `random.Random` whose next words are `words` (at most 624), then 0 up to the
    next twist: the state holds each word untempered, padded with 0, at index 0."""
    if len(words) > 624:
        raise ValueError("a script of more than one block")
    rng = random.Random()
    rng.setstate((3, (*map(untemper, words), *[0] * (624 - len(words)), 0), None))
    return rng


def scripted_draw(words, fitnesses, k):
    """`draw_outcome` over scripted words, from `scripted_random`, and an array("d") of
    `fitnesses`. The mums and dads come back as lists."""
    mums, dads, points = draw_outcome(scripted_random(words), array("d", fitnesses), k)
    return mums.tolist(), dads.tolist(), points


class CountingProblem:
    """Delegating evaluator that records every genome it scores and on which thread."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = []
        self.threads = []

    def fitness(self, code, length):
        self.calls.append(bytes(code[:length]))
        self.threads.append(threading.current_thread().name)
        return self.inner.fitness(code, length)

    def opcodes_per_eval(self, length):
        return self.inner.opcodes_per_eval(length)


def generations_scored(cfg, problem):
    """Step a pooled run one generation at a time.

    Yields, per generation: the new genomes, the genomes `problem` scored
    meanwhile and the stats row.
    """
    eng = PooledEngine(cfg, problem)
    for g in range(cfg.generations):
        before = len(problem.calls)
        if g == 0:
            eng._init_generation_zero()
        else:
            eng.run_generation(g)
        pop = [bytes(eng.pool.slots[ind.slot_id][:ind.tree_len]) for ind in eng.pop]
        yield pop, problem.calls[before:], eng.stats[g]


def small_config(**overrides):
    base = dict(popsize=8, nthreads=2, generations=6, buffer_bytes=63,
                max_initial_depth=4, tournament_size=3, seed=42)
    base.update(overrides)
    return RunConfig(**base)


def test_scripted_random_serves_its_script_then_zeros():
    words = [0, 1, 2 ** 32 - 1, 0x9D2C5680, 0xEFC60000] + [random.Random(3).getrandbits(32)
                                                            for _ in range(600)]
    rng = scripted_random(words)
    assert [rng.getrandbits(32) for _ in range(624)] == words + [0] * 19


def test_tournament_picks_best_of_draws():
    mums, dads, _ = scripted_draw([0, word_for(2, 3)], [3.0, 1.0, 2.0], 2)
    assert mums == [2, 0, 0]
    assert dads == [0, 0, 0]


def test_tournament_k1_is_the_single_draw():
    picks = [4, 1, 0, 5, 3, 3, 2, 0, 5, 5, 1, 4]  # mum, dad of child 0, then child 1, ...
    mums, dads, _ = scripted_draw([word_for(i, 6) for i in picks], [5.0] * 6, 1)
    assert mums == picks[0::2]
    assert dads == picks[1::2]


def test_tournament_ties_break_to_lowest_index():
    words = [word_for(i, 6) for i in (5, 3, 4)] + [word_for(5, 6)] * 33
    mums, dads, _ = scripted_draw(words, [7.0] * 6, 3)
    assert mums == [3] + [5] * 5
    assert dads == [5] * 6


def reference_draw(rng, fitnesses, k):
    """Best of k in plain Python over the words of one randbytes call, then the points."""
    m = len(fitnesses)
    rows = 2 * m
    words = struct.unpack(f"<{rows * k}I", rng.randbytes(4 * rows * k))
    winners = []
    for r in range(rows):
        best = None
        for u in words[r * k:(r + 1) * k]:
            i = (u * m) >> 32
            if best is None or fitnesses[i] < fitnesses[best] or (
                    fitnesses[i] == fitnesses[best] and i < best):
                best = i
        winners.append(best)
    count = POINTS_PER_CHILD * m
    points = list(struct.unpack(f"<{count}I", rng.randbytes(4 * count)))
    return array("i", winners[0::2]), array("i", winners[1::2]), points


@pytest.mark.parametrize("m,k", [
    (1, 1), (1, 7),                 # a single member wins every tournament
    (3, 1), (5, 2), (7, 7),
    (4, 9), (3, TOURNAMENT_BLOCK + 1),  # k > M; a tournament past RunConfig's limit
    (1000, 20), (4000, 3),          # several twists of the stream
])
def test_draw_outcome_matches_pure_python_best_of_k(m, k):
    # few distinct values force ties; every fifth member overflowed to +inf
    fitnesses = array("d", [math.inf if v % 5 == 4 else float(v % 3) for v in range(m)])
    ours, ref = random.Random(m * 31 + k), random.Random(m * 31 + k)
    for _ in range(2):
        mums, dads, points = draw_outcome(ours, fitnesses, k)
        assert (mums, dads, points.tolist()) == reference_draw(ref, fitnesses, k)
    assert ours.getstate() == ref.getstate()


def test_nan_fitness_ranks_as_infinity():
    with_nan = array("d", [1.0, math.nan, 2.0, math.nan, 0.5])
    with_inf = array("d", [math.inf if math.isnan(f) else f for f in with_nan])
    assert draw_outcome(random.Random(4), with_nan, 3) == draw_outcome(
        random.Random(4), with_inf, 3)


@pytest.mark.parametrize("check", [
    test_tournament_picks_best_of_draws, test_tournament_k1_is_the_single_draw,
    test_tournament_ties_break_to_lowest_index, test_nan_fitness_ranks_as_infinity,
], ids=lambda check: check.__name__.removeprefix("test_"))
def test_draw_outcome_ranks_alike_in_the_kernel_and_in_numpy(evaluator, check):
    check()


def test_draw_outcome_matches_pure_python_best_of_k_in_the_kernel_and_in_numpy(evaluator):
    for m, k in ((1, 7), (3, 1), (7, 7), (4, 9), (3, TOURNAMENT_BLOCK + 1), (1000, 20), (4000, 3)):
        test_draw_outcome_matches_pure_python_best_of_k(m, k)


PARITY_FITNESSES = (0.0, -0.0, 1.0, 1.0, 2.5, -3.0, math.nan, math.inf, -math.inf)
# every M with every k, but for the large M the largest k, whose reference takes seconds
PARITY_CASES = [(m, k) for m in (1, 2, 3, 7, 2000, 4000)
                for k in (1, 2, 7, 20, TOURNAMENT_BLOCK) if m * k < 10 ** 6]


@pytest.mark.skipif(genome.evaluator() != "c", reason="no C kernel on this machine")
@pytest.mark.parametrize("index", [0, 1, 623, 624])
def test_the_kernels_draw_continues_the_stream_as_randbytes_blocks_do(index, monkeypatch):
    # at every twist boundary of the state and with gauss_next set: the same mums, dads,
    # points and state after as `python_draw`, which reads the stream through random.Random
    # itself and matches `reference_draw`'s randbytes words above
    for seed, (m, k) in enumerate(PARITY_CASES):
        rng = random.Random(seed)
        rng.gauss(0.0, 1.0)
        version, state, gauss_next = rng.getstate()
        rng.setstate((version, state[:-1] + (index,), gauss_next))
        twin = random.Random()
        twin.setstate(rng.getstate())
        pick = random.Random(-seed)
        fitnesses = array("d", [pick.choice(PARITY_FITNESSES) for _ in range(m)])
        got = draw_outcome(rng, fitnesses, k)
        with monkeypatch.context() as python:
            python.setattr(genome, "_native", None)
            assert got == draw_outcome(twin, fitnesses, k), (m, k)
        assert rng.getstate() == twin.getstate(), (m, k)


def test_child_stream_reads_only_its_own_cells():
    draws = array("I", range(3 * POINTS_PER_CHILD))
    assert child_stream(draws, 1).tolist() == list(range(POINTS_PER_CHILD, 2 * POINTS_PER_CHILD))


def test_equal_master_states_give_equal_points():
    fitnesses = array("d", [float(v % 4) for v in range(50)])
    a, b = random.Random(7), random.Random(8)
    b.setstate(a.getstate())
    mums, dads, draws = draw_outcome(a, fitnesses, 3)
    assert draw_outcome(b, fitnesses, 3) == (mums, dads, draws)
    assert len(draws) == POINTS_PER_CHILD * 50
    _, _, draws_other = draw_outcome(random.Random(9), fitnesses, 3)
    assert draws_other != draws


def test_initial_depth_ramp():
    assert [initial_depth(s, 4) for s in range(7)] == [2, 3, 4, 2, 3, 4, 2]
    assert [initial_depth(s, 1) for s in range(3)] == [1, 1, 1]


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(popsize=0).validate()
    with pytest.raises(ValueError):
        RunConfig(nthreads=-1).validate()
    # BufferPool builds what it is given: the gate is where a buffer of no bytes stops
    with pytest.raises(ValueError, match="^buffer_bytes must be >= 1, got 0$"):
        RunConfig(buffer_bytes=0, max_initial_depth=1).validate()
    # random.Random folds a negative seed onto its absolute value: -1 would run seed 1
    with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
        RunConfig(seed=-1).validate()
    RunConfig(seed=0).validate()
    with pytest.raises(ValueError):
        RunConfig(generations=0).validate()
    with pytest.raises(ValueError):
        RunConfig(tournament_size=0).validate()
    RunConfig(tournament_size=TOURNAMENT_BLOCK).validate()
    with pytest.raises(ValueError, match=f"<= {TOURNAMENT_BLOCK}"):
        RunConfig(tournament_size=TOURNAMENT_BLOCK + 1).validate()
    RunConfig(nthreads=MAX_THREADS).validate()
    with pytest.raises(ValueError):
        RunConfig(nthreads=MAX_THREADS + 1).validate()
    with pytest.raises(ValueError):
        # depth-6 initial trees cannot fit 31-byte buffers
        RunConfig(buffer_bytes=31, max_initial_depth=6).validate()


@pytest.mark.parametrize("field", ["popsize", "nthreads", "generations", "buffer_bytes",
                                   "tournament_size", "max_initial_depth", "seed"])
def test_config_validation_rejects_non_integer_fields(field):
    value = getattr(RunConfig(), field)
    for bad in (value + 0.5, float(value), str(value), None):
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            RunConfig(**{field: bad}).validate()
    RunConfig(**{field: np.int64(value)}).validate()  # numpy ints still run


@pytest.mark.parametrize("kind", [np.int64, np.int32])
def test_numpy_int_settings_run_as_plain_ints_on_both_engines(kind):
    # validate stores every field back as an int: the results hold no numpy scalar, which
    # json.dumps refuses, and the same genomes grow as from plain ints
    cfg = dict(popsize=20, nthreads=2, generations=3, buffer_bytes=63, tournament_size=3,
               seed=5, max_initial_depth=4)
    for run in (run_evolution, run_evolution_naive):
        want = run(RunConfig(**cfg)).genomes
        config = RunConfig(**{name: kind(value) for name, value in cfg.items()})
        result = run(config)
        assert type(result.capacity) is int and type(result.peak_buffers) is int, run
        assert [type(v) for v in vars(config).values()] == [int] * len(cfg)
        assert result.genomes == want, run


def test_a_numpy_integer_seed_runs_like_the_same_int():
    cfg = dict(popsize=20, generations=3, buffer_bytes=63, max_initial_depth=4)
    want = run_evolution(RunConfig(seed=5, **cfg)).genomes
    assert run_evolution(RunConfig(seed=np.int64(5), **cfg)).genomes == want
    assert run_evolution_naive(RunConfig(seed=np.int64(5), **cfg)).genomes == want


@pytest.mark.skipif(
    not {"SC_PAGE_SIZE", "SC_PHYS_PAGES"} <= getattr(os, "sysconf_names", {}).keys(),
    reason="no physical memory size on this platform")
def test_config_validation_rejects_buffers_beyond_physical_memory():
    for cfg in (RunConfig(popsize=10**12), RunConfig(buffer_bytes=10**11),
                RunConfig(popsize=10**9, buffer_bytes=1024)):
        with pytest.raises(ValueError, match=r"popsize=\d+ x buffer_bytes=\d+.*physical memory"):
            cfg.validate()


def fake_physical_memory(monkeypatch, page_size, pages):
    sizes = {"SC_PAGE_SIZE": page_size, "SC_PHYS_PAGES": pages}
    monkeypatch.setattr(os, "sysconf_names", sizes, raising=False)
    monkeypatch.setattr(os, "sysconf", sizes.__getitem__, raising=False)


def test_memory_check_compares_pool_capacity_times_buffer_bytes(monkeypatch):
    # a buffer counts its bytearray's header, its bytes and a NUL, a list slot, an in-use
    # byte, a free-stack entry (an int and a list slot) and two handles at twice a handle
    # object: 56 + 1024 + 1 + 8 + 1 + 28 + 8 + 4 * 56 = 1350 bytes on 64-bit CPython 3.11
    word = struct.calcsize("P")
    each = (sys.getsizeof(bytearray()) + 1024 + 1 + word + 1 + sys.getsizeof(4000) + word
            + 4 * sys.getsizeof(Individual()))
    fake_physical_memory(monkeypatch, each, 4000)
    # inline breeding: the pool holds M + 2 buffers
    RunConfig(popsize=3998, buffer_bytes=1024).validate()  # exactly the memory size
    with pytest.raises(ValueError, match=f"popsize=3999 x buffer_bytes=1024: 4001 buffers of "
                                         f"{each} bytes"):
        RunConfig(popsize=3999, buffer_bytes=1024).validate()
    # on a 7.8 GiB machine: the check counts about 330 GB for 10**9 one-byte buffers, and
    # about 36 GB for 10**8 buffers of 31 bytes, not the 3.1 GB of their bytes
    fake_physical_memory(monkeypatch, 4096, 2_045_000)
    for popsize, buffer_bytes in ((10**9, 1), (10**8, 31)):
        with pytest.raises(ValueError, match="physical memory"):
            RunConfig(popsize=popsize, buffer_bytes=buffer_bytes,
                      max_initial_depth=1).validate()
    monkeypatch.setattr(os, "sysconf_names", {"SC_PAGE_SIZE": 30})  # no page count
    RunConfig(popsize=10**12).validate()  # no figure to check against


def test_memory_check_counts_the_free_stack_and_two_handles_per_member(monkeypatch):
    # twice what the buffers and their list slots take (96 bytes each at 31 bytes): the
    # buffers fit, but not with the free stack and the engine's two handles per member
    buffers = sys.getsizeof(bytearray()) + 31 + 1 + struct.calcsize("P")
    fake_physical_memory(monkeypatch, 2 * buffers, 10**4)
    with pytest.raises(ValueError, match="10002 buffers of .* physical memory"):
        RunConfig(popsize=10**4, buffer_bytes=31, max_initial_depth=1).validate()


def kept_beside_the_genomes(run, generations):
    """The bytes that a run at M=1000 keeps after it returns, but for its final genomes, whose
    size depends on how far the trees grew."""
    cfg = RunConfig(popsize=1000, generations=generations, buffer_bytes=63,
                    max_initial_depth=4, seed=3)
    tracemalloc.start()
    try:
        result = run(cfg)
        del result.genomes[:]
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("run", [run_evolution, run_evolution_naive])
def test_a_generation_keeps_a_double_per_member(run):
    # each history row is an array("d"): 8 bytes a member, where a list of floats took 32;
    # the allowance covers the generation's stats row
    grown = kept_beside_the_genomes(run, 25) - kept_beside_the_genomes(run, 5)
    assert grown <= 12 * 1000 * 20, grown / (1000 * 20)


def test_the_draw_holds_at_most_100_bytes_a_member(evaluator):
    # the arrays it returns take 88 (80 of points, 4 each of mums and dads), the kernel's
    # copy of the fitness 8, and Python's twin one child's words; two parent lists of ints
    # took 72, and a copy of the fitness 8
    m, rng = 10**4, random.Random(1)
    fitness = array("d", [float(v % 97) for v in range(m)])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        draw_outcome(rng, fitness, 7)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 100 * m, peak / m


def test_memory_check_counts_at_least_what_a_pool_and_its_handles_take(monkeypatch):
    m = 10**4
    fake_physical_memory(monkeypatch, 1, 1)
    with pytest.raises(ValueError, match="buffers of") as refused:
        RunConfig(popsize=m, buffer_bytes=31, max_initial_depth=1).validate()
    each = int(re.search(r"buffers of (\d+) bytes", str(refused.value)).group(1))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        pool, handles = BufferPool(m, 0, 31), [Individual() for _ in range(2 * m)]
        took = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert each * m >= took, (each, took / m)


def test_self_permutation_generation_peaks_at_m_plus_one(monkeypatch):
    # two members, each the sole parent of one child, bred by one worker:
    # every child buffer is acquired while only its own parent is still live
    eng = PooledEngine(small_config(popsize=2, nthreads=1, generations=2,
                                    max_initial_depth=2, buffer_bytes=7))
    eng._init_generation_zero()
    draws = array("I", bytes(4 * POINTS_PER_CHILD * 2))
    parents = array("i", [0, 1])
    monkeypatch.setattr(engine, "draw_outcome", lambda *args: (parents, parents, draws))
    eng.run_generation(1)
    assert eng.stats[1].pool_used_peak == 3  # M + 1 exactly
    assert eng.pool.used == 2


@pytest.mark.parametrize("nthreads", [0, 2])
def test_children_take_the_handles_the_breeding_before_emptied(monkeypatch, nthreads):
    # generation 0 builds the run's 2M handles; each breeding's children take the list
    # the breeding before emptied, each handle holding no buffer and none a parent
    built, handed = [], []  # every handle; per breeding, (handles built by then, pop, new_pop)

    class Counted(engine.Individual):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    class Recording(engine.Breeding):
        def __init__(self, pool, pop, new_pop, mums, dads, draws):
            assert all(ind.slot_id == NO_SLOT for ind in new_pop)
            assert not set(map(id, new_pop)) & set(map(id, pop))
            handed.append((len(built), pop, new_pop))
            super().__init__(pool, pop, new_pop, mums, dads, draws)

    monkeypatch.setattr(engine, "Individual", Counted)
    monkeypatch.setattr(engine, "Breeding", Recording)
    PooledEngine(small_config(popsize=16, nthreads=nthreads, generations=6)).run()
    assert len(handed) == 5
    assert [n for n, _, _ in handed] == [32] * 5  # all 2M built before generation 1
    assert len(built) == 32
    _, pop, new_pop = handed[0]
    assert set(map(id, pop + new_pop)) == set(map(id, built))
    for (_, pop, _), (_, _, new_pop) in zip(handed, handed[1:]):
        assert new_pop is pop  # the list the breeding before emptied


def record_claims(monkeypatch, log):
    """Append every claim_next result to `log` (claims run under the engine lock)."""
    claim_next = BreedingPlan.claim_next

    def recording(plan):
        s = claim_next(plan)
        log.append(s)
        return s

    monkeypatch.setattr(BreedingPlan, "claim_next", recording)


def test_claim_order_is_pinned(monkeypatch):
    # the order the plan hands out children decides which buffers are live
    # when, so a change to it must be deliberate
    claims = []
    record_claims(monkeypatch, claims)
    run_evolution(RunConfig(popsize=64, nthreads=0, generations=6, buffer_bytes=63,
                            max_initial_depth=4, seed=3))
    assert len(claims) == 5 * 65  # 64 children and a final None per generation
    assert claims[:8] == [1, 3, 35, 52, 57, 61, 0, 2]  # class 1 first
    text = " ".join("-" if s is None else str(s) for s in claims)
    assert hashlib.sha256(text.encode()).hexdigest().startswith("1f553eb9feff825bb2cd5ab3")


class FailingProblem(CountingProblem):
    """Raises one exception object on its k-th fitness call."""

    def __init__(self, inner, k):
        super().__init__(inner)
        self.count = itertools.count(1)
        self.k = k
        self.error = RuntimeError("fitness failed on purpose")

    def fitness(self, code, length):
        if next(self.count) == self.k:
            self.failed_on = threading.current_thread().name
            raise self.error
        return self.inner.fitness(code, length)


@pytest.mark.parametrize("nthreads", [0, 4])
def test_failing_worker_stops_the_others(monkeypatch, nthreads):
    # inline breeding takes the same error path as the breeder threads
    log = []
    record_claims(monkeypatch, log)
    cancel = BreedingPlan.cancel

    def logged_cancel(plan):
        log.append("cancel")
        cancel(plan)

    monkeypatch.setattr(BreedingPlan, "cancel", logged_cancel)
    error = RuntimeError("crossover failed on purpose")
    calls = itertools.count(1)  # next() is atomic, unlike len() then append
    crossover = engine.subtree_crossover

    def failing_crossover(*args):
        if next(calls) == 450:  # the 50th crossover of generation 2
            raise error
        return crossover(*args)

    monkeypatch.setattr(engine, "subtree_crossover", failing_crossover)
    cfg = RunConfig(popsize=400, nthreads=nthreads, generations=5, buffer_bytes=63,
                    max_initial_depth=4, seed=1)
    with pytest.raises(RuntimeError) as excinfo:
        run_evolution(cfg)
    assert excinfo.value is error
    assert log.count("cancel") == 1
    assert all(s is None for s in log[log.index("cancel") + 1:])
    assert not [t for t in threading.enumerate() if t.name.startswith("breeder-")]


def test_failing_score_phase_raises_its_error():
    # generation 0 scores at most 400 genomes, so call 450 scores a child
    problem = FailingProblem(QUARTIC, k=450)
    cfg = RunConfig(popsize=400, nthreads=4, generations=5, buffer_bytes=63,
                    max_initial_depth=4, seed=1)
    with pytest.raises(RuntimeError) as excinfo:
        run_evolution(cfg, problem)
    assert excinfo.value is problem.error
    assert problem.failed_on == threading.main_thread().name
    assert not [t for t in threading.enumerate() if t.name.startswith("breeder-")]


def test_score_passes_silence_float_errors_for_every_engine():
    # evaluate and fitness set no error state of their own; the score pass of
    # each engine must. Random trees over these inputs overflow (x*x at ±1e200)
    # and hit 0/0, x/0 and inf - inf, and RuntimeWarning is an error in tier-1.
    inputs = np.array([1e200, -1e200, 0.0, -0.0, 1.0, -0.5])
    targets = np.array([1.0, -1.0, 0.0, 0.5, 2.0, -0.25])
    wild = Problem(inputs=inputs, targets=targets)
    cfg = RunConfig(popsize=60, nthreads=0, generations=5, buffer_bytes=63,
                    max_initial_depth=4, tournament_size=3, seed=5)
    oracle = run_evolution_naive(cfg, wild)
    assert any(f == math.inf for gen in oracle.fitness_history for f in gen)
    for threads in (0, 2):
        cfg.nthreads = threads
        result = run_evolution(cfg, wild)
        assert result.genomes == oracle.genomes
        assert result.fitness_history == oracle.fitness_history


class SquaredErrorProblem(Problem):
    """Scores in numpy itself: the sum of squared errors, which overflows and makes nan."""

    def fitness(self, code, length):
        pred = genome.evaluate(code, length, self.inputs)
        err = float(np.square(np.asarray(pred) - np.asarray(self.targets)).sum())
        return err if math.isfinite(err) else math.inf


# the kernel scores a plain Problem without numpy, and never warns
@pytest.mark.parametrize("evaluator, scoring", [
    ("python", Problem), ("python", SquaredErrorProblem), ("c", SquaredErrorProblem),
], ids=["numpy-Problem", "numpy-SquaredErrorProblem", "c-SquaredErrorProblem"],
    indirect=["evaluator"])
def test_score_passes_enter_numpys_error_state_where_numpy_runs(evaluator, scoring):
    # the pass enters numpy's error state where numpy is imported, for a Problem subclass
    # that scores in numpy on either evaluator; Python's floats on the fallback never warn.
    # Squared errors of these inputs overflow and inf - inf makes nan, and RuntimeWarning is
    # an error in tier-1
    wild = scoring(inputs=[1e200, -1e200, 0.0, -0.0, 1.0, -0.5],
                   targets=[1.0, -1.0, 0.0, 0.5, 2.0, -0.25])
    cfg = RunConfig(popsize=60, nthreads=0, generations=5, buffer_bytes=63,
                    max_initial_depth=4, tournament_size=3, seed=5)
    oracle = run_evolution_naive(cfg, wild)
    assert any(f == math.inf for gen in oracle.fitness_history for f in gen)
    for threads in (0, 2):
        cfg.nthreads = threads
        assert run_evolution(cfg, wild).fitness_history == oracle.fitness_history


class TypedProblem:
    """A user problem whose fitness is QUARTIC's, clamped to 1e30, as `kind`."""

    def __init__(self, kind):
        self.kind = kind

    def fitness(self, code, length):
        return self.kind(min(QUARTIC.fitness(code, length), 1e30))

    def opcodes_per_eval(self, length):
        return QUARTIC.opcodes_per_eval(length)


@pytest.mark.parametrize("kind", [np.float32, int])
def test_the_score_pass_stores_a_user_fitness_as_doubles(evaluator, kind):
    # the score pass is where a fitness becomes a double: each history row is an array("d")
    problem = TypedProblem(kind)
    cfg = small_config(popsize=30, generations=4)
    oracle = run_evolution_naive(cfg, problem)
    for row in oracle.fitness_history:
        assert type(row) is array and row.typecode == "d"
    assert oracle.fitness_history[-1].tolist() == [
        float(problem.fitness(g, len(g))) for g in oracle.genomes]
    for threads in (0, 2):
        cfg.nthreads = threads
        pooled = run_evolution(cfg, problem)
        assert pooled.genomes == oracle.genomes
        assert pooled.fitness_history == oracle.fitness_history


def test_a_fitness_that_is_no_number_fails_its_score_pass():
    # refused where it is stored, even in a run that never draws a tournament: not later,
    # by the stats row's sum or the next generation's draw
    for run, score_pass in ((run_evolution, "_score"), (run_evolution_naive, "run_evolution_naive")):
        with pytest.raises(TypeError) as refused:
            run(small_config(generations=1), TypedProblem(str))
        assert refused.traceback[-1].name == score_pass


def test_generations_one_is_just_the_random_population():
    result = run_evolution(small_config(generations=1))
    assert len(result.stats) == 1
    assert result.stats[0].pool_used_peak == 8  # no crossover: M buffers only
    assert result.peak_buffers == 8
    assert len(result.genomes) == 8


def test_population_size_and_evaluation_count_constant():
    # each row counts the opcodes of the genomes the generation interpreted
    cfg = small_config()
    problem = CountingProblem(QUARTIC)
    rows = 0
    for pop, scored, row in generations_scored(cfg, problem):
        assert len(pop) == cfg.popsize
        assert row.total_opcodes_evaluated == sum(
            problem.opcodes_per_eval(len(code)) for code in scored)
        assert math.isfinite(row.mean_tree_size)
        rows += 1
    assert rows == cfg.generations


def test_same_seed_same_results():
    cfg = small_config()
    a = run_evolution(cfg)
    b = run_evolution(cfg)
    assert a.genomes == b.genomes
    assert a.fitness_history == b.fitness_history


def test_second_run_of_one_engine_is_refused():
    eng = PooledEngine(small_config())
    eng.run()
    with pytest.raises(RuntimeError, match="already run"):
        eng.run()
    assert len(eng.stats) == eng.config.generations  # the refused run changed nothing


def test_same_seed_same_stats_except_wall_clock():
    from poolgp.metrics import zero_wall_clock

    cfg = small_config()
    a = run_evolution(cfg)
    b = run_evolution(cfg)
    assert [zero_wall_clock(r) for r in a.stats] == [zero_wall_clock(r) for r in b.stats]


def test_every_member_scored_once_in_member_order_on_the_master():
    # repeated genomes, within a generation or from a parent, are scored again
    cfg = small_config(popsize=16, nthreads=3, generations=5)
    problem = CountingProblem(QUARTIC)
    repeats = 0
    for pop, scored, _ in generations_scored(cfg, problem):
        assert scored == pop
        repeats += len(pop) - len(set(pop))
    assert repeats > 0
    assert problem.threads and not [t for t in problem.threads if t.startswith("breeder-")]


def test_copy_heavy_run_equals_the_oracle():
    # tiny trees in tiny buffers: many children repeat a parent genome
    cfg = small_config(popsize=6, nthreads=2, generations=30, buffer_bytes=7,
                       max_initial_depth=2)
    pooled = run_evolution(cfg)
    naive = run_evolution_naive(cfg)
    assert pooled.genomes == naive.genomes
    assert pooled.fitness_history == naive.fitness_history


def test_evaluation_counts_equal_the_oracle_at_any_thread_count():
    cfg = small_config(generations=10)
    oracle = [row.total_opcodes_evaluated for row in run_evolution_naive(cfg).stats]
    for n in (0, 1, 4):
        cfg.nthreads = n
        assert [row.total_opcodes_evaluated for row in run_evolution(cfg).stats] == oracle


def test_stats_rows_equal_the_oracle_but_for_pool_columns():
    from poolgp.metrics import zero_wall_clock

    # the pool columns measure each engine's own buffers; the zeroed busy
    # list holds one entry per worker, so its length follows the thread count
    own = ("pool_used_peak", "pool_max_used", "allocated_slots", "worker_busy_times")
    cfg = small_config(generations=10)

    def shared(rows):
        return [{k: v for k, v in vars(zero_wall_clock(r)).items() if k not in own} for r in rows]

    oracle = shared(run_evolution_naive(cfg).stats)
    for n in (0, 2):
        cfg.nthreads = n
        assert shared(run_evolution(cfg).stats) == oracle


def test_thread_count_does_not_change_results():
    results = [run_evolution(small_config(nthreads=n)) for n in (0, 1, 4)]
    first = results[0]
    for other in results[1:]:
        assert other.genomes == first.genomes
        assert other.fitness_history == first.fitness_history


def test_memory_envelope_small_runs():
    for m, n in [(4, 1), (8, 2), (16, 4)]:
        cfg = small_config(popsize=m, nthreads=n, generations=8)
        result = run_evolution(cfg)
        assert result.capacity == m + 2 * n
        assert result.peak_buffers <= m + 2 * n
        for row in result.stats[1:]:  # every breeding generation
            assert row.pool_used_peak >= m + 1


def test_serial_mode_runs_inline_with_m_plus_two_capacity():
    cfg = small_config(nthreads=0)
    result = run_evolution(cfg)
    assert result.capacity == cfg.popsize + 2
    assert result.peak_buffers <= cfg.popsize + 2
    assert all(len(row.worker_busy_times) == 1 for row in result.stats)


def test_generation_wall_time_includes_the_tournaments(monkeypatch):
    # a breeding row's clock starts before the master draws, as naive's does
    draw = engine.draw_outcome

    def slow_draw(*args):
        time.sleep(0.05)
        return draw(*args)

    monkeypatch.setattr(engine, "draw_outcome", slow_draw)
    result = run_evolution(small_config(nthreads=0, generations=3))
    assert all(row.generation_wall_time >= 0.05 for row in result.stats[1:])


def test_worker_busy_list_has_one_entry_per_thread():
    result = run_evolution(small_config(nthreads=3, generations=3))
    assert all(len(row.worker_busy_times) == 3 for row in result.stats[1:])
    assert len(result.stats[0].worker_busy_times) == 1  # master evaluates gen 0


def test_pool_max_used_is_monotone():
    result = run_evolution(small_config(generations=10))
    series = [row.pool_max_used for row in result.stats]
    assert series == sorted(series)
    assert result.peak_buffers == series[-1]


def test_allocated_slots_never_exceed_high_water():
    result = run_evolution(small_config(generations=10))
    for row in result.stats:
        assert row.allocated_slots == row.pool_max_used <= result.capacity
        assert row.pool_used_peak <= row.pool_max_used


def test_workers_clamped_to_popsize(monkeypatch):
    # 8 threads on 4 members: only 4 breeders, the master and 3 helper
    # threads, capacity M + 2*4, not M + 2*8
    alive = []
    crossover = engine.subtree_crossover

    def counting_crossover(*args):
        alive.append(sum(t.name.startswith("breeder-") for t in threading.enumerate()))
        return crossover(*args)

    monkeypatch.setattr(engine, "subtree_crossover", counting_crossover)
    result = run_evolution(small_config(popsize=4, nthreads=8, generations=5))
    assert result.capacity == 12
    assert result.peak_buffers <= 12
    assert 0 < max(alive) <= 3
    assert all(len(row.worker_busy_times) == 4 for row in result.stats[1:])


def record_thread_starts(monkeypatch):
    """The names of the threads started from now on, in start order."""
    started = []
    start = threading.Thread.start

    def recording_start(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    return started


def test_one_breeder_is_the_master_alone_at_nthreads_0_and_1(monkeypatch):
    from poolgp.metrics import zero_wall_clock

    started = record_thread_starts(monkeypatch)
    zero, one = (run_evolution(small_config(nthreads=n)) for n in (0, 1))
    assert started == []
    assert one.genomes == zero.genomes
    assert one.fitness_history == zero.fitness_history
    assert [zero_wall_clock(r) for r in one.stats] == [zero_wall_clock(r) for r in zero.stats]


@pytest.mark.parametrize("popsize, nthreads, helpers", [(8, 2, 1), (8, 4, 3), (4, 8, 3)])
def test_the_master_breeds_beside_n_minus_one_helper_threads(monkeypatch, popsize, nthreads,
                                                              helpers):
    # 8 threads on 4 members clamp to 4 breeders: the master and 3 helpers
    started = record_thread_starts(monkeypatch)
    cfg = small_config(popsize=popsize, nthreads=nthreads)
    result = run_evolution(cfg)
    per_generation = [f"breeder-{w}" for w in range(1, helpers + 1)]
    assert started == per_generation * (cfg.generations - 1)
    assert result.capacity == popsize + 2 * (helpers + 1)


def test_an_error_on_the_master_cancels_the_plan_and_joins_the_helpers(monkeypatch):
    # each helper holds its first child until the master's own crossover
    # raises (a Ctrl-C here); the helpers must stop at their next claim
    log = []
    record_claims(monkeypatch, log)
    cancel = BreedingPlan.cancel

    def logged_cancel(plan):
        log.append("cancel")
        cancel(plan)

    monkeypatch.setattr(BreedingPlan, "cancel", logged_cancel)
    error = KeyboardInterrupt()
    master_raised = threading.Event()
    crossover = engine.subtree_crossover

    def crossover_failing_on_the_master(*args):
        if threading.current_thread() is threading.main_thread():
            master_raised.set()
            raise error
        if not master_raised.wait(5):
            raise RuntimeError("no crossover on the master raised while this helper bred")
        return crossover(*args)

    monkeypatch.setattr(engine, "subtree_crossover", crossover_failing_on_the_master)
    cfg = small_config(popsize=64, nthreads=4, generations=3)
    with pytest.raises(KeyboardInterrupt) as excinfo:
        run_evolution(cfg)
    assert excinfo.value is error
    assert log.count("cancel") == 1
    assert log[log.index("cancel") + 1:] == [None] * (cfg.nthreads - 1)  # one per helper
    assert not [t for t in threading.enumerate() if t.name.startswith("breeder-")]


def test_an_interrupt_while_the_master_joins_cancels_the_plan_and_joins_the_helpers(
        monkeypatch):
    # the master breeds once each helper is inside a slowed crossover, then its first join
    # raises (a Ctrl-C there) while the helpers still breed; each stops after that child
    cancels = []
    cancel = BreedingPlan.cancel

    def logged_cancel(plan):
        cancels.append(plan)
        cancel(plan)

    monkeypatch.setattr(BreedingPlan, "cancel", logged_cancel)
    helpers_busy = threading.Semaphore(0)
    master_waited = []
    crossover = engine.subtree_crossover

    def slow_on_the_helpers(*args):
        if threading.current_thread() is not threading.main_thread():
            helpers_busy.release()
            time.sleep(0.05)
        elif not master_waited:
            master_waited.append(True)
            for _ in range(3):
                if not helpers_busy.acquire(timeout=5):
                    raise RuntimeError("a helper bred no child")
        return crossover(*args)

    monkeypatch.setattr(engine, "subtree_crossover", slow_on_the_helpers)
    interrupt = KeyboardInterrupt()
    join = threading.Thread.join
    joins = itertools.count()

    def join_interrupted_once(thread, timeout=None):
        if next(joins) == 0:
            raise interrupt
        join(thread, timeout)

    monkeypatch.setattr(threading.Thread, "join", join_interrupted_once)
    with pytest.raises(KeyboardInterrupt) as excinfo:
        run_evolution(small_config(popsize=40, nthreads=4, generations=2))
    assert excinfo.value is interrupt
    assert len(cancels) == 1
    assert not [t for t in threading.enumerate() if t.name.startswith("breeder-")]


def test_runs_never_import_numpy_random():
    # numpy.random costs several MiB of resident memory on import
    src = Path(engine.__file__).resolve().parents[1]
    script = (
        "import sys\n"
        "from poolgp import RunConfig, run_evolution, run_evolution_naive\n"
        "cfg = RunConfig(popsize=20, nthreads=2, generations=3, buffer_bytes=63,\n"
        "                max_initial_depth=4)\n"
        "run_evolution(cfg)\n"
        "run_evolution_naive(cfg)\n"
        "sys.exit(3 if 'numpy.random' in sys.modules else 0)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], cwd=src,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
