"""Engine-level tests: selection, breeding traces, determinism, memory envelope."""

import math
import random

import pytest

from poolgp.breeding_plan import SelectionOutcome
from poolgp.engine import (
    PooledEngine,
    RunConfig,
    child_stream,
    initial_depth,
    run_evolution,
    tournament_select,
)


class ScriptedRng:
    """Replays a fixed sequence of getrandbits results."""

    def __init__(self, draws):
        self.draws = list(draws)

    def getrandbits(self, k):
        value = self.draws.pop(0)
        assert 0 <= value < 2 ** k
        return value


def small_config(**overrides):
    base = dict(popsize=8, nthreads=2, generations=6, buffer_bytes=63,
                max_initial_depth=4, tournament_size=3, seed=42)
    base.update(overrides)
    return RunConfig(**base)


def test_tournament_picks_best_of_draws():
    rng = ScriptedRng([0, 2])
    assert tournament_select(rng, [3.0, 1.0, 2.0], 2) == 2


def test_tournament_k1_is_the_single_draw():
    assert tournament_select(ScriptedRng([4]), [5.0] * 6, 1) == 4


def test_tournament_ties_break_to_lowest_index():
    rng = ScriptedRng([5, 3, 4])
    assert tournament_select(rng, [7.0] * 6, 3) == 3


def reference_tournament(rng, fitnesses, k):
    """Best of k by randrange, the definition tournament_select must match."""
    best = rng.randrange(len(fitnesses))
    for _ in range(k - 1):
        i = rng.randrange(len(fitnesses))
        if fitnesses[i] < fitnesses[best] or (fitnesses[i] == fitnesses[best] and i < best):
            best = i
    return best


def test_tournament_matches_randrange_reference_and_leaves_same_state():
    # sizes at, just below and just above powers of two exercise the rejection loop
    for n in (1, 2, 3, 4, 5, 7, 8, 9, 1000, 1024, 1025):
        fitnesses = [float(v % 7) for v in range(n)]
        for k in (1, 2, 7):
            ours, ref = random.Random(n * 31 + k), random.Random(n * 31 + k)
            picks = [tournament_select(ours, fitnesses, k) for _ in range(50)]
            want = [reference_tournament(ref, fitnesses, k) for _ in range(50)]
            assert picks == want
            assert ours.getstate() == ref.getstate()


def test_child_stream_depends_on_all_parts_of_identity():
    base = child_stream(1, 2, 3).random()
    assert child_stream(1, 2, 3).random() == base
    assert child_stream(9, 2, 3).random() != base
    assert child_stream(1, 9, 3).random() != base
    assert child_stream(1, 2, 9).random() != base


def test_initial_depth_ramp():
    assert [initial_depth(s, 4) for s in range(7)] == [2, 3, 4, 2, 3, 4, 2]
    assert [initial_depth(s, 1) for s in range(3)] == [1, 1, 1]


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(popsize=0).validate()
    with pytest.raises(ValueError):
        RunConfig(nthreads=-1).validate()
    with pytest.raises(ValueError):
        RunConfig(generations=0).validate()
    with pytest.raises(ValueError):
        RunConfig(tournament_size=0).validate()
    with pytest.raises(ValueError):
        # depth-6 initial trees cannot fit 31-byte buffers
        RunConfig(buffer_bytes=31, max_initial_depth=6).validate()


def test_self_permutation_generation_peaks_at_m_plus_one():
    # two members, each the sole parent of one child, bred by one worker:
    # every child buffer is acquired while only its own parent is still live
    engine = PooledEngine(small_config(popsize=2, nthreads=1, generations=2,
                                       max_initial_depth=2, buffer_bytes=7))
    engine._init_generation_zero()
    engine._breed(SelectionOutcome([0, 1], [0, 1]), 1)
    assert engine.stats[1].pool_used_peak == 3  # M + 1 exactly
    assert engine.pool.used == 2


def test_generations_one_is_just_the_random_population():
    result = run_evolution(small_config(generations=1))
    assert len(result.stats) == 1
    assert result.stats[0].pool_used_peak == 8  # no crossover: M buffers only
    assert result.peak_buffers == 8
    assert len(result.genomes) == 8


def test_population_size_and_evaluation_count_constant():
    cfg = small_config()
    result = run_evolution(cfg)
    assert all(len(row) == cfg.popsize for row in result.fitness_history)
    assert len(result.stats) == cfg.generations
    for row in result.stats:
        assert row.total_opcodes_evaluated > 0
        assert math.isfinite(row.mean_tree_size)


def test_same_seed_same_results():
    cfg = small_config()
    a = run_evolution(cfg)
    b = run_evolution(cfg)
    assert a.genomes == b.genomes
    assert a.fitness_history == b.fitness_history


def test_same_seed_same_stats_except_wall_clock():
    from poolgp.metrics import zero_wall_clock

    cfg = small_config()
    a = run_evolution(cfg)
    b = run_evolution(cfg)
    assert [zero_wall_clock(r) for r in a.stats] == [zero_wall_clock(r) for r in b.stats]


class CountingProblem:
    """Delegating evaluator that counts fitness calls (list.append is atomic)."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = []

    def fitness(self, code, length):
        self.calls.append(length)
        return self.inner.fitness(code, length)

    def opcodes_per_eval(self, length):
        return self.inner.opcodes_per_eval(length)


def test_each_child_evaluated_exactly_once_per_generation():
    from poolgp.problems import get_problem

    cfg = small_config(nthreads=3, generations=5)
    problem = CountingProblem(get_problem("quartic"))
    run_evolution(cfg, problem)
    assert len(problem.calls) == cfg.popsize * cfg.generations


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
        assert row.allocated_slots <= row.pool_max_used <= result.capacity
        assert row.pool_used_peak <= row.pool_max_used
