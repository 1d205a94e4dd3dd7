"""Reference-engine tests: two-population accounting and pooled-engine equality."""

from poolgp.engine import RunConfig, run_evolution
from poolgp.naive import run_evolution_naive
from poolgp.problems import QUARTIC


def config(**overrides):
    base = dict(popsize=10, nthreads=2, generations=6, buffer_bytes=63,
                max_initial_depth=4, tournament_size=3, seed=99)
    base.update(overrides)
    return RunConfig(**base)


def test_naive_engine_matches_pooled_engine():
    cfg = config()
    pooled = run_evolution(cfg)
    naive = run_evolution_naive(cfg)
    assert naive.genomes == pooled.genomes
    assert naive.fitness_history == pooled.fitness_history


def test_naive_breeding_holds_two_populations():
    cfg = config()
    naive = run_evolution_naive(cfg)
    assert naive.capacity == 2 * cfg.popsize
    assert naive.peak_buffers == 2 * cfg.popsize
    assert naive.stats[0].pool_used_peak == cfg.popsize  # no breeding yet
    assert naive.stats[0].pool_max_used == cfg.popsize
    for row in naive.stats[1:]:
        assert row.pool_used_peak == row.pool_max_used == 2 * cfg.popsize
    # every member of every generation is interpreted
    for row in naive.stats:
        total_cells = round(row.mean_tree_size * cfg.popsize)
        assert row.total_opcodes_evaluated == total_cells * QUARTIC.num_cases
    sizes = [len(genome) for genome in naive.genomes]
    assert naive.stats[-1].total_opcodes_evaluated == sum(sizes) * QUARTIC.num_cases


def test_generations_one_identical_without_breeding():
    cfg = config(generations=1)
    pooled = run_evolution(cfg)
    naive = run_evolution_naive(cfg)
    assert naive.genomes == pooled.genomes
    assert naive.peak_buffers == cfg.popsize
