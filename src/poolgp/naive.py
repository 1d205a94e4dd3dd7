"""Two-population reference engine: simple, serial, memory-hungry.

Keeps the whole parent generation and the whole child generation alive at
once (2M buffers during breeding), creating children in plain ascending
order and evaluating every one of them. The master stream, the bulk draw
of parents and crossover points, the per-child point words, crossover and
fitness are the same code the pooled engine uses, so for a given seed and
config the two engines must produce identical populations; this engine
exists to be the easy-to-trust side of that comparison.
"""

from __future__ import annotations

import random
import time
from array import array

from . import metrics
from .engine import EvolutionResult, RunConfig, child_stream, draw_outcome, initial_depth
from .genome import float_errors_ignored, random_tree, subtree_crossover
from .problems import QUARTIC, Problem


def run_evolution_naive(config: RunConfig, problem: Problem = QUARTIC) -> EvolutionResult:
    """Evolve with separate old and new populations, replaced wholesale each generation."""
    config.validate()
    m = config.popsize
    rng = random.Random(config.seed)
    genomes: list[bytearray] = []
    lens: list[int] = []
    fitnesses = array("d")
    stats: list[metrics.GenerationStats] = []
    history: list[array] = []
    peak = 0
    for g in range(config.generations):
        t0 = time.perf_counter()
        children = [bytearray(config.buffer_bytes) for _ in range(m)]
        if g == 0:
            child_lens = [
                random_tree(rng, initial_depth(s, config.max_initial_depth), children[s])
                for s in range(m)
            ]
            live = m
        else:
            mums, dads, draws = draw_outcome(rng, fitnesses, config.tournament_size)
            child_lens = []
            for s, (mum, dad) in enumerate(zip(mums, dads)):
                child_lens.append(subtree_crossover(
                    genomes[mum], lens[mum], genomes[dad], lens[dad],
                    children[s], config.buffer_bytes, child_stream(draws, s),
                ))
            live = 2 * m  # both populations held for the whole phase
        peak = max(peak, live)
        # the old population is discarded only now, after the generation is complete
        genomes, lens = children, child_lens
        with float_errors_ignored():
            fitnesses = array("d", [problem.fitness(buf, n) for buf, n in zip(genomes, lens)])
        wall = time.perf_counter() - t0
        stats.append(metrics.record_generation(
            generation=g,
            tree_sizes=lens,
            fitnesses=fitnesses,
            pool_used_peak=live,
            pool_max_used=peak,
            total_opcodes=problem.opcodes_per_eval(sum(lens)),
            wall_time=wall,
            busy_times=[wall],
        ))
        history.append(fitnesses)
    return EvolutionResult(
        genomes=[bytes(buf[:n]) for buf, n in zip(genomes, lens)],
        fitness_history=history,
        stats=stats,
        capacity=2 * m,
        peak_buffers=peak,
    )
