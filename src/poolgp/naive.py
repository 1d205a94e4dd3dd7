"""Two-population reference engine: simple, serial, memory-hungry.

Keeps the whole parent generation and the whole child generation alive at
once (2M buffers during breeding), creating children in plain ascending
order. The master stream, the bulk draw of parents and crossover points,
the per-child point cursors, crossover and fitness are the same code the
pooled engine uses, so for a given seed and config the two engines must
produce identical populations; this engine exists to be the easy-to-trust
side of that comparison.
"""

from __future__ import annotations

import random
import time

from . import metrics
from .engine import (
    EvolutionResult,
    RunConfig,
    child_stream,
    draw_outcome,
    grow_initial_genome,
)
from .genome import subtree_crossover
from .problems import QUARTIC, Problem


class NaiveEngine:
    """Separate old and new populations, replaced wholesale each generation."""

    def __init__(self, config: RunConfig, problem: Problem = QUARTIC):
        config.validate()
        self.config = config
        self.problem = problem
        self.master_rng = random.Random(config.seed)
        self.genomes: list[bytearray] = []
        self.lens: list[int] = []
        self.fitnesses: list[float] = []
        self.stats: list[metrics.GenerationStats] = []
        self.fitness_history: list[list[float]] = []
        self.max_live = 0

    def run(self) -> EvolutionResult:
        self._init_generation_zero()
        for g in range(1, self.config.generations):
            self._run_generation(g)
        return EvolutionResult(
            genomes=[bytes(buf[:n]) for buf, n in zip(self.genomes, self.lens)],
            fitnesses=list(self.fitnesses),
            fitness_history=self.fitness_history,
            stats=self.stats,
            capacity=2 * self.config.popsize,
            peak_buffers=self.max_live,
        )

    def _init_generation_zero(self) -> None:
        t0 = time.perf_counter()
        cfg = self.config
        opcodes = 0
        for s in range(cfg.popsize):
            buf = bytearray(cfg.buffer_bytes)
            n = grow_initial_genome(self.master_rng, s, cfg.max_initial_depth, buf)
            self.genomes.append(buf)
            self.lens.append(n)
            self.fitnesses.append(self.problem.fitness(buf, n))
            opcodes += self.problem.opcodes_per_eval(n)
        self.max_live = cfg.popsize
        self._record(0, cfg.popsize, opcodes, time.perf_counter() - t0)

    def _run_generation(self, g: int) -> None:
        t0 = time.perf_counter()
        cfg = self.config
        outcome, draws = draw_outcome(self.master_rng, self.fitnesses, cfg.tournament_size)
        new_genomes = [bytearray(cfg.buffer_bytes) for _ in range(cfg.popsize)]
        new_lens = [0] * cfg.popsize
        new_fitnesses = [0.0] * cfg.popsize
        live = 2 * cfg.popsize  # both populations held for the whole phase
        self.max_live = max(self.max_live, live)
        opcodes = 0
        for s in range(cfg.popsize):
            mum = outcome.mum_ids[s]
            dad = outcome.dad_ids[s]
            rng = child_stream(draws, s)
            new_lens[s] = subtree_crossover(
                self.genomes[mum], self.lens[mum],
                self.genomes[dad], self.lens[dad],
                new_genomes[s], cfg.buffer_bytes, rng,
            )
            new_fitnesses[s] = self.problem.fitness(new_genomes[s], new_lens[s])
            opcodes += self.problem.opcodes_per_eval(new_lens[s])
        # old population discarded only now, after the generation is complete
        self.genomes = new_genomes
        self.lens = new_lens
        self.fitnesses = new_fitnesses
        self._record(g, live, opcodes, time.perf_counter() - t0)

    def _record(self, g: int, peak: int, opcodes: int, wall: float) -> None:
        row = metrics.record_generation(
            generation=g,
            tree_sizes=list(self.lens),
            fitnesses=list(self.fitnesses),
            pool_used_peak=peak,
            pool_max_used=self.max_live,
            total_opcodes=opcodes,
            fitness_reused=0,  # the oracle evaluates every member
            wall_time=wall,
            busy_times=[wall],
        )
        self.stats.append(row)
        self.fitness_history.append(list(self.fitnesses))


def run_evolution_naive(config: RunConfig, problem: Problem = QUARTIC) -> EvolutionResult:
    return NaiveEngine(config, problem).run()
