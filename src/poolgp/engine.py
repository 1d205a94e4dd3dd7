"""Generational GP engine with a bounded genome-buffer footprint.

One generation works in two phases. The master draws every child's parents
by tournament and every child's crossover points, classifies the children
(class 1: some parent has exactly one outstanding child; class 2+: both
parents have more), releases the buffers of childless parents, and
pre-allocates all per-parent bookkeeping. Worker threads then claim children
in class-priority order, breed each by subtree crossover into a pool buffer,
strike the child off both parents (releasing a parent's buffer the moment
its last child exists), and evaluate fitness.

Everything shared (pool, plan, per-individual counters) is mutated only
inside one lock; crossover and fitness evaluation run outside it. All
randomness comes from one master stream seeded by the run seed: it grows
generation 0, then draws each generation's tournaments and crossover points
in bulk before breeding starts. Each child reads only its own block of
crossover points, so results are identical for any thread count, including
the serial two-population reference engine.
"""

from __future__ import annotations

import math
import random
import sys
import threading
import time
from array import array
from dataclasses import dataclass

import numpy as np

from . import metrics
from .breeding_plan import BreedingPlan, SelectionOutcome
from .errors import InvariantError
from .expr_pool import NO_SLOT, BufferPool
from .genome import CROSSOVER_ATTEMPTS, random_tree, subtree_crossover
from .problems import Problem, get_problem


@dataclass
class Individual:
    """Per-member accounting: buffer handle, provenance, child count, fitness."""

    slot_id: int = NO_SLOT
    tree_len: int = 0
    fitness: float = math.inf
    mum_id: int = -1
    dad_id: int = -1
    num_children: int = 0


@dataclass
class RunConfig:
    popsize: int = 500
    nthreads: int = 8
    generations: int = 20  # total generations including the random first one
    buffer_bytes: int = 1024
    tournament_size: int = 7
    seed: int = 1
    problem: str = "quartic"
    max_initial_depth: int = 6

    def validate(self) -> None:
        if self.popsize < 1:
            raise ValueError("popsize must be >= 1")
        if self.nthreads < 0:
            raise ValueError("nthreads must be >= 0 (0 = run breeding inline)")
        if self.generations < 1:
            raise ValueError("generations must be >= 1")
        if self.buffer_bytes < 1:
            raise ValueError("buffer_bytes must be >= 1")
        if self.tournament_size < 1:
            raise ValueError("tournament_size must be >= 1")
        if self.max_initial_depth < 1:
            raise ValueError("max_initial_depth must be >= 1")
        if 2 ** self.max_initial_depth - 1 > self.buffer_bytes:
            raise ValueError(
                f"buffer_bytes={self.buffer_bytes} cannot hold an initial tree of "
                f"depth {self.max_initial_depth} (needs {2 ** self.max_initial_depth - 1})"
            )


@dataclass
class EvolutionResult:
    genomes: list[bytes]
    fitnesses: list[float]
    fitness_history: list[list[float]]  # one list of M fitnesses per generation
    stats: list[metrics.GenerationStats]
    capacity: int  # genome buffers the engine ever owns
    peak_buffers: int  # most live at once across the run


TOURNAMENT_BLOCK = 16384  # most tournament entrants drawn and ranked at once
POINTS_PER_CHILD = 2 * CROSSOVER_ATTEMPTS  # a mum and a dad point per attempt


def draw_outcome(rng, fitnesses, k: int) -> tuple[SelectionOutcome, array]:
    """Draw a generation's parents and crossover points from the master stream.

    Runs 2M best-of-k tournaments, mum then dad for each child in child
    order, in blocks of at most TOURNAMENT_BLOCK entrants (at least one
    tournament). Each block is one `rng.randbytes` call read as
    little-endian uint32; entrant u is member (u * M) >> 32, the lowest
    fitness wins and ties go to the lowest index. Blocking keeps the numpy
    temporaries small for any M. A NaN fitness ranks as +inf.

    Then draws every child's crossover points (see `child_stream`).
    """
    m = len(fitnesses)
    fit = np.array(fitnesses, dtype=np.float64)
    fit[np.isnan(fit)] = np.inf  # NaN would match no row minimum
    rows = 2 * m
    block_rows = max(1, TOURNAMENT_BLOCK // k)
    winners = np.empty(rows, dtype=np.uint64)
    for start in range(0, rows, block_rows):
        n = min(block_rows, rows - start)
        u = np.frombuffer(rng.randbytes(4 * n * k), dtype="<u4").reshape(n, k)
        entrants = (u.astype(np.uint64) * m) >> 32
        entrant_fit = fit[entrants]
        ties = entrant_fit == entrant_fit.min(axis=1, keepdims=True)
        winners[start:start + n] = np.where(ties, entrants, m).min(axis=1)
    picks = winners.tolist()
    return SelectionOutcome(picks[0::2], picks[1::2]), draw_points(rng, m)


def draw_points(rng, popsize: int) -> array:
    """POINTS_PER_CHILD uint32 crossover draws per child, in child order."""
    points = array("I", rng.randbytes(4 * POINTS_PER_CHILD * popsize))
    if sys.byteorder == "big":
        points.byteswap()
    return points


class PointCursor:
    """Reads one child's crossover draws in order, as `randrange` results."""

    __slots__ = ("cells", "next")

    def __init__(self, cells: array):
        self.cells = cells
        self.next = 0

    def randrange(self, n: int) -> int:
        """The next draw u scaled into [0, n) as (u * n) >> 32 (bias below n / 2**32)."""
        u = self.cells[self.next]
        self.next += 1
        return (u * n) >> 32


def child_stream(draws: array, child: int) -> PointCursor:
    """The random stream one child's crossover reads.

    It covers only this child's own POINTS_PER_CHILD draws, so the genome a
    child gets does not depend on which worker breeds it or when, and
    reading past them raises IndexError.
    """
    start = POINTS_PER_CHILD * child
    return PointCursor(draws[start:start + POINTS_PER_CHILD])


def initial_depth(index: int, max_depth: int) -> int:
    """Ramp initial tree depths across the population (2..max, or all 1)."""
    if max_depth == 1:
        return 1
    return 2 + index % (max_depth - 1)


def grow_initial_genome(rng, index: int, max_depth: int, buf) -> int:
    return random_tree(rng, initial_depth(index, max_depth), buf)


class PooledEngine:
    """Breeds each generation in place using the reusable buffer pool."""

    def __init__(self, config: RunConfig, problem: Problem | None = None):
        config.validate()
        self.config = config
        self.problem = problem if problem is not None else get_problem(config.problem)
        self.pool = BufferPool(config.popsize, config.nthreads, config.buffer_bytes)
        self.lock = threading.Lock()
        self.master_rng = random.Random(config.seed)
        self.pop: list[Individual] = []
        self.stats: list[metrics.GenerationStats] = []
        self.fitness_history: list[list[float]] = []
        self._gen_peak = 0

    # -- master phase -----------------------------------------------------

    def run(self) -> EvolutionResult:
        self._init_generation_zero()
        for g in range(1, self.config.generations):
            self.run_generation(g)
        return EvolutionResult(
            genomes=[self.genome_bytes(ind) for ind in self.pop],
            fitnesses=[ind.fitness for ind in self.pop],
            fitness_history=self.fitness_history,
            stats=self.stats,
            capacity=self.pool.capacity,
            peak_buffers=self.pool.max_used,
        )

    def genome_bytes(self, ind: Individual) -> bytes:
        return bytes(self.pool.buffer(ind.slot_id)[:ind.tree_len])

    def _init_generation_zero(self) -> None:
        t0 = time.perf_counter()
        cfg = self.config
        self._gen_peak = 0
        for s in range(cfg.popsize):
            ind = Individual()
            self.pool.acquire(ind)
            self._gen_peak = max(self._gen_peak, self.pool.used)
            ind.tree_len = grow_initial_genome(
                self.master_rng, s, cfg.max_initial_depth, self.pool.buffer(ind.slot_id)
            )
            self.pop.append(ind)
        opcodes = 0
        for ind in self.pop:
            ind.fitness = self.problem.fitness(self.pool.buffer(ind.slot_id), ind.tree_len)
            opcodes += self.problem.opcodes_per_eval(ind.tree_len)
        span = time.perf_counter() - t0
        self._record(0, opcodes, span, [span])

    def run_generation(self, g: int) -> None:
        """Replace the whole population with its children (generation g)."""
        fitnesses = [ind.fitness for ind in self.pop]
        outcome, draws = draw_outcome(self.master_rng, fitnesses, self.config.tournament_size)
        self._breed(outcome, draws, g)

    def _breed(self, outcome: SelectionOutcome, draws: array, g: int) -> None:
        t0 = time.perf_counter()
        cfg = self.config
        num_children = outcome.edge_counts()
        plan = BreedingPlan(outcome, num_children)
        for s, ind in enumerate(self.pop):
            ind.num_children = num_children[s]
        new_pop = [
            Individual(mum_id=outcome.mum_ids[s], dad_id=outcome.dad_ids[s])
            for s in range(cfg.popsize)
        ]
        self._gen_peak = self.pool.used
        # infertile parents give their buffers back before any worker starts
        for s, ind in enumerate(self.pop):
            if num_children[s] == 0:
                self.pool.release(ind)

        nworkers = self.pool.workers
        busy = [0.0] * nworkers
        ops = [0] * nworkers
        if cfg.nthreads == 0:
            self._worker_loop(0, draws, plan, new_pop, busy, ops)
        else:
            errors: list[BaseException] = []

            def run_worker(w: int) -> None:
                try:
                    self._worker_loop(w, draws, plan, new_pop, busy, ops)
                except BaseException as exc:  # propagate fatal errors to master
                    errors.append(exc)

            threads = [
                threading.Thread(target=run_worker, args=(w,), name=f"breeder-{w}")
                for w in range(nworkers)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            if errors:
                raise errors[0]

        if self.pool.used != cfg.popsize:
            raise InvariantError("old population not fully released")
        self.pop = new_pop
        self._record(g, sum(ops), time.perf_counter() - t0, busy)

    def _record(self, g: int, opcodes: int, wall: float, busy: list[float]) -> None:
        used, max_used, allocated = self.pool.usage_stats()
        row = metrics.record_generation(
            generation=g,
            tree_sizes=[ind.tree_len for ind in self.pop],
            fitnesses=[ind.fitness for ind in self.pop],
            pool_used_peak=self._gen_peak,
            pool_max_used=max_used,
            allocated_slots=allocated,
            total_opcodes=opcodes,
            wall_time=wall,
            busy_times=busy,
        )
        self.stats.append(row)
        self.fitness_history.append([ind.fitness for ind in self.pop])

    # -- worker phase -----------------------------------------------------

    def _worker_loop(self, w: int, draws: array, plan: BreedingPlan,
                     new_pop: list[Individual], busy: list[float], ops: list[int]) -> None:
        t0 = time.perf_counter()
        cfg = self.config
        pool = self.pool
        pop = self.pop
        opcodes = 0
        while True:
            with self.lock:
                s = plan.claim_next()
                if s is None:
                    break
                child = new_pop[s]
                pool.acquire(child)
                self._gen_peak = max(self._gen_peak, pool.used)
                mum = pop[child.mum_id]
                dad = pop[child.dad_id]
                mum_buf, mum_len = pool.buffer(mum.slot_id), mum.tree_len
                dad_buf, dad_len = pool.buffer(dad.slot_id), dad.tree_len
                child_buf = pool.buffer(child.slot_id)

            rng = child_stream(draws, s)
            child.tree_len = subtree_crossover(
                mum_buf, mum_len, dad_buf, dad_len, child_buf, cfg.buffer_bytes, rng
            )

            with self.lock:
                n1, last1 = plan.rem_child(child.mum_id, mum.num_children, s)
                n2, last2 = plan.rem_child(child.dad_id, dad.num_children, s)
                if n1 == 1:
                    plan.move21(s, last1)
                if n2 == 1:
                    plan.move21(s, last2)
                if n1 == 0:
                    mum.num_children = 0
                    pool.release(mum)
                if n2 == 0:
                    dad.num_children = 0
                    pool.release(dad)

            child.fitness = self.problem.fitness(child_buf, child.tree_len)
            opcodes += self.problem.opcodes_per_eval(child.tree_len)
        busy[w] = time.perf_counter() - t0
        ops[w] = opcodes


def run_evolution(config: RunConfig, problem: Problem | None = None) -> EvolutionResult:
    """Build the pool, evolve for config.generations, return population and stats."""
    return PooledEngine(config, problem).run()
