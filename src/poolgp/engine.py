"""Generational GP engine with a bounded genome-buffer footprint.

One generation works in two phases. The master draws every child's parents
by tournament and every child's crossover points, classifies the children
(class 1: some parent has exactly one outstanding child; class 2+: both
parents have more), releases the buffers of childless parents, and
pre-allocates all per-parent bookkeeping. Worker threads then claim children
in class-priority order, breed each by subtree crossover into a pool buffer,
strike the child off both parents (releasing a parent's buffer the moment
its last child exists), and evaluate fitness.

Everything shared (pool, plan) is mutated only inside one lock, in two
sections: `claim_child` and `book_child`, which the schedule tests drive
too. Crossover and fitness evaluation run outside the lock. All
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
    """Per-member accounting: buffer handle, provenance, fitness."""

    slot_id: int = NO_SLOT
    tree_len: int = 0
    fitness: float = math.inf
    mum_id: int = -1
    dad_id: int = -1


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
        for s in range(cfg.popsize):
            ind = Individual()
            self.pool.acquire(ind)
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
        plan = BreedingPlan(outcome)
        new_pop = [Individual(mum_id=m, dad_id=d) for m, d in zip(outcome.mum_ids, outcome.dad_ids)]
        self.pool.reset_peak()
        # infertile parents give their buffers back before any worker starts
        for ind, kids in zip(self.pop, plan.children):
            if kids is None:
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
        row = metrics.record_generation(
            generation=g,
            tree_sizes=[ind.tree_len for ind in self.pop],
            fitnesses=[ind.fitness for ind in self.pop],
            pool_used_peak=self.pool.peak,
            pool_max_used=self.pool.max_used,
            allocated_slots=self.pool.allocated,
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
                s = claim_child(plan, pool, new_pop)
            if s is None:
                break
            child = new_pop[s]
            mum = pop[child.mum_id]
            dad = pop[child.dad_id]
            child_buf = pool.buffer(child.slot_id)
            child.tree_len = subtree_crossover(
                pool.buffer(mum.slot_id), mum.tree_len, pool.buffer(dad.slot_id), dad.tree_len,
                child_buf, cfg.buffer_bytes, child_stream(draws, s),
            )
            with self.lock:
                book_child(plan, pool, pop, s, child)
            child.fitness = self.problem.fitness(child_buf, child.tree_len)
            opcodes += self.problem.opcodes_per_eval(child.tree_len)
        busy[w] = time.perf_counter() - t0
        ops[w] = opcodes


def claim_child(plan: BreedingPlan, pool: BufferPool, new_pop: list[Individual]) -> int | None:
    """The CLAIM lock section: take the next child by class and give it a buffer.

    Returns the child's index, or None when every child is taken. The
    caller holds the engine lock. Its parents' buffers stay put until this
    child is booked, so the crossover may read them outside the lock.
    """
    s = plan.claim_next()
    if s is not None:
        pool.acquire(new_pop[s])
    return s


def book_child(plan: BreedingPlan, pool: BufferPool, pop: list[Individual],
               s: int, child: Individual) -> None:
    """The BOOK lock section: strike the finished child s off both parents.

    A parent left with one outstanding child promotes it to chain 1; a
    parent left with none gives its buffer back. The caller holds the
    engine lock.
    """
    for parent in (child.mum_id, child.dad_id):
        left, last = plan.rem_child(parent, s)
        if left == 1:
            plan.move21(s, last)
        elif left == 0:
            pool.release(pop[parent])


def run_evolution(config: RunConfig, problem: Problem | None = None) -> EvolutionResult:
    """Build the pool, evolve for config.generations, return population and stats."""
    return PooledEngine(config, problem).run()
