"""Generational GP engine with a bounded genome-buffer footprint.

One generation works in three phases. The master draws every child's parents
by tournament and every child's crossover points, builds the plan that
holds each child's parents and class (class 1: some parent has exactly one
outstanding child; class 2+: both parents have more) and each parent's
children, and releases the buffers of childless parents. Workers then
claim children in class-priority order, breed each by subtree crossover
into a pool buffer and strike the child off both parents, releasing a
parent's buffer the moment its last child exists. Once every worker has
joined, the master scores the new population.

Only the score pass produces fitness. It takes members in child order and
yields the generation's fitness list, which is the history row and the next
tournaments' input with no copy, and `scores`, a table of each member's
16-byte genome digest and its fitness. A child whose digest is in the
parents' table, or that an earlier sibling has, takes that fitness; any
other child is evaluated once. The new table holds exactly the members'
digests and is the next pass's parent table. The master alone scores, so
which children hit depends only on the genomes, never on the schedule. The
pass enters numpy's float-error state once (`float_errors_ignored`);
neither `evaluate` nor `Problem.fitness` sets one per genome.

Everything shared (pool, plan) is mutated only inside one lock, taken
once per claim by `next_child`: it books the worker's finished child, then
claims the next, so a generation takes it M + workers times. The schedule
tests drive that same function. Crossover runs outside the lock. A worker
that raises cancels the plan, so the others stop at their next claim. All
randomness comes from one master stream seeded by the run seed: it grows
generation 0, then draws each generation's tournaments and crossover
points in bulk before breeding starts. Each child reads only its own
POINTS_PER_CHILD words, so results are identical for any thread count,
including the serial two-population reference engine.
"""

from __future__ import annotations

import hashlib
import random
import sys
import threading
import time
from array import array
from dataclasses import dataclass

import numpy as np

from . import metrics
from .breeding_plan import BreedingPlan
from .errors import InvariantError
from .expr_pool import NO_SLOT, BufferPool
from .genome import POINTS_PER_CHILD, float_errors_ignored, random_tree, subtree_crossover
from .problems import QUARTIC, Problem


@dataclass
class Individual:
    """One member's buffer handle; its fitness and digest live with the score pass."""

    slot_id: int = NO_SLOT
    tree_len: int = 0


MAX_THREADS = 256  # most breeder threads a run may ask for
TOURNAMENT_BLOCK = 16384  # most tournament entrants drawn and ranked at once


@dataclass
class RunConfig:
    popsize: int = 500
    nthreads: int = 0  # inline breeding: extra threads only add GIL contention
    generations: int = 20  # total generations including the random first one
    buffer_bytes: int = 1024
    tournament_size: int = 7
    seed: int = 1
    max_initial_depth: int = 6

    def validate(self) -> None:
        if self.popsize < 1:
            raise ValueError("popsize must be >= 1")
        if self.nthreads < 0:
            raise ValueError("nthreads must be >= 0 (0 = run breeding inline)")
        if self.nthreads > MAX_THREADS:
            # one OS thread per breeder; a typo must not start thousands
            raise ValueError(f"nthreads must be <= {MAX_THREADS}, got {self.nthreads}")
        if self.generations < 1:
            raise ValueError("generations must be >= 1")
        if self.buffer_bytes < 1:
            raise ValueError("buffer_bytes must be >= 1")
        if self.tournament_size < 1:
            raise ValueError("tournament_size must be >= 1")
        if self.tournament_size > TOURNAMENT_BLOCK:
            # a tournament is ranked in one block, at about 37 bytes per entrant
            raise ValueError(f"tournament_size must be <= {TOURNAMENT_BLOCK}, "
                             f"got {self.tournament_size}")
        if self.max_initial_depth < 1:
            raise ValueError("max_initial_depth must be >= 1")
        # bit lengths, not 2**depth: a huge depth must not build a huge integer
        deepest = (self.buffer_bytes + 1).bit_length() - 1
        if self.max_initial_depth > deepest:
            raise ValueError(
                f"buffer_bytes={self.buffer_bytes} cannot hold an initial tree of "
                f"depth {self.max_initial_depth} (needs 2**{self.max_initial_depth} - 1 "
                f"cells; the deepest that fits is {deepest})"
            )


@dataclass
class EvolutionResult:
    genomes: list[bytes]
    fitness_history: list[list[float]]  # one list of M fitnesses per generation; [-1] is final
    stats: list[metrics.GenerationStats]
    capacity: int  # genome buffers the engine ever owns
    peak_buffers: int  # most live at once across the run


def draw_outcome(rng, fitnesses, k: int) -> tuple[list[int], list[int], array]:
    """Draw a generation's parents and crossover points from the master stream.

    Runs 2M best-of-k tournaments, mum then dad for each child in child
    order, in blocks of at most TOURNAMENT_BLOCK entrants (at least one
    tournament). Each block is one `rng.randbytes` call read as
    little-endian uint32; entrant u is member (u * M) >> 32, the lowest
    fitness wins and ties go to the lowest index. Blocking keeps the numpy
    temporaries small for any M. A NaN fitness ranks as +inf.

    Then draws every child's crossover points (see `child_stream`), and
    returns (mums, dads, points).
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
    return picks[0::2], picks[1::2], draw_points(rng, m)


def draw_points(rng, popsize: int) -> array:
    """POINTS_PER_CHILD uint32 crossover draws per child, in child order."""
    points = array("I", rng.randbytes(4 * POINTS_PER_CHILD * popsize))
    if sys.byteorder == "big":
        points.byteswap()
    return points


def child_stream(draws: array, child: int) -> array:
    """One child's crossover words: only its own POINTS_PER_CHILD draws.

    So the genome a child gets does not depend on which worker breeds it,
    or when.
    """
    start = POINTS_PER_CHILD * child
    return draws[start:start + POINTS_PER_CHILD]


def genome_digest(buf, length: int) -> bytes:
    """The fitness-table key of the genome in buf[:length] (16-byte BLAKE2b)."""
    return hashlib.blake2b(buf[:length], digest_size=16).digest()


def initial_depth(index: int, max_depth: int) -> int:
    """Ramp initial tree depths across the population (2..max, or all 1)."""
    if max_depth == 1:
        return 1
    return 2 + index % (max_depth - 1)


class PooledEngine:
    """Breeds each generation in place using the reusable buffer pool."""

    def __init__(self, config: RunConfig, problem: Problem = QUARTIC):
        config.validate()
        self.config = config
        self.problem = problem
        self.pool = BufferPool(config.popsize, config.nthreads, config.buffer_bytes)
        self.lock = threading.Lock()
        self.master_rng = random.Random(config.seed)
        self.pop: list[Individual] = []
        self.scores: dict[bytes, float] = {}  # genome digest -> fitness, current members only
        self.stats: list[metrics.GenerationStats] = []
        self.fitness_history: list[list[float]] = []

    # -- master phase -----------------------------------------------------

    def run(self) -> EvolutionResult:
        if self.pool.max_used:
            raise RuntimeError("this PooledEngine has already run; build a new one per run")
        self._init_generation_zero()
        for g in range(1, self.config.generations):
            self.run_generation(g)
        return EvolutionResult(
            genomes=[self.genome_bytes(ind) for ind in self.pop],
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
            buf = self.pool.buffer(ind.slot_id)
            ind.tree_len = random_tree(
                self.master_rng, initial_depth(s, cfg.max_initial_depth), buf)
            self.pop.append(ind)
        opcodes, reused = self._score()  # duplicate random trees are scored once
        span = time.perf_counter() - t0
        self._record(0, opcodes, reused, span, [span])

    def run_generation(self, g: int) -> None:
        """Replace the whole population with its children (generation g)."""
        self._breed(*draw_outcome(self.master_rng, self.fitness_history[-1],
                                  self.config.tournament_size), g)

    def _breed(self, mums: list[int], dads: list[int], draws: array, g: int) -> None:
        t0 = time.perf_counter()
        cfg = self.config
        plan = BreedingPlan(mums, dads)
        new_pop = [Individual() for _ in range(cfg.popsize)]
        self.pool.reset_peak()
        # infertile parents give their buffers back before any worker starts
        for ind, kids in zip(self.pop, plan.children):
            if not kids:
                self.pool.release(ind)

        nworkers = self.pool.workers
        busy = [0.0] * nworkers
        if cfg.nthreads == 0:
            busy[0] = self._worker_loop(draws, plan, new_pop)
        else:
            errors: list[BaseException] = []

            def run_worker(w: int) -> None:
                try:
                    busy[w] = self._worker_loop(draws, plan, new_pop)
                except BaseException as exc:  # propagate fatal errors to master
                    errors.append(exc)
                    with self.lock:
                        plan.cancel()  # the other workers stop at their next claim

            threads = [threading.Thread(target=run_worker, args=(w,), name=f"breeder-{w}")
                       for w in range(nworkers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            if errors:
                raise errors[0]

        if self.pool.used != cfg.popsize:
            raise InvariantError("old population not fully released")
        self.pop = new_pop
        opcodes, reused = self._score()
        self._record(g, opcodes, reused, time.perf_counter() - t0, busy)

    def _score(self) -> tuple[int, int]:
        """Score the population in member order; return (opcodes, fitnesses reused).

        A digest held by a parent (`self.scores`) or an earlier member gives its
        fitness; any other genome is evaluated. Appends the history row, and
        leaves `self.scores` holding exactly this generation's digests.
        """
        parents = self.scores
        scores, fitnesses = {}, []
        opcodes = reused = 0
        with float_errors_ignored():  # one error state for the whole pass
            for ind in self.pop:
                buf = self.pool.buffer(ind.slot_id)
                digest = genome_digest(buf, ind.tree_len)
                fitness = parents.get(digest, scores.get(digest))
                if fitness is None:
                    fitness = self.problem.fitness(buf, ind.tree_len)
                    opcodes += self.problem.opcodes_per_eval(ind.tree_len)
                else:
                    reused += 1
                scores[digest] = fitness
                fitnesses.append(fitness)
        self.scores = scores
        self.fitness_history.append(fitnesses)
        return opcodes, reused

    def _record(self, g: int, opcodes: int, reused: int, wall: float,
                busy: list[float]) -> None:
        self.stats.append(metrics.record_generation(
            generation=g,
            tree_sizes=[ind.tree_len for ind in self.pop],
            fitnesses=self.fitness_history[-1],
            pool_used_peak=self.pool.peak,
            pool_max_used=self.pool.max_used,
            total_opcodes=opcodes,
            fitness_reused=reused,
            wall_time=wall,
            busy_times=busy,
        ))

    # -- worker phase -----------------------------------------------------

    def _worker_loop(self, draws: array, plan: BreedingPlan, new_pop: list[Individual]) -> float:
        """Breed children until none is left to claim; return busy seconds."""
        t0 = time.perf_counter()
        cfg = self.config
        pool = self.pool
        pop = self.pop
        mums, dads = plan.mums, plan.dads
        s = None
        while True:
            with self.lock:
                s = next_child(plan, pool, pop, new_pop, s)
            if s is None:
                return time.perf_counter() - t0
            child = new_pop[s]
            mum = pop[mums[s]]
            dad = pop[dads[s]]
            child.tree_len = subtree_crossover(
                pool.buffer(mum.slot_id), mum.tree_len, pool.buffer(dad.slot_id), dad.tree_len,
                pool.buffer(child.slot_id), cfg.buffer_bytes, child_stream(draws, s),
            )


def next_child(plan: BreedingPlan, pool: BufferPool, pop: list[Individual],
               new_pop: list[Individual], done: int | None) -> int | None:
    """The lock section: book the finished child `done`, then claim the next.

    Booking strikes `done` (None before a worker's first claim) off both
    parents: a parent left with one outstanding child promotes it to chain
    1, and a parent left with none gives its buffer back. The claim takes
    the next child by class and gives it a buffer; it returns None when
    every child is taken. The caller holds the engine lock. The claimed
    child's parents keep their buffers until it is booked, so its crossover
    may read them outside the lock.
    """
    if done is not None:
        for parent in (plan.mums[done], plan.dads[done]):
            left, last = plan.rem_child(parent, done)
            if left == 1:
                plan.move21(done, last)
            elif left == 0:
                pool.release(pop[parent])
    s = plan.claim_next()
    if s is not None:
        pool.acquire(new_pop[s])
    return s


def run_evolution(config: RunConfig, problem: Problem = QUARTIC) -> EvolutionResult:
    """Build the pool, evolve for config.generations, return population and stats."""
    return PooledEngine(config, problem).run()
