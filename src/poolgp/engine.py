"""Generational GP engine with a bounded genome-buffer footprint.

`run_generation` runs one generation in three phases, and its clock and
stats row cover all three. The master draws every child's parents by
tournament and every child's crossover points, builds the plan that holds
each child's parents and class (class 1: some parent has exactly one
outstanding child; class 2+: both parents have more) and each parent's
children, and releases the buffers of childless parents. Workers then
claim children in class-priority order, breed each by subtree crossover
into a pool buffer and strike the child off both parents, releasing a
parent's buffer the moment its last child exists. Once every worker has
joined, the master scores the new population and appends its rows.

Only the score pass produces fitness. The master evaluates every member
once, in member order, as the naive engine does, and the fitness list it
yields is the history row and the next tournaments' input with no copy.
The pass enters numpy's float-error state once (`float_errors_ignored`);
neither `evaluate` nor `Problem.fitness` sets one per genome.

One `Breeding` holds a generation's breeding and does its set-up. Shared
state (pool, plan) changes only inside one lock, taken once per claim by
`Breeding.next_child`, which books the worker's finished child and claims
the next: M + workers holds a generation. `Breeding.breed` crosses over
outside it; the schedule tests step these same two methods. Every worker,
inline (nthreads 0) or threaded, runs `run_worker`: one that raises
cancels the plan, so the others stop at their next claim, and the master
re-raises the first error. All randomness comes from one master stream
seeded by the run seed: it grows generation 0, then draws each
generation's tournaments and crossover points in bulk before breeding
starts. Each child reads only its own POINTS_PER_CHILD words, so results
are identical for any thread count, including the serial two-population
reference engine.
"""

from __future__ import annotations

import operator
import os
import random
import sys
import threading
import time
from array import array
from dataclasses import dataclass

import numpy as np

from . import genome, metrics
from .breeding_plan import BreedingPlan
from .errors import InvariantError
from .expr_pool import NO_SLOT, BufferPool, pool_capacity
from .genome import POINTS_PER_CHILD, float_errors_ignored, random_tree, subtree_crossover
from .problems import QUARTIC, Problem


@dataclass
class Individual:
    """One member's buffer handle; its fitness lives with the score pass."""

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
        # numpy ints pass operator.index; floats, which could pass the limits below, do not,
        # nor does a seed of None, which random.Random would take from OS entropy
        for name, least in (("popsize", 1), ("nthreads", 0), ("generations", 1), ("buffer_bytes", 1),
                            ("tournament_size", 1), ("max_initial_depth", 1), ("seed", None)):
            value = getattr(self, name)
            try:
                operator.index(value)
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None
            if least is not None and value < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")
        if self.nthreads > MAX_THREADS:
            # one OS thread per breeder; a typo must not start thousands
            raise ValueError(f"nthreads must be <= {MAX_THREADS}, got {self.nthreads}")
        # the pool builds every buffer up front: refuse more than physical memory
        if {"SC_PAGE_SIZE", "SC_PHYS_PAGES"} <= getattr(os, "sysconf_names", {}).keys():
            ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
            if (n := pool_capacity(self.popsize, self.nthreads)) * self.buffer_bytes > ram:
                raise ValueError(f"popsize={self.popsize} x buffer_bytes={self.buffer_bytes}: {n} "
                                 f"buffers exceed this machine's {ram} bytes of physical memory")
        if self.tournament_size > TOURNAMENT_BLOCK:
            # a tournament is ranked in one block, at about 37 bytes per entrant
            raise ValueError(f"tournament_size must be <= {TOURNAMENT_BLOCK}, "
                             f"got {self.tournament_size}")
        # bit lengths, not 2**depth: a huge depth must not build a huge integer
        deepest = (operator.index(self.buffer_bytes) + 1).bit_length() - 1
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
    fitness wins and ties go to the lowest index. A NaN fitness ranks as
    +inf. The C kernel's `tournaments` ranks each block where it loaded,
    else `rank_tournaments` in numpy, whose temporaries the blocks keep
    small for any M.

    Then draws every child's crossover points (see `child_stream`), and
    returns (mums, dads, points).
    """
    m = len(fitnesses)
    fit = np.array(fitnesses, dtype=np.float64)
    rank = rank_tournaments if genome._native is None else genome._native.tournaments
    rows = 2 * m
    block_rows = max(1, TOURNAMENT_BLOCK // k)
    winners = np.empty(rows, dtype=np.uint64)
    for start in range(0, rows, block_rows):
        n = min(block_rows, rows - start)
        rank(rng.randbytes(4 * n * k), fit, k, winners[start:start + n])
    picks = winners.tolist()
    return picks[0::2], picks[1::2], draw_points(rng, m)


def rank_tournaments(words: bytes, fit: np.ndarray, k: int, out: np.ndarray) -> None:
    """Write each tournament's winner into `out`: the kernel's `tournaments` in numpy.

    Row r of `out` is the best of the k entrants that uint32 words r*k to
    r*k + k - 1 draw (see `draw_outcome`); `fit` is float64, `out` uint64.
    """
    u = np.frombuffer(words, dtype="<u4").reshape(len(out), k)
    entrants = (u.astype(np.uint64) * len(fit)) >> 32
    entrant_fit = fit[entrants]
    entrant_fit[np.isnan(entrant_fit)] = np.inf  # NaN would match no row minimum
    ties = entrant_fit == entrant_fit.min(axis=1, keepdims=True)
    out[:] = np.where(ties, entrants, len(fit)).min(axis=1)


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


def initial_depth(index: int, max_depth: int) -> int:
    """Ramp initial tree depths across the population (2..max, or all 1)."""
    if max_depth == 1:
        return 1
    return 2 + index % (max_depth - 1)


class Breeding:
    """One generation's breeding: its plan, the children's handles and the two worker steps.

    Building it sets the generation up: the plan, one empty handle per child,
    a fresh pool peak, and childless parents' buffers given back.
    """

    def __init__(self, pool: BufferPool, pop: list[Individual], mums: list[int],
                 dads: list[int], draws: array):
        self.pool, self.pop, self.draws = pool, pop, draws
        self.plan = plan = BreedingPlan(mums, dads)
        self.new_pop = [Individual() for _ in mums]
        pool.reset_peak()
        # infertile parents give their buffers back before any worker starts
        for ind, kids in zip(pop, plan.children):
            if not kids:
                pool.release(ind)

    def next_child(self, done: int | None) -> int | None:
        """The lock section: book the finished child `done`, then claim the next.

        Booking strikes `done` (None before a worker's first claim) off both
        parents: a parent left with one outstanding child promotes it to chain
        1, and a parent left with none gives its buffer back. The claim takes
        the next child by class and gives it a buffer; it returns None when
        every child is taken. The caller holds the engine lock. The claimed
        child's parents keep their buffers until it is booked, so `breed` may
        read them outside the lock.
        """
        plan = self.plan
        if done is not None:
            for parent in (plan.mums[done], plan.dads[done]):
                left, last = plan.rem_child(parent, done)
                if left == 1:
                    plan.move21(done, last)
                elif left == 0:
                    self.pool.release(self.pop[parent])
        s = plan.claim_next()
        if s is not None:
            self.pool.acquire(self.new_pop[s])
        return s

    def breed(self, s: int) -> None:
        """Write claimed child s into its buffer by crossover of its parents, within its length."""
        slots, pop, plan = self.pool.slots, self.pop, self.plan
        child, mum, dad = self.new_pop[s], pop[plan.mums[s]], pop[plan.dads[s]]
        child.tree_len = subtree_crossover(
            slots[mum.slot_id], mum.tree_len, slots[dad.slot_id], dad.tree_len,
            out := slots[child.slot_id], len(out), child_stream(self.draws, s),
        )


class PooledEngine:
    """Breeds each generation in place using the reusable buffer pool."""

    def __init__(self, config: RunConfig, problem: Problem = QUARTIC):
        config.validate()
        self.config = config
        self.problem = problem
        self.pool = BufferPool(config.popsize, config.nthreads, config.buffer_bytes)
        self.lock = threading.Lock()
        self.master_rng = random.Random(operator.index(config.seed))  # takes no numpy int
        self.pop: list[Individual] = []
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
            genomes=[bytes(self.pool.slots[ind.slot_id][:ind.tree_len]) for ind in self.pop],
            fitness_history=self.fitness_history,
            stats=self.stats,
            capacity=self.pool.capacity,
            peak_buffers=self.pool.max_used,
        )

    def _init_generation_zero(self) -> None:
        t0 = time.perf_counter()
        cfg = self.config
        for s in range(cfg.popsize):
            ind = Individual()
            buf = self.pool.slots[self.pool.acquire(ind)]
            ind.tree_len = random_tree(
                self.master_rng, initial_depth(s, cfg.max_initial_depth), buf)
            self.pop.append(ind)
        self._score(0, t0)

    def run_generation(self, g: int) -> None:
        """Replace the whole population with its children (generation g)."""
        t0 = time.perf_counter()
        cfg = self.config
        mums, dads, draws = draw_outcome(self.master_rng, self.fitness_history[-1],
                                         cfg.tournament_size)
        breeding = Breeding(self.pool, self.pop, mums, dads, draws)
        busy = [0.0] * self.pool.workers
        errors: list[BaseException] = []

        def run_worker(w: int) -> None:
            start = time.perf_counter()
            next_child, breed = breeding.next_child, breeding.breed
            try:
                s = None
                while True:
                    with self.lock:
                        s = next_child(s)
                    if s is None:
                        break
                    breed(s)
                busy[w] = time.perf_counter() - start
            except BaseException as exc:  # propagate fatal errors to master
                errors.append(exc)
                with self.lock:
                    breeding.plan.cancel()  # the other workers stop at their next claim

        if cfg.nthreads == 0:
            run_worker(0)
        else:
            threads = [threading.Thread(target=run_worker, args=(w,), name=f"breeder-{w}")
                       for w in range(len(busy))]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        if errors:
            raise errors[0]
        if self.pool.used != cfg.popsize:
            raise InvariantError("old population not fully released")
        self.pop = breeding.new_pop
        self._score(g, t0, busy)

    def _score(self, g: int, t0: float, busy: list[float] | None = None) -> None:
        """Score every member in member order, then append generation g's rows.

        The row times the span from t0; `busy=None` (generation 0) counts that
        whole span as the master's work.
        """
        slots, fitness = self.pool.slots, self.problem.fitness
        with float_errors_ignored():  # one error state for the whole pass
            fitnesses = [fitness(slots[ind.slot_id], ind.tree_len) for ind in self.pop]
        self.fitness_history.append(fitnesses)
        wall = time.perf_counter() - t0
        lens = [ind.tree_len for ind in self.pop]
        self.stats.append(metrics.record_generation(
            generation=g,
            tree_sizes=lens,
            fitnesses=fitnesses,
            pool_used_peak=self.pool.peak,
            pool_max_used=self.pool.max_used,
            total_opcodes=sum(self.problem.opcodes_per_eval(n) for n in lens),
            wall_time=wall,
            busy_times=[wall] if busy is None else busy,
        ))


def run_evolution(config: RunConfig, problem: Problem = QUARTIC) -> EvolutionResult:
    """Build the pool, evolve for config.generations, return population and stats."""
    return PooledEngine(config, problem).run()
