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
once, in member order, as the naive engine does, into an array("d") of M
doubles, where a user fitness's float32 or int becomes a double and any
other value raises. That array is the history row and the next
tournaments' input with no copy.
The pass enters `float_errors_ignored` once, which enters numpy's
float-error state where numpy can run in the pass; neither `evaluate` nor
`Problem.fitness` sets one per genome.

One `Breeding` holds a generation's breeding and does its set-up. Shared
state (pool, plan) changes only inside one lock, taken once per claim by
`Breeding.next_child`, which books the worker's finished child and claims
the next: M + workers holds a generation. `Breeding.breed` crosses over
outside it; the schedule tests step these same two methods. Every breeder
runs `run_worker`: the master is breeder 0, and a run of N threads starts
N - 1 helper threads beside it, so nthreads 0 and 1 start none. A breeder
that raises cancels the plan, so the others stop at their next claim, and
the master joins the helpers and re-raises the first error; an exception
on the master outside its breeder loop, such as an interrupt while it
joins, also cancels the plan and joins every helper before it escapes. All
randomness comes from one master stream seeded by the run seed: it grows
generation 0, then draws each generation's tournaments and crossover
points in bulk before breeding starts. Each child reads only its own
POINTS_PER_CHILD words, so results are identical for any thread count,
including the serial two-population reference engine.

Members are `Individual` handles: a slot id and a length. Generation 0
builds the run's two lists of M handles and grows into one. Each
generation's children take the handles that the previous breeding
emptied: every parent gave its buffer back there, so each holds none.
"""

from __future__ import annotations

import operator
import os
import random
import struct
import sys
import threading
import time
from array import array
from dataclasses import dataclass

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


# a handle's object and the array of its attribute values beside it, counted as twice the
# object: 96 bytes by tracemalloc on CPython 3.11, against 2 x 56
HANDLE_BYTES = 2 * sys.getsizeof(Individual())
MAX_THREADS = 256  # most breeder threads a run may ask for
TOURNAMENT_BLOCK = 16384  # most entrants that one randbytes block draws and ranks


@dataclass
class RunConfig:
    popsize: int = 500
    nthreads: int = 0  # the master plus nthreads - 1 helper threads; helpers add GIL contention
    generations: int = 20  # total generations including the random first one
    buffer_bytes: int = 1024
    tournament_size: int = 7
    seed: int = 1
    max_initial_depth: int = 6

    def validate(self) -> None:
        """The one gate of a run's settings: check each and store it back as a plain int."""
        # numpy ints pass operator.index and are stored as the int they hold; floats, which
        # could pass the limits below, do not, nor does a seed of None (OS entropy) or below
        # 0 (random.Random folds it onto its absolute value: -5 would run the trajectory of 5)
        for name, least in (("popsize", 1), ("nthreads", 0), ("generations", 1), ("buffer_bytes", 1),
                            ("tournament_size", 1), ("max_initial_depth", 1), ("seed", 0)):
            value = getattr(self, name)
            try:
                value = operator.index(value)
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None
            if value < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")
            setattr(self, name, value)
        if self.nthreads > MAX_THREADS:
            # one OS thread per breeder; a typo must not start thousands
            raise ValueError(f"nthreads must be <= {MAX_THREADS}, got {self.nthreads}")
        # the pool builds every buffer up front, and the engine two handles per member:
        # refuse more than physical memory. Each buffer counts as a bytearray (its header,
        # its bytes and a trailing NUL), a list slot, an in-use byte, a free-stack entry (an
        # int and a list slot) and two handles
        if {"SC_PAGE_SIZE", "SC_PHYS_PAGES"} <= getattr(os, "sysconf_names", {}).keys():
            ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
            n, word = pool_capacity(self.popsize, self.nthreads), struct.calcsize("P")
            each = (sys.getsizeof(bytearray()) + self.buffer_bytes + 1 + word + 1
                    + sys.getsizeof(n) + word + 2 * HANDLE_BYTES)
            if n * each > ram:
                raise ValueError(f"popsize={self.popsize} x buffer_bytes={self.buffer_bytes}: {n} "
                                 f"buffers of {each} bytes, with their handles, exceed this "
                                 f"machine's {ram} bytes of physical memory")
        if self.tournament_size > TOURNAMENT_BLOCK:
            # a tournament is ranked in one block, at about 37 bytes per entrant
            raise ValueError(f"tournament_size must be <= {TOURNAMENT_BLOCK}, "
                             f"got {self.tournament_size}")
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
    fitness_history: list[array]  # one array("d") of M fitnesses per generation; [-1] is final
    stats: list[metrics.GenerationStats]
    capacity: int  # genome buffers the engine ever owns
    peak_buffers: int  # most live at once across the run


def draw_outcome(rng, fitness: array, k: int) -> tuple[array, array, array]:
    """Draw a generation's parents and crossover points from the master stream.

    Runs 2M best-of-k tournaments over the array("d") `fitness`, mum then
    dad for each child in child order, from consecutive uint32 words of the
    stream: entrant u is member (u * M) >> 32, the lowest fitness wins and
    ties go to the lowest index. A NaN fitness ranks as +inf. Then draws
    every child's crossover points (see `child_stream`), and returns (mums,
    dads, points): an array("i") of M parents each, and an array("I").

    Where the kernel loaded and `rng` is a plain `random.Random`, the
    kernel's `draw` continues rng's Mersenne Twister state from one
    `getstate`, reads `fitness` in place, writes the three arrays and
    returns the state after, which one `setstate` hands back with the
    version and `gauss_next` kept. Any other rng, such as a subclass that
    overrides `getrandbits` or `randbytes`, is read through `randbytes`:
    the tournaments in blocks of at most TOURNAMENT_BLOCK entrants (at least
    one tournament), each ranked by `rank_tournaments`, whose temporaries the
    blocks keep small for any M, then the points in one more call. Both read
    the same words in the same order, so they draw the same outcome.
    """
    m = len(fitness)
    if genome._native is not None and type(rng) is random.Random:
        mums, dads = array("i", [0]) * m, array("i", [0]) * m
        points = array("I", [0]) * (POINTS_PER_CHILD * m)
        version, state, gauss_next = rng.getstate()
        state = genome._native.draw(state, fitness, k, mums, dads, points)
        rng.setstate((version, state, gauss_next))
        return mums, dads, points
    import numpy as np

    fit = np.array(fitness, dtype=np.float64)
    rows = 2 * m
    winners = np.empty(rows, dtype=np.int32)
    block_rows = max(1, TOURNAMENT_BLOCK // k)
    for start in range(0, rows, block_rows):
        n = min(block_rows, rows - start)
        rank_tournaments(rng.randbytes(4 * n * k), fit, k, winners[start:start + n])
    return (array("i", winners[0::2].tobytes()), array("i", winners[1::2].tobytes()),
            draw_points(rng, m))


def rank_tournaments(words: bytes, fit, k: int, out) -> None:
    """Write each tournament's winner into `out`: the ranking of the kernel's `draw` in numpy.

    Row r of `out` is the best of the k entrants that uint32 words r*k to
    r*k + k - 1 draw (see `draw_outcome`); `fit` is a float64 ndarray, `out` an int32 one.
    """
    import numpy as np

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

    Building it sets the generation up: the plan, a fresh pool peak, and
    childless parents' buffers given back. `new_pop` holds the children's
    handles, one per child and each holding no buffer: the ones the previous
    breeding emptied.
    """

    def __init__(self, pool: BufferPool, pop: list[Individual], new_pop: list[Individual],
                 mums: array, dads: array, draws: array):
        self.pool, self.pop, self.new_pop, self.draws = pool, pop, new_pop, draws
        self.plan = plan = BreedingPlan(mums, dads)
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
        self.master_rng = random.Random(config.seed)
        self.stats: list[metrics.GenerationStats] = []
        self.fitness_history: list[array] = []

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
        cfg, pool = self.config, self.pool
        # the run's handles: generation 0 grows into pop, and its children take spare
        self.pop = [Individual() for _ in range(cfg.popsize)]
        self.spare = [Individual() for _ in range(cfg.popsize)]
        for s, ind in enumerate(self.pop):
            buf = pool.slots[pool.acquire(ind)]
            ind.tree_len = random_tree(self.master_rng, initial_depth(s, cfg.max_initial_depth), buf)
        self._score(0, t0)

    def run_generation(self, g: int) -> None:
        """Replace the whole population with its children (generation g)."""
        t0 = time.perf_counter()
        cfg = self.config
        mums, dads, draws = draw_outcome(self.master_rng, self.fitness_history[-1],
                                         cfg.tournament_size)
        breeding = Breeding(self.pool, self.pop, self.spare, mums, dads, draws)
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

        helpers = []
        try:
            for w in range(1, len(busy)):
                t = threading.Thread(target=run_worker, args=(w,), name=f"breeder-{w}")
                t.start()
                helpers.append(t)
            run_worker(0)  # the master is breeder 0
            for t in helpers:
                t.join()
        except BaseException:  # an interrupt in a join, say: no helper may outlive the run
            with self.lock:
                breeding.plan.cancel()
            for t in helpers:
                t.join()
            raise
        if errors:
            raise errors[0]
        if self.pool.used != cfg.popsize:
            raise InvariantError("old population not fully released")
        self.spare, self.pop = self.pop, breeding.new_pop  # every parent gave its buffer back
        self._score(g, t0, busy)

    def _score(self, g: int, t0: float, busy: list[float] | None = None) -> None:
        """Score every member in member order, then append generation g's rows.

        The row times the span from t0; `busy=None` (generation 0) counts that
        whole span as the master's work.
        """
        slots, fitness = self.pool.slots, self.problem.fitness
        with float_errors_ignored():  # one error state for the whole pass
            fitnesses = array("d", [fitness(slots[ind.slot_id], ind.tree_len)
                                    for ind in self.pop])
        self.fitness_history.append(fitnesses)
        wall = time.perf_counter() - t0
        lens = [ind.tree_len for ind in self.pop]
        self.stats.append(metrics.record_generation(
            generation=g,
            tree_sizes=lens,
            fitnesses=fitnesses,
            pool_used_peak=self.pool.peak,
            pool_max_used=self.pool.max_used,
            total_opcodes=self.problem.opcodes_per_eval(sum(lens)),
            wall_time=wall,
            busy_times=[wall] if busy is None else busy,
        ))


def run_evolution(config: RunConfig, problem: Problem = QUARTIC) -> EvolutionResult:
    """Build the pool, evolve for config.generations, return population and stats."""
    return PooledEngine(config, problem).run()
