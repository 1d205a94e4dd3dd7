"""Step-driven model of the breeding phase for schedule exploration.

Drives the real BufferPool, BreedingPlan and crossover code through the
worker loop's atomic sections: CLAIM (claim child + acquire buffer, one lock
hold), CROSS (crossover outside the lock), BOOK (rem_child x2, promotions,
parent releases, one lock hold). Fitness evaluation only reads the child's
own buffer, which nothing can release mid-generation, so it is not a
separate step. A scheduler picks which worker advances next; `explore_all`
walks every interleaving, checking after each step that the plan chains are
intact, the pool conserves its slots, and no crossover ever reads a parent
buffer that was released (or recycled) after the child was claimed.
"""

from __future__ import annotations

import dataclasses
import random

from poolgp.breeding_plan import NIL, BreedingPlan, SelectionOutcome
from poolgp.engine import Individual, child_stream, draw_points
from poolgp.expr_pool import NO_SLOT, BufferPool
from poolgp.genome import random_tree, subtree_crossover, tree_is_complete

CLAIM, CROSS, BOOK = "claim", "cross", "book"


class WorkerModel:
    def __init__(self):
        self.phase = CLAIM
        self.child = -1
        self.mum_slot = NO_SLOT
        self.dad_slot = NO_SLOT
        self.done = False

    def clone(self):
        other = WorkerModel()
        other.__dict__.update(self.__dict__)
        return other


class BreedingSim:
    def __init__(self, pairs, nworkers, seed=0, buffer_bytes=31, init_depth=3):
        popsize = len(pairs)
        self.buffer_bytes = buffer_bytes
        self.pool = BufferPool(popsize, nworkers, buffer_bytes)
        self.pop = []
        rng = random.Random(seed)
        for s in range(popsize):
            ind = Individual()
            self.pool.acquire(ind)
            ind.tree_len = random_tree(rng, init_depth, self.pool.buffer(ind.slot_id))
            self.pop.append(ind)
        # the scripted parentage stands in for the tournaments; the crossover
        # points come from the same master stream, as in the engines
        self.draws = draw_points(rng, popsize)
        outcome = SelectionOutcome([m for m, _ in pairs], [d for _, d in pairs])
        num_children = outcome.edge_counts()
        for s, ind in enumerate(self.pop):
            ind.num_children = num_children[s]
        self.plan = BreedingPlan(outcome, num_children)
        self.new_pop = [
            Individual(mum_id=m, dad_id=d) for m, d in zip(outcome.mum_ids, outcome.dad_ids)
        ]
        for s, ind in enumerate(self.pop):
            if num_children[s] == 0:
                self.pool.release(ind)
        self.workers = [WorkerModel() for _ in range(nworkers)]
        self.claims: list[tuple[int, bool, bool]] = []  # (child, was_class2, chain1_empty)
        self.rem_calls = 0
        self.peak = self.pool.used
        self.verify_quiescent()

    # -- scheduling --------------------------------------------------------

    def runnable(self):
        return [w for w, st in enumerate(self.workers) if not st.done]

    def finished(self):
        return all(st.done for st in self.workers)

    def clone(self):
        """Fast independent copy; workers only hold indices, never object refs."""
        new = object.__new__(type(self))
        new.draws = self.draws  # read-only once drawn
        new.buffer_bytes = self.buffer_bytes
        pool = object.__new__(BufferPool)
        pool.workers = self.pool.workers
        pool.capacity = self.pool.capacity
        pool.buffer_bytes = self.pool.buffer_bytes
        pool.slots = [None if b is None else bytearray(b) for b in self.pool.slots]
        pool.chain = list(self.pool.chain)
        pool.chainhead = self.pool.chainhead
        pool.used = self.pool.used
        pool.max_used = self.pool.max_used
        pool.allocated = self.pool.allocated
        new.pool = pool
        new.pop = [dataclasses.replace(i) for i in self.pop]
        new.new_pop = [dataclasses.replace(i) for i in self.new_pop]
        plan = object.__new__(BreedingPlan)
        plan.popsize = self.plan.popsize
        plan.forw = list(self.plan.forw)
        plan.back = list(self.plan.back)
        plan.status = list(self.plan.status)
        plan.children = [None if c is None else list(c) for c in self.plan.children]
        plan.chainhd1 = self.plan.chainhd1
        plan.chainhd2 = self.plan.chainhd2
        new.plan = plan
        new.workers = [w.clone() for w in self.workers]
        new.claims = list(self.claims)
        new.rem_calls = self.rem_calls
        new.peak = self.peak
        return new

    def step(self, w: int) -> None:
        st = self.workers[w]
        assert not st.done
        if st.phase == CLAIM:
            self._step_claim(st)
        elif st.phase == CROSS:
            self._step_cross(st, self.draws)
        else:
            self._step_book(st)
        self.verify_quiescent()

    # -- the three atomic sections of the worker loop ----------------------

    def _step_claim(self, st: WorkerModel) -> None:
        h1 = self.plan.chainhd1
        h2 = self.plan.chainhd2
        s = self.plan.claim_next()
        if s is None:
            st.done = True
            return
        was_class2 = s != h1
        if was_class2:
            assert s == h2
        self.claims.append((s, was_class2, h1 == NIL))
        child = self.new_pop[s]
        self.pool.acquire(child)
        self.peak = max(self.peak, self.pool.used)
        st.child = s
        st.mum_slot = self.pop[child.mum_id].slot_id
        st.dad_slot = self.pop[child.dad_id].slot_id
        st.phase = CROSS

    def _step_cross(self, st: WorkerModel, draws) -> None:
        s = st.child
        child = self.new_pop[s]
        mum = self.pop[child.mum_id]
        dad = self.pop[child.dad_id]
        # the property under test: parents still own the buffers recorded at claim
        assert mum.slot_id == st.mum_slot != NO_SLOT, (
            f"child {s}: mum buffer released before crossover read it"
        )
        assert dad.slot_id == st.dad_slot != NO_SLOT, (
            f"child {s}: dad buffer released before crossover read it"
        )
        rng = child_stream(draws, s)
        child.tree_len = subtree_crossover(
            self.pool.buffer(mum.slot_id), mum.tree_len,
            self.pool.buffer(dad.slot_id), dad.tree_len,
            self.pool.buffer(child.slot_id), self.buffer_bytes, rng,
        )
        st.phase = BOOK

    def _step_book(self, st: WorkerModel) -> None:
        s = st.child
        child = self.new_pop[s]
        mum = self.pop[child.mum_id]
        dad = self.pop[child.dad_id]
        n1, last1 = self.plan.rem_child(child.mum_id, mum.num_children, s)
        n2, last2 = self.plan.rem_child(child.dad_id, dad.num_children, s)
        self.rem_calls += 2
        if n1 == 1:
            self.plan.move21(s, last1)
        if n2 == 1:
            self.plan.move21(s, last2)
        if n1 == 0:
            mum.num_children = 0
            self.pool.release(mum)
        if n2 == 0:
            dad.num_children = 0
            self.pool.release(dad)
        st.phase = CLAIM

    # -- invariants ---------------------------------------------------------

    def verify_quiescent(self) -> None:
        report = self.plan.check_integrity()
        assert report is None, report
        free = self.pool.free_chain()
        assert self.pool.used + len(free) == self.pool.capacity
        owned = [i.slot_id for i in self.pop if i.slot_id != NO_SLOT]
        owned += [i.slot_id for i in self.new_pop if i.slot_id != NO_SLOT]
        assert sorted(owned + free) == list(range(1, self.pool.capacity + 1))

    def assert_complete(self) -> None:
        popsize = len(self.pop)
        assert self.finished()
        assert self.pool.used == popsize, "old population not fully released"
        assert self.plan.chainhd1 == NIL and self.plan.chainhd2 == NIL
        assert sorted(s for s, _, _ in self.claims) == list(range(popsize))
        assert self.rem_calls == 2 * popsize
        for arr in self.plan.children:
            assert arr is None or all(e == NIL for e in arr)
        for child in self.new_pop:
            assert child.slot_id != NO_SLOT
            assert tree_is_complete(self.pool.buffer(child.slot_id), child.tree_len)
        for s, was_class2, chain1_empty in self.claims:
            assert not was_class2 or chain1_empty, (
                f"class-2 child {s} claimed while chain 1 was not empty"
            )

    def result_genomes(self) -> list[bytes]:
        return [
            bytes(self.pool.buffer(c.slot_id)[:c.tree_len]) for c in self.new_pop
        ]


def explore_all(make_sim) -> tuple[int, int]:
    """DFS over every worker interleaving; returns (schedules, max peak buffers).

    Every complete schedule must pass the final-state checks and produce the
    same child genomes as every other schedule.
    """
    reference = None
    max_peak = 0
    schedules = 0
    stack = [make_sim()]
    while stack:
        sim = stack.pop()
        runnable = sim.runnable()
        if not runnable:
            sim.assert_complete()
            genomes = sim.result_genomes()
            if reference is None:
                reference = genomes
            else:
                assert genomes == reference, "schedule changed a child's genome"
            max_peak = max(max_peak, sim.peak)
            schedules += 1
            continue
        for w in runnable:
            branch = sim.clone() if len(runnable) > 1 else sim
            branch.step(w)
            stack.append(branch)
    assert schedules > 0
    return schedules, max_peak


def random_walk(sim: BreedingSim, rng: random.Random) -> BreedingSim:
    """Drive one randomly scheduled execution to completion."""
    while not sim.finished():
        runnable = sim.runnable()
        sim.step(runnable[rng.randrange(len(runnable))])
    sim.assert_complete()
    return sim


def tiny_population_scenarios() -> list[list[tuple[int, int]]]:
    """Parentage outcomes for exhaustive exploration: every outcome for
    popsize 1 and 2, plus structured and sampled outcomes for 3 and 4."""
    import itertools

    scenarios = [[(0, 0)]]
    scenarios += [
        list(zip(ms, ds))
        for ms in itertools.product(range(2), repeat=2)
        for ds in itertools.product(range(2), repeat=2)
    ]
    scenarios += [
        [(0, 1), (0, 0), (1, 2)],
        [(0, 0), (1, 1), (2, 2)],
        [(0, 0), (0, 0), (0, 0)],
        [(0, 1), (1, 2), (2, 0)],
        [(2, 2), (2, 1), (0, 0)],
        [(0, 1), (0, 0), (1, 2), (3, 3)],
        [(0, 0), (0, 0), (1, 1), (1, 1)],
        [(0, 1), (1, 0), (2, 3), (3, 2)],
        [(3, 3), (3, 3), (3, 3), (3, 3)],
    ]
    for m, count, seed in ((3, 4, 31), (4, 3, 41)):
        rng = random.Random(seed)
        scenarios += [
            [(rng.randrange(m), rng.randrange(m)) for _ in range(m)]
            for _ in range(count)
        ]
    return scenarios
