"""Step-driven model of the breeding phase for schedule exploration.

Drives the real BufferPool, BreedingPlan and crossover code through the
worker loop's atomic sections: CLAIM (`engine.claim_child`: claim a child
and acquire its buffer, one lock hold), CROSS (crossover outside the lock),
BOOK (`engine.book_child`: rem_child x2, promotions, parent releases, one
lock hold). The lock sections are the engine's own functions, not copies,
so the schedules explored here check the code that ships. Workers do not
evaluate fitness: the master scores the generation after every worker has
joined, so scoring is not a step of the model. A scheduler picks which
worker advances next; `explore_all` walks every interleaving, checking
after each step that the plan's queues are intact, the pool conserves its
slots, and no crossover ever reads a parent buffer that was released (or
recycled) after the child was claimed.

The checks that read the plan's and the pool's internals (`queues`,
`check_integrity`, `free_chain`, `tree_is_complete`) live here, not in the
package: only tests use them.
"""

from __future__ import annotations

import random

from poolgp.breeding_plan import NIL, BreedingPlan, SelectionOutcome
from poolgp.engine import Individual, book_child, child_stream, claim_child, draw_points
from poolgp.expr_pool import NO_SLOT, BufferPool
from poolgp.genome import random_tree, subtree_crossover, subtree_end

CLAIM, CROSS, BOOK = "claim", "cross", "book"


def queues(plan: BreedingPlan) -> tuple[list[int], list[int]]:
    """(chain 1, class-2 queue): the children each would hand out, in claim order.

    Chain 1 is cut one entry past the population size, so a cycle shows as
    a too-long chain instead of a hang.
    """
    chain1 = []
    i = plan.chainhd1
    while i != NIL and len(chain1) <= len(plan.status):
        chain1.append(i)
        i = plan.forw[i]
    return chain1, [s for s in plan.queue2[plan.next2:] if plan.status[s] == 2]


def check_integrity(plan: BreedingPlan) -> str | None:
    """None if the plan is sound, else its first violation.

    Chain 1 must hold each status-1 child once, and the class-2 queue past
    its cursor each status-2 child, in ascending order.
    """
    chain1, chain2 = queues(plan)
    for chain, cls in ((sorted(chain1), 1), (chain2, 2)):
        queued = [s for s, c in enumerate(plan.status) if c == cls]
        if chain != queued:
            return f"chain {cls} holds {chain} but status-{cls} children are {queued}"
    return None


def free_chain(pool: BufferPool) -> list[int]:
    """Slots reachable from the pool's free-chain head, in chain order."""
    out, seen = [], set()
    i = pool.chainhead
    while i != 0:
        assert 1 <= i <= pool.capacity and i not in seen, f"corrupt free chain at slot {i}"
        seen.add(i)
        out.append(i)
        i = pool.chain[i]
    return out


def tree_is_complete(code, length: int) -> bool:
    """True when the arity walk from cell 0 ends exactly at `length`."""
    try:
        return length > 0 and subtree_end(code, 0) == length
    except IndexError:
        return False


class WorkerModel:
    def __init__(self):
        self.phase = CLAIM
        self.child = -1
        self.mum_slot = NO_SLOT
        self.dad_slot = NO_SLOT
        self.done = False


def copy_state(obj):
    """Copy `obj` two levels deep through its list and bytearray attributes.

    Deep enough for the pool, the plan, an Individual and a WorkerModel,
    whose state is ints, bytearrays, lists of ints and lists of optional
    lists or bytearrays, without naming their fields. Hand-rolled because
    `copy.copy` per object doubles the exhaustive schedule tests' time.
    """
    new = object.__new__(type(obj))
    state = new.__dict__
    for name, value in vars(obj).items():
        if type(value) is list:
            value = [v.copy() if type(v) in (list, bytearray) else v for v in value]
        elif type(value) is bytearray:
            value = value.copy()
        state[name] = value
    return new


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
        self.plan = BreedingPlan(outcome)
        self.new_pop = [Individual() for _ in range(popsize)]
        self.pool.reset_peak()
        for ind, kids in zip(self.pop, self.plan.children):
            if not kids:
                self.pool.release(ind)
        self.workers = [WorkerModel() for _ in range(nworkers)]
        self.claims: list[tuple[int, bool, bool]] = []  # (child, was_class2, chain1_empty)
        self.books = 0
        self.verify_quiescent()

    # -- scheduling --------------------------------------------------------

    def runnable(self):
        return [w for w, st in enumerate(self.workers) if not st.done]

    def finished(self):
        return all(st.done for st in self.workers)

    def clone(self):
        """Independent copy; workers only hold indices, never object refs."""
        new = copy_state(self)  # the crossover draws are read-only and shared
        new.pool = copy_state(self.pool)
        new.plan = copy_state(self.plan)
        new.pop = [copy_state(i) for i in self.pop]
        new.new_pop = [copy_state(i) for i in self.new_pop]
        new.workers = [copy_state(w) for w in self.workers]
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
        chain2 = queues(self.plan)[1]
        s = claim_child(self.plan, self.pool, self.new_pop)
        if s is None:
            st.done = True
            return
        was_class2 = s != h1
        if was_class2:
            assert s == chain2[0]
        self.claims.append((s, was_class2, h1 == NIL))
        st.child = s
        st.mum_slot = self.pop[self.plan.mums[s]].slot_id
        st.dad_slot = self.pop[self.plan.dads[s]].slot_id
        st.phase = CROSS

    def _step_cross(self, st: WorkerModel, draws) -> None:
        s = st.child
        child = self.new_pop[s]
        mum = self.pop[self.plan.mums[s]]
        dad = self.pop[self.plan.dads[s]]
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
        book_child(self.plan, self.pool, self.pop, st.child)
        self.books += 1
        st.phase = CLAIM

    # -- invariants ---------------------------------------------------------

    def verify_quiescent(self) -> None:
        report = check_integrity(self.plan)
        assert report is None, report
        free = free_chain(self.pool)
        assert self.pool.used + len(free) == self.pool.capacity
        owned = [i.slot_id for i in self.pop if i.slot_id != NO_SLOT]
        owned += [i.slot_id for i in self.new_pop if i.slot_id != NO_SLOT]
        assert sorted(owned + free) == list(range(1, self.pool.capacity + 1))

    def assert_complete(self) -> None:
        popsize = len(self.pop)
        assert self.finished()
        assert self.pool.used == popsize, "old population not fully released"
        assert queues(self.plan) == ([], [])
        assert sorted(s for s, _, _ in self.claims) == list(range(popsize))
        assert self.books == popsize
        assert not any(self.plan.children)
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
            max_peak = max(max_peak, sim.pool.peak)
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
