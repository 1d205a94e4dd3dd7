"""Step-driven model of the breeding phase for schedule exploration.

Builds the engine's own `Breeding` (plan, children's handles, peak reset,
childless releases) and drives its two worker steps: HOLD
(`Breeding.next_child` in one lock hold: book the worker's finished child
by rem_child x2, promotions and parent releases, then claim the next child
and acquire its buffer) and CROSS (`Breeding.breed`, crossover outside the
lock). Set-up and steps are the engine's code, not a copy, so the
schedules explored here check the code that ships. Workers do not
evaluate fitness: the master scores the generation after every worker has
joined, so scoring is not a step of the model. A
scheduler picks which worker advances next; `explore_all` walks every
interleaving, checking after each step that the plan's queues are intact,
the pool conserves its slots, and no crossover ever reads a parent buffer
that was released (or recycled) after the child was claimed.

The checks that read the plan's and the pool's internals (`queues`,
`check_integrity`, `free_slots`, `tree_is_complete`) live here, not in the
package: only tests use them.
"""

from __future__ import annotations

import random
from array import array

from poolgp.breeding_plan import NIL, BreedingPlan
from poolgp.engine import Breeding, Individual
from poolgp.expr_pool import NO_SLOT, BufferPool
from poolgp.genome import POINTS_PER_CHILD, random_tree, subtree_end

HOLD, CROSS = "hold", "cross"


def parents(pairs) -> tuple[array, array]:
    """[(mum, dad), ...] child parentage as `draw_outcome` returns it: two array("i")s."""
    return array("i", [m for m, _ in pairs]), array("i", [d for _, d in pairs])


def queues(plan: BreedingPlan) -> tuple[list[int], list[int]]:
    """(chain 1, class 2): the children each would hand out, in claim order.

    Chain 1 is its stack read from the top. Class 2 is every status-2 child
    from the cursor `next2` on.
    """
    status = plan.status
    return plan.chain1[::-1], [s for s in range(plan.next2, len(status)) if status[s] == 2]


def check_integrity(plan: BreedingPlan) -> str | None:
    """None if the plan is sound, else its first violation.

    Chain 1 must hold each status-1 child once, and no status-2 child may sit
    before the class-2 cursor.
    """
    chain1, chain2 = queues(plan)
    for chain, cls in ((sorted(chain1), 1), (chain2, 2)):
        queued = [s for s, c in enumerate(plan.status) if c == cls]
        if chain != queued:
            return f"chain {cls} holds {chain} but status-{cls} children are {queued}"
    return None


def free_slots(pool: BufferPool) -> list[int]:
    """The pool's free slots in the order acquire hands them out (stack top first)."""
    out = pool.free[::-1]
    for i in out:
        assert 1 <= i <= pool.capacity, f"free slot {i} outside 1..{pool.capacity}"
    assert len(set(out)) == len(out), f"a slot is free twice: {out}"
    return out


def word_for(node: int, n: int) -> int:
    """The smallest 32-bit draw that picks `node` of `n`: (u * n) >> 32 == node."""
    return -((-node << 32) // n)


def tree_is_complete(code, length: int) -> bool:
    """True when the arity walk from cell 0 ends exactly at `length`."""
    try:
        return length > 0 and subtree_end(code, 0) == length
    except IndexError:
        return False


class WorkerModel:
    def __init__(self):
        self.phase = HOLD
        self.child = None  # the claimed child, booked by the next HOLD
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
        pool = BufferPool(popsize, nworkers, buffer_bytes)
        pop = []
        rng = random.Random(seed)
        for s in range(popsize):
            ind = Individual()
            ind.tree_len = random_tree(rng, init_depth, pool.slots[pool.acquire(ind)])
            pop.append(ind)
        # the scripted parentage stands in for the tournaments; the crossover
        # points are the next words of the same master stream, as in the engines
        points = array("I", [rng.getrandbits(32) for _ in range(POINTS_PER_CHILD * popsize)])
        self.breeding = Breeding(pool, pop, [Individual() for _ in pairs], *parents(pairs),
                                 points)
        self.workers = [WorkerModel() for _ in range(nworkers)]
        self.claims: list[tuple[int, bool, bool]] = []  # (child, was_class2, chain1_empty)
        self.books = 0
        self.verify_quiescent()

    pool = property(lambda self: self.breeding.pool)
    plan = property(lambda self: self.breeding.plan)
    pop = property(lambda self: self.breeding.pop)
    new_pop = property(lambda self: self.breeding.new_pop)

    # -- scheduling --------------------------------------------------------

    def runnable(self):
        return [w for w, st in enumerate(self.workers) if not st.done]

    def finished(self):
        return all(st.done for st in self.workers)

    def clone(self):
        """Independent copy; workers only hold indices, never object refs."""
        new = copy_state(self)
        # the crossover draws are read-only and shared
        new.breeding = b = copy_state(self.breeding)
        b.pool = copy_state(self.pool)
        b.plan = copy_state(self.plan)
        b.pop = [copy_state(i) for i in self.pop]
        b.new_pop = [copy_state(i) for i in self.new_pop]
        new.workers = [copy_state(w) for w in self.workers]
        return new

    def step(self, w: int) -> None:
        st = self.workers[w]
        assert not st.done
        if st.phase == HOLD:
            self._step_hold(st)
        else:
            self._step_cross(st)
        self.verify_quiescent()

    # -- the two steps of the worker loop ----------------------------------

    def _step_hold(self, st: WorkerModel) -> None:
        plan = self.plan
        next2 = plan.next2  # only a class-2 claim moves the cursor
        s = self.breeding.next_child(st.child)
        if st.child is not None:
            self.books += 1
        st.child = s
        if s is None:
            st.done = True
            return
        was_class2 = plan.next2 != next2
        if was_class2:
            # claimed at the cursor: no class-2 child before it is left
            assert all(t > s for t in queues(plan)[1]), (s, queues(plan))
        # a class-2 claim leaves chain 1 as it found it: empty, if it was correct
        self.claims.append((s, was_class2, plan.chainhd1 == NIL))
        st.mum_slot = self.pop[plan.mums[s]].slot_id
        st.dad_slot = self.pop[plan.dads[s]].slot_id
        st.phase = CROSS

    def _step_cross(self, st: WorkerModel) -> None:
        s = st.child
        mum = self.pop[self.plan.mums[s]]
        dad = self.pop[self.plan.dads[s]]
        # the property under test: parents still own the buffers recorded at claim
        assert mum.slot_id == st.mum_slot != NO_SLOT, (
            f"child {s}: mum buffer released before crossover read it"
        )
        assert dad.slot_id == st.dad_slot != NO_SLOT, (
            f"child {s}: dad buffer released before crossover read it"
        )
        self.breeding.breed(s)
        st.phase = HOLD

    # -- invariants ---------------------------------------------------------

    def verify_quiescent(self) -> None:
        report = check_integrity(self.plan)
        assert report is None, report
        free = free_slots(self.pool)
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
            assert tree_is_complete(self.pool.slots[child.slot_id], child.tree_len)
        for s, was_class2, chain1_empty in self.claims:
            assert not was_class2 or chain1_empty, (
                f"class-2 child {s} claimed while chain 1 was not empty"
            )

    def result_genomes(self) -> list[bytes]:
        return [bytes(self.pool.slots[c.slot_id][:c.tree_len]) for c in self.new_pop]


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
