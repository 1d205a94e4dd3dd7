"""Property tests: random parentage and schedules, random small configurations."""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from poolgp.breeding_plan import BreedingPlan
from poolgp.engine import RunConfig, run_evolution
from poolgp.naive import run_evolution_naive
from simharness import BreedingSim, parents, random_walk

SETTINGS = settings(derandomize=True, deadline=None)


@st.composite
def parentage(draw):
    m = draw(st.integers(1, 10))
    parent = st.integers(0, m - 1)
    return draw(st.lists(st.tuples(parent, parent), min_size=m, max_size=m))


class ExplicitClass2Plan:
    """Reference schedule that keeps class 2 as an explicit ascending list.

    Chain 1 is a list with its top first. Class 2 is the list of children
    that start in class 2, read through a cursor that skips any child whose
    status is no longer 2.
    """

    def __init__(self, mums, dads):
        count = Counter(mums) + Counter(dads)
        self.status = [1 if count[m] == 1 or count[d] == 1 else 2 for m, d in zip(mums, dads)]
        self.chain1 = [s for s, c in enumerate(self.status) if c == 1]
        self.queue2 = [s for s, c in enumerate(self.status) if c == 2]
        self.next2 = 0

    def claim_next(self):
        if self.chain1:
            s = self.chain1.pop(0)
        else:
            while self.next2 < len(self.queue2) and self.status[self.queue2[self.next2]] != 2:
                self.next2 += 1
            if self.next2 == len(self.queue2):
                return None
            s = self.queue2[self.next2]
            self.next2 += 1
        self.status[s] = 0
        return s

    def move21(self, active, s):
        if active != s and self.status[s] == 2:
            self.status[s] = 1
            self.chain1.insert(0, s)

    def cancel(self):
        self.chain1 = []
        self.next2 = len(self.queue2)


@st.composite
def plan_operations(draw):
    """Parentage plus a run of claims and promotions, with at most one cancel."""
    pairs = draw(parentage())
    child = st.integers(0, len(pairs) - 1)
    ops = draw(st.lists(st.just(("claim_next",)) | st.tuples(st.just("move21"), child, child),
                        max_size=3 * len(pairs)))
    cancel_at = draw(st.none() | st.integers(0, len(ops)))
    if cancel_at is not None:
        ops.insert(cancel_at, ("cancel",))
    return pairs, ops


@settings(SETTINGS, max_examples=500)
@given(case=plan_operations())
def test_claims_match_an_explicit_class2_list(case):
    pairs, ops = case
    mums, dads = parents(pairs)
    plan, model = BreedingPlan(mums, dads), ExplicitClass2Plan(mums, dads)
    # then drain: every child left is claimed, and both then report None
    for name, *args in ops + [("claim_next",)] * (len(pairs) + 1):
        assert getattr(plan, name)(*args) == getattr(model, name)(*args), (name, args)
        assert plan.status == model.status


@settings(SETTINGS, max_examples=300)
@given(pairs=parentage(), nworkers=st.integers(1, 4), seed=st.integers(0, 1000),
       schedule=st.randoms(use_true_random=False))
def test_random_schedules_keep_the_protocol(pairs, nworkers, seed, schedule):
    # random_walk checks the plan and the pool after every step, and at the end
    sim = random_walk(BreedingSim(pairs, nworkers, seed=seed), schedule)
    m = len(pairs)
    assert m + 1 <= sim.pool.peak <= sim.pool.capacity == m + 2 * min(nworkers, m)
    serial = random_walk(BreedingSim(pairs, 1, seed=seed), schedule)
    assert sim.result_genomes() == serial.result_genomes()


@settings(SETTINGS, max_examples=150)
@given(popsize=st.integers(1, 12), nthreads=st.integers(0, 4), generations=st.integers(1, 5),
       depth=st.integers(1, 4), tight=st.booleans(), k=st.integers(1, 4),
       seed=st.integers(0, 2**16))
def test_pooled_equals_naive_on_small_configs(popsize, nthreads, generations, depth, tight,
                                              k, seed):
    # a buffer that only just holds the initial trees makes crossovers retry
    # (a fallback to a copy of mum needs ten misfits in a row and stays rare)
    cfg = RunConfig(popsize=popsize, nthreads=nthreads, generations=generations,
                    buffer_bytes=2**depth - 1 if tight else 63, tournament_size=k,
                    seed=seed, max_initial_depth=depth)
    pooled = run_evolution(cfg)
    naive = run_evolution_naive(cfg)
    assert pooled.genomes == naive.genomes
    assert pooled.fitness_history == naive.fitness_history
    assert pooled.peak_buffers <= pooled.capacity
