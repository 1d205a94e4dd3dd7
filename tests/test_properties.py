"""Property tests: random parentage and schedules, random small configurations."""

from hypothesis import given, settings
from hypothesis import strategies as st

from poolgp.engine import RunConfig, run_evolution
from poolgp.naive import run_evolution_naive
from simharness import BreedingSim, random_walk

SETTINGS = settings(derandomize=True, deadline=None)


@st.composite
def parentage(draw):
    m = draw(st.integers(1, 10))
    parent = st.integers(0, m - 1)
    return draw(st.lists(st.tuples(parent, parent), min_size=m, max_size=m))


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
