"""Schedule-model sanity checks; test_acceptance explores every schedule."""

import random
from array import array

import pytest

from poolgp.expr_pool import NO_SLOT
from simharness import BreedingSim, random_walk, tiny_population_scenarios


def test_harness_detects_premature_release():
    """Sanity check: the safety assertion actually fires on a broken protocol."""

    class BrokenSim(BreedingSim):
        def _step_hold(self, st):
            super()._step_hold(st)
            if st.done:
                return
            mum = self.pop[self.plan.mums[st.child]]
            if mum.slot_id != NO_SLOT:
                self.pool.release(mum)  # bug on purpose: free before crossover

    with pytest.raises(AssertionError, match="released before crossover"):
        random_walk(BrokenSim([(0, 1), (1, 0)], 1, seed=5), random.Random(0))


def test_random_walks_match_exhaustive_reference_genomes():
    rng = random.Random(1234)
    for pairs in tiny_population_scenarios()[-4:]:
        serial = random_walk(BreedingSim(pairs, 1, seed=9), rng)
        threaded = random_walk(BreedingSim(pairs, 2, seed=9), rng)
        assert serial.result_genomes() == threaded.result_genomes()


def plain(value):
    """`value` as nested plain data: objects by their fields, buffers by their bytes."""
    if isinstance(value, list):
        return [plain(v) for v in value]
    if isinstance(value, (bytearray, array)):
        return bytes(value)
    if hasattr(value, "__dict__"):
        return {name: plain(v) for name, v in vars(value).items()}
    return value


def mutable_parts(value, found):
    """Add the id of every list, buffer and object reachable from `value` to `found`."""
    if isinstance(value, (list, bytearray, array)) or hasattr(value, "__dict__"):
        if id(value) not in found:
            found[id(value)] = value
            for v in vars(value).values() if hasattr(value, "__dict__") else value:
                mutable_parts(v, found)
    return found


def test_cloned_sim_shares_no_state():
    # the exhaustive explorer steps clones; an alias would leak one branch into another
    rng = random.Random(7)
    pairs = [(0, 1), (1, 0), (2, 2), (0, 3), (4, 0), (5, 1)]
    sim = BreedingSim(pairs, 2, seed=3)
    for _ in range(5):
        runnable = sim.runnable()
        sim.step(runnable[rng.randrange(len(runnable))])
    before = plain(sim)
    clone = sim.clone()
    shared = mutable_parts(sim, {}).keys() & mutable_parts(clone, {}).keys()
    # the read-only crossover draws and parentage arrays
    assert shared == {id(sim.breeding.draws), id(sim.plan.mums), id(sim.plan.dads)}
    random_walk(clone, rng)
    assert plain(sim) == before
    assert random_walk(sim, rng).result_genomes() == clone.result_genomes()
