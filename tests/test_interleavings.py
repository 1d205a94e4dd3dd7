"""Schedule-model sanity checks; test_acceptance explores every schedule."""

import random

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
