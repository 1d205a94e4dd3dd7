"""Exhaustive schedule exploration of the breeding phase on tiny populations."""

import random

import pytest

from poolgp.expr_pool import NO_SLOT
from simharness import BreedingSim, explore_all, random_walk, tiny_population_scenarios


@pytest.mark.parametrize("nworkers", [1, 2])
def test_all_interleavings_safe(nworkers):
    total = 0
    for pairs in tiny_population_scenarios():
        schedules, peak = explore_all(lambda p=pairs: BreedingSim(p, nworkers, seed=5))
        m = len(pairs)
        assert m + 1 <= peak <= m + 2 * nworkers
        total += schedules
    assert total >= len(tiny_population_scenarios())


def test_harness_detects_premature_release():
    """Sanity check: the safety assertion actually fires on a broken protocol."""

    class BrokenSim(BreedingSim):
        def _step_claim(self, st):
            super()._step_claim(st)
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
