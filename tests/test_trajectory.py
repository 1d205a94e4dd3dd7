"""Golden trajectory: a small big-tree run must keep its exact results.

The digests were taken before the evaluator moved to precomputed terminal
and pair vectors, and before the C kernel; both evaluators must keep them. Any change to the interpreter, selection, crossover or
scoring that moves a single bit of a fitness or a genome fails here; a
deliberate change of trajectory updates them and says so.
"""

import hashlib
import struct

import pytest

from poolgp import RunConfig, run_evolution, run_evolution_naive

CONFIG = dict(popsize=300, generations=6, buffer_bytes=127, max_initial_depth=7, seed=1001)
FITNESS_SHA256 = "5b5a0c34709bb360685f97b3160cce681e3f842ff0db3e187b135b438d70431d"
GENOMES_SHA256 = "8f2b4c28cab0362e108f12dd74197f9a782e5697bea04ace55f84528b52319bf"


def digests(result):
    fitness = hashlib.sha256()
    for row in result.fitness_history:
        fitness.update(struct.pack(f"<{len(row)}d", *row))
    genomes = hashlib.sha256()
    for g in result.genomes:
        genomes.update(len(g).to_bytes(2, "little") + g)
    return fitness.hexdigest(), genomes.hexdigest()


RUNS = [(run_evolution, 0), (run_evolution, 2), (run_evolution_naive, 0)]


# each run on the C kernel, when it loaded, and again in plain Python; the Python runs keep
# the ids they had when the fallback ran in numpy
@pytest.mark.parametrize("run, nthreads, evaluator", [
    pytest.param(run, nthreads, evaluator, id=f"{run.__name__}-{nthreads}{suffix}")
    for evaluator, suffix in (("c", ""), ("python", "-numpy")) for run, nthreads in RUNS
], indirect=["evaluator"])
def test_bigtree_shaped_run_keeps_its_golden_digests(run, nthreads, evaluator):
    result = run(RunConfig(nthreads=nthreads, **CONFIG))
    assert digests(result) == (FITNESS_SHA256, GENOMES_SHA256)
