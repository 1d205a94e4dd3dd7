"""Workload table and helpers shared by the benchmark driver and its run child.

Every workload is a list of RunConfigs, one per trajectory. One GP run is a
chaotic trajectory: once bloat sets in, which lineage takes over decides the
tree sizes and opcode mix, and with them the run time. Under free bloat
(M=500, 40 generations, buffer_bytes=1024) one seed's run took 1.3 s and
another's 4.7 s. The workloads therefore use large populations over few
generations with trees capped by buffer_bytes, and average several
trajectories per invocation, so that the figures move with the code and not
with the seed. BENCHMARK.json says why each workload is there.
"""

from __future__ import annotations

import hashlib
import struct
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# name -> (RunConfig fields without seed, trajectories per invocation)
WORKLOADS = {
    "bigtree-inline": (
        dict(popsize=2000, nthreads=0, generations=15, buffer_bytes=127,
             max_initial_depth=7, tournament_size=7),
        3,
    ),
    "bigtree-t2": (
        dict(popsize=2000, nthreads=2, generations=15, buffer_bytes=127,
             max_initial_depth=7, tournament_size=7),
        3,
    ),
    "smalltree-k20-t2": (
        dict(popsize=4000, nthreads=2, generations=10, buffer_bytes=31,
             max_initial_depth=5, tournament_size=20),
        1,
    ),
}


def import_poolgp():
    """Import the package from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import poolgp

    if Path(poolgp.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"poolgp imported from {poolgp.__file__}, not from {SRC}")
    return poolgp


def trajectory_seeds(seed: int, count: int) -> list[int]:
    """RunConfig seeds for one invocation; disjoint for distinct benchmark seeds."""
    return [1000 * seed + i for i in range(count)]


def config_fields(workload: str, run_seed: int) -> dict:
    fields, _ = WORKLOADS[workload]
    return dict(fields, seed=run_seed)


def capacity_bound(fields: dict) -> int:
    return fields["popsize"] + 2 * max(1, fields["nthreads"])


def fitness_digests(fitness_history) -> list[str]:
    """One short digest of the exact fitness vector of each generation."""
    return [
        hashlib.sha256(struct.pack(f"<{len(f)}d", *f)).hexdigest()[:16]
        for f in fitness_history
    ]


def genome_digest(genomes) -> str:
    h = hashlib.sha256()
    for g in genomes:
        h.update(len(g).to_bytes(4, "little"))
        h.update(g)
    return h.hexdigest()[:16]
