"""Memory-bounded generational genetic programming.

A generational GP engine whose breeding phase never holds more than
popsize + 2 * min(max(1, nthreads), popsize) genome buffers at once, plus a
naive two-population reference engine used as its correctness oracle.
"""

from .engine import EvolutionResult, PooledEngine, RunConfig, run_evolution
from .errors import InvariantError
from .genome import float_errors_ignored
from .metrics import GenerationStats, emit_csv
from .naive import run_evolution_naive
from .problems import QUARTIC, Problem

__all__ = [
    "EvolutionResult",
    "GenerationStats",
    "InvariantError",
    "PooledEngine",
    "Problem",
    "QUARTIC",
    "RunConfig",
    "emit_csv",
    "float_errors_ignored",
    "run_evolution",
    "run_evolution_naive",
]
