"""Memory-bounded generational genetic programming.

A generational GP engine whose breeding phase never holds more than
popsize + 2 * min(max(1, nthreads), popsize) genome buffers at once, plus a
naive two-population reference engine used as its correctness oracle.
"""

from .breeding_plan import BreedingPlan, SelectionOutcome
from .engine import (
    EvolutionResult,
    Individual,
    PooledEngine,
    RunConfig,
    run_evolution,
)
from .errors import InvariantError
from .expr_pool import BufferPool, PoolExhaustedError
from .metrics import GenerationStats, emit_csv
from .naive import NaiveEngine, run_evolution_naive
from .problems import PROBLEMS, Problem, get_problem

__all__ = [
    "BreedingPlan",
    "BufferPool",
    "EvolutionResult",
    "GenerationStats",
    "Individual",
    "InvariantError",
    "NaiveEngine",
    "PROBLEMS",
    "PoolExhaustedError",
    "PooledEngine",
    "Problem",
    "RunConfig",
    "SelectionOutcome",
    "emit_csv",
    "get_problem",
    "run_evolution",
    "run_evolution_naive",
]
