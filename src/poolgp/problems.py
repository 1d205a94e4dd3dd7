"""Built-in fitness problems: fixed training tables for symbolic regression."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import genome


@dataclass(frozen=True)
class Problem:
    """A pure fitness evaluator over a fixed table of training cases.

    Fitness is the sum of absolute errors across the table; lower is better.
    Non-finite totals (overflow, nan from wild arithmetic) rank as +inf.
    """

    name: str
    inputs: np.ndarray
    targets: np.ndarray

    @property
    def num_cases(self) -> int:
        return len(self.inputs)

    @np.errstate(over="ignore")  # finite errors can still sum past float64's range
    def fitness(self, code, length: int) -> float:
        pred = genome.evaluate(code, length, self.inputs)
        err = float(np.abs(pred - self.targets).sum())
        return err if math.isfinite(err) else math.inf

    def opcodes_per_eval(self, length: int) -> int:
        # one opcode per node visit per training case
        return length * self.num_cases


def _quartic() -> Problem:
    # x^4 + x^3 + x^2 + x on 20 evenly spaced points over [-1, 1]
    xs = np.linspace(-1.0, 1.0, 20)
    targets = np.polyval((1.0, 1.0, 1.0, 1.0, 0.0), xs)
    xs.setflags(write=False)
    targets.setflags(write=False)
    return Problem(name="quartic", inputs=xs, targets=targets)


PROBLEMS: dict[str, Problem] = {p.name: p for p in (_quartic(),)}


def get_problem(name: str) -> Problem:
    try:
        return PROBLEMS[name]
    except KeyError:
        raise ValueError(
            f"unknown problem {name!r}; available: {sorted(PROBLEMS)}"
        ) from None
