"""The built-in fitness problem: a fixed training table for symbolic regression."""

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

    inputs: np.ndarray
    targets: np.ndarray

    @property
    def num_cases(self) -> int:
        return len(self.inputs)

    def fitness(self, code, length: int) -> float:
        """The genome's summed absolute error, or +inf when it is not finite.

        Runs under the caller's numpy error state, like `genome.evaluate`:
        enter `poolgp.float_errors_ignored()` around the calls, since wild
        arithmetic overflows and finite errors can still sum past float64's
        range.
        """
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
    return Problem(inputs=xs, targets=targets)


QUARTIC = _quartic()  # the problem every run scores against unless given another
