"""The built-in fitness problem: a fixed training table for symbolic regression."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import genome


@dataclass(frozen=True, eq=False)  # equal and hashed by identity: arrays have no truth value
class Problem:
    """A pure fitness evaluator over a fixed table of training cases.

    Fitness is the sum of absolute errors across the table; lower is better.
    Non-finite totals (overflow, nan from wild arithmetic) rank as +inf. It
    scores against read-only float64 copies of `inputs` and `targets`, both
    1-D, of one shape and at least one case; any other table is refused
    here rather than broadcast into a wrong fitness later.
    """

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):  # a frozen dataclass: set the copies through object
        inputs, targets = genome.frozen(self.inputs), genome.frozen(self.targets)
        if inputs.ndim != 1 or not inputs.size or targets.shape != inputs.shape:
            raise ValueError(f"need 1-D inputs of at least one case and targets of the same "
                             f"shape, got inputs {inputs.shape} and targets {targets.shape}")
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "targets", targets)

    @property
    def num_cases(self) -> int:
        return len(self.inputs)

    def fitness(self, code, length: int) -> float:
        """The genome's summed absolute error, or +inf when it is not finite.

        The C kernel never warns. Without it, this runs under the caller's
        numpy error state, like `genome.evaluate`: enter
        `poolgp.float_errors_ignored()` around the calls, since wild arithmetic
        overflows and finite errors can still sum past float64's range.
        """
        pred = genome.evaluate(code, length, self.inputs)
        if genome._native is not None:  # the kernel sums in C, to numpy's bits
            return genome._native.abs_error(pred, self.targets)
        err = float(np.add.reduce(abs(pred - self.targets), None))  # axis None, as .sum()
        return err if math.isfinite(err) else math.inf

    def opcodes_per_eval(self, length: int) -> int:
        """Opcodes interpreted over the table for `length` cells: one per cell per case.

        Linear in `length`, so the total of many genomes is this of their summed
        lengths; both engines count a generation's opcodes in one call.
        """
        return length * self.num_cases


# x^4 + x^3 + x^2 + x on 20 evenly spaced points over [-1, 1]: the problem
# every run scores against unless given another
_xs = np.linspace(-1.0, 1.0, 20)
QUARTIC = Problem(inputs=_xs, targets=np.polyval((1.0, 1.0, 1.0, 1.0, 0.0), _xs))
