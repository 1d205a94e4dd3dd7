"""The built-in fitness problem: a fixed training table for symbolic regression."""

from __future__ import annotations

import math
from array import array

from . import genome


def _doubles(values) -> tuple[bytes, tuple]:
    """`values` as native float64 bytes, and their shape.

    A flat list or tuple of numbers converts through array("d"), without
    numpy, to the values numpy.asarray would give; anything else, such as an
    ndarray or a nested list, converts through numpy.asarray.
    """
    if type(values) in (list, tuple):
        try:
            return array("d", values).tobytes(), (len(values),)
        except TypeError:  # a nested list, or an item only numpy converts, such as a str
            pass
    import numpy as np

    a = np.asarray(values, dtype=np.float64)
    return a.tobytes(), a.shape


def _frozen_array(table: memoryview):
    """A read-only float64 ndarray over `table`'s bytes, which no setflags makes writable."""
    import numpy as np

    return np.frombuffer(table, np.float64)


class Problem:
    """A pure fitness evaluator over a fixed table of training cases.

    Fitness is the sum of absolute errors across the table; lower is better.
    Non-finite totals (overflow, nan from wild arithmetic) rank as +inf. It
    scores against its own read-only float64 copies of `inputs` and
    `targets`, both 1-D, of one shape and at least one case; any other table
    is refused here rather than broadcast into a wrong fitness later. The
    copies are `memoryview(bytes).cast("d")` tables, so a problem built from
    flat lists or tuples of numbers, such as QUARTIC, and scored on the
    kernel never imports numpy. `.inputs` and `.targets` are read-only
    float64 ndarrays over the same bytes, built on first access. Problems
    compare and hash by identity.
    """

    __slots__ = ("_x", "_y", "_inputs", "_targets")

    def __init__(self, inputs, targets):
        (x, x_shape), (y, y_shape) = _doubles(inputs), _doubles(targets)
        if len(x_shape) != 1 or not x_shape[0] or y_shape != x_shape:
            raise ValueError(f"need 1-D inputs of at least one case and targets of the same "
                             f"shape, got inputs {x_shape} and targets {y_shape}")
        self._x, self._y = memoryview(x).cast("d"), memoryview(y).cast("d")
        self._inputs = self._targets = None

    def __reduce__(self):  # memoryviews do not pickle: rebuild from the values, to the bit
        return type(self), (self._x.tolist(), self._y.tolist())

    @property
    def inputs(self):
        """The cases' inputs, as a read-only float64 ndarray."""
        if self._inputs is None:
            self._inputs = _frozen_array(self._x)
        return self._inputs

    @property
    def targets(self):
        """The cases' targets, as a read-only float64 ndarray."""
        if self._targets is None:
            self._targets = _frozen_array(self._y)
        return self._targets

    @property
    def num_cases(self) -> int:
        return len(self._x)

    def fitness(self, code, length: int) -> float:
        """The genome's summed absolute error, or +inf when it is not finite.

        The C kernel interprets over the table and sums, to numpy's bits, and
        never warns. Without it, this runs in numpy under the caller's numpy
        error state, like `genome.evaluate`: enter
        `poolgp.float_errors_ignored()` around the calls, since wild arithmetic
        overflows and finite errors can still sum past float64's range.
        """
        pred, native = genome.evaluate(code, length, self._x), genome._native
        if native is not None:
            return native.abs_error(pred, self._y)
        import numpy as np

        err = float(np.add.reduce(abs(np.frombuffer(pred) - self.targets), None))  # as .sum()
        return err if math.isfinite(err) else math.inf

    def opcodes_per_eval(self, length: int) -> int:
        """Opcodes interpreted over the table for `length` cells: one per cell per case.

        Linear in `length`, so the total of many genomes is this of their summed
        lengths; both engines count a generation's opcodes in one call.
        """
        return length * self.num_cases


def _quartic(x: float) -> float:
    """x^4 + x^3 + x^2 + x by Horner's rule, as numpy.polyval((1, 1, 1, 1, 0), x) does it."""
    y = 0.0
    for c in (1.0, 1.0, 1.0, 1.0, 0.0):
        y = y * x + c
    return y


# x^4 + x^3 + x^2 + x on 20 evenly spaced points over [-1, 1], to the bits of
# numpy.linspace(-1, 1, 20): the problem every run scores against unless given another
_xs = tuple(-1.0 + i * (2.0 / 19.0) for i in range(19)) + (1.0,)
QUARTIC = Problem(inputs=_xs, targets=tuple(map(_quartic, _xs)))
