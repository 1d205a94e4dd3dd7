"""The built-in fitness problem: a fixed training table for symbolic regression."""

from __future__ import annotations

import math
from array import array
from functools import reduce
from operator import add

from . import genome


def _doubles(values) -> tuple[array, tuple]:
    """`values` as an array("d") of the values numpy.asarray would give, and their shape: a
    list or tuple of numbers through array("d"), a buffer of numbers, such as an ndarray,
    through memoryview. TypeError for items of any other kind, such as a str or a nested
    list; a buffer that is not 1-D gives no items."""
    if type(values) in (list, tuple):
        values = array("d", values)
    with memoryview(values) as view:  # TypeError where values has no buffer
        return array("d", view.tolist() if view.ndim == 1 else ()), view.shape


def _pairwise(d: list) -> float:
    """numpy's pairwise sum of the terms `d`, as _kernel.c's pairwise adds them: 8 running
    sums up to 128 terms, halves above."""
    n = len(d)
    if n > 128:
        half = n // 16 * 8
        return _pairwise(d[:half]) + _pairwise(d[half:])
    whole, res = n // 8 * 8, -0.0
    if n >= 8:
        r = [reduce(add, d[j:whole:8]) for j in range(8)]  # d[j] + d[j + 8] + ..., in order
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    return reduce(add, d[whole:], res)  # then the last n % 8, in order


def python_abs_error(pred, targets) -> float:
    """The kernel's `abs_error` in plain Python, to its bits: the sum of |pred - targets|
    from 0.0 in numpy's pairwise order, or inf where it is not finite."""
    err = 0.0 + _pairwise([abs(p - t) for p, t in zip(pred, targets)])  # 0.0 + -0.0 is 0.0
    return err if math.isfinite(err) else math.inf


class Problem:
    """A pure fitness evaluator over a fixed table of training cases.

    Fitness is the sum of absolute errors across the table; lower is better.
    Non-finite totals (overflow, nan from wild arithmetic) rank as +inf. It
    scores against its own copies of `inputs` and `targets`, flat lists,
    tuples or 1-D buffers of numbers (see `_doubles`), of one length and at
    least one case; any other table is refused here rather than broadcast into
    a wrong fitness later. `inputs` and `targets` are those copies, read-only
    memoryviews of format "d", which `numpy.asarray` reads without a copy.
    Problems compare and hash by identity.
    """

    __slots__ = ("inputs", "targets")

    def __init__(self, inputs, targets):
        (x, x_shape), (y, y_shape) = _doubles(inputs), _doubles(targets)
        if len(x_shape) != 1 or not x_shape[0] or y_shape != x_shape:
            raise ValueError(f"need 1-D inputs of at least one case and targets of the same "
                             f"shape, got inputs {x_shape} and targets {y_shape}")
        self.inputs, self.targets = (memoryview(t.tobytes()).cast("d") for t in (x, y))

    def __reduce__(self):  # memoryviews do not pickle: rebuild from the values, to the bit
        return type(self), (self.inputs.tolist(), self.targets.tolist())

    @property
    def num_cases(self) -> int:
        return len(self.inputs)

    def fitness(self, code, length: int) -> float:
        """The genome's summed absolute error, or +inf when it is not finite.

        The C kernel interprets over the table and sums, to numpy's bits;
        without it, plain Python does both to the same bits. Neither warns,
        however wild the arithmetic or however far past float64's range finite
        errors sum.
        """
        pred, native = genome.evaluate(code, length, self.inputs), genome._native
        return (python_abs_error if native is None else native.abs_error)(pred, self.targets)

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
