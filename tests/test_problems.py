"""Fitness problem tests."""

import copy
import math
import pickle

import numpy as np
import pytest

from poolgp.genome import (
    ADD,
    CONST_BASE,
    CONSTANTS,
    DIV,
    MUL,
    VAR_X,
    evaluate,
)
from poolgp import float_errors_ignored  # public: how a caller scores outside a run
from poolgp.problems import QUARTIC, Problem

C1 = CONST_BASE + CONSTANTS.index(1.0)
C0 = CONST_BASE + CONSTANTS.index(0.0)

# x*(x*(x*(x+1)+1)+1) == x^4 + x^3 + x^2 + x, written in prefix order
PERFECT_QUARTIC = bytes([
    MUL, VAR_X, ADD, MUL, VAR_X, ADD, MUL, VAR_X, ADD, VAR_X, C1, C1, C1,
])


def test_quartic_table_shape():
    p = QUARTIC
    assert p.num_cases == 20
    assert p.inputs[0] == -1.0 and p.inputs[-1] == 1.0
    steps = np.diff(np.asarray(p.inputs))
    assert np.allclose(steps, steps[0])


def test_quartic_table_has_the_bits_of_numpys_linspace_and_polyval():
    # QUARTIC is built from Python floats, without numpy; every run's fitness rests on these bits
    xs = np.linspace(-1.0, 1.0, 20)
    ys = np.polyval((1.0, 1.0, 1.0, 1.0, 0.0), xs)
    assert QUARTIC.inputs.cast("B").cast("q").tolist() == xs.view(np.int64).tolist()
    assert QUARTIC.targets.cast("B").cast("q").tolist() == ys.view(np.int64).tolist()


def test_a_flat_list_table_has_the_bits_of_numpys_conversion():
    # lists, tuples and 1-D buffers of numbers convert without numpy, to what numpy.asarray
    # gives; a table of anything else, such as strings or nested lists, is refused
    values = [1, -0.0, 2 ** 60 + 1, True, 1e-310, math.nan, math.inf, np.float32(0.1)]
    floats = np.asarray(values, dtype=np.float64)
    ints = [0, -3, 2 ** 53 + 1, 2 ** 62 + 2 ** 9 + 1]
    for inputs, want in ((values, floats), (tuple(values), floats), (floats, floats),
                         (floats.astype(np.float32), floats.astype(np.float32)),
                         (floats[::2], floats[::2]), (np.array(ints), np.array(ints))):
        p = Problem(inputs=inputs, targets=list(range(len(inputs))))
        assert p.inputs.cast("B").cast("q").tolist() == (
            np.asarray(want, dtype=np.float64).view(np.int64).tolist()), inputs
        assert p.targets.tolist() == list(map(float, range(len(inputs))))
    for inputs in ([repr(float(v)) for v in values], [[0.0], [1.0]], "0.5", 0.5):
        with pytest.raises(TypeError):
            Problem(inputs=inputs, targets=[0.0, 1.0])
    with pytest.raises(ValueError, match=r"inputs \(2, 1\) and targets \(2,\)"):
        Problem(inputs=np.zeros((2, 1)), targets=[0.0, 1.0])


def test_quartic_targets_are_the_polynomial():
    x = np.asarray(QUARTIC.inputs)
    assert np.allclose(QUARTIC.targets, x**4 + x**3 + x**2 + x, atol=1e-12)


def test_perfect_solution_has_zero_fitness():
    p = QUARTIC
    assert p.fitness(PERFECT_QUARTIC, len(PERFECT_QUARTIC)) == 0.0


def test_single_variable_fitness_is_sum_abs_error():
    p = QUARTIC
    want = float(np.sum(np.abs(np.asarray(p.inputs) - p.targets)))
    assert p.fitness(bytes([VAR_X]), 1) == pytest.approx(want)


def test_protected_division_keeps_zero_denominators_finite():
    p = QUARTIC
    code = bytes([DIV, C1, C0])  # 1/0 evaluates to 1
    assert p.fitness(code, len(code)) == pytest.approx(
        float(np.sum(np.abs(1.0 - np.asarray(p.targets))))
    )


def test_overflowing_genome_ranks_as_worst_fitness():
    # (1/x)^256 overflows float64 at the grid points nearest zero
    tree = [DIV, C1, VAR_X]
    for _ in range(8):
        tree = [MUL] + tree + tree
    p = QUARTIC
    with float_errors_ignored():  # the state a score pass runs under
        assert p.fitness(bytes(tree), len(tree)) == math.inf


def power_of_reciprocal(n):
    """(1/x)^n in prefix order, built by repeated squaring."""
    base = [DIV, C1, VAR_X]
    if n == 1:
        return base
    half = power_of_reciprocal(n // 2)
    square = [MUL] + half + half
    return [MUL] + square + base if n % 2 else square


def test_error_sum_overflow_ranks_as_worst_fitness_without_warning():
    # every prediction of (1/x)^241 is finite (19^241 < 1.8e308 at x = ±1/19),
    # but their absolute errors sum past float64's range
    tree = power_of_reciprocal(241)
    assert len(tree) == 963
    code = bytearray(1024)  # the default buffer_bytes
    code[:len(tree)] = tree
    p = QUARTIC
    with float_errors_ignored():  # RuntimeWarning is an error outside it
        assert np.isfinite(evaluate(code, len(tree), p.inputs)).all()
        assert p.fitness(code, len(tree)) == math.inf


def test_integer_inputs_do_not_truncate_constant_predictions():
    # a constant 0.5 over integer inputs once became np.full_like(int_x, 0.5): zeros
    p = Problem(inputs=np.arange(4), targets=np.full(4, 0.5))
    assert p.fitness(bytes([CONST_BASE + CONSTANTS.index(0.5)]), 1) == 0.0
    assert p.fitness(bytes([VAR_X]), 1) == 0.5 + 0.5 + 1.5 + 2.5


def test_problem_scores_against_its_own_read_only_copies():
    inputs, targets = np.linspace(-1.0, 1.0, 5), np.zeros(5)
    p = Problem(inputs=inputs, targets=targets)
    before = p.fitness(bytes([VAR_X]), 1)
    inputs[:] = 100.0
    targets[:] = -100.0
    assert p.fitness(bytes([VAR_X]), 1) == before == 3.0
    for a in (p.inputs, p.targets):
        assert (a.format, a.ndim, a.readonly) == ("d", 1, True)
        with pytest.raises(TypeError):
            a[0] = 0.0


def test_problems_are_equal_and_hashed_by_identity():
    # a field-wise == would ask numpy for one truth value of two arrays, and hash would hash
    # an ndarray: neither says whether two problems score alike
    twin = Problem(inputs=QUARTIC.inputs, targets=QUARTIC.targets)
    assert QUARTIC == QUARTIC and twin != QUARTIC and hash(QUARTIC) == hash(QUARTIC)
    assert {QUARTIC: "quartic", twin: "twin"}[QUARTIC] == "quartic"


def test_a_problem_pickles_and_copies_to_the_same_bits():
    # a Problem's tables are memoryviews, which do not pickle; it rebuilds from their values
    p = Problem(inputs=np.array([-0.0, 1e-310, math.inf, 0.5]), targets=[1.0, math.nan, 2.0, 3.0])
    for twin in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p), copy.copy(p)):
        assert type(twin) is Problem and twin is not p
        for a, b in ((twin.inputs, p.inputs), (twin.targets, p.targets)):
            assert a.tobytes() == b.tobytes()
        assert twin.fitness(bytes([VAR_X]), 1) == p.fitness(bytes([VAR_X]), 1)


def test_opcode_accounting():
    p = QUARTIC
    assert p.opcodes_per_eval(13) == 13 * 20


@pytest.mark.parametrize("inputs, targets", [
    (np.linspace(-1.0, 1.0, 20), np.zeros((20, 1))),  # was a silent 20 x 20 broadcast
    (np.linspace(-1.0, 1.0, 20), np.zeros(1)),  # broadcast one target to every case
    (np.linspace(-1.0, 1.0, 20), np.zeros(3)),  # failed only at the first fitness call
    (np.zeros((20, 2)), np.zeros((20, 2))),  # opcodes_per_eval counted rows, not cases
    (np.zeros(0), np.zeros(0)),  # no case to score against
])
def test_problem_refuses_a_malformed_table_at_construction(inputs, targets):
    with pytest.raises(ValueError) as info:
        Problem(inputs=inputs, targets=targets)
    assert str(inputs.shape) in str(info.value) and str(targets.shape) in str(info.value)
