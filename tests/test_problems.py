"""Fitness problem tests."""

import math

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
    steps = np.diff(p.inputs)
    assert np.allclose(steps, steps[0])


def test_quartic_targets_are_the_polynomial():
    p = QUARTIC
    want = p.inputs**4 + p.inputs**3 + p.inputs**2 + p.inputs
    assert np.allclose(p.targets, want, atol=1e-12)


def test_perfect_solution_has_zero_fitness():
    p = QUARTIC
    assert p.fitness(PERFECT_QUARTIC, len(PERFECT_QUARTIC)) == 0.0


def test_single_variable_fitness_is_sum_abs_error():
    p = QUARTIC
    want = float(np.sum(np.abs(p.inputs - p.targets)))
    assert p.fitness(bytes([VAR_X]), 1) == pytest.approx(want)


def test_protected_division_keeps_zero_denominators_finite():
    p = QUARTIC
    code = bytes([DIV, C1, C0])  # 1/0 evaluates to 1
    assert p.fitness(code, len(code)) == pytest.approx(
        float(np.sum(np.abs(1.0 - p.targets)))
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
        assert a.dtype == np.float64
        with pytest.raises(ValueError):
            a.setflags(write=True)


def test_opcode_accounting():
    p = QUARTIC
    assert p.opcodes_per_eval(13) == 13 * 20
