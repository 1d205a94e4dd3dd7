"""Fitness problem tests."""

import math

import numpy as np
import pytest

from poolgp.genome import ADD, CONST_BASE, CONSTANTS, DIV, MUL, VAR_X, evaluate
from poolgp.problems import get_problem

C1 = CONST_BASE + CONSTANTS.index(1.0)
C0 = CONST_BASE + CONSTANTS.index(0.0)

# x*(x*(x*(x+1)+1)+1) == x^4 + x^3 + x^2 + x, written in prefix order
PERFECT_QUARTIC = bytes([
    MUL, VAR_X, ADD, MUL, VAR_X, ADD, MUL, VAR_X, ADD, VAR_X, C1, C1, C1,
])


def test_quartic_table_shape():
    p = get_problem("quartic")
    assert p.num_cases == 20
    assert p.inputs[0] == -1.0 and p.inputs[-1] == 1.0
    steps = np.diff(p.inputs)
    assert np.allclose(steps, steps[0])


def test_quartic_targets_are_the_polynomial():
    p = get_problem("quartic")
    want = p.inputs**4 + p.inputs**3 + p.inputs**2 + p.inputs
    assert np.allclose(p.targets, want, atol=1e-12)


def test_perfect_solution_has_zero_fitness():
    p = get_problem("quartic")
    assert p.fitness(PERFECT_QUARTIC, len(PERFECT_QUARTIC)) == 0.0


def test_single_variable_fitness_is_sum_abs_error():
    p = get_problem("quartic")
    want = float(np.sum(np.abs(p.inputs - p.targets)))
    assert p.fitness(bytes([VAR_X]), 1) == pytest.approx(want)


def test_protected_division_keeps_zero_denominators_finite():
    p = get_problem("quartic")
    code = bytes([DIV, C1, C0])  # 1/0 evaluates to 1
    assert p.fitness(code, len(code)) == pytest.approx(
        float(np.sum(np.abs(1.0 - p.targets)))
    )


def test_overflowing_genome_ranks_as_worst_fitness():
    # (1/x)^256 overflows float64 at the grid points nearest zero
    tree = [DIV, C1, VAR_X]
    for _ in range(8):
        tree = [MUL] + tree + tree
    p = get_problem("quartic")
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
    p = get_problem("quartic")
    assert np.isfinite(evaluate(code, len(tree), p.inputs)).all()
    assert p.fitness(code, len(tree)) == math.inf  # RuntimeWarning is an error here


def test_opcode_accounting():
    p = get_problem("quartic")
    assert p.opcodes_per_eval(13) == 13 * 20


def test_unknown_problem_rejected():
    with pytest.raises(ValueError):
        get_problem("nonesuch")
