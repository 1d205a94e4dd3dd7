"""Genome tests: growth bounds, crossover traces, interpreter vs a reference."""

import math
import random
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from poolgp import genome
from poolgp.errors import InvariantError
from poolgp.genome import (
    ADD,
    CONST_BASE,
    CONSTANTS,
    DIV,
    MUL,
    SUB,
    VAR_X,
    random_tree,
    subtree_crossover,
    subtree_end,
)
from simharness import tree_is_complete

C = {v: CONST_BASE + i for i, v in enumerate(CONSTANTS)}  # constant value -> opcode


def ref_eval(code, pos, x):
    """Recursive single-case evaluator, independent of the production stack walk."""
    op = code[pos]
    if op == VAR_X:
        return x, pos + 1
    if op >= CONST_BASE:
        return CONSTANTS[op - CONST_BASE], pos + 1
    a, pos = ref_eval(code, pos + 1, x)
    b, pos = ref_eval(code, pos, x)
    if op == ADD:
        return a + b, pos
    if op == SUB:
        return a - b, pos
    if op == MUL:
        return a * b, pos
    return (1.0 if b == 0 else a / b), pos


class FixedRng:
    """randrange stub returning a fixed value (clamped into range)."""

    def __init__(self, value=0):
        self.value = value

    def randrange(self, n):
        return min(self.value, n - 1)


def test_depth_one_tree_is_a_single_terminal():
    buf = bytearray(8)
    n = random_tree(random.Random(0), 1, buf)
    assert n == 1
    assert buf[0] in genome.TERMINALS


def test_depth_limit_bounds_size():
    for seed in range(50):
        buf = bytearray(16)
        n = random_tree(random.Random(seed), 3, buf)
        assert 1 <= n <= 7
        assert tree_is_complete(buf, n)


def test_random_tree_deterministic_for_fixed_seed():
    a, b = bytearray(64), bytearray(64)
    na = random_tree(random.Random(123), 5, a)
    nb = random_tree(random.Random(123), 5, b)
    assert na == nb and a[:na] == b[:nb]


def test_subtree_end_walks_arities():
    # SUB (ADD x 0.5) x
    code = bytes([SUB, ADD, VAR_X, C[0.5], VAR_X])
    assert subtree_end(code, 0) == 5
    assert subtree_end(code, 1) == 4
    assert subtree_end(code, 2) == 3
    assert subtree_end(code, 4) == 5
    assert tree_is_complete(code, 5)
    assert not tree_is_complete(code, 4)


def all_subtrees(code, length):
    return {bytes(code[p:subtree_end(code, p)]) for p in range(length)}


def test_crossover_on_terminal_mum_yields_a_dad_subtree():
    mum = bytearray([VAR_X])
    dad = bytearray([ADD, MUL, VAR_X, VAR_X, C[1.0]])
    child = bytearray(8)
    rng = random.Random(5)
    for _ in range(50):
        n = subtree_crossover(mum, 1, dad, 5, child, 8, rng)
        assert bytes(child[:n]) in all_subtrees(dad, 5)


def test_crossover_same_point_on_same_parent_is_identity():
    tree = bytearray([ADD, MUL, VAR_X, VAR_X, C[1.0]])
    child = bytearray(8)
    n = subtree_crossover(tree, 5, tree, 5, child, 8, FixedRng(1))
    assert n == 5
    assert child[:5] == tree[:5]


def test_crossover_oversize_every_attempt_falls_back_to_mum():
    mum = bytearray([ADD, VAR_X, C[1.0]])
    dad = bytearray([ADD, MUL, VAR_X, VAR_X, C[1.0]])
    child = bytearray(3)
    # point 0 on both sides every attempt: offspring is all of dad, too big
    n = subtree_crossover(mum, 3, dad, 5, child, 3, FixedRng(0))
    assert n == 3
    assert child[:3] == mum[:3]


def test_crossover_result_always_fits_and_is_complete():
    rng = random.Random(99)
    cap = 31
    for _ in range(300):
        mum, dad = bytearray(cap), bytearray(cap)
        mn = random_tree(rng, 4, mum)
        dn = random_tree(rng, 4, dad)
        child = bytearray(cap)
        n = subtree_crossover(mum, mn, dad, dn, child, cap, rng)
        assert 1 <= n <= cap
        assert tree_is_complete(child, n)


def test_crossover_reads_parents_only():
    rng = random.Random(2)
    mum = bytearray([ADD, VAR_X, C[1.0]] + [0] * 5)
    dad = bytearray([MUL, VAR_X, VAR_X] + [0] * 5)
    mum_before, dad_before = bytes(mum), bytes(dad)
    child = bytearray(8)
    subtree_crossover(mum, 3, dad, 3, child, 8, rng)
    assert bytes(mum) == mum_before and bytes(dad) == dad_before


def test_evaluate_hand_cases():
    x = np.linspace(-1.0, 1.0, 5)
    got = genome.evaluate(bytes([VAR_X]), 1, x)
    assert np.array_equal(got, x)
    got = genome.evaluate(bytes([ADD, VAR_X, C[1.0]]), 3, x)
    assert np.array_equal(got, x + 1.0)
    got = genome.evaluate(bytes([SUB, C[0.5], VAR_X]), 3, x)
    assert np.array_equal(got, 0.5 - x)
    # protected division: anything over zero evaluates to 1
    got = genome.evaluate(bytes([DIV, C[1.0], C[0.0]]), 3, x)
    assert np.array_equal(got, np.ones_like(x))
    got = genome.evaluate(bytes([DIV, VAR_X, C[0.5]]), 3, x)
    assert np.array_equal(got, x / 0.5)


def test_evaluate_matches_reference_on_random_trees():
    rng = random.Random(17)
    xs = np.linspace(-1.0, 1.0, 20)
    for _ in range(200):
        buf = bytearray(127)
        n = random_tree(rng, 6, buf)
        got = genome.evaluate(buf, n, xs)
        for j, x in enumerate(xs):
            want, end = ref_eval(buf, 0, float(x))
            assert end == n
            if math.isnan(want):
                assert math.isnan(got[j])
            else:
                assert got[j] == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_evaluate_is_bit_exact_against_reference():
    # zeros of both signs in x make DIV-by-x hit the protected branch
    rng = random.Random(23)
    xs = np.array([-1.0, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0, 3.0])
    for _ in range(300):
        buf = bytearray(127)
        n = random_tree(rng, rng.randrange(1, 8), buf)
        got = genome.evaluate(buf, n, xs)
        assert got.dtype == np.float64 and got.shape == xs.shape
        for j, x in enumerate(xs):
            want, _ = ref_eval(buf, 0, float(x))
            if math.isnan(want):
                assert math.isnan(got[j])
            else:
                assert float(got[j]).hex() == float(want).hex()


def test_evaluate_constant_only_subtrees():
    x = np.linspace(-1.0, 1.0, 5)
    ones = np.ones_like(x)
    # DIV X (SUB 1 1): a constant zero denominator protects every point
    got = genome.evaluate(bytes([DIV, VAR_X, SUB, C[1.0], C[1.0]]), 5, x)
    assert np.array_equal(got, ones)
    got = genome.evaluate(bytes([DIV, C[1.0], C[0.0]]), 3, x)
    assert np.array_equal(got, ones)
    # MUL -1 0 is -0.0, which protects like 0.0
    got = genome.evaluate(bytes([DIV, VAR_X, MUL, C[-1.0], C[0.0]]), 5, x)
    assert np.array_equal(got, ones)
    # constant subtree combined with x keeps its operand order
    got = genome.evaluate(bytes([SUB, DIV, C[1.0], C[0.5], VAR_X]), 5, x)
    assert got.tobytes() == (np.full_like(x, 2.0) - x).tobytes()
    got = genome.evaluate(bytes([DIV, VAR_X, ADD, C[0.5], C[0.5]]), 5, x)
    assert got.tobytes() == (x / 1.0).tobytes()


def test_evaluate_constant_root_is_array_shaped_like_x():
    for x in (np.linspace(-1.0, 1.0, 5), np.arange(6.0).reshape(2, 3)):
        for code, value in ((bytes([C[0.5]]), 0.5),
                            (bytes([ADD, C[1.0], C[1.0]]), 2.0),
                            (bytes([DIV, C[-0.5], C[0.0]]), 1.0)):
            got = genome.evaluate(code, len(code), x)
            assert isinstance(got, np.ndarray) and got is not x
            assert got.dtype == np.float64 and got.shape == x.shape
            assert np.array_equal(got, np.full(x.shape, value))


def old_protected_div(a, b):
    """Protected division as it was written before: 1.0 wherever `b != 0` fails."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return np.divide(a, b, out=np.ones_like(b), where=b != 0)


def test_evaluate_array_division_is_bit_exact_with_the_masked_divide():
    x1 = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1.0, -2.5, 5e-324, 1e300, -0.5])
    cases = [  # genome, the same operations with the old protected division
        ([DIV, C[0.5], VAR_X], lambda x: old_protected_div(0.5, x)),
        ([DIV, C[-1.0], VAR_X], lambda x: old_protected_div(-1.0, x)),
        ([DIV, VAR_X, VAR_X], lambda x: old_protected_div(x, x)),
        ([DIV, ADD, VAR_X, VAR_X, VAR_X], lambda x: old_protected_div(x + x, x)),
        ([DIV, VAR_X, MUL, VAR_X, VAR_X], lambda x: old_protected_div(x, x * x)),
        ([DIV, SUB, C[0.0], VAR_X, MUL, VAR_X, C[0.0]],
         lambda x: old_protected_div(0.0 - x, x * 0.0)),
    ]
    for x in (x1, x1.reshape(2, 5)):
        for code, ref in cases:
            got = genome.evaluate(bytes(code), len(code), x)
            with np.errstate(over="ignore", invalid="ignore"):
                want = ref(x)
            assert got.shape == x.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), code


def test_evaluate_overflow_emits_no_runtime_warning():
    x = np.array([1e200, -1e200, 0.0])
    genomes = [
        [MUL, VAR_X, VAR_X],  # overflow
        [DIV, VAR_X, DIV, C[0.5], VAR_X],  # overflow and x/0
        [SUB, MUL, VAR_X, VAR_X, MUL, VAR_X, VAR_X],  # inf - inf
        [DIV, MUL, VAR_X, VAR_X, MUL, VAR_X, VAR_X],  # inf / inf
    ]
    caught = []

    def run_all():
        try:
            for code in genomes:
                genome.evaluate(bytes(code), len(code), x)
        except RuntimeWarning as exc:
            caught.append(exc)

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        run_all()
        worker = threading.Thread(target=run_all)  # numpy's error state is per thread
        worker.start()
        worker.join(timeout=30)
    assert not worker.is_alive()
    assert caught == []
    got = genome.evaluate(bytes(genomes[0]), 3, x)
    assert got[0] == got[1] == math.inf


def test_evaluate_rejects_length_outside_buffer():
    x = np.zeros(3)
    for length in (-1, 4):
        with pytest.raises(InvariantError):
            genome.evaluate(bytes([ADD, VAR_X, VAR_X]), length, x)


def test_incomplete_encoding_raises_under_python_optimize():
    src = Path(genome.__file__).resolve().parents[1]
    script = (
        "import random, sys, numpy as np\n"
        "from poolgp import genome\n"
        "from poolgp.errors import InvariantError\n"
        "if not sys.flags.optimize:\n"
        "    sys.exit(2)\n"
        "try:\n"
        "    genome.random_tree(random.Random(1), 0, bytearray(8))\n"
        "    sys.exit(4)\n"
        "except ValueError:\n"
        "    pass\n"
        "try:\n"
        "    genome.evaluate(bytes([genome.VAR_X, genome.VAR_X]), 2, np.zeros(3))\n"
        "except InvariantError:\n"
        "    sys.exit(0)\n"
        "sys.exit(3)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script], cwd=src,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
