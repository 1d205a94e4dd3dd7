"""Genome tests: growth bounds, crossover traces, interpreter vs a reference."""

import math
import random
import subprocess
import sys
import threading
import tracemalloc
import warnings
import weakref
from array import array
from pathlib import Path

import numpy as np
import pytest

from poolgp import _kernel, genome
from poolgp.errors import InvariantError
from poolgp.genome import (
    ADD,
    CONST_BASE,
    CONSTANTS,
    DIV,
    MUL,
    POINTS_PER_CHILD,
    SUB,
    VAR_X,
    float_errors_ignored,
    random_tree,
    subtree_crossover,
    subtree_end,
)
from poolgp.problems import QUARTIC, Problem
from kernel_fuzz import wrong_buffers
from simharness import tree_is_complete, word_for

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


def scalar_array_evaluate(code, length, x):
    """The interpreter before terminal tables, kept as the bit-for-bit oracle.

    Constants stay Python floats, so constant-only subtrees are scalar
    arithmetic, and a constant root is widened to x's shape at the end.
    """
    stack = []
    for op in reversed(code[:length]):
        if op == VAR_X:
            stack.append(x)
        elif op >= CONST_BASE:
            stack.append(CONSTANTS[op - CONST_BASE])
        else:
            a = stack.pop()
            b = stack.pop()
            if op == ADD:
                stack.append(a + b)
            elif op == SUB:
                stack.append(a - b)
            elif op == MUL:
                stack.append(a * b)
            elif b.__class__ is float:
                stack.append(a / b if b != 0 else 1.0)
            else:
                out = a / b
                out[b == 0] = 1.0
                stack.append(out)
    root = stack[0]
    return np.full_like(x, root) if root.__class__ is float else root


def oracle_fitness(code, length, x, targets):
    """Problem.fitness as it was: the oracle's prediction, summed with .sum()."""
    err = float(np.abs(scalar_array_evaluate(code, length, x) - targets).sum())
    return err if math.isfinite(err) else math.inf


def row(result):
    """`evaluate`'s result as a float64 ndarray over its memory, after checking that it is a
    row: a writable, 1-D buffer of format "d", on either path."""
    with memoryview(result) as view:
        assert (view.format, view.ndim, view.readonly) == ("d", 1, False), type(result)
    return np.frombuffer(result)


def same_bits(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def words(*values):
    """One child's crossover words: `values`, the last one repeated to fill the block."""
    return array("I", values + values[-1:] * (POINTS_PER_CHILD - len(values)))


def random_words(rng):
    return array("I", [rng.getrandbits(32) for _ in range(POINTS_PER_CHILD)])


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


def test_random_tree_leaves_no_reference_to_its_buffer():
    # no reference cycle may hold the buffer: it dies on del, without gc.collect()
    class Buffer(bytearray):  # a bytearray takes no weakref; a subclass does
        pass

    buf = Buffer(127)
    n = random_tree(random.Random(4), 7, buf)
    assert n > 1
    alive = weakref.ref(buf)
    del buf
    assert alive() is None


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


def test_subtree_end_walks_arities_in_the_kernel_and_in_python(evaluator):
    # one Python walk on both paths; each path's crossover cuts where it says
    code = bytes([SUB, ADD, VAR_X, C[0.5], VAR_X])
    assert [genome.subtree_end(code, p) for p in range(5)] == [5, 4, 3, 4, 5]
    assert genome.subtree_end(memoryview(bytearray(code))[1:], 0) == 3
    for short in (b"", code[:4], bytearray([ADD, VAR_X])):
        with pytest.raises(IndexError):
            genome.subtree_end(short, 0)
    with pytest.raises(IndexError):
        genome.subtree_end(code, 5)
    child = bytearray(16)
    for p in range(5):
        for q in range(5):
            n = genome.subtree_crossover(code, 5, code, 5, child, 16,
                                         words(word_for(p, 5), word_for(q, 5)))
            expect = (code[:p] + code[q:genome.subtree_end(code, q)]
                      + code[genome.subtree_end(code, p):])
            assert bytes(child[:n]) == expect, (p, q)


def all_subtrees(code, length):
    return {bytes(code[p:subtree_end(code, p)]) for p in range(length)}


def test_crossover_on_terminal_mum_yields_a_dad_subtree():
    mum = bytearray([VAR_X])
    dad = bytearray([ADD, MUL, VAR_X, VAR_X, C[1.0]])
    child = bytearray(8)
    rng = random.Random(5)
    for _ in range(50):
        n = subtree_crossover(mum, 1, dad, 5, child, 8, random_words(rng))
        assert bytes(child[:n]) in all_subtrees(dad, 5)


def test_crossover_same_point_on_same_parent_is_identity():
    tree = bytearray([ADD, MUL, VAR_X, VAR_X, C[1.0]])
    child = bytearray(8)
    n = subtree_crossover(tree, 5, tree, 5, child, 8, words(word_for(1, 5)))
    assert n == 5
    assert child[:5] == tree[:5]


def test_crossover_oversize_every_attempt_falls_back_to_mum():
    mum = bytearray([ADD, VAR_X, C[1.0]])
    dad = bytearray([ADD, MUL, VAR_X, VAR_X, C[1.0]])
    child = bytearray(3)
    # point 0 on both sides every attempt: offspring is all of dad, too big
    n = subtree_crossover(mum, 3, dad, 5, child, 3, words(0))
    assert n == 3
    assert child[:3] == mum[:3]


def test_crossover_point_words_scale_to_root_and_last_node():
    # a left comb (ADD ADD ... x 1 1 ...) ends in a terminal for any odd length
    dad = bytearray([C[0.5]])
    for n in (1, 3, 31, 127, 1023):
        half = n // 2
        mum = bytearray([ADD] * half + [VAR_X] + [C[1.0]] * half)
        child = bytearray(n)
        # word 2**32 - 1 picks the last node: mum's final terminal becomes dad
        assert subtree_crossover(mum, n, dad, 1, child, n, words(2 ** 32 - 1)) == n
        assert child == mum[:-1] + dad
        # word 0 picks the root: the child is all of dad
        assert subtree_crossover(mum, n, dad, 1, child, n, words(0)) == 1
        assert child[:1] == dad
        # the mum word picks the mum point and the dad word the dad point
        assert subtree_crossover(dad, 1, mum, n, child, n, words(0, 2 ** 32 - 1)) == 1
        assert child[:1] == mum[-1:]


def test_crossover_result_always_fits_and_is_complete():
    rng = random.Random(99)
    cap = 31
    for _ in range(300):
        mum, dad = bytearray(cap), bytearray(cap)
        mn = random_tree(rng, 4, mum)
        dn = random_tree(rng, 4, dad)
        child = bytearray(cap)
        n = subtree_crossover(mum, mn, dad, dn, child, cap, random_words(rng))
        assert 1 <= n <= cap
        assert tree_is_complete(child, n)


def test_crossover_reads_parents_only():
    rng = random.Random(2)
    mum = bytearray([ADD, VAR_X, C[1.0]] + [0] * 5)
    dad = bytearray([MUL, VAR_X, VAR_X] + [0] * 5)
    mum_before, dad_before = bytes(mum), bytes(dad)
    child = bytearray(8)
    subtree_crossover(mum, 3, dad, 3, child, 8, random_words(rng))
    assert bytes(mum) == mum_before and bytes(dad) == dad_before


def test_both_crossovers_refuse_bad_input_and_never_resize_the_child(evaluator):
    mum = bytearray([ADD, VAR_X, C[1.0]])
    dad = bytearray([ADD, MUL, VAR_X, VAR_X, C[1.0]])
    cross = genome.subtree_crossover
    assert (cross is genome.python_crossover) == (evaluator == "numpy")
    refused = {
        ValueError: [
            (mum, 3, dad, 5, bytearray(3), 8, words(0)),  # capacity past the child: it would grow
            (mum, 3, dad, 5, bytearray(8), 2, words(0)),  # capacity short of the fallback copy
            (mum, 0, dad, 5, bytearray(8), 8, words(0)),
            (mum, 4, dad, 5, bytearray(8), 8, words(0)),
            (mum, 3, dad, 0, bytearray(8), 8, words(0)),
            (mum, 3, dad, 6, bytearray(8), 8, words(0)),
            (mum, 3, dad, 5, bytearray(8), 8, words(0)[:POINTS_PER_CHILD - 1]),
        ],
        IndexError: [  # the walk from the root leaves the first 2 (then 4) cells
            (mum, 2, dad, 5, bytearray(8), 8, words(0)),
            (mum, 3, dad, 4, bytearray(8), 8, words(0)),
        ],
        TypeError: [  # points that are no aligned, C-contiguous buffer of format "I"
            (mum, 3, dad, 5, bytearray(8), 8, other)
            for other in wrong_buffers("I", POINTS_PER_CHILD, False)
            + [np.zeros(POINTS_PER_CHILD, np.int32)]
        ],
    }
    for error, cases in refused.items():
        for mum_, mum_len, dad_, dad_len, child, capacity, points in cases:
            with pytest.raises(error):
                cross(mum_, mum_len, dad_, dad_len, child, capacity, points)
            assert child == bytes(len(child)), (mum_len, dad_len, capacity)
    rng = random.Random(27)
    for cells in (31, 63, 127):
        for _ in range(200):
            mum, dad, child = bytearray(cells), bytearray(cells), bytearray(cells)
            mn, dn = random_tree(rng, 5, mum), random_tree(rng, 5, dad)
            capacity = rng.randint(mn, cells)
            n = cross(mum, mn, dad, dn, child, capacity, random_words(rng))
            assert len(child) == cells and n <= capacity and tree_is_complete(child, n)


def test_evaluate_hand_cases(evaluator):
    x = np.linspace(-1.0, 1.0, 5)
    got = row(genome.evaluate(bytes([VAR_X]), 1, x))
    assert np.array_equal(got, x)
    got = row(genome.evaluate(bytes([ADD, VAR_X, C[1.0]]), 3, x))
    assert np.array_equal(got, x + 1.0)
    got = row(genome.evaluate(bytes([SUB, C[0.5], VAR_X]), 3, x))
    assert np.array_equal(got, 0.5 - x)
    # protected division: anything over zero evaluates to 1
    got = row(genome.evaluate(bytes([DIV, C[1.0], C[0.0]]), 3, x))
    assert np.array_equal(got, np.ones_like(x))
    got = row(genome.evaluate(bytes([DIV, VAR_X, C[0.5]]), 3, x))
    assert np.array_equal(got, x / 0.5)


def test_evaluate_matches_reference_on_random_trees():
    rng = random.Random(17)
    xs = np.linspace(-1.0, 1.0, 20)
    for _ in range(200):
        buf = bytearray(127)
        n = random_tree(rng, 6, buf)
        with float_errors_ignored():
            got = row(genome.evaluate(buf, n, xs))
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
        with float_errors_ignored():
            got = row(genome.evaluate(buf, n, xs))
        assert got.dtype == np.float64 and got.shape == xs.shape
        for j, x in enumerate(xs):
            want, _ = ref_eval(buf, 0, float(x))
            if math.isnan(want):
                assert math.isnan(got[j])
            else:
                assert float(got[j]).hex() == float(want).hex()


def test_evaluate_constant_only_subtrees(evaluator):
    x = np.linspace(-1.0, 1.0, 5)
    ones = np.ones_like(x)
    # DIV X (SUB 1 1): a constant zero denominator protects every point
    got = row(genome.evaluate(bytes([DIV, VAR_X, SUB, C[1.0], C[1.0]]), 5, x))
    assert np.array_equal(got, ones)
    got = row(genome.evaluate(bytes([DIV, C[1.0], C[0.0]]), 3, x))
    assert np.array_equal(got, ones)
    # MUL -1 0 is -0.0, which protects like 0.0
    got = row(genome.evaluate(bytes([DIV, VAR_X, MUL, C[-1.0], C[0.0]]), 5, x))
    assert np.array_equal(got, ones)
    # constant subtree combined with x keeps its operand order
    got = row(genome.evaluate(bytes([SUB, DIV, C[1.0], C[0.5], VAR_X]), 5, x))
    assert got.tobytes() == (np.full_like(x, 2.0) - x).tobytes()
    got = row(genome.evaluate(bytes([DIV, VAR_X, ADD, C[0.5], C[0.5]]), 5, x))
    assert got.tobytes() == (x / 1.0).tobytes()


def test_evaluate_constant_root_is_array_shaped_like_x():
    # a row of x's size, whatever x's shape: the shape of a 1-D x
    for x in (np.linspace(-1.0, 1.0, 5), np.arange(6.0).reshape(2, 3)):
        for code, value in ((bytes([C[0.5]]), 0.5),
                            (bytes([ADD, C[1.0], C[1.0]]), 2.0),
                            (bytes([DIV, C[-0.5], C[0.0]]), 1.0)):
            got = row(genome.evaluate(code, len(code), x))
            assert got.shape == (x.size,) and not np.shares_memory(got, x)
            assert np.array_equal(got, np.full(x.size, value))


def old_protected_div(a, b):
    """Protected division as it was written before: 1.0 wherever `b != 0` fails."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return np.divide(a, b, out=np.ones_like(b), where=b != 0)


def test_evaluate_array_division_is_bit_exact_with_the_masked_divide(evaluator):
    x1 = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1.0, -2.5, 5e-324, 1e300, -0.5])
    no_zero = np.array([np.nan, np.inf, -np.inf, 1.0, -2.5, 5e-324, 1e300, -0.5, 3.0, -1e-300])
    neg_zero = np.array([-0.0, -1.0, 0.5, -0.0, 2.0, -0.0, 1.0, -3.0, -0.0, 4.0])
    cases = [  # genome, the same operations with the old protected division
        ([DIV, C[0.5], VAR_X], lambda x: old_protected_div(0.5, x)),
        ([DIV, C[-1.0], VAR_X], lambda x: old_protected_div(-1.0, x)),
        ([DIV, VAR_X, VAR_X], lambda x: old_protected_div(x, x)),
        ([DIV, ADD, VAR_X, VAR_X, VAR_X], lambda x: old_protected_div(x + x, x)),
        ([DIV, VAR_X, MUL, VAR_X, VAR_X], lambda x: old_protected_div(x, x * x)),
        ([DIV, SUB, C[0.0], VAR_X, MUL, VAR_X, C[0.0]],
         lambda x: old_protected_div(0.0 - x, x * 0.0)),
        # denominators that are zero only through arithmetic
        ([DIV, C[1.0], SUB, VAR_X, VAR_X], lambda x: old_protected_div(1.0, x - x)),
        ([DIV, VAR_X, MUL, VAR_X, C[0.0]], lambda x: old_protected_div(x, x * 0.0)),
        # a signed-zero denominator: (-1 * 0) * x is -0.0 wherever x > 0
        ([DIV, VAR_X, MUL, MUL, C[-1.0], C[0.0], VAR_X],
         lambda x: old_protected_div(x, -0.0 * x)),
    ]
    # no_zero leaves nothing to mask on a bare-x denominator; neg_zero's only zeros are -0.0
    for x in (x1, x1.reshape(2, 5), no_zero, neg_zero):
        for code, ref in cases:
            with float_errors_ignored():
                got = row(genome.evaluate(bytes(code), len(code), x))
            with np.errstate(over="ignore", invalid="ignore"):
                want = ref(x).reshape(-1)  # a row of one value per item of x
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
            with float_errors_ignored():  # numpy's error state is per thread
                for code in genomes:
                    genome.evaluate(bytes(code), len(code), x)
        except RuntimeWarning as exc:
            caught.append(exc)

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        run_all()
        worker = threading.Thread(target=run_all)  # enters the state itself
        worker.start()
        worker.join(timeout=30)
    assert not worker.is_alive()
    assert caught == []
    with float_errors_ignored():
        got = row(genome.evaluate(bytes(genomes[0]), 3, x))
    assert got[0] == got[1] == math.inf


SPECIAL_X = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e300, -1e300,
                      1.0, -1.0, 0.5, -0.5, 0.25, 3.0, -2.0])


def test_evaluate_and_fitness_are_bit_identical_to_the_scalar_array_oracle(evaluator):
    # every node is array arithmetic over the terminal vectors; the oracle did
    # scalar arithmetic on constant-only subtrees and masked x/0 after dividing
    finite = SPECIAL_X[np.isfinite(SPECIAL_X)]
    buf = bytearray(127)
    for x in (SPECIAL_X, finite, np.linspace(-1.0, 1.0, 20)):
        p = Problem(inputs=x, targets=np.linspace(-2.0, 2.0, x.size))
        rng = random.Random(2024)
        with float_errors_ignored():
            for i in range(2000):
                n = random_tree(rng, 1 + i % 7, buf)
                want = scalar_array_evaluate(buf, n, p.inputs)
                assert same_bits(genome.evaluate(buf, n, p.inputs), want), bytes(buf[:n])
                got = p.fitness(buf, n)
                assert same_bits(got, oracle_fitness(buf, n, p.inputs, p.targets))


TABLE_GENOMES = [  # a terminal, a pair, and deeper trees over both
    [VAR_X], [C[0.5]], [ADD, VAR_X, C[1.0]], [DIV, VAR_X, VAR_X],
    [MUL, ADD, VAR_X, C[0.5], SUB, VAR_X, VAR_X],
    [DIV, C[1.0], ADD, VAR_X, MUL, VAR_X, C[-0.5]],
]


def assert_matches_oracle(x):
    """Every TABLE_GENOMES result over x equals the oracle's over a fresh copy of x."""
    fresh = x.copy()
    with float_errors_ignored():
        for code in TABLE_GENOMES:
            got = genome.evaluate(bytes(code), len(code), x)
            assert same_bits(got, scalar_array_evaluate(bytes(code), len(code), fresh)), code


def test_evaluate_sees_writes_into_a_writable_x():
    x = np.linspace(-1.0, 1.0, 9)
    assert_matches_oracle(x)
    x[3] = 7.0  # same array object, new content
    x *= -1.0
    assert_matches_oracle(x)


def test_evaluate_sees_writes_into_a_once_read_only_x():
    # the read-only flag is no promise: setflags(write=True) takes it back
    x = np.linspace(-1.0, 1.0, 9)
    x.setflags(write=False)
    assert_matches_oracle(x)
    x.setflags(write=True)
    x[:] = np.arange(9.0)
    assert_matches_oracle(x)


def test_no_write_into_a_result_reaches_x_or_a_later_result(evaluator):
    # every result, on either path, whatever the root and x's shape, is the caller's own row;
    # the kernel's stack points at x and at each constant's row, so none of them is written
    line = np.linspace(-1.0, 1.0, 6)
    # constant, pair, variable and constants-only roots, and a 0-d x
    for x, code in ((line, [C[0.5]]), (line, [ADD, VAR_X, C[1.0]]), (line, [VAR_X]),
                    (line, [MUL, ADD, C[0.5], C[0.5], SUB, C[0.5], C[-1.0]]),
                    (np.array(0.5), [ADD, VAR_X, VAR_X])):
        x_bytes = x.tobytes()
        got = row(genome.evaluate(bytes(code), len(code), x))
        want = got.copy()
        assert got.shape == (x.size,) and not np.shares_memory(got, x), code
        got[...] = 5.0
        assert x.tobytes() == x_bytes
        assert same_bits(genome.evaluate(bytes(code), len(code), x), want)
    assert_matches_oracle(line)


def test_kernel_and_numpy_paths_give_the_same_bits(monkeypatch):
    rng = random.Random(31)
    buf = bytearray(127)
    for x in (SPECIAL_X, SPECIAL_X.reshape(4, 4), np.linspace(-1.0, 1.0, 20), np.array(0.5),
              memoryview(np.linspace(-1.0, 1.0, 40).tobytes()).cast("d")):
        with float_errors_ignored():
            for i in range(500):
                n = random_tree(rng, 1 + i % 7, buf)
                got = row(genome.evaluate(buf, n, x))
                with monkeypatch.context() as m:
                    m.setattr(genome, "_native", None)
                    want = row(genome.evaluate(buf, n, x))
                assert got.size == len(x.tobytes()) // 8 and same_bits(got, want), bytes(buf[:n])


def test_evaluate_keeps_nothing_of_its_input_between_calls(evaluator):
    # a copy of x kept past the call would hold 800 KB; the constant vectors
    # are broadcast scalars
    x = np.random.default_rng(5).standard_normal(10 ** 5)
    x[::97] = 0.0
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert_matches_oracle(x)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 2 ** 16


def test_threads_over_different_inputs_each_get_their_own_bits():
    # threads that interleave over different inputs must never compute with
    # each other's vectors. More threads than cores, a common start, and 900
    # cases, at which numpy releases the interpreter lock inside each array
    # operation. The short switch interval does not make switches frequent
    # (the lock still changes hands about once per 10 ms)
    rng = random.Random(8)
    trees = []
    for _ in range(30):
        buf = bytearray(63)
        trees.append(bytes(buf[:random_tree(rng, 5, buf)]))
    inputs = [np.linspace(-1.0, 1.0, 900) * k for k in (1.0, 2.0, -3.0, 0.5)]

    def bits(x):
        with float_errors_ignored():  # numpy's error state is per thread
            return [row(genome.evaluate(t, len(t), x)).tobytes() for t in trees]

    want = [bits(x) for x in inputs]
    got = [[] for _ in inputs]
    start = threading.Barrier(len(inputs))

    def run(i):
        start.wait(timeout=30)
        for _ in range(5):
            got[i].append(bits(inputs[i]))

    workers = [threading.Thread(target=run, args=(i,)) for i in range(len(inputs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert got == [[w] * 5 for w in want]


def test_evaluate_rejects_length_outside_buffer():
    x = np.zeros(3)
    for length in (-1, 4):
        with pytest.raises(InvariantError):
            genome.evaluate(bytes([ADD, VAR_X, VAR_X]), length, x)


# a variable, a constant, and function roots over each
INPUT_CODES = ([VAR_X], [C[0.5]], [ADD, VAR_X, C[1.0]], [MUL, VAR_X, SUB, VAR_X, C[-0.5]],
               [DIV, C[1.0], C[0.0]], [DIV, C[1.0], VAR_X])


def test_evaluate_takes_only_an_aligned_contiguous_float64_buffer(evaluator):
    # both paths read x in place where it is an aligned, C-contiguous buffer of format "d",
    # of any type and shape, and give the caller a row of its own; they refuse any other x
    # alike, however numpy would convert it
    line = np.linspace(-1.0, 1.0, 12)
    for x in (line, line.reshape(3, 4), np.array(0.25), array("d", line), QUARTIC._x,
              memoryview(line.tobytes()).cast("d")):
        x_bytes, flat = bytes(x), np.frombuffer(bytes(x))
        for code in INPUT_CODES:
            with float_errors_ignored():
                got = row(genome.evaluate(bytes(code), len(code), x))
                want = scalar_array_evaluate(code, len(code), flat)
            assert not np.shares_memory(got, np.frombuffer(x)), (x, code)
            assert same_bits(got, want), (x, code)
        assert bytes(x) == x_bytes
    for x in (*wrong_buffers("d", 12, False), line.astype(np.float32), np.zeros((12, 2))[:, 0],
              line.astype(">f8"), line.tolist(), np.array(0.25, np.float32)):
        for code in INPUT_CODES:
            with pytest.raises(TypeError):
                genome.evaluate(bytes(code), len(code), x)
    # however far outside the code, a length is refused with the one message of both paths
    for length in (-1, 4, 2 ** 70, -(2 ** 70)):
        for x in (line, QUARTIC._x):
            with pytest.raises(InvariantError) as refused:
                genome.evaluate(bytes([ADD, VAR_X, VAR_X]), length, x)
            assert str(refused.value) == _kernel.ERRORS[5], length


# malformed twice over: an opcode past the last terminal, and more values than fit
PAST_CAP_THEN_BAD_OPCODE = [C[-1.0], 0x0b, VAR_X, C[0.0], C[0.5], C[0.5]]  # 05 0b 04 07 08 08
MALFORMED = [  # incomplete, a function short of operands, an opcode past the last terminal
    [], [VAR_X, VAR_X], [ADD, VAR_X, VAR_X, C[1.0]], [ADD], [ADD, VAR_X], [SUB, ADD, VAR_X, C[0.5]],
    [200], [ADD, VAR_X, CONST_BASE + len(CONSTANTS)], [255, VAR_X, VAR_X],
    PAST_CAP_THEN_BAD_OPCODE,
]


def test_every_malformed_genome_raises_invariant_error(evaluator):
    for x in (np.linspace(-1.0, 1.0, 20), np.zeros(0), np.zeros(3)):
        for code in MALFORMED:
            buf = bytearray(code) + bytes(8)  # cells past the length are never read
            with pytest.raises(InvariantError):
                genome.evaluate(buf, len(code), x)
        # right to left, the fourth push passes cap = 3 before opcode 0x0b is read: both
        # paths name that fault
        with pytest.raises(InvariantError, match=_kernel.ERRORS[3]):
            genome.evaluate(bytes(PAST_CAP_THEN_BAD_OPCODE), 6, x)


def test_incomplete_encoding_raises_under_python_optimize():
    src = Path(genome.__file__).resolve().parents[1]
    script = (
        "import sys, numpy as np\n"
        "from poolgp import genome\n"
        "from poolgp.errors import InvariantError\n"
        "if not sys.flags.optimize:\n"
        "    sys.exit(2)\n"
        "try:\n"
        "    genome.evaluate(bytes([genome.ADD, genome.VAR_X]), 2, np.zeros(3))\n"
        "    sys.exit(5)\n"
        "except InvariantError:\n"
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
