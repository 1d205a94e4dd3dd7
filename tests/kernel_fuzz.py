"""A seeded differential fuzz of the C kernel against the Python code it stands in for.

`check_all(kernel, seed)` drives a loaded kernel module's five functions:

* `evaluate` against `genome._interpret` on random byte genomes (every opcode,
  and some past the last terminal) over 0-6 cases of special values, and on
  value stacks of `cap * n` just below, at and just above `_kernel.ON_STACK`
  doubles, so that both the on-stack and the malloc branch run to their last
  double. Both must name the same fault or give the same bits;
* `subtree_end` against `genome.arity_walk`, past either end of the code too;
* `tournaments` against `engine.rank_tournaments`, with ties, NaN and inf;
* `crossover` against `genome.python_crossover`: the same length or
  exception class, the same child bytes, and a child never resized;
* and the refusals of malformed arguments.

tests/test_kernel.py runs it over the cached kernel, and in a subprocess over
a kernel built with AddressSanitizer and UBSan, as

    python tests/kernel_fuzz.py KERNEL.so

which loads the module in KERNEL.so and exits 0 only when every check held.
"""

from __future__ import annotations

import math
import random
from array import array
import shlex
import subprocess
import sys
import sysconfig

import numpy as np

from poolgp import _kernel, genome
from poolgp.engine import rank_tournaments
from poolgp.errors import InvariantError
from poolgp.genome import (
    CONSTANTS,
    CROSSOVER_ATTEMPTS,
    FUNCTIONS,
    POINTS_PER_CHILD,
    TERMINALS,
    float_errors_ignored,
    random_tree,
)

END = TERMINALS[-1] + 1  # the first opcode past the last terminal
OPCODES = tuple(range(END + 2)) + (255,)
SPECIAL = (0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e-310, 1e300, -1e300,
           0.5, -1.5)
FITNESSES = (0.0, -0.0, 1.0, 1.0, 2.5, math.inf, -math.inf, math.nan)


def build(path, *flags) -> subprocess.CompletedProcess:
    """Compile _kernel.c as `load` does, then with `flags`, into `path`."""
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    include = sysconfig.get_paths()["include"]
    return subprocess.run([*cc, *_kernel.FLAGS, *_kernel.defines(CONSTANTS, CROSSOVER_ATTEMPTS),
                           *flags, f"-I{include}", "-o", str(path), str(_kernel.SOURCE)],
                          text=True, capture_output=True, timeout=120)


def kernel_outcome(kernel, code, length, x):
    """The fault's name, or the result's bits."""
    out = np.empty(x.shape)
    status = kernel.evaluate(code, length, x, out)
    if status not in (0, *_kernel.ERRORS):
        raise AssertionError(f"status {status}")
    return _kernel.ERRORS[status] if status else out.view(np.int64).tolist()


def numpy_outcome(code, length, x):
    try:
        with float_errors_ignored():
            result = genome._interpret(code, length, x)
    except InvariantError as fault:
        return str(fault)
    return np.ascontiguousarray(result, dtype=np.float64).view(np.int64).tolist()


def random_genome(rng) -> bytes:
    """A grown tree, one with a cell changed, one cut short, or random bytes: 0-40 cells."""
    kind = rng.randrange(4)
    if kind == 3:
        return bytes(rng.choice(OPCODES) for _ in range(rng.randrange(41)))
    buf = bytearray(31)
    code = buf[:random_tree(rng, rng.randint(1, 5), buf)]
    if kind == 1:
        code[rng.randrange(len(code))] = rng.choice(OPCODES)
    elif kind == 2:
        del code[rng.randrange(len(code)):]
    return bytes(code)


def stack_edges(rng):
    """(genome, n): stacks of cap * n doubles around ON_STACK, filled to their last value.

    Each complete genome pushes cap values before its first function node pops
    any; the same genome with one more terminal must be refused before its
    push past cap.
    """
    for cells in (_kernel.ON_STACK - 1, _kernel.ON_STACK, _kernel.ON_STACK + 1):
        for n in (n for n in range(1, 7) if cells % n == 0):
            cap = cells // n
            functions = bytes(rng.choice(FUNCTIONS) for _ in range(cap - 1))
            terminals = bytes(rng.choice(TERMINALS) for _ in range(cap))
            yield functions + terminals, n
            yield functions + terminals + terminals[:1], n


def fuzz_evaluate(kernel, rng, count: int) -> None:
    cases = [(random_genome(rng), rng.randrange(7)) for _ in range(count)]
    for code, n in cases + list(stack_edges(rng)):
        x = np.array([rng.choice(SPECIAL) for _ in range(n)])
        length = len(code) if rng.random() < 0.8 else rng.randint(0, len(code))
        got, want = kernel_outcome(kernel, code, length, x), numpy_outcome(code, length, x)
        assert got == want, (code[:length].hex(), x.tolist(), got, want)


def walk_outcome(walk, code, start):
    try:
        return walk(code, start)
    except IndexError:
        return "IndexError"


def fuzz_subtree_end(kernel, rng, count: int) -> None:
    for _ in range(count):
        cells = rng.choice((random_genome(rng), bytes(rng.choice(OPCODES) for _ in range(8))))
        # the cell past the view is a terminal: a walk that read it could end there
        code = rng.choice((cells, bytearray(cells),
                           memoryview(bytearray(cells + bytes([TERMINALS[0]])))[:len(cells)]))
        for start in {0, len(cells), rng.randint(-len(cells) - 1, len(cells))}:
            got = walk_outcome(kernel.subtree_end, code, start)
            assert got == walk_outcome(genome.arity_walk, code, start), (cells.hex(), start)
    assert walk_outcome(kernel.subtree_end, b"", 0) == "IndexError"


def fuzz_tournaments(kernel, rng, count: int) -> None:
    for _ in range(count):
        m, k, n = rng.randint(1, 40), rng.randint(1, 12), rng.randrange(21)
        fit = np.array([rng.choice(FITNESSES) for _ in range(m)])
        before = fit.tobytes()
        word = rng.choice((None, 0, 2 ** 32 - 1))  # None: random words
        words = (rng.randbytes(4 * n * k) if word is None
                 else word.to_bytes(4, "little") * (n * k))
        got, want = np.full(n, 7, np.uint64), np.full(n, 7, np.uint64)
        kernel.tournaments(words, fit, k, got)
        rank_tournaments(words, fit.copy(), k, want)
        assert got.tolist() == want.tolist(), (fit.tolist(), k, words.hex())
        assert fit.tobytes() == before


def crossover_outcome(cross, mum, mum_len, dad, dad_len, child, capacity, points):
    """(the child's length or the exception's class name, the bytes of child's whole buffer,
    past the end of a view too); child is never resized."""
    size = len(child)
    try:
        result = cross(mum, mum_len, dad, dad_len, child, capacity, points)
    except Exception as refused:
        result = type(refused).__name__
    assert len(child) == size, (size, len(child))
    return result, bytes(child.obj if isinstance(child, memoryview) else child)


def crossover_words(rng) -> array:
    """One child's words: random, all 0 (every point the root), all 2**32 - 1 (every
    point the last node) or a mix of the two; one time in ten, a word short or none.
    An array("I"), as the engines pass, or now and then numpy uint32."""
    kind = rng.randrange(4)
    ends = (0, 2 ** 32 - 1)
    words = array("I", (rng.getrandbits(32) if kind == 0 else ends[kind - 1] if kind < 3
                        else rng.choice(ends) for _ in range(POINTS_PER_CHILD)))
    if rng.random() < 0.1:
        del words[rng.choice((0, POINTS_PER_CHILD - 1)):]
    return words if rng.random() < 0.8 else np.array(words, np.uint32)


def grown(rng, cells: int):
    """A tree grown into `cells` cells, the rest of them random opcodes: (buffer, length).

    Now and then the length is cut short or pushed past the tree, or past the buffer, so
    that a walk can leave the parent's length or its buffer; and the buffer is a view
    that ends two random opcodes short of its own."""
    buf = bytearray(rng.choice(OPCODES) for _ in range(cells + 2))
    length = random_tree(rng, rng.randint(1, (cells + 1).bit_length() - 1), buf)
    if rng.random() < 0.1:
        length = rng.randint(-1, cells + 1)
    return memoryview(buf)[:cells] if rng.random() < 0.3 else buf[:cells], length


def fuzz_crossover(kernel, rng, count: int) -> None:
    """`crossover` against `genome.python_crossover`: return value or exception class, and
    the child's bytes, over grown parents in 31/63/127-cell buffers and capacities below,
    at and above the offspring, down past mum's length and up past the child's."""
    for _ in range(count):
        cells = rng.choice((31, 63, 127))
        (mum, mum_len), (dad, dad_len) = grown(rng, cells), grown(rng, cells)
        points = crossover_words(rng)
        size = rng.choice((cells, cells, rng.randint(1, cells)))
        fit = crossover_outcome(genome.python_crossover, mum, mum_len, dad, dad_len,
                                bytearray(size), size, points)[0]
        offspring = fit if isinstance(fit, int) else mum_len
        capacity = rng.choice((offspring - 1, offspring, offspring + 1, mum_len - 1, mum_len,
                               size, size + 1))
        fill = bytes(rng.choice(OPCODES) for _ in range(size + 2))
        if rng.random() < 0.05 and 0 < mum_len <= len(mum):  # the child is mum itself
            runs = [(bytearray(mum),) * 2 for _ in range(2)]
            size = capacity = len(mum)
        elif rng.random() < 0.5:  # a view: a write past its end shows in its buffer
            runs = [(mum, memoryview(bytearray(fill))[:size]) for _ in range(2)]
        else:
            runs = [(mum, bytearray(fill[:size])) for _ in range(2)]
        got, want = (crossover_outcome(cross, parent, mum_len, dad, dad_len, child, capacity,
                                       points)
                     for cross, (parent, child) in zip((kernel.crossover,
                                                        genome.python_crossover), runs))
        assert got == want, (mum.hex(), mum_len, dad.hex(), dad_len, size, capacity,
                             points.tolist(), got, want)


def check_refusals(kernel) -> None:
    """Malformed arguments raise, and nothing is read or written past a buffer."""
    fit, out = np.zeros(3), np.zeros(2, np.uint64)
    # words one byte short or long, k = 0, and no fitnesses to draw from
    for args in ((bytes(23), fit, 3, out), (bytes(25), fit, 3, out), (bytes(0), fit, 0, out[:0]),
                 (bytes(8), fit[:0], 1, out)):
        try:
            kernel.tournaments(*args)
        except ValueError:
            continue
        raise AssertionError(f"tournaments took {args!r}")
    for args in ((b"", 0, 1), (b"",), (bytes([4]), 0.0), ([4], 0)):
        try:
            kernel.subtree_end(*args)
        except TypeError:
            continue
        raise AssertionError(f"subtree_end took {args!r}")
    for args in ((b"", 1), (bytes([4]), 1, bytes([4]), 1, bytearray(1), 1)):
        try:
            kernel.crossover(*args)
        except TypeError:
            continue
        raise AssertionError(f"crossover took {args!r}")
    # a length past any buffer, and point words that are bytes: both paths refuse them
    for args in ((bytes([4]), 2 ** 70, bytes([4]), 1, bytearray(1), 1, array("I", [0] * 20)),
                 (bytes([4]), 1, bytes([4]), 1, bytearray(1), 1, bytes(80))):
        for cross in (kernel.crossover, genome.python_crossover):
            assert crossover_outcome(cross, *args) == ("ValueError", bytes(1)), (cross, args)
    for start in (2 ** 70, -(2 ** 70)):
        try:
            kernel.subtree_end(bytes([4]), start)
        except IndexError:
            continue
        raise AssertionError(f"subtree_end took start {start}")


def check_all(kernel, seed: int = 26) -> None:
    """Every part of the fuzz over `kernel`, from one seeded stream."""
    rng = random.Random(seed)
    fuzz_evaluate(kernel, rng, 15000)
    fuzz_subtree_end(kernel, rng, 10000)
    fuzz_tournaments(kernel, rng, 8000)
    fuzz_crossover(kernel, rng, 8000)
    check_refusals(kernel)


if __name__ == "__main__":
    check_all(_kernel.load_file(sys.argv[1]))
    print("kernel fuzz: ok")
