"""A seeded differential fuzz of the C kernel against the Python code it stands in for.

`check_all(kernel, seed)` drives a loaded kernel module's four functions:

* `evaluate` against `genome._interpret` on random byte genomes (every opcode,
  and some past the last terminal) over 0-6 cases of special values, and on
  value stacks of `cap * n` just below, at and just above `_kernel.ON_STACK`
  doubles, so that both the on-stack and the malloc branch run to their last
  double. Both must agree on raise-or-result, and results on every bit;
* `subtree_end` against `genome.arity_walk`, past either end of the code too;
* `tournaments` against `engine.rank_tournaments`, with ties, NaN and inf;
* and the refusals of malformed arguments.

tests/test_kernel.py runs it over the cached kernel, and in a subprocess over
a kernel built with AddressSanitizer and UBSan, as

    python tests/kernel_fuzz.py KERNEL.so

which loads the module in KERNEL.so and exits 0 only when every check held.
"""

from __future__ import annotations

import math
import random
import shlex
import subprocess
import sys
import sysconfig

import numpy as np

from poolgp import _kernel, genome
from poolgp.engine import rank_tournaments
from poolgp.errors import InvariantError
from poolgp.genome import CONSTANTS, FUNCTIONS, TERMINALS, float_errors_ignored, random_tree

END = TERMINALS[-1] + 1  # the first opcode past the last terminal
OPCODES = tuple(range(END + 2)) + (255,)
SPECIAL = (0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e-310, 1e300, -1e300,
           0.5, -1.5)
FITNESSES = (0.0, -0.0, 1.0, 1.0, 2.5, math.inf, -math.inf, math.nan)


def build(path, *flags) -> subprocess.CompletedProcess:
    """Compile the kernel's source with its FLAGS and then `flags` into `path`."""
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    include = sysconfig.get_paths()["include"]
    return subprocess.run([*cc, *_kernel.FLAGS, *flags, f"-I{include}", "-o", str(path),
                           "-x", "c", "-"], input=_kernel.c_source(CONSTANTS), text=True,
                          capture_output=True, timeout=120)


def kernel_outcome(kernel, code, length, x):
    """"raise", or the result's bits. A genome malformed twice over may stop
    the two paths at different faults, so the reason is not compared."""
    out = np.empty(x.shape)
    status = kernel.evaluate(code, length, x, out)
    if status not in (0, *_kernel.ERRORS):
        raise AssertionError(f"status {status}")
    return "raise" if status else out.view(np.int64).tolist()


def numpy_outcome(code, length, x):
    try:
        with float_errors_ignored():
            result = genome._interpret(code, length, x)
    except InvariantError:
        return "raise"
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
    check_refusals(kernel)


if __name__ == "__main__":
    check_all(_kernel.load_file(sys.argv[1]))
    print("kernel fuzz: ok")
