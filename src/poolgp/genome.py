"""Linear prefix-encoded program trees: growth, crossover, interpretation.

A genome is a sequence of one-byte opcodes laid out in prefix (Polish)
order inside a fixed-length buffer. Four arity-2 arithmetic functions, one
input variable and a small table of constants keep every node in a single
byte, so subtree extents fall out of a plain arity walk.

Crossover reads its points from POINTS_PER_CHILD uint32 words per child, a
mum word and a dad word per attempt; word u picks node (u * n) >> 32 of an
n-node tree, so 0 picks the root and 2**32 - 1 the last node.
"""

from __future__ import annotations

import contextlib
import functools
import math
import random
import sys
from array import array
from operator import add, mul, sub, truediv

from . import _kernel
from .errors import InvariantError

# function opcodes, all arity 2
ADD = 0
SUB = 1
MUL = 2
DIV = 3  # protected: x/0 evaluates to 1.0

# terminal opcodes
VAR_X = 4
CONST_BASE = 5
CONSTANTS = (-1.0, -0.5, 0.0, 0.5, 1.0)

FUNCTIONS = (ADD, SUB, MUL, DIV)
TERMINALS = (VAR_X,) + tuple(CONST_BASE + i for i in range(len(CONSTANTS)))
PRIMITIVES = FUNCTIONS + TERMINALS

CROSSOVER_ATTEMPTS = 10
POINTS_PER_CHILD = 2 * CROSSOVER_ATTEMPTS  # a mum and a dad word per attempt


def arity(op: int) -> int:
    return 2 if op < VAR_X else 0


def subtree_end(code, start: int) -> int:
    """Index one past the subtree rooted at `start`, by an arity walk over `code`.

    IndexError where the walk leaves `code`.
    """
    need = 1
    i = start
    while need:
        need += 1 if code[i] < VAR_X else -1  # arity(code[i]) - 1, inlined
        i += 1
    return i


def random_tree(rng, depth_limit: int, buf) -> int:
    """Grow a random tree into `buf`, returning its encoded length.

    The root is a function whenever the depth limit allows one; deeper nodes
    are drawn uniformly from the full primitive set until the limit forces a
    terminal. A limit of d >= 1 (the engines' is never below 1) writes at most 2**d - 1 cells.
    """
    # grow in preorder from an explicit stack: a recursive closure names
    # itself, a reference cycle that keeps `buf` alive until gc runs
    pos = 0
    pending = [1]  # depths of the nodes still to grow, the next one on top
    while pending:
        depth = pending.pop()
        if depth >= depth_limit:
            op = TERMINALS[rng.randrange(len(TERMINALS))]
        elif depth == 1:
            op = FUNCTIONS[rng.randrange(len(FUNCTIONS))]
        else:
            op = PRIMITIVES[rng.randrange(len(PRIMITIVES))]
        buf[pos] = op
        pos += 1
        pending += [depth + 1] * arity(op)  # both children sit one level down
    return pos


def python_crossover(mum, mum_len: int, dad, dad_len: int,
                     child, capacity: int, points) -> int:
    """Copy mum into `child` with one mum subtree replaced by one dad subtree.

    `subtree_crossover` where the kernel did not load, and the kernel's reference.
    It walks with `subtree_end`, looked up here on every call, so that a wrapper
    set on `genome.subtree_end` sees every walk.
    Attempt i takes its mum and dad points from words 2i and 2i + 1 of
    `points` (see the module docstring). If the offspring would not fit in
    `capacity` cells, the next attempt tries; after CROSSOVER_ATTEMPTS the
    child is a verbatim copy of mum. Parents are only read, and `child` is
    never resized. The kernel's refusals: TypeError unless the genomes are
    buffers, read as bytes, and `points` one that `_read_buffer` takes as "I",
    such as an array("I"); BufferError for a read-only child; ValueError unless
    1 <= mum_len <= len(mum), 1 <= dad_len <= len(dad),
    mum_len <= capacity <= len(child) and `points` holds POINTS_PER_CHILD
    words; IndexError where an arity walk leaves its parent's length.
    """
    with (memoryview(mum).cast("B") as m, memoryview(dad).cast("B") as d,
          memoryview(child).cast("B") as c):
        if c.readonly:
            raise BufferError("crossover: the child is not writable")
        words = _read_buffer(points, "I", "crossover")[:POINTS_PER_CHILD].tolist()
        if len(words) < POINTS_PER_CHILD or not (0 < mum_len <= len(m) and 0 < dad_len <= len(d)
                                                 and mum_len <= capacity <= len(c)):
            raise ValueError("crossover: a length, the capacity or the points out of range")
        for i in range(0, POINTS_PER_CHILD, 2):
            mp = (words[i] * mum_len) >> 32
            dp = (words[i + 1] * dad_len) >> 32
            m_end = subtree_end(m, mp)
            d_end = subtree_end(d, dp)
            if m_end > mum_len or d_end > dad_len:
                raise IndexError("crossover walked out of a parent")
            new_len = mum_len - (m_end - mp) + (d_end - dp)
            if new_len <= capacity:  # copies in the kernel's order, each as memmove
                c[:mp] = m[:mp]
                c[mp:mp + d_end - dp] = d[dp:d_end]
                c[mp + d_end - dp:new_len] = m[m_end:mum_len]
                return new_len
        c[:mum_len] = m[:mum_len]
        return mum_len


def python_draw(state, fitness, k: int, mums, dads, points):
    """The kernel's `draw` in plain Python, to the same outputs, state and refusals.

    Continues the Mersenne Twister stream of `state` (random.Random.getstate()[1])
    in a random.Random of its own: each tournament's k words pick its entrants
    and the best wins (see `engine.draw_outcome`), then every child's
    POINTS_PER_CHILD words go into `points`; returns the state after. It copies
    no fitness, mapping NaN to inf entrant by entrant, and writes a child's
    words at a time. ValueError for a malformed state; TypeError unless k is an
    integer and `_read_buffer` takes `fitness` as "d", `mums` and `dads` as
    writable "i" and `points` as writable "I"; ValueError for k < 1, 2**31 or
    more members, or outputs of another count; all before any write.
    """
    if not (isinstance(state, tuple) and len(state) == 625
            and all(isinstance(v, int) and 0 <= v < 2 ** 32 for v in state) and state[-1] <= 624):
        raise ValueError("draw: the state is not 624 words and an index")
    others = range(1, k)  # each tournament's entrants after the first; TypeError for a float
    with (_read_buffer(fitness, "d", "draw") as fit, _read_buffer(mums, "i", "draw", True) as ms,
          _read_buffer(dads, "i", "draw", True) as ds,
          _read_buffer(points, "I", "draw", True) as ps):
        m = len(fit)
        if k < 1 or m >= 2 ** 31 or len(ms) != m or len(ds) != m or len(ps) != POINTS_PER_CHILD * m:
            raise ValueError("draw: k, fitness, mums, dads and points disagree")
        rng = random.Random(0)
        rng.setstate((3, state, None))
        word = rng.getrandbits
        for child in range(m):
            for out in (ms, ds):  # the mum's tournament, then the dad's
                best = word(32) * m >> 32
                low = fit[best]
                if low != low:
                    low = math.inf
                for _ in others:
                    entrant = word(32) * m >> 32
                    value = fit[entrant]
                    if value != value:
                        value = math.inf
                    if value < low or value == low and entrant < best:
                        best, low = entrant, value
                out[child] = best
        for start in range(0, len(ps), POINTS_PER_CHILD):
            words = array("I", rng.randbytes(4 * POINTS_PER_CHILD))  # little-endian words
            if sys.byteorder == "big":
                words.byteswap()
            ps[start:start + POINTS_PER_CHILD] = words
        return rng.getstate()[1]


def float_errors_ignored():
    """A fresh context that silences numpy's float errors on this thread, where numpy is imported.

    Enter it once around a whole score pass: `evaluate` and `Problem.fitness`
    set none per genome, and neither warns. Only numpy can, for a `Problem`
    subclass whose `fitness` computes in numpy; so it enters numpy's error
    state where numpy is already imported, and a fitness that imports numpy
    only inside its first call should import it before the pass. Fresh on
    every call, because an errstate object cannot be entered twice; numpy
    keeps the state per thread, so a thread that scores must enter it itself.
    """
    if sys.modules.get("numpy") is None:  # not imported, or blocked by a None entry
        return contextlib.nullcontext()
    import numpy as np

    return np.errstate(over="ignore", invalid="ignore", divide="ignore")


def evaluate(code, length: int, x):
    """Interpret a genome over a vector of input points, to the same bits on either path.

    A right-to-left scan over x, in the C kernel when it loaded, else in plain
    Python (`_interpret`). x is an aligned, C-contiguous buffer of format "d", of any
    shape, such as a `Problem`'s table, a float64 ndarray or an array("d"), and `code` a
    buffer read as bytes; anything else raises TypeError on both paths. The result is a
    fresh, writable, 1-D buffer of format "d" with one value per item of x, which
    `memoryview()` or numpy reads: the kernel's own row object, or an array("d"). Nothing
    of x is kept, and neither path warns. A malformed genome, or a length outside `code`,
    raises InvariantError.
    """
    out = (_interpret if _native is None else _native.evaluate)(code, length, x)
    if type(out) is int:
        raise InvariantError(_kernel.ERRORS[out])
    return out


def evaluator() -> str:
    """Which interpreter `evaluate` runs: "c" for the kernel, else "python"."""
    return "python" if _native is None else "c"


def _read_buffer(obj, fmt: str, who: str, writable: bool = False) -> memoryview:
    """`obj`'s items as a flat memoryview, where the kernel's read_buffer takes it: an
    aligned, C-contiguous buffer of exactly format `fmt`, of any shape, and writable where
    asked; else TypeError, as the kernel names it. The reads of the Python twins of
    `evaluate`, `crossover` and `draw`, which release or drop the view."""
    with memoryview(obj) as view:  # TypeError where obj has no buffer
        if view.format == fmt and view.c_contiguous and not (writable and view.readonly):
            get_buffer, release, room = _buffer_api()
            probe = room()
            get_buffer(view, probe, 0)  # PyBUF_SIMPLE: the address, as the kernel sees it
            release(probe)  # which leaves the address in probe[0]
            if not view.nbytes or not (probe[0] or 0) % view.itemsize:  # empty needs no alignment
                return view.cast("B").cast(fmt)
    raise TypeError(f"{who} takes aligned, C-contiguous{', writable' if writable else ''} "
                    f"buffers of format '{fmt}'")


@functools.lru_cache(maxsize=None)
def _buffer_api() -> tuple:
    """PyObject_GetBuffer and PyBuffer_Release through ctypes, typed, and room for the
    Py_buffer they fill, whose first field is the address. Built on `_read_buffer`'s first
    call, so a run on the kernel never loads ctypes."""
    import ctypes

    get_buffer = ctypes.PYFUNCTYPE(ctypes.c_int, ctypes.py_object, ctypes.c_void_p, ctypes.c_int)
    release = ctypes.PYFUNCTYPE(None, ctypes.c_void_p)
    return (get_buffer(("PyObject_GetBuffer", ctypes.pythonapi)),
            release(("PyBuffer_Release", ctypes.pythonapi)), ctypes.c_void_p * 16)


def _interpret(code, length: int, x):
    """`evaluate` in plain Python over lists of x's items and of each constant: the
    reference and fallback. x is read as `_read_buffer` reads it, then `code` as bytes,
    before the length is checked."""
    x = _read_buffer(x, "d", "evaluate").tolist()
    with memoryview(code) as cells:  # TypeError where code has no buffer, such as a list
        if not 0 <= length <= cells.nbytes:
            raise InvariantError(_kernel.ERRORS[5])
        ops = cells.cast("B")[:length].tolist()
    rows = (x, *([c] * len(x) for c in CONSTANTS))  # each terminal's row, by opcode - VAR_X
    cap = (length + 1) // 2  # the most values a complete encoding holds at once
    stack = []
    push, pop = stack.append, stack.pop
    try:
        for op in reversed(ops):
            if op >= VAR_X:
                value = rows[op - VAR_X]
                if len(stack) == cap:  # a push past cap, where run() stops too
                    raise InvariantError(_kernel.ERRORS[3])
                push(value)
                continue
            a, b = pop(), pop()  # a is the top, the first operand
            if op < DIV:
                push(list(map((add, sub, mul)[op], a, b)))
            elif all(b):  # no zero of either sign; NaN is true, as b != 0.0 is in the kernel
                push(list(map(truediv, a, b)))
            else:
                push([p / q if q else 1.0 for p, q in zip(a, b)])
    except IndexError:  # an opcode past the last constant, or pop() from an empty stack
        raise InvariantError(_kernel.ERRORS[1 if op >= VAR_X else 2]) from None
    if len(stack) != 1:
        raise InvariantError(_kernel.ERRORS[3])
    return array("d", stack[0])


# the C kernel's module, or None where it could not be built or loaded
_native = _kernel.load(CONSTANTS, CROSSOVER_ATTEMPTS)
# one child by subtree crossover: the kernel's, to the same bytes and exception classes,
# else python_crossover. The engines import it by name, once.
subtree_crossover = python_crossover if _native is None else _native.crossover
