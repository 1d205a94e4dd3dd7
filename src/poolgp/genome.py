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
import sys

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
    never resized: TypeError unless `points` is a buffer that `_read_buffer`
    takes as "I", such as an array("I"); ValueError unless
    1 <= mum_len <= len(mum), 1 <= dad_len <= len(dad),
    mum_len <= capacity <= len(child) and `points` holds POINTS_PER_CHILD
    words; IndexError where an arity walk leaves its parent's length.
    """
    # Python ints, as the kernel reads them: a numpy uint32 word times the length would
    # wrap at 32 bits
    words = _read_buffer(points, "I", "crossover")[:POINTS_PER_CHILD].tolist()
    if len(words) < POINTS_PER_CHILD or not (0 < mum_len <= len(mum) and 0 < dad_len <= len(dad)
                                             and mum_len <= capacity <= len(child)):
        raise ValueError("crossover: a length, the capacity or the points out of range")
    for i in range(0, POINTS_PER_CHILD, 2):
        mp = (words[i] * mum_len) >> 32
        dp = (words[i + 1] * dad_len) >> 32
        m_end = subtree_end(mum, mp)
        d_end = subtree_end(dad, dp)
        if m_end > mum_len or d_end > dad_len:
            raise IndexError("crossover walked out of a parent")
        new_len = mum_len - (m_end - mp) + (d_end - dp)
        if new_len <= capacity:
            child[:mp] = mum[:mp]
            child[mp:mp + d_end - dp] = dad[dp:d_end]
            child[mp + d_end - dp:new_len] = mum[m_end:mum_len]
            return new_len
    child[:mum_len] = mum[:mum_len]
    return mum_len


def float_errors_ignored():
    """A fresh context that silences numpy's float errors on this thread where numpy can run.

    Enter it once around a whole score pass: `evaluate` and `Problem.fitness`
    set none per genome. It enters numpy's error state only when numpy code
    can run in the pass: when the kernel did not load, so that numpy
    interprets and sums, or when numpy is already imported, as it is for a
    `Problem` subclass whose `fitness` computes in numpy. Otherwise the kernel
    does every operation, never warns, and numpy stays unimported; a fitness
    that imports numpy only inside its first call should import it before the
    pass. Fresh on every call, because an errstate object cannot be entered
    twice; numpy keeps the state per thread, so a thread that scores must
    enter it itself.
    """
    if _native is not None and "numpy" not in sys.modules:
        return contextlib.nullcontext()
    import numpy as np

    return np.errstate(over="ignore", invalid="ignore", divide="ignore")


def evaluate(code, length: int, x):
    """Interpret a genome over a vector of input points, to the same bits on either path.

    A right-to-left scan over x, in the C kernel when it loaded, else in numpy
    (`_interpret`). x is an aligned, C-contiguous buffer of format "d", of any shape, such
    as a `Problem`'s table, a float64 ndarray or an array("d"); anything else raises
    TypeError on both paths. The result is a fresh, writable, 1-D buffer of format "d"
    with one value per item of x, which `memoryview()` or numpy reads: the kernel's own
    row object, or a memoryview of numpy's result. Nothing of x is kept. Only numpy warns,
    on overflow and inf/inf outside `float_errors_ignored()`. A malformed genome, or a
    length outside `code`, raises InvariantError.
    """
    out = (_interpret if _native is None else _native.evaluate)(code, length, x)
    if type(out) is int:
        raise InvariantError(_kernel.ERRORS[out])
    return out


def evaluator() -> str:
    """Which interpreter `evaluate` runs: "c" for the kernel, else "numpy"."""
    return "numpy" if _native is None else "c"


def _read_buffer(obj, fmt: str, who: str):
    """`obj`'s items as a flat ndarray, where the kernel's read_buffer takes it: an aligned,
    C-contiguous buffer of exactly format `fmt`, of any shape; else TypeError, as the
    kernel names it. The reads of the Python twins of `evaluate` and `crossover`."""
    import numpy as np

    with memoryview(obj) as view:  # TypeError where obj has no buffer; nothing held after
        if (view.format == fmt and view.c_contiguous  # numpy counts an empty one as aligned
                and np.frombuffer(view, fmt).flags.aligned):
            return np.frombuffer(obj, fmt)
    raise TypeError(f"{who} takes aligned, C-contiguous buffers of format '{fmt}'")


def _interpret(code, length: int, x):
    """`evaluate` in numpy over x's items and the constant vectors: the reference and
    fallback. x is read as `_read_buffer` reads it, before the length is checked."""
    import numpy as np

    x = _read_buffer(x, "d", "evaluate")
    if not 0 <= length <= len(code):
        raise InvariantError(_kernel.ERRORS[5])
    consts = _constants(x.size)
    cap = (length + 1) // 2  # the most values a complete encoding holds at once
    stack = []
    push, pop = stack.append, stack.pop
    try:
        for op in reversed(code[:length]):
            if op >= VAR_X:
                value = x if op == VAR_X else consts[op - CONST_BASE]
                if len(stack) == cap:  # a push past cap, where run() stops too
                    raise InvariantError(_kernel.ERRORS[3])
                push(value)
                continue
            a, b = pop(), pop()  # a is the top, the first operand
            if op == ADD:
                push(a + b)
            elif op == SUB:
                push(a - b)
            elif op == MUL:
                push(a * b)
            elif np.count_nonzero(b) == b.size:
                push(a / b)
            else:
                # astype(bool) is b != 0: 0.0 and -0.0 give 1, nan divides
                push(np.divide(a, b, out=np.ones(b.shape), where=b.astype(bool)))
    except IndexError:  # an opcode past the last constant, or pop() from an empty stack
        raise InvariantError(_kernel.ERRORS[1 if op >= VAR_X else 2]) from None
    if len(stack) != 1:
        raise InvariantError(_kernel.ERRORS[3])
    # a terminal root is x or a shared constant; every function node made a new array
    return memoryview(stack[0].copy() if length == 1 else stack[0])


@functools.lru_cache
def _constants(n: int) -> tuple:
    """Each constant broadcast to n items over bytes, which no setflags makes writable: so
    shared by every call over n items."""
    import numpy as np

    return tuple(np.broadcast_to(np.frombuffer(np.float64(c).tobytes()), n) for c in CONSTANTS)


# the C kernel's module, or None where it could not be built or loaded
_native = _kernel.load(CONSTANTS, CROSSOVER_ATTEMPTS)
# one child by subtree crossover: the kernel's, to the same bytes and exception classes,
# else python_crossover. The engines import it by name, once.
subtree_crossover = python_crossover if _native is None else _native.crossover
