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

import functools

import numpy as np

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


def arity_walk(code, start: int) -> int:
    """Index one past the subtree rooted at `start`: `subtree_end` where the kernel did not load.

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
    terminal. A limit of d writes at most 2**d - 1 cells.
    """
    if depth_limit < 1:
        raise ValueError(f"depth_limit must be >= 1, got {depth_limit}")
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
    Attempt i takes its mum and dad points from words 2i and 2i + 1 of
    `points` (see the module docstring). If the offspring would not fit in
    `capacity` cells, the next attempt tries; after CROSSOVER_ATTEMPTS the
    child is a verbatim copy of mum. Parents are only read, and `child` is
    never resized: ValueError unless 1 <= mum_len <= len(mum),
    1 <= dad_len <= len(dad), mum_len <= capacity <= len(child) and `points`
    holds POINTS_PER_CHILD 4-byte words, such as an array("I"); IndexError
    where an arity walk leaves its parent's length.
    """
    with memoryview(points) as view:
        if view.itemsize != 4 or view.nbytes < 4 * POINTS_PER_CHILD or not (
                0 < mum_len <= len(mum) and 0 < dad_len <= len(dad)
                and mum_len <= capacity <= len(child)):
            raise ValueError("crossover: a length, the capacity or the points out of range")
        # native uint32 as Python ints, as the kernel reads them: a numpy uint32 word
        # times the length would wrap at 32 bits
        words = view.cast("B").cast("I").tolist()
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


def float_errors_ignored() -> np.errstate:
    """A fresh context that silences numpy's float errors on this thread.

    Enter it once around a whole score pass: `evaluate` and
    `Problem.fitness` set none per genome. Fresh on every call,
    because an errstate object cannot be entered twice; numpy keeps the
    state per thread, so a thread that scores must enter it itself.
    """
    return np.errstate(over="ignore", invalid="ignore", divide="ignore")


def evaluate(code, length: int, x: np.ndarray) -> np.ndarray:
    """Interpret a genome over a vector of input points, to the same bits on either path.

    A right-to-left scan over x as float64, in the C kernel when it loaded, else in numpy
    (`_interpret`). The result is a fresh writable array of x's shape; nothing of x is kept.
    Only numpy warns, on overflow and inf/inf outside `float_errors_ignored()`. A malformed
    genome raises InvariantError.
    """
    if not 0 <= length <= len(code):
        raise InvariantError(f"length {length} outside a buffer of {len(code)} cells")
    x = np.asarray(x, dtype=np.float64, order="C")  # no copy of a float64 vector: Problem.inputs
    if _native is None:
        return _interpret(code, length, x)
    out = np.empty(x.shape)
    if status := _native.evaluate(code, length, x, out):
        raise InvariantError(_kernel.ERRORS[status])
    return out


def evaluator() -> str:
    """Which interpreter `evaluate` runs: "c" for the kernel, else "numpy"."""
    return "numpy" if _native is None else "c"


def _interpret(code, length: int, x: np.ndarray) -> np.ndarray:
    """`evaluate` in numpy over float64 x and the constant vectors: the reference and fallback."""
    consts = _constants(x.shape)
    cap = (length + 1) // 2  # the most values a complete encoding holds at once
    stack: list[np.ndarray] = []
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
    # a terminal root is x or a shared constant; a function over 0-d x gives a numpy scalar
    return stack[0].copy() if length == 1 else np.asarray(stack[0])


def frozen(values) -> np.ndarray:
    """A float64 copy of `values` over bytes: not even setflags(write=True) makes it writable."""
    a = np.asarray(values, dtype=np.float64)
    return np.frombuffer(a.tobytes(), np.float64).reshape(a.shape)


@functools.lru_cache
def _constants(shape: tuple) -> tuple:
    """Each constant broadcast to `shape`: immutable, so shared by every call of that shape."""
    return tuple(np.broadcast_to(frozen(c), shape) for c in CONSTANTS)


# the C kernel's module, or None where it could not be built or loaded
_native = _kernel.load(CONSTANTS, CROSSOVER_ATTEMPTS)
# index one past the subtree rooted at start: the kernel's arity walk, to the same ints and
# IndexError, else arity_walk; python_crossover looks it up here on every call
subtree_end = arity_walk if _native is None else _native.subtree_end
# one child by subtree crossover: the kernel's, to the same bytes and exception classes,
# else python_crossover. The engines import it by name, once.
subtree_crossover = python_crossover if _native is None else _native.crossover
