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

import numpy as np

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
    """Index one past the subtree rooted at `start` (arity walk)."""
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


def subtree_crossover(mum, mum_len: int, dad, dad_len: int,
                      child, capacity: int, points) -> int:
    """Copy mum into `child` with one mum subtree replaced by one dad subtree.

    Attempt i takes its mum and dad points from words 2i and 2i + 1 of
    `points` (see the module docstring). If the offspring would not fit in
    `capacity` cells, the next attempt tries; after CROSSOVER_ATTEMPTS the
    child is a verbatim copy of mum. Parents are only read.
    """
    for i in range(0, POINTS_PER_CHILD, 2):
        mp = (points[i] * mum_len) >> 32
        dp = (points[i + 1] * dad_len) >> 32
        m_end = subtree_end(mum, mp)
        d_end = subtree_end(dad, dp)
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
    `Problem.fitness` set no error state of their own. Fresh on every call,
    because an errstate object cannot be entered twice; numpy keeps the
    state per thread, so a thread that scores must enter it itself.
    """
    return np.errstate(over="ignore", invalid="ignore", divide="ignore")


def evaluate(code, length: int, x: np.ndarray) -> np.ndarray:
    """Interpret a genome over a vector of input points.

    Right-to-left scan with a value stack: terminals push, functions combine
    the top two entries. Constants stay Python floats until combined with
    `x`, so constant-only subtrees cost scalar arithmetic; every array
    operation keeps its operand order, so the bits are those of the
    all-array evaluation. Returns the prediction per input point as a fresh
    float64 array of `x`'s shape, or `x` itself for the bare-variable tree,
    so treat it as read-only. Runs under the caller's numpy error state:
    overflow, 0/0 and x/0 warn unless the caller entered
    `float_errors_ignored()`, as every score pass does.
    """
    if not 0 <= length <= len(code):
        raise InvariantError(f"length {length} outside a buffer of {len(code)} cells")
    stack: list[np.ndarray | float] = []
    push = stack.append
    pop = stack.pop
    for op in reversed(code[:length]):
        if op == VAR_X:
            push(x)
        elif op >= CONST_BASE:
            push(CONSTANTS[op - CONST_BASE])
        else:
            a = pop()
            b = pop()
            if op == ADD:
                push(a + b)
            elif op == SUB:
                push(a - b)
            elif op == MUL:
                push(a * b)
            elif b.__class__ is float:
                # same test as the array mask: 0.0 and -0.0 give 1, nan divides
                push(a / b if b != 0 else 1.0)
            else:
                # a / b is a fresh array; b == 0 is exactly where b != 0 fails
                out = a / b
                out[b == 0] = 1.0
                push(out)
    if len(stack) != 1:
        raise InvariantError("incomplete prefix encoding")
    root = stack[0]
    return np.full_like(x, root) if root.__class__ is float else root
