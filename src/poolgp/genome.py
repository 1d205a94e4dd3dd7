"""Linear prefix-encoded program trees: growth, crossover, interpretation.

A genome is a sequence of one-byte opcodes laid out in prefix (Polish)
order inside a fixed-length buffer. Four arity-2 arithmetic functions, one
input variable and a small table of constants keep every node in a single
byte, so subtree extents fall out of a plain arity walk.
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
    pos = 0

    def grow(depth: int) -> None:
        nonlocal pos
        if depth >= depth_limit:
            op = TERMINALS[rng.randrange(len(TERMINALS))]
        elif depth == 1:
            op = FUNCTIONS[rng.randrange(len(FUNCTIONS))]
        else:
            op = PRIMITIVES[rng.randrange(len(PRIMITIVES))]
        buf[pos] = op
        pos += 1
        for _ in range(arity(op)):
            grow(depth + 1)

    grow(1)
    return pos


def subtree_crossover(mum, mum_len: int, dad, dad_len: int,
                      child, capacity: int, rng) -> int:
    """Copy mum into `child` with one mum subtree replaced by one dad subtree.

    Crossover points are uniform over node positions. If the offspring would
    not fit in `capacity` cells, new points are drawn up to a bounded number
    of attempts; after that the child is a verbatim copy of mum. Parents are
    only read.
    """
    for _ in range(CROSSOVER_ATTEMPTS):
        mp = rng.randrange(mum_len)
        dp = rng.randrange(dad_len)
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


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def evaluate(code, length: int, x: np.ndarray) -> np.ndarray:
    """Interpret a genome over a vector of input points.

    Right-to-left scan with a value stack: terminals push, functions combine
    the top two entries. Constants stay Python floats until combined with
    `x`, so constant-only subtrees cost scalar arithmetic; every array
    operation keeps its operand order, so the bits are those of the
    all-array evaluation. Returns the prediction per input point as a fresh
    float64 array of `x`'s shape, or `x` itself for the bare-variable tree,
    so treat it as read-only. Overflow, 0/0 and x/0 raise no warning: the
    error state is set for the whole call (numpy keeps it per thread).
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
