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

import ctypes

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
    `Problem.fitness` set none per genome. Fresh on every call,
    because an errstate object cannot be entered twice; numpy keeps the
    state per thread, so a thread that scores must enter it itself.
    """
    return np.errstate(over="ignore", invalid="ignore", divide="ignore")


def evaluate(code, length: int, x: np.ndarray) -> np.ndarray:
    """Interpret a genome over a vector of input points, to the same bits on either path.

    Right-to-left scan with a value stack of float64 vectors, in the C kernel
    when it loaded: a fresh writable result, and no warning. Otherwise in
    numpy (`_interpret`): a result, maybe a shared table vector, that is
    read-only, and overflow and inf/inf warn outside `float_errors_ignored()`.
    x/0 never warns. A malformed genome raises InvariantError.
    """
    if not 0 <= length <= len(code):
        raise InvariantError(f"length {length} outside a buffer of {len(code)} cells")
    table = _table
    if x.tobytes() != table[0] or x.shape != table[1] or x.dtype != table[2]:
        table = _table_of(x)
    kernel = _native
    if kernel is None:
        return _interpret(code, length, table[3], table[4])
    out = table[5]()  # the kernel reads the table's immutable copy of x, writes only `out`
    status = kernel(bytes(code[:length]), length, table[6], len(out), out)
    if status:
        raise InvariantError(_kernel.ERRORS[status])
    got = np.frombuffer(out)
    return got if got.shape == table[1] else got.reshape(table[1])


def evaluator() -> str:
    """Which interpreter `evaluate` runs: "c" for the kernel, else "numpy"."""
    return "numpy" if _native is None else "c"


def _interpret(code, length: int, terms: list, pairs: list | None) -> np.ndarray:
    """`evaluate` in numpy over the given terminal vectors (by opcode) and pair vectors."""
    stack: list[np.ndarray] = []
    push = stack.append
    pop = stack.pop
    b_op = a_op = 0  # opcodes of the last two pushes while both are terminals, else 0
    try:
        for op in reversed(code[:length]):
            if op >= VAR_X:
                push(terms[op])
                b_op, a_op = a_op, op
                continue
            if b_op and pairs is not None:
                pop()
                stack[-1] = pairs[op << 8 | b_op << 4 | a_op]
            else:
                a = pop()
                b = pop()
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
            b_op = a_op = 0
    except IndexError:  # terms[op] past the last terminal, or pop() from an empty stack
        raise InvariantError(_kernel.ERRORS[1 if op >= len(terms) else 2]) from None
    if len(stack) != 1:
        raise InvariantError(_kernel.ERRORS[3])
    return stack[0]


# A table holds pair vectors only while their 144 * x.nbytes fit in TABLE_BYTES
# (23 KB at 20 cases, 1.2 GB at 10**6). _table is the last input vector's key
# (bytes, shape, dtype), terminal vectors by opcode, pair vectors, the kernel's
# output type and the address of x's immutable float64 copy; keyed by content,
# so no write into x between calls meets a stale table.
TABLE_BYTES = 1 << 20
_table: tuple = (None,) * 7


def frozen(values) -> np.ndarray:
    """A float64 copy of `values` over bytes: not even setflags(write=True) makes it writable."""
    a = np.asarray(values, dtype=np.float64)
    return np.frombuffer(a.tobytes(), np.float64).reshape(a.shape)


def _table_of(x: np.ndarray) -> tuple:
    """Build and keep the table of `x`, whose pairs[f << 8 | b << 4 | a] is f(a, b).

    A float64 `x` costs no terminal copy: its vector views the key's bytes,
    and a constant's is a broadcast view. The interpreter computes every pair.
    """
    global _table
    data = x.tobytes()
    terms = [None] * CONST_BASE + [np.broadcast_to(frozen(c), x.shape) for c in CONSTANTS]
    xv = np.frombuffer(data, x.dtype).reshape(x.shape)
    terms[VAR_X] = xv if xv.dtype == np.float64 else frozen(xv)
    triples = [(f, a, b) for f in FUNCTIONS for a in TERMINALS for b in TERMINALS]
    pairs = None
    if len(triples) * terms[VAR_X].nbytes <= TABLE_BYTES:
        pairs = [None] * (len(FUNCTIONS) << 8)
        with float_errors_ignored():  # no genome asked for these nodes' overflow
            for f, a, b in triples:
                pairs[f << 8 | b << 4 | a] = frozen(_interpret(bytes((f, a, b)), 3, terms, None))
    out_type = ctypes.c_double * terms[VAR_X].size
    _table = table = (data, x.shape, x.dtype, terms, pairs, out_type, terms[VAR_X].ctypes.data)
    return table  # not _table, which another thread may have replaced since


# the C kernel's function, or None where it could not be built or loaded
_native = _kernel.load(CONSTANTS)
