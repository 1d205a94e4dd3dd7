"""A seeded differential fuzz of the C kernel against the Python code it stands in for.

`check_all(kernel, seed)` drives a loaded kernel module's five functions:

* `evaluate` against `genome._interpret`, its plain-Python twin, on random
  byte genomes (every opcode, and some past the last terminal) over 0-6 cases
  of special values, as an ndarray or as a `memoryview(bytes).cast("d")`
  table, and on work areas just inside and just past `_kernel.ON_STACK`
  cells, so that both the on-stack and the malloc branch run to their last
  cell. Both must name the same fault or give the same bits, and x must keep
  its bits;
* `abs_error` against `problems.python_abs_error`: the same bits over 0-300,
  1000 and 4097 terms, across all three branches of the pairwise sum, of
  special values and of magnitudes from 1e-8 to 1e8;
* `draw` against `genome.python_draw` on the same state, which reads the
  stream through a `random.Random` of its own: from random and all-zero
  states at every twist boundary and mid-block, over arrays and read-only
  views of fitnesses with ties, NaN and inf;
* `plan` against `breeding_plan.python_plan`: the same three lists, or the
  same ValueError text, over int32 arrays of 0-40 children with
  self-crossover and every child on one parent;
* `crossover` against `genome.python_crossover`: the same length or
  exception class, the same child bytes, and a child never resized;
* and the refusals of malformed arguments (every typed argument of
  `evaluate`, `abs_error`, `draw`, `plan` and `crossover` is an aligned,
  C-contiguous buffer of one format, on the kernel and, for `evaluate`,
  `draw` and `crossover`, on the Python path alike, and no view is read past
  its end), and `plan` and `draw` through a collection that starts inside
  them, whose finalizer tries to resize their arrays and overwrites their
  inputs.

tests/test_kernel.py runs it over the cached kernel, and in a subprocess over
a kernel built with AddressSanitizer and UBSan, as

    python tests/kernel_fuzz.py KERNEL.so

which loads the module in KERNEL.so and exits 0 only when every check held.
"""

from __future__ import annotations

import gc
import math
import random
from array import array
import subprocess
import sys

import numpy as np

from poolgp import _kernel, genome
from poolgp.breeding_plan import python_plan
from poolgp.errors import InvariantError
from poolgp.problems import python_abs_error
from poolgp.genome import (
    ADD,
    CONSTANTS,
    CROSSOVER_ATTEMPTS,
    FUNCTIONS,
    POINTS_PER_CHILD,
    TERMINALS,
    VAR_X,
    float_errors_ignored,
    random_tree,
)

END = TERMINALS[-1] + 1  # the first opcode past the last terminal
OPCODES = tuple(range(END + 2)) + (255,)
SPECIAL = (0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e-310, 1e300, -1e300,
           0.5, -1.5)
FITNESSES = (0.0, -0.0, 1.0, 1.0, 2.5, math.inf, -math.inf, math.nan)


def build(path, *flags) -> subprocess.CompletedProcess:
    """Compile _kernel.c with `load`'s command, then `flags`, into `path`."""
    return subprocess.run([*_kernel.command(CONSTANTS, CROSSOVER_ATTEMPTS), *flags,
                           "-o", str(path), str(_kernel.SOURCE)],
                          text=True, capture_output=True, timeout=120)


def kernel_outcome(kernel, code, length, x):
    """The fault's name, or the result's bits; a result is a new writable row of format "d",
    one value per item of x, in memory of its own."""
    result = kernel.evaluate(code, length, x)
    if isinstance(result, int):
        if result not in _kernel.ERRORS:
            raise AssertionError(f"status {result}")
        return _kernel.ERRORS[result]
    with memoryview(result) as row:
        assert (row.format, row.ndim, row.readonly) == ("d", 1, False), type(result)
        values = np.frombuffer(result)
        assert len(row) == np.asarray(x).size and not np.shares_memory(values, x)
        return values.view(np.int64).tolist()


def python_outcome(code, length, x):
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


def work_cells(cap: int, n: int) -> int:
    """The cells of run()'s work area: cap stack entries, cap - 1 result rows of n doubles
    and a row per constant."""
    return cap + (cap - 1 + len(CONSTANTS)) * n


def stack_edges(rng):
    """(genome, n): for n = 0-6 cases, the largest work area on the C stack and the
    smallest past it, each written to its last cell.

    Each genome pushes cap terminals, every constant among them, before its first function
    node writes result row cap - 2; so every row is handed out, and with n = 0 the last
    stack entry is the last cell. The same genome with one more terminal must be refused
    before its push past cap.
    """
    for n in range(7):
        last = (_kernel.ON_STACK - (len(CONSTANTS) - 1) * n) // (n + 1)  # the largest that fits
        assert work_cells(last, n) <= _kernel.ON_STACK < work_cells(last + 1, n)
        for cap in (last, last + 1):
            functions = bytes(rng.choice(FUNCTIONS) for _ in range(cap - 1))
            terminals = [rng.choice(TERMINALS) for _ in range(cap - len(CONSTANTS))]
            terminals += TERMINALS[1:]  # every constant
            rng.shuffle(terminals)
            yield functions + bytes(terminals), n
            yield functions + bytes(terminals + terminals[:1]), n


def fuzz_evaluate(kernel, rng, count: int) -> None:
    cases = [(random_genome(rng), rng.randrange(7)) for _ in range(count)]
    for code, n in cases + list(stack_edges(rng)):
        x = np.array([rng.choice(SPECIAL) for _ in range(n)])
        # a Problem's table: exactly n doubles of bytes, so a read past them leaves the object
        table = x if rng.random() < 0.5 else memoryview(x.tobytes()).cast("d")
        length = len(code) if rng.random() < 0.8 else rng.randint(0, len(code))
        before = x.tobytes()  # writable, yet the stack's pointers to x must only be read
        got, want = kernel_outcome(kernel, code, length, table), python_outcome(code, length, x)
        assert got == want, (code[:length].hex(), x.tolist(), got, want)
        assert x.tobytes() == before, code[:length].hex()


def fuzz_abs_error(kernel, rng, count: int) -> None:
    """`abs_error` against `python_abs_error`: the same bits, for random term counts and
    every count up to 300, over special values or magnitudes that make the order show."""
    for n in [*range(301), 1000, 4097, *(rng.randrange(1000) for _ in range(count))]:
        if rng.random() < 0.3:
            pred = array("d", [rng.choice(SPECIAL) for _ in range(n)])
        else:
            pred = array("d", [rng.gauss(0.0, 1.0) * 10.0 ** rng.randint(-8, 8) for _ in range(n)])
        targets = array("d", [rng.gauss(0.0, 1.0) for _ in range(n)])
        got, want = kernel.abs_error(pred, targets), python_abs_error(pred, targets)
        assert got.hex() == want.hex(), (n, got, want)


def random_state(rng) -> tuple:
    """A Mersenne Twister state: random or all-zero words (a stream of zero words), and an
    index at a twist boundary, mid-block or anywhere."""
    words = (0,) * 624 if rng.random() < 0.1 else tuple(rng.getrandbits(32) for _ in range(624))
    return words + (rng.choice((0, 1, 623, 624, rng.randint(2, 622), rng.randint(0, 624))),)


def outputs(m: int) -> tuple[array, array, array]:
    """`draw`'s mums, dads and points for m members, each slot a sentinel that no draw of
    a parent gives, and that a point word gives once in 2**32."""
    return array("i", [-1]) * m, array("i", [-1]) * m, array("I", [2 ** 32 - 1]) * (
        POINTS_PER_CHILD * m)


def fuzz_draw(kernel, rng, count: int) -> None:
    """`draw` against `python_draw` on the same state: every slot of the mums, dads and points
    written, as the twin draws them, the same state after, and the fitness bytes left as
    they were."""
    for _ in range(count):
        m, k = rng.randint(0, 40), rng.randint(1, 12)
        fitness = array("d", [rng.choice(FITNESSES) for _ in range(m)])
        if rng.random() < 0.3:  # a Problem's kind of table: read-only
            fitness = memoryview(fitness.tobytes()).cast("d")
        before, state = bytes(fitness), random_state(rng)
        got, want = outputs(m), outputs(m)
        after = kernel.draw(state, fitness, k, *got)
        assert after == genome.python_draw(state, fitness, k, *want), (m, k, state[-1])
        assert got == want, (fitness.tolist(), k, state[-1])
        assert bytes(fitness) == before


def random_parents(rng) -> tuple:
    """(mums, dads), two array("i")s of 0-40 children: random pairs, every child on one
    parent, every child a self-crossover, or a mix; now and then read-only views. One time
    in eight the lengths differ or a parent is out of range."""
    m, kind = rng.randint(0, 40), rng.randrange(4)
    mums = [rng.randrange(m) for _ in range(m)] if kind != 1 else [m - 1] * m
    dads = (list(mums) if kind == 2 else [m - 1] * m if kind == 1
            else [p if rng.random() < 0.3 else rng.randrange(m) for p in mums] if kind == 3
            else [rng.randrange(m) for _ in range(m)])
    if rng.random() < 1 / 8:
        bad = rng.choice((mums, dads))
        if m and rng.random() < 0.7:
            bad[rng.randrange(m)] = rng.choice((m, -1, m + 5, -m - 1, 2 ** 31 - 1, -2 ** 31))
        elif bad and rng.random() < 0.5:
            bad.pop()
        else:
            bad.append(0)
    mums, dads = array("i", mums), array("i", dads)
    if rng.random() < 0.2:
        return memoryview(mums).toreadonly(), memoryview(dads).toreadonly()
    return mums, dads


def plan_outcome(build, mums, dads):
    """The three lists, or the ValueError's text."""
    try:
        return build(mums, dads)
    except ValueError as refused:
        return f"ValueError: {refused}"


def fuzz_plan(kernel, rng, count: int) -> None:
    """`plan` against `python_plan`: the same children, status and chain1 lists of ints, or
    the same ValueError text."""
    for _ in range(count):
        mums, dads = random_parents(rng)
        got = plan_outcome(kernel.plan, mums, dads)
        assert got == plan_outcome(python_plan, mums, dads), (mums, dads, got)


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


class Resizing:
    """Garbage in a reference cycle, whose finalizer tries to shrink and to grow each of its
    arrays, logging each refusal, then overwrites each item of its inputs: a double with
    NaN, an int with a parent out of range."""

    def __init__(self, refused: list, inputs, outputs=()):
        self.refused, self.inputs, self.outputs, self.cycle = refused, inputs, outputs, self

    def __del__(self):
        for values in (*self.inputs, *self.outputs):
            for resize in (values.pop, lambda: values.append(values[0])):
                try:
                    resize()
                except BufferError:  # as an exported array refuses
                    self.refused.append(values.typecode)
        for values in self.inputs:
            for i in range(len(values)):
                values[i] = math.nan if values.typecode == "d" else len(values)


def wrong_buffers(fmt: str, count: int, output: bool) -> list:
    """What every typed argument refuses with TypeError where it takes `count` items of format
    `fmt`: each other format, of the same bytes where it fits them ("l", "q", "i" and "I"
    swapped, "d" for ints and "f"), bytes, a strided and an unaligned view, a list and no
    buffer; for an output, also a read-only view."""
    size = count * array(fmt).itemsize
    others = [array(f, [0]) * (size // array(f).itemsize) for f in "lqiIdf" if f != fmt]
    others += [bytes(size), memoryview(array(fmt, [0]) * (2 * count))[::2],
               memoryview(bytearray(size + 1))[1:].cast(fmt), [0] * count, 3.0]
    return others + [memoryview(array(fmt, [0]) * count).toreadonly()] * output


def check_row_refusals(kernel) -> None:
    """`evaluate` reads x, and `abs_error` pred and targets, only where each is an aligned,
    C-contiguous buffer of format "d", and both refuse any other with TypeError, on the kernel
    and (`evaluate`) in Python alike; `abs_error` refuses counts that differ with ValueError.
    `evaluate` takes no output buffer: it writes only the row it returns. Nothing is read
    past a view."""
    code = bytes([ADD, VAR_X, VAR_X])
    # the item past each view is nan: a read past either would show in the sum or the row
    values, zeros = array("d", [1.0, 2.0, 3.0, math.nan]), array("d", [0.0] * 4)
    row, targets = memoryview(values)[:3], memoryview(zeros)[:3]
    assert memoryview(kernel.evaluate(code, 3, row)).tolist() == [2.0, 4.0, 6.0]
    assert kernel.abs_error(row, targets) == 6.0
    unaligned = memoryview(bytearray(8 * 3 + 1))[1:].cast("d")
    others = [array("f", [1.0] * 3), array("q", [1] * 3), np.zeros(3, ">f8"), bytes(24),
              memoryview(values)[::2], memoryview(values)[:4][::-1], unaligned, [1.0, 2.0, 3.0],
              np.zeros((3, 2))[:, 0], 3.0]
    for other in others:
        for call, args in ((kernel.evaluate, (code, 3, other)),
                           (genome._interpret, (code, 3, other)),
                           (kernel.abs_error, (other, targets)), (kernel.abs_error, (row, other))):
            try:
                call(*args)
            except TypeError:
                continue
            raise AssertionError(f"{call.__name__} took {other!r}")
    # targets short or long by one, and no values at all against some
    for args in ((row, targets[:2]), (row[:2], targets), (row, memoryview(zeros)),
                 (row[:0], targets)):
        try:
            kernel.abs_error(*args)
        except ValueError:
            continue
        raise AssertionError(f"abs_error took {[len(a) for a in args]} values")
    # an output buffer of any kind, read-only, short or writable, is a wrong count of arguments
    for out in (bytes(24), memoryview(zeros)[:2], memoryview(array("d", [0.0] * 3))):
        try:
            kernel.evaluate(code, 3, row, out)
        except TypeError:
            continue
        raise AssertionError(f"evaluate took an output buffer {out!r}")
    assert values.tolist()[:3] == [1.0, 2.0, 3.0] and zeros.tolist() == [0.0] * 4


def check_refusals(kernel) -> None:
    """Malformed arguments raise, and nothing is read or written past a buffer."""
    check_row_refusals(kernel)
    # a state of 623 or 626 entries, an index of -1 or 625, a word of 2**32 or a float, not
    # a tuple; k = 0; fitness, mums, dads or points a word short or long: ValueError, and
    # any argument of another kind: TypeError; both before anything is written
    rng = random.Random(5)
    before = rng.getstate()
    state, m = before[1], 4
    fit, (mums, dads, points) = array("d", [0.0, 1.0, math.nan, -1.0]), outputs(m)
    good = (state, fit, 1, mums, dads, points)
    bad = [(state[:623],), (state + (0,),), (state[:-1] + (-1,),), (state[:-1] + (625,),),
           ((2 ** 32,) + state[1:],), (state[:5] + (1.0,) + state[6:],), (list(state),),
           (state, fit, 0)]
    for i, fmt, count in ((1, "d", m), (3, "i", m), (4, "i", m), (5, "I", POINTS_PER_CHILD * m)):
        for other in (count - 1, count + 1):
            bad.append(good[:i] + (array(fmt, [0]) * other,) + good[i + 1:])
    for draw in (kernel.draw, genome.python_draw):
        for args in bad:
            try:
                draw(*args, *good[len(args):])
            except ValueError:
                continue
            raise AssertionError(f"{draw} took "
                                 f"{[len(a) if hasattr(a, '__len__') else a for a in args]}")
    wrong = [good[:2] + (1.0,) + good[3:], good[:-1], good + (points,)]
    for i, fmt, count in ((1, "d", m), (3, "i", m), (4, "i", m), (5, "I", POINTS_PER_CHILD * m)):
        wrong += [good[:i] + (other,) + good[i + 1:] for other in wrong_buffers(fmt, count, i > 1)]
    wrong.append(good[:5] + (np.zeros(POINTS_PER_CHILD * m, np.int32),))
    for draw in (kernel.draw, genome.python_draw):
        for args in wrong:
            try:
                draw(*args)
            except TypeError:
                continue
            raise AssertionError(f"{draw} took {args[1:]!r}")
    assert rng.getstate() == before and (mums, dads, points) == outputs(m), "draw wrote"
    # lengths that differ, or a parent out of range: refused with python_plan's text
    for ms, ds, text in (([0, 1], [1], "mums and dads must have equal length"),
                         ([0], [1, 0], "mums and dads must have equal length"),
                         ([0, 2], [1, 1], "parent index out of range for child 1"),
                         ([0, 1], [-1, 1], "parent index out of range for child 0"),
                         ([5, 0], [1, 1], "parent index out of range for child 0"),
                         ([0, -2 ** 31], [2 ** 31 - 1, 0],
                          "parent index out of range for child 0")):
        for build in (kernel.plan, python_plan):
            got = plan_outcome(build, array("i", ms), array("i", ds))
            assert got == f"ValueError: {text}", (build, ms, ds)
    # anything but two int32 buffers, or a wrong count: refused
    parents = array("i", [0, 1])
    wrong = [(parents,), (parents,) * 3, (parents, np.array([1, 0]))]
    for other in wrong_buffers("i", 2, False):
        wrong += [(other, parents), (parents, other)]
    for args in wrong:
        try:
            kernel.plan(*args)
        except TypeError:
            continue
        raise AssertionError(f"plan took {args!r}")
    # a collection that starts inside the kernel, with a finalizer that tries to resize the
    # arrays it reads and writes and overwrites its inputs: each is held, so none resizes,
    # and each function has copied its inputs before it writes or builds anything, so the
    # results are those of the arrays as passed
    m, threshold, refused = 2000, gc.get_threshold(), []
    mums, dads = array("i", range(m)), array("i", [i // 2 for i in range(m)])
    fit = array("d", [float(i % 7) for i in range(m)])
    start, want_draw = random.Random(0).getstate()[1], outputs(m)
    want_plan, want_after = python_plan(mums, dads), genome.python_draw(start, fit, 7, *want_draw)
    got_draw = got_mums, got_dads, points = outputs(m)  # no star-call: its tuple would collect
    enabled = gc.isenabled()
    try:
        gc.set_threshold(1)  # each new container starts a collection
        # each probe is made with no collection, so it is garbage in the youngest generation,
        # which the kernel's first new container collects; a collection while it was being
        # made would move it to an older one, left uncollected through a short call
        gc.disable()
        Resizing(refused, (mums, dads))
        gc.enable()
        got_plan = kernel.plan(mums, dads)
        gc.disable()
        Resizing(refused, (fit,), got_draw)
        gc.enable()
        after = kernel.draw(start, fit, 7, got_mums, got_dads, points)
    finally:
        gc.set_threshold(*threshold)
        (gc.enable if enabled else gc.disable)()
    assert refused == list("iiiiddiiiiII"), f"a finalizer resized an exported array: {refused}"
    assert mums.tolist() == dads.tolist() == [m] * m and all(map(math.isnan, fit))
    assert got_plan == want_plan, "plan read parents that changed"
    assert got_draw == want_draw and after == want_after, "draw read changed fitness"
    for args in ((b"", 1), (bytes([4]), 1, bytes([4]), 1, bytearray(1), 1)):
        try:
            kernel.crossover(*args)
        except TypeError:
            continue
        raise AssertionError(f"crossover took {args!r}")
    # a length past any buffer and points a word short, a genome that is no buffer, a
    # read-only child, or point words of anything but an aligned, C-contiguous buffer of
    # format "I": both paths refuse them alike
    parents = (bytes([4]), 1, bytes([4]), 1)
    words = array("I", [0]) * POINTS_PER_CHILD
    refused = [("ValueError", (bytes([4]), 2 ** 70, bytes([4]), 1, bytearray(1), 1, words)),
               ("ValueError", (*parents, bytearray(1), 1, words[1:])),
               ("TypeError", ([4], 1, bytes([4]), 1, bytearray(1), 1, words)),
               ("TypeError", (bytes([4]), 1, [4], 1, bytearray(1), 1, words)),
               ("BufferError", (*parents, memoryview(bytearray(1)).toreadonly(), 1, words))]
    int32 = np.zeros(POINTS_PER_CHILD, np.int32)
    for other in wrong_buffers("I", POINTS_PER_CHILD, False) + [int32]:
        refused.append(("TypeError", (*parents, bytearray(1), 1, other)))
    for error, args in refused:
        for cross in (kernel.crossover, genome.python_crossover):
            assert crossover_outcome(cross, *args) == (error, bytes(1)), (cross, args)


def check_all(kernel, seed: int = 26) -> None:
    """Every part of the fuzz over `kernel`, from one seeded stream."""
    rng = random.Random(seed)
    fuzz_evaluate(kernel, rng, 15000)
    fuzz_abs_error(kernel, rng, 300)
    fuzz_draw(kernel, rng, 3000)
    fuzz_plan(kernel, rng, 3000)
    fuzz_crossover(kernel, rng, 8000)
    check_refusals(kernel)


if __name__ == "__main__":
    check_all(_kernel.load_file(sys.argv[1]))
    print("kernel fuzz: ok")
