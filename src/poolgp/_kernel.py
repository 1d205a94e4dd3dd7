"""The per-node loops in C, built once per machine as an extension module.

Four functions: the genome interpreter (`evaluate`), the error sum
(`abs_error`), the arity walk (`subtree_end`) and the ranking of a block of
tournaments (`tournaments`). Where `load` finds no kernel, `genome.evaluate`
runs its numpy interpreter, `Problem.fitness` sums in numpy,
`genome.subtree_end` is `genome.arity_walk` and `engine.draw_outcome` ranks
with `engine.rank_tournaments`. Each of these is also the reference that the
kernel matches to the bit; tests/kernel_fuzz.py checks each pair.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.machinery
import importlib.util
import os
import stat
import sysconfig
from pathlib import Path

# Opcodes as numbered in genome.py. Each stack value is n doubles, and the top
# one is a, as in _interpret. A complete encoding of length cells holds at most
# cap = (length + 1) / 2 values at once, so a push past cap is an incomplete one.
SOURCE = r"""
#include <Python.h>
#include <stdint.h>
enum { ADD, SUB, MUL, DIV, VAR_X, CONST_BASE };
static const double CONSTANTS[] = { %(constants)s };
#define END (CONST_BASE + (int)(sizeof CONSTANTS / sizeof *CONSTANTS))
#define ON_STACK %(on_stack)d

/* 0, with the root's n values in out, or an ERRORS status. The value stack is cap * n
   doubles: on the C stack up to ON_STACK (a 127-cell genome over 32 cases), else from
   malloc. Each node picks its opcode once and runs one plain loop over the n values. */
static int run(const unsigned char *code, Py_ssize_t length, const double *x, Py_ssize_t n,
               double *out)
{
    double local[ON_STACK], *stack = local, *a, *b, c;
    Py_ssize_t cap = (length + 1) / 2, depth = 0, i, j;
    int status = 0;
    if (length < 1)
        return 3;
    if ((size_t)n > (size_t)-1 / 2 / sizeof(double) / (size_t)cap
        || (cap * n > ON_STACK && !(stack = malloc(sizeof(double) * (size_t)(cap * n)))))
        return 4;
    for (i = length - 1; i >= 0 && !status; i--) {
        int op = code[i];
        if (op >= END)
            status = 1;
        else if (op >= VAR_X && depth == cap)
            status = 3;
        else if (op == VAR_X)
            memcpy(stack + depth++ * n, x, sizeof(double) * (size_t)n);
        else if (op > VAR_X)
            for (b = stack + depth++ * n, c = CONSTANTS[op - CONST_BASE], j = 0; j < n; j++)
                b[j] = c;
        else if (depth < 2)
            status = 2;
        else {
            a = stack + --depth * n, b = a - n;
            switch (op) {
            case ADD: for (j = 0; j < n; j++) b[j] = a[j] + b[j]; break;
            case SUB: for (j = 0; j < n; j++) b[j] = a[j] - b[j]; break;
            case MUL: for (j = 0; j < n; j++) b[j] = a[j] * b[j]; break;
            default: for (j = 0; j < n; j++) b[j] = b[j] != 0.0 ? a[j] / b[j] : 1.0;
            }
        }
    }
    if (!status && depth == 1)
        memcpy(out, stack, sizeof(double) * (size_t)n);
    if (stack != local)
        free(stack);
    return status ? status : depth == 1 ? 0 : 3;
}

/* evaluate(code, length, x, out) -> 0 with the root's values in out, or an ERRORS status;
   every buffer is a C-contiguous view, or refused */
static PyObject *evaluate(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer c = { 0 }, x = { 0 }, out = { 0 };  /* releasing one never taken does nothing */
    Py_ssize_t length;
    int status = -1;
    if (nargs != 4)
        return PyErr_Format(PyExc_TypeError, "evaluate takes 4 arguments");
    if (((length = PyLong_AsSsize_t(args[1])) != -1 || !PyErr_Occurred())
        && !PyObject_GetBuffer(args[0], &c, PyBUF_SIMPLE)
        && !PyObject_GetBuffer(args[2], &x, PyBUF_SIMPLE)
        && !PyObject_GetBuffer(args[3], &out, PyBUF_WRITABLE))
        status = length < 0 || length > c.len || out.len != x.len ? 5
               : run(c.buf, length, x.buf, x.len / (Py_ssize_t)sizeof(double), out.buf);
    PyBuffer_Release(&c), PyBuffer_Release(&x), PyBuffer_Release(&out);
    return status < 0 ? NULL : PyLong_FromLong(status);
}

/* subtree_end(code, start) -> one past the subtree rooted at start, by an arity walk over
   code's bytes; IndexError where the walk leaves code. A negative index counts from the
   end, as code[i] does in Python. */
static PyObject *subtree_end(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer c = { 0 };
    Py_ssize_t i, k, need = 1;
    if (nargs != 2)
        return PyErr_Format(PyExc_TypeError, "subtree_end takes 2 arguments");
    if (((i = PyNumber_AsSsize_t(args[1], PyExc_IndexError)) == -1 && PyErr_Occurred())
        || PyObject_GetBuffer(args[0], &c, PyBUF_SIMPLE))
        return NULL;
    for (; need; i++) {
        k = i < 0 ? i + c.len : i;
        if (k < 0 || k >= c.len) {
            PyErr_SetString(PyExc_IndexError, "subtree_end walked out of the code");
            break;
        }
        need += ((const unsigned char *)c.buf)[k] < VAR_X ? 1 : -1;
    }
    PyBuffer_Release(&c);
    return need ? NULL : PyLong_FromSsize_t(i);
}

/* tournaments(words, fit, k, out): out[r] (uint64) is the winner of the best of the k
   entrants that little-endian uint32 words r * k to r * k + k - 1 draw, word u drawing
   member (u * m) >> 32 of fit's m doubles. The lowest fitness wins, NaN ranking as inf,
   and ties go to the lowest index. */
static PyObject *tournaments(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer w = { 0 }, f = { 0 }, out = { 0 };
    Py_ssize_t k, m, n, r, i;
    if (nargs != 4)
        return PyErr_Format(PyExc_TypeError, "tournaments takes 4 arguments");
    if (((k = PyLong_AsSsize_t(args[2])) != -1 || !PyErr_Occurred())
        && !PyObject_GetBuffer(args[0], &w, PyBUF_SIMPLE)
        && !PyObject_GetBuffer(args[1], &f, PyBUF_SIMPLE)
        && !PyObject_GetBuffer(args[3], &out, PyBUF_WRITABLE)) {
        const unsigned char *u = w.buf;
        const double *fit = f.buf;
        uint64_t *winner = out.buf;
        m = f.len / (Py_ssize_t)sizeof(double), n = out.len / (Py_ssize_t)sizeof(uint64_t);
        if (k < 1 || (n && (m < 1 || (uint64_t)m > UINT32_MAX)) || n > PY_SSIZE_T_MAX / 4 / k
            || w.len != 4 * n * k)
            PyErr_SetString(PyExc_ValueError, "tournaments: k, words, fit and out disagree");
        else
            for (r = 0; r < n; r++) {
                uint64_t best = 0, e;
                double low = 0.0, v;
                for (i = 0; i < k; i++, u += 4) {
                    e = (((uint64_t)u[0] | (uint64_t)u[1] << 8 | (uint64_t)u[2] << 16
                          | (uint64_t)u[3] << 24) * (uint64_t)m) >> 32;
                    v = isnan(fit[e]) ? INFINITY : fit[e];
                    if (!i || v < low || (v == low && e < best))
                        best = e, low = v;
                }
                winner[r] = best;
            }
    }
    PyBuffer_Release(&w), PyBuffer_Release(&f), PyBuffer_Release(&out);
    return PyErr_Occurred() ? NULL : Py_NewRef(Py_None);
}

/* numpy's pairwise sum of |p - t| (loops_utils.h): 8 accumulators up to 128, halves above */
static double pairwise(const double *p, const double *t, Py_ssize_t n)
{
    double r[8] = { 0 }, res = -0.0;  /* 0.0 + |d| is |d|: numpy's r[i] = |d| */
    Py_ssize_t i = 0, half = n / 16 * 8;
    if (n > 128)
        return pairwise(p, t, half) + pairwise(p + half, t + half, n - half);
    for (; i < n / 8 * 8; i++)
        r[i & 7] += fabs(p[i] - t[i]);
    if (n >= 8)
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
    for (; i < n; i++)
        res += fabs(p[i] - t[i]);
    return res;
}

/* abs_error(pred, targets) -> the sum of |pred - targets| from 0.0, or inf where not finite */
static PyObject *abs_error(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer p = { 0 }, t = { 0 };
    double sum = 0.0;
    if (nargs != 2)
        return PyErr_Format(PyExc_TypeError, "abs_error takes 2 arguments");
    if (!PyObject_GetBuffer(args[0], &p, PyBUF_SIMPLE)
        && !PyObject_GetBuffer(args[1], &t, PyBUF_SIMPLE)) {
        if (p.len == t.len)
            sum += pairwise(p.buf, t.buf, p.len / (Py_ssize_t)sizeof(double));
        else
            PyErr_SetString(PyExc_ValueError, "pred and targets differ in size");
    }
    PyBuffer_Release(&p), PyBuffer_Release(&t);
    return PyErr_Occurred() ? NULL : PyFloat_FromDouble(isfinite(sum) ? sum : INFINITY);
}

static PyMethodDef methods[] = {
    { "evaluate", (PyCFunction)(void (*)(void))evaluate, METH_FASTCALL, NULL },
    { "abs_error", (PyCFunction)(void (*)(void))abs_error, METH_FASTCALL, NULL },
    { "subtree_end", (PyCFunction)(void (*)(void))subtree_end, METH_FASTCALL, NULL },
    { "tournaments", (PyCFunction)(void (*)(void))tournaments, METH_FASTCALL, NULL },
    { NULL },
};
static struct PyModuleDef module = { PyModuleDef_HEAD_INIT, "poolgp_kernel", NULL, 0, methods,
                                       NULL, NULL, NULL, NULL };
PyMODINIT_FUNC PyInit_poolgp_kernel(void) { return PyModuleDef_Init(&module); }
"""
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")  # no fused a*b + c: numpy's bits
ERRORS = {1: "opcode out of range", 2: "a function node without two operands",
          3: "incomplete prefix encoding", 4: "no memory for the value stack",
          5: "length past the code buffer, or out not the size of x"}  # by status
ON_STACK = 2048  # doubles of value stack that run() keeps on the C stack: 16 KiB
KEPT = 4  # kernel files a cache keeps: two checkouts that alternate both stay built


def c_source(constants) -> str:
    """The kernel's C over `constants`."""
    return SOURCE % {"constants": ", ".join(float(c).hex() for c in constants),
                     "on_stack": ON_STACK}


def load(constants):
    """The kernel module over `constants`, built into the user's cache on first use, or None."""
    source = c_source(constants)
    cc = sysconfig.get_config_var("CC") or "cc"
    include = sysconfig.get_paths()["include"]
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"  # the interpreter's ABI
    key = "\0".join((source, *FLAGS, cc, sysconfig.get_platform(), suffix, include)).encode()
    base = os.environ.get("XDG_CACHE_HOME", "")  # a relative one is ignored, as XDG says
    cache = Path(base if os.path.isabs(base) else os.path.expanduser("~/.cache"), "poolgp")
    path = cache / f"kernel-{hashlib.sha256(key).hexdigest()[:20]}{suffix}"
    try:
        cache.mkdir(mode=0o700, parents=True, exist_ok=True)
        if not (_private(cache) and (path.exists() or _build(source, cc, include, path))
                and _private(path)):
            return None
        module = load_file(path)
    except (OSError, ImportError):
        return None
    with contextlib.suppress(OSError):  # another process may be pruning the same files
        os.utime(path)  # kept as the most recently used
        others = sorted(set(cache.glob("kernel-*")) - {path}, key=os.path.getmtime, reverse=True)
        for old in others[KEPT - 1:]:
            old.unlink(missing_ok=True)
    return module


def load_file(path):
    """The kernel module in the extension file at `path`."""
    loader = importlib.machinery.ExtensionFileLoader("poolgp_kernel", str(path))
    module = importlib.util.module_from_spec(importlib.util.spec_from_loader(loader.name, loader))
    loader.exec_module(module)  # multi-phase init: the module stays out of sys.modules
    return module


def _private(path: Path) -> bool:
    """`path` is ours, not a symlink, and no one else may write to it."""
    st = path.lstat()
    return (st.st_uid == os.getuid() and not stat.S_ISLNK(st.st_mode)
            and not st.st_mode & (stat.S_IWGRP | stat.S_IWOTH))


def _build(source: str, cc: str, include: str, path: Path) -> bool:
    """Compile `source` in a temporary directory beside `path`, then move it there."""
    import shlex
    import subprocess
    import tempfile

    with tempfile.TemporaryDirectory(dir=path.parent) as tmp:
        so_file = Path(tmp, "kernel.so")
        try:  # the source on stdin, as C
            subprocess.run([*shlex.split(cc), *FLAGS, f"-I{include}", "-o", str(so_file),
                            "-x", "c", "-"],
                           input=source, text=True, check=True, capture_output=True, timeout=120)
        except (OSError, subprocess.SubprocessError):
            return False
        so_file.chmod(0o700)
        os.replace(so_file, path)
    return True
