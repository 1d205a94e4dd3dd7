"""The genome interpreter and error sum in C, built once per machine as an extension module.

Where `load` finds no kernel, `genome.evaluate` runs its numpy interpreter and
`Problem.fitness` sums in numpy; both are also the reference for the kernel's bits.
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
enum { ADD, SUB, MUL, DIV, VAR_X, CONST_BASE };
static const double CONSTANTS[] = { %(constants)s };
#define END (CONST_BASE + (int)(sizeof CONSTANTS / sizeof *CONSTANTS))

/* 0, with the root's n values in out, or an ERRORS status */
static int run(const unsigned char *code, Py_ssize_t length, const double *x, Py_ssize_t n,
               double *out)
{
    Py_ssize_t cap = (length + 1) / 2, depth = 0, i, j;
    double *stack, *a, *b;
    int status = 0;
    if (length < 1)
        return 3;
    if ((size_t)n > (size_t)-1 / 2 / sizeof(double) / (size_t)cap
        || !(stack = malloc(sizeof(double) * (size_t)(cap * n) + 1)))
        return 4;
    for (i = length - 1; i >= 0 && !status; i--) {
        int op = code[i];
        if (op >= END)
            status = 1;
        else if (op >= VAR_X && depth == cap)
            status = 3;
        else if (op >= VAR_X)
            for (b = stack + depth++ * n, j = 0; j < n; j++)
                b[j] = op == VAR_X ? x[j] : CONSTANTS[op - CONST_BASE];
        else if (depth < 2)
            status = 2;
        else
            for (a = stack + --depth * n, b = a - n, j = 0; j < n; j++)
                b[j] = op == ADD ? a[j] + b[j] : op == SUB ? a[j] - b[j]
                     : op == MUL ? a[j] * b[j] : b[j] != 0.0 ? a[j] / b[j] : 1.0;
    }
    if (!status && depth == 1)
        memcpy(out, stack, sizeof(double) * (size_t)n);
    free(stack);
    return status ? status : depth == 1 ? 0 : 3;
}

/* evaluate(code, length, x, out) -> 0 with the root's values in out, or an ERRORS status;
   every buffer is a C-contiguous view, or refused */
static PyObject *evaluate(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
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
static PyObject *abs_error(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
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
    { NULL },
};
static struct PyModuleDef module = { PyModuleDef_HEAD_INIT, "poolgp_kernel", NULL, 0, methods };
PyMODINIT_FUNC PyInit_poolgp_kernel(void) { return PyModuleDef_Init(&module); }
"""
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")  # no fused a*b + c: numpy's bits
ERRORS = {1: "opcode out of range", 2: "a function node without two operands",
          3: "incomplete prefix encoding", 4: "no memory for the value stack",
          5: "length past the code buffer, or out not the size of x"}  # by status
KEPT = 4  # kernel files a cache keeps: two checkouts that alternate both stay built


def load(constants):
    """The kernel module over `constants`, built into the user's cache on first use, or None."""
    source = SOURCE % {"constants": ", ".join(float(c).hex() for c in constants)}
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
        loader = importlib.machinery.ExtensionFileLoader("poolgp_kernel", str(path))
        module = importlib.util.module_from_spec(importlib.util.spec_from_loader(loader.name, loader))
        loader.exec_module(module)  # multi-phase init: the module stays out of sys.modules
    except (OSError, ImportError):
        return None
    with contextlib.suppress(OSError):  # another process may be pruning the same files
        os.utime(path)  # kept as the most recently used
        others = sorted(set(cache.glob("kernel-*")) - {path}, key=os.path.getmtime, reverse=True)
        for old in others[KEPT - 1:]:
            old.unlink(missing_ok=True)
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
