"""The genome interpreter in C, compiled once per machine and loaded with ctypes.

Where `load` finds no kernel, `genome.evaluate` runs its numpy interpreter,
which is also the reference for the kernel's bits.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import stat
import sysconfig
from pathlib import Path

# Opcodes as numbered in genome.py. Each stack value is n doubles, and the top
# one is a, as in _interpret. A complete encoding of length cells holds at most
# cap = (length + 1) / 2 values at once, so a push past cap is an incomplete one.
SOURCE = r"""
#include <stddef.h>
#include <stdlib.h>
#include <string.h>
enum { ADD, SUB, MUL, DIV, VAR_X, CONST_BASE };
static const double CONSTANTS[] = { %(constants)s };
#define END (CONST_BASE + (int)(sizeof CONSTANTS / sizeof *CONSTANTS))

/* 0, with the root's n values in out, or an ERRORS status */
int poolgp_evaluate(const unsigned char *code, ptrdiff_t length, const double *x,
                    ptrdiff_t n, double *out)
{
    ptrdiff_t cap = (length + 1) / 2, depth = 0, i, j;
    double *stack, *a, *b;
    int status = 0;
    if (length < 1 || n < 0)
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
"""
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")  # no fused a*b + c: numpy's bits
ERRORS = {1: "opcode out of range", 2: "a function node without two operands",
          3: "incomplete prefix encoding", 4: "no memory for the value stack"}  # by status


def load(constants) -> ctypes._CFuncPtr | None:
    """The kernel over `constants`, built into the user's cache on first use."""
    source = SOURCE % {"constants": ", ".join(float(c).hex() for c in constants)}
    cc = sysconfig.get_config_var("CC") or "cc"
    key = "\0".join((source, *FLAGS, cc, sysconfig.get_platform())).encode()
    base = os.environ.get("XDG_CACHE_HOME", "")  # a relative one is ignored, as XDG says
    cache = Path(base if os.path.isabs(base) else os.path.expanduser("~/.cache"), "poolgp")
    path = cache / f"kernel-{hashlib.sha256(key).hexdigest()[:20]}.so"
    try:
        cache.mkdir(mode=0o700, parents=True, exist_ok=True)
        if not (_private(cache) and (path.exists() or _build(source, cc, path))
                and _private(path)):
            return None
        fn = ctypes.PyDLL(str(path)).poolgp_evaluate
    except (OSError, AttributeError):
        return None
    fn.argtypes = (ctypes.c_char_p, ctypes.c_ssize_t, ctypes.c_void_p, ctypes.c_ssize_t,
                   ctypes.c_void_p)
    fn.restype = ctypes.c_int
    return fn


def _private(path: Path) -> bool:
    """`path` is ours, not a symlink, and no one else may write to it."""
    st = path.lstat()
    return (st.st_uid == os.getuid() and not stat.S_ISLNK(st.st_mode)
            and not st.st_mode & (stat.S_IWGRP | stat.S_IWOTH))


def _build(source: str, cc: str, path: Path) -> bool:
    """Compile `source` in a temporary directory beside `path`, then move it there."""
    import shlex
    import subprocess
    import tempfile

    with tempfile.TemporaryDirectory(dir=path.parent) as tmp:
        so_file = Path(tmp, "kernel.so")
        try:  # the source on stdin, as C
            subprocess.run([*shlex.split(cc), *FLAGS, "-o", str(so_file), "-x", "c", "-"],
                           input=source, text=True, check=True, capture_output=True, timeout=120)
        except (OSError, subprocess.SubprocessError):
            return False
        so_file.chmod(0o700)
        os.replace(so_file, path)
    return True
