"""The per-node loops in C, built once per machine as an extension module.

Five functions, in _kernel.c: the genome interpreter (`evaluate`, which
returns a new row of doubles, a buffer of format "d"), the error sum
(`abs_error`), a generation's draws from the master's Mersenne Twister
stream (`draw`: every tournament, into the mums and dads arrays, then every
crossover point), subtree crossover (`crossover`, which walks arities
itself) and the breeding plan's tables (`plan`). Every typed argument is an
aligned, C-contiguous buffer of one format: doubles "d", parents "i" and
point words "I"; anything else raises TypeError, as it does on the Python
path of `evaluate`, `draw` and `crossover`. Where `load` finds no kernel,
each has a twin in plain Python, whose floats are the same doubles:
`genome.evaluate` runs `genome._interpret`, `Problem.fitness` sums with
`problems.python_abs_error`, `engine.draw_outcome` with `genome.python_draw`,
`genome.subtree_crossover` is `genome.python_crossover`, and `BreedingPlan`
builds with `breeding_plan.python_plan`. Each twin is also the reference that
the kernel matches to the bit; tests/kernel_fuzz.py checks each pair.

The file is compiled against Python's headers alone (`command`): it reads its
buffers and returns doubles through the buffer protocol, so neither its build
nor its cache key involves numpy, and loading it imports nothing but the module.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.machinery
import importlib.util
import os
import shlex
import stat
import sysconfig
from pathlib import Path

SOURCE = Path(__file__).with_name("_kernel.c")  # shipped as package data
FLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")  # no fused a*b + c: numpy's bits
ERRORS = {1: "opcode out of range", 2: "a function node without two operands",
          3: "incomplete prefix encoding", 4: "no memory for the work area",
          5: "length outside the code buffer"}  # by status
ON_STACK = 2048  # 8-byte cells of work area that run() keeps on the C stack: 16 KiB
KEPT = 4  # kernel files a cache keeps: two checkouts that alternate both stay built


def defines(constants, attempts: int) -> tuple[str, ...]:
    """The -D flags that give the C genome.py's numbers: the constants to the bit, as hex."""
    return (f"-DCONSTANTS_LIST={','.join(float(c).hex() for c in constants)}",
            f"-DCROSSOVER_ATTEMPTS={attempts:d}", f"-DON_STACK={ON_STACK:d}")


def command(constants, attempts: int) -> list[str]:
    """The compiler's argv that builds the kernel, up to the output and the source: the
    compiler, FLAGS, `defines`, and Python's include directory."""
    return [*shlex.split(sysconfig.get_config_var("CC") or "cc"), *FLAGS,
            *defines(constants, attempts), f"-I{sysconfig.get_paths()['include']}"]


def load(constants, attempts: int):
    """The kernel module over `constants` and `attempts` crossover attempts per child,
    built into the user's cache on first use, or None."""
    argv = command(constants, attempts)
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"  # the interpreter's ABI
    base = os.environ.get("XDG_CACHE_HOME", "")  # a relative one is ignored, as XDG says
    cache = Path(base if os.path.isabs(base) else os.path.expanduser("~/.cache"), "poolgp")
    try:
        source = SOURCE.read_text()
        key = "\0".join((source, *argv, sysconfig.get_platform(), suffix))
        path = cache / f"kernel-{hashlib.sha256(key.encode()).hexdigest()[:20]}{suffix}"
        cache.mkdir(mode=0o700, parents=True, exist_ok=True)
        if not (_private(cache) and (path.exists() or _build(source, argv, path))
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


def _build(source: str, argv, path: Path) -> bool:
    """Compile `source` with `argv` in a temporary directory beside `path`, then move it there."""
    import subprocess
    import tempfile

    with tempfile.TemporaryDirectory(dir=path.parent) as tmp:
        so_file = Path(tmp, "kernel.so")
        try:  # the source on stdin, as C
            subprocess.run([*argv, "-o", str(so_file), "-x", "c", "-"],
                           input=source, text=True, check=True, capture_output=True, timeout=120)
        except (OSError, subprocess.SubprocessError):
            return False
        so_file.chmod(0o700)
        os.replace(so_file, path)
    return True
