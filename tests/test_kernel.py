"""The C kernel's cache: what is built where, what is loaded, and the numpy fallback.

Each case imports poolgp in a fresh process over its own empty cache
directory, runs pooled against naive there and reports the evaluator.
"""

import os
import shlex
import stat
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

from poolgp import genome

SRC = Path(genome.__file__).resolve().parents[1]
SCRIPT = (
    "from poolgp import RunConfig, genome, run_evolution, run_evolution_naive\n"
    "cfg = RunConfig(popsize=20, generations=3, buffer_bytes=63, max_initial_depth=4, seed=3)\n"
    "if run_evolution(cfg).genomes != run_evolution_naive(cfg).genomes:\n"
    "    raise SystemExit('pooled != naive')\n"
    "print(genome.evaluator())\n"
)
needs_kernel = pytest.mark.skipif(genome.evaluator() != "c", reason="no C kernel on this machine")


def evaluator_in_fresh_process(cache, **env):
    env = dict(os.environ, XDG_CACHE_HOME=str(cache), PYTHONPATH=str(SRC), **env)
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_without_a_compiler_runs_in_numpy(tmp_path):
    cc = sysconfig.get_config_var("CC") or "cc"
    if os.path.isabs(shlex.split(cc)[0]):
        pytest.skip(f"the compiler {cc!r} does not depend on PATH")
    empty = tmp_path / "bin"
    empty.mkdir()
    assert evaluator_in_fresh_process(tmp_path / "cache", PATH=str(empty)) == "numpy"
    assert list((tmp_path / "cache" / "poolgp").iterdir()) == []


@needs_kernel
def test_the_kernel_is_built_once_into_a_private_cache(tmp_path):
    cache = tmp_path / "cache"
    assert evaluator_in_fresh_process(cache) == "c"
    (kernel,) = (cache / "poolgp").iterdir()
    assert stat.S_IMODE((cache / "poolgp").stat().st_mode) == 0o700
    assert not kernel.stat().st_mode & (stat.S_IWGRP | stat.S_IWOTH)
    built = kernel.stat().st_mtime_ns
    assert evaluator_in_fresh_process(cache) == "c"
    assert kernel.stat().st_mtime_ns == built  # loaded, not built again


@needs_kernel
def test_a_kernel_others_could_rewrite_is_never_loaded(tmp_path):
    cache = tmp_path / "cache"
    assert evaluator_in_fresh_process(cache) == "c"
    (kernel,) = (cache / "poolgp").iterdir()
    for target, mode in ((kernel, 0o720), (kernel, 0o702), (cache / "poolgp", 0o770)):
        target.chmod(mode)
        assert evaluator_in_fresh_process(cache) == "numpy", oct(mode)
        target.chmod(0o700)
    assert evaluator_in_fresh_process(cache) == "c"
