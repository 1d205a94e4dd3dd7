"""The C kernel: what is built where, what is loaded, the numpy fallback, and its five functions.

The cache cases build into their own empty cache directory, most of them by
importing poolgp in a fresh process that runs pooled against naive there and
reports the evaluator. The others call the loaded module's functions
directly, against numpy's bits and past the ends of buffers, or build its
source into a temporary directory: with every warning an error, and with
sanitizers under the differential fuzz in kernel_fuzz.py.
"""

import math
import os
import shlex
import shutil
import stat
import subprocess
import sys
import sysconfig
from pathlib import Path

import kernel_fuzz
import numpy as np
import pytest

from poolgp import _kernel, engine, genome, naive
from poolgp.genome import ADD, CONSTANTS, CROSSOVER_ATTEMPTS, MUL, VAR_X, float_errors_ignored
from poolgp.problems import Problem

SRC = Path(genome.__file__).resolve().parents[1]
TESTS = Path(__file__).resolve().parent
SCRIPT = (
    "from poolgp import RunConfig, genome, run_evolution, run_evolution_naive\n"
    "cfg = RunConfig(popsize=20, generations=3, buffer_bytes=63, max_initial_depth=4, seed=3)\n"
    "if run_evolution(cfg).genomes != run_evolution_naive(cfg).genomes:\n"
    "    raise SystemExit('pooled != naive')\n"
    "print(genome.evaluator())\n"
)


def load_kernel(constants):
    """`_kernel.load` as genome.py calls it, over `constants`."""
    return _kernel.load(constants, CROSSOVER_ATTEMPTS)


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
    built = kernel.stat().st_ino  # a build moves a new file in; a load only touches it
    assert evaluator_in_fresh_process(cache) == "c"
    assert kernel.stat().st_ino == built  # loaded, not built again


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


@needs_kernel
def test_a_kernel_built_for_another_abi_is_never_reused(tmp_path, monkeypatch):
    # the file's hash and suffix cover the interpreter's EXT_SUFFIX, so one
    # Python never loads a module built for another
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    assert load_kernel(CONSTANTS) is not None
    (first,) = (tmp_path / "poolgp").iterdir()
    built = first.stat().st_mtime_ns
    config_var = sysconfig.get_config_var
    monkeypatch.setattr(sysconfig, "get_config_var", lambda name: (
        ".cpython-00-other.so" if name == "EXT_SUFFIX" else config_var(name)))
    assert load_kernel(CONSTANTS) is not None  # the compiler still builds for this one
    (other,) = set((tmp_path / "poolgp").iterdir()) - {first}
    assert other.name.endswith(".cpython-00-other.so")
    assert first.stat().st_mtime_ns == built


@needs_kernel
def test_the_cache_keeps_only_the_most_recently_used_kernels(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    cache = tmp_path / "poolgp"
    cache.mkdir(mode=0o700)
    stale = [cache / f"kernel-stale{i}.so" for i in range(10)]
    for i, path in enumerate(stale):
        path.write_bytes(b"")
        os.utime(path, (1e9 + i, 1e9 + i))  # 2001, stale9 the most recent
    (cache / "notes.txt").write_bytes(b"")
    assert load_kernel(CONSTANTS) is not None
    (live,) = set(cache.glob("kernel-*")) - set(stale)
    assert {p.name for p in cache.iterdir()} == {
        live.name, "notes.txt", *(p.name for p in stale[len(stale) + 1 - _kernel.KEPT:])}
    # two sources in turn, as two checkouts run in alternation: each reuses its file
    other = tuple(c + 1.0 for c in CONSTANTS)
    assert load_kernel(other) is not None
    (built,) = set(cache.glob("kernel-*")) - set(stale) - {live}
    kept = {p: p.stat().st_ino for p in (live, built)}
    for constants in (CONSTANTS, other, CONSTANTS, other):
        assert load_kernel(constants) is not None
    assert {p: p.stat().st_ino for p in (live, built)} == kept
    assert len(list(cache.glob("kernel-*"))) == _kernel.KEPT


def test_without_python_headers_the_build_fails_and_nothing_is_reused(tmp_path, monkeypatch):
    # the hash also covers the include directory: one without Python.h builds
    # nothing and loads nothing, so the run falls back to numpy
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    assert (load_kernel(CONSTANTS) is None) == (genome.evaluator() == "numpy")
    before = sorted((tmp_path / "cache" / "poolgp").iterdir())
    paths = sysconfig.get_paths
    monkeypatch.setattr(sysconfig, "get_paths",
                        lambda *a, **k: dict(paths(*a, **k), include=str(tmp_path)))
    assert load_kernel(CONSTANTS) is None
    assert sorted((tmp_path / "cache" / "poolgp").iterdir()) == before


SPECIAL = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e300, -1e300])


def error_tables():
    """(pred, targets) pairs over all three branches of numpy's pairwise sum and special values."""
    rng = np.random.default_rng(22)
    for n in (1, 7, 8, 20, 128, 129, 400):  # < 8, 8 to 128 and > 128 terms
        # magnitudes from 1e-8 to 1e8, so the order of the additions shows in the bits
        yield rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, n), rng.standard_normal(n)
    finite = SPECIAL[np.isfinite(SPECIAL)]
    for values in (SPECIAL, finite):  # each value against each
        pred, targets = np.meshgrid(values, values)
        yield pred.ravel(), targets.ravel()
    yield np.full(3, 1.5e308), np.zeros(3)  # finite errors whose sum overflows


def numpy_abs_error(pred, targets):
    """`Problem.fitness`'s numpy tail: the sum of |pred - targets|, inf where not finite."""
    with float_errors_ignored():
        err = float(np.add.reduce(abs(pred - targets), None))
    return err if math.isfinite(err) else math.inf


def bits(value):
    return np.float64(value).view(np.int64)


@needs_kernel
def test_abs_error_sums_in_numpys_order_to_the_bit():
    tables = list(error_tables())
    rng = np.random.default_rng(5)
    tables += [(rng.standard_normal(n) * 1e6, rng.standard_normal(n))
               for n in rng.integers(1, 400, 200)]
    in_order = 0
    for pred, targets in tables:
        want = numpy_abs_error(pred, targets)
        assert bits(genome._native.abs_error(pred, targets)) == bits(want), len(pred)
        with float_errors_ignored():
            in_order += bits(sum(abs(pred - targets).tolist())) != bits(want)
    assert in_order > 0  # a plain left-to-right sum would fail this test
    assert genome._native.abs_error(np.full(3, 1.5e308), np.zeros(3)) == math.inf


def test_fitness_sums_like_numpy_on_either_evaluator(evaluator):
    half = CONSTANTS.index(0.5) + genome.CONST_BASE
    for x, targets in error_tables():
        p = Problem(inputs=x, targets=targets)
        with float_errors_ignored():
            for code, pred in (([VAR_X], x), ([MUL, VAR_X, half], x * 0.5),
                               ([ADD, VAR_X, VAR_X], x + x)):
                got = p.fitness(bytes(code), len(code))
                assert bits(got) == bits(numpy_abs_error(pred, targets)), (code, len(x))


@needs_kernel
def test_the_kernel_never_reads_or_writes_past_a_buffer():
    kernel = genome._native
    # the cell past the code's view is an opcode past the last terminal, so a
    # read past the view would report status 1, not refuse with status 5
    code = memoryview(bytearray([ADD, VAR_X, VAR_X, 255]))[:3]
    x, out = np.linspace(-1.0, 1.0, 4), np.empty(4)
    assert kernel.evaluate(code, 3, x, out) == 0 and out.tolist() == (x + x).tolist()
    for length in (4, 5, -1, 2 ** 40):
        assert kernel.evaluate(code, length, x, out) == 5, length
    with pytest.raises(OverflowError):
        kernel.evaluate(code, 2 ** 70, x, out)
    sentinel = np.full(6, 7.0)
    for short_or_long in (sentinel[:3], sentinel[:5]):
        assert kernel.evaluate(code, 3, x, short_or_long) == 5
    assert sentinel.tolist() == [7.0] * 6
    # the term past each view is nan: a read past either would give inf
    pred, targets = np.array([1.0, 2.0, 3.0, np.nan]), np.array([0.0, 0.0, 0.0, np.nan, np.nan])
    assert kernel.abs_error(pred[:3], targets[:3]) == 6.0
    for p, t in ((pred[:3], targets[:4]), (pred[:4], targets[:3]), (pred[:0], targets[:1])):
        with pytest.raises(ValueError):
            kernel.abs_error(p, t)
    # a strided view, a read-only out, a length that is no integer and a wrong count raise
    for args in ((code, 3, np.linspace(-1.0, 1.0, 8)[::2], out),
                 (code, 3, x, np.frombuffer(bytes(32))), (code, 3.0, x, out), (code, 3, x)):
        with pytest.raises((TypeError, ValueError, BufferError)):
            kernel.evaluate(*args)
    with pytest.raises(TypeError):
        kernel.abs_error(pred)


@needs_kernel
def test_the_kernel_has_five_functions_and_the_fallback_replaces_each(numpy_evaluator):
    # a function added to the kernel needs a numpy or Python twin, switched in here
    kernel = load_kernel(CONSTANTS)
    assert {name for name in dir(kernel) if not name.startswith("_")} == {
        "evaluate", "abs_error", "subtree_end", "tournaments", "crossover"}
    assert genome._native is None and genome.evaluator() == "numpy"
    assert genome.subtree_end is genome.arity_walk
    for module in (genome, engine, naive):
        assert module.subtree_crossover is genome.python_crossover, module


@needs_kernel
def test_the_kernel_agrees_with_python_under_a_seeded_differential_fuzz():
    kernel_fuzz.check_all(genome._native)


def compiler():
    """The C compiler's command, or a skip where there is none."""
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    if not shutil.which(cc[0]):
        pytest.skip(f"no C compiler {cc[0]!r}")
    return cc


@needs_kernel
def test_the_kernel_builds_without_a_warning(tmp_path):
    compiler()
    proc = kernel_fuzz.build(tmp_path / "kernel.so", "-Wall", "-Wextra", "-Werror")
    assert proc.returncode == 0, proc.stderr


@needs_kernel
def test_the_fuzz_runs_clean_under_address_and_undefined_behaviour_sanitizers(tmp_path):
    cc = compiler()
    asan = subprocess.run([*cc, "-print-file-name=libasan.so"], capture_output=True,
                          text=True).stdout.strip()
    if not os.path.isabs(asan) or not os.path.exists(asan):
        pytest.skip("no libasan.so")
    kernel = tmp_path / "kernel.so"
    proc = kernel_fuzz.build(kernel, "-fsanitize=address,undefined", "-fno-sanitize-recover=all",
                             "-fno-omit-frame-pointer")
    assert proc.returncode == 0, proc.stderr
    # the interpreter is not instrumented, so the runtime must be loaded first; and every
    # Python buffer comes from malloc, not from pymalloc's arenas, where ASan sees no bounds
    env = dict(os.environ, LD_PRELOAD=asan, ASAN_OPTIONS="detect_leaks=0", PYTHONMALLOC="malloc",
               PYTHONPATH=os.pathsep.join((str(SRC), str(TESTS))))
    proc = subprocess.run([sys.executable, str(TESTS / "kernel_fuzz.py"), str(kernel)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0 and proc.stdout.strip() == "kernel fuzz: ok", proc.stderr[-5000:]
