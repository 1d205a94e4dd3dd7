"""The C kernel: what is built where, what is loaded, the Python fallback, and its five functions.

The cache cases build into their own empty cache directory, most of them by
importing poolgp in a fresh process that runs pooled against naive there and
reports the evaluator. The others call the loaded module's functions
directly, against numpy's bits and past the ends of buffers, or build its
source into a temporary directory: with every warning an error, and with
sanitizers under the differential fuzz in kernel_fuzz.py.
"""

import math
import os
import re
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
import test_trajectory

from poolgp import _kernel, breeding_plan, engine, genome, naive
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


def no_compiler(tmp_path) -> dict:
    """The environment of a fresh process that finds no compiler and an empty cache, or a skip
    where the compiler does not depend on PATH."""
    cc = sysconfig.get_config_var("CC") or "cc"
    if os.path.isabs(shlex.split(cc)[0]):
        pytest.skip(f"the compiler {cc!r} does not depend on PATH")
    empty = tmp_path / "bin"
    empty.mkdir()
    return dict(XDG_CACHE_HOME=str(tmp_path / "cache"), PATH=str(empty))


def test_without_a_compiler_runs_in_python(tmp_path):
    env = no_compiler(tmp_path)
    assert evaluator_in_fresh_process(tmp_path / "cache", PATH=env["PATH"]) == "python"
    assert list((tmp_path / "cache" / "poolgp").iterdir()) == []
    # the fallback imports no numpy either
    proc = subprocess.run([sys.executable, "-c", NUMPY_FREE_RUN], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC), **env), timeout=120)
    assert proc.returncode == 0 and proc.stdout.split() == ["python", "False"], proc.stderr


# pooled at threads 0 and 2 and naive: test_trajectory's runs, and its digests
NUMPY_BLOCKED_RUNS = (
    "import sys\n"
    "sys.modules['numpy'] = None  # any import of numpy raises\n"
    "from poolgp import RunConfig, genome, run_evolution, run_evolution_naive\n"
    "from test_trajectory import CONFIG, RUNS, digests\n"
    "for run, nthreads in RUNS:\n"
    "    print(genome.evaluator(), *digests(run(RunConfig(nthreads=nthreads, **CONFIG))))\n"
)


@pytest.mark.parametrize("path", ["kernel", "python"])
def test_every_run_keeps_its_digests_where_numpy_cannot_be_imported(path, tmp_path):
    # numpy is no dependency: with its import blocked, every run of either path keeps the
    # golden trajectory
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(TESTS))))
    if path == "python":
        env.update(no_compiler(tmp_path))
    elif genome.evaluator() != "c":
        pytest.skip("no C kernel on this machine")
    proc = subprocess.run([sys.executable, "-c", NUMPY_BLOCKED_RUNS], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    evaluator = "c" if path == "kernel" else "python"
    want = " ".join((evaluator, test_trajectory.FITNESS_SHA256, test_trajectory.GENOMES_SHA256))
    assert proc.stdout.splitlines() == [want] * len(test_trajectory.RUNS)


NUMPY_FREE_RUN = (
    "import sys\n"
    "from poolgp import RunConfig, genome, run_evolution, run_evolution_naive\n"
    "cfg = RunConfig(popsize=60, nthreads=2, generations=4, buffer_bytes=63, max_initial_depth=4,\n"
    "                seed=3)\n"
    "if run_evolution(cfg).fitness_history != run_evolution_naive(cfg).fitness_history:\n"
    "    raise SystemExit('pooled != naive')\n"
    "print(genome.evaluator(), 'numpy' in sys.modules)\n"
    "if genome.evaluator() == 'c' and 'ctypes' in sys.modules:\n"
    "    raise SystemExit('ctypes imported')\n"
)


@needs_kernel
def test_a_run_on_the_kernel_never_imports_numpy():
    # numpy's import is most of a small run's memory and set-up: on the kernel, neither the
    # engines nor the command line import it, not even inside a score pass; nor ctypes, which
    # only the Python twins' reads load
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", NUMPY_FREE_RUN], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0 and proc.stdout.split() == ["c", "False"], proc.stderr
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "poolgp", "--popsize", "60",
                           "--threads", "2", "--generations", "4"], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0 and "evaluator=c" in proc.stdout, proc.stderr
    imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")]
    assert "poolgp.engine" in imported
    assert not [name for name in imported if name.split(".")[0] in ("numpy", "ctypes")]


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
        assert evaluator_in_fresh_process(cache) == "python", oct(mode)
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
    # nothing and loads nothing, so the run falls back to Python
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    assert (load_kernel(CONSTANTS) is None) == (genome.evaluator() == "python")
    before = sorted((tmp_path / "cache" / "poolgp").iterdir())
    paths = sysconfig.get_paths
    monkeypatch.setattr(sysconfig, "get_paths",
                        lambda *a, **k: dict(paths(*a, **k), include=str(tmp_path)))
    assert load_kernel(CONSTANTS) is None
    assert sorted((tmp_path / "cache" / "poolgp").iterdir()) == before


def test_the_kernel_is_built_and_cached_without_numpy(tmp_path, monkeypatch):
    # the file reads and returns doubles through the buffer protocol: neither its source, nor
    # its compiler command, nor its cache key names numpy, so another numpy reuses the file
    headers = re.findall(r"^\s*#\s*include\s*[<\"]([^>\"]+)", _kernel.SOURCE.read_text(), re.M)
    assert "Python.h" in headers and not [h for h in headers if "numpy" in h], headers
    assert not [arg for arg in _kernel.command(CONSTANTS, CROSSOVER_ATTEMPTS) if "numpy" in arg]
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    if load_kernel(CONSTANTS) is None:
        pytest.skip("no C kernel on this machine")
    (built,) = (tmp_path / "cache" / "poolgp").iterdir()
    inode = built.stat().st_ino
    monkeypatch.setattr(np, "__version__", "0.0.0-other")
    assert load_kernel(CONSTANTS) is not None
    assert [(p, p.stat().st_ino) for p in (tmp_path / "cache" / "poolgp").iterdir()] == [
        (built, inode)]


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
    """numpy's own sum of |pred - targets|, inf where not finite: the oracle of both paths'
    error sums."""
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
    x = np.linspace(-1.0, 1.0, 4)
    assert memoryview(kernel.evaluate(code, 3, x)).tolist() == (x + x).tolist()
    for length in (4, 5, -1, 2 ** 40, 2 ** 70, -(2 ** 70)):  # however far outside: status 5
        assert kernel.evaluate(code, length, x) == 5, length
    # the term past each view is nan: a read past either would give inf
    pred, targets = np.array([1.0, 2.0, 3.0, np.nan]), np.array([0.0, 0.0, 0.0, np.nan, np.nan])
    assert kernel.abs_error(pred[:3], targets[:3]) == 6.0
    for p, t in ((pred[:3], targets[:4]), (pred[:4], targets[:3]), (pred[:0], targets[:1])):
        with pytest.raises(ValueError):
            kernel.abs_error(p, t)
    # an x the kernel cannot read in place is refused
    for other in ([0.5], np.linspace(-1.0, 1.0, 8)[::2], x.astype(">f8"), x.astype(np.float32),
                  np.frombuffer(bytes(33), np.float64, 4, 1), np.asfortranarray(np.eye(2))):
        with pytest.raises(TypeError):
            kernel.evaluate(code, 3, other)
    # any aligned, C-contiguous buffer of format "d" is read in place, whatever its type
    for same in (x.view(np.recarray), memoryview(x.tobytes()).cast("d"), x.reshape(2, 2)):
        assert memoryview(kernel.evaluate(code, 3, same)).tolist() == (x + x).tolist()
    # a length that is no integer and a wrong count raise
    for args in ((code, 3.0, x), (code, 3), (code, 3, x, x)):
        with pytest.raises(TypeError):
            kernel.evaluate(*args)
    with pytest.raises(TypeError):
        kernel.abs_error(pred)


def test_the_build_flags_keep_numpys_bits():
    # no fused a * b + c, no reassociation, and no instructions the cache key does not name:
    # a kernel built on one host may be loaded on another that shares the cache
    assert "-ffp-contract=off" in _kernel.FLAGS
    assert not {"-ffast-math", "-Ofast", "-march=native", "-mfma"} & set(_kernel.FLAGS)


@needs_kernel
def test_the_kernel_has_five_functions_and_the_fallback_replaces_each(python_evaluator,
                                                                      monkeypatch):
    # a function added to the kernel needs a Python twin, switched in here
    kernel = load_kernel(CONSTANTS)
    assert {name for name in dir(kernel) if not name.startswith("_")} == {
        "evaluate", "abs_error", "draw", "crossover", "plan"}
    assert genome._native is None and genome.evaluator() == "python"
    for module in (genome, engine, naive):
        assert module.subtree_crossover is genome.python_crossover, module
    # draw_outcome's fallback is pinned in test_engine; the plan's is looked up per build
    built = []
    python_plan = breeding_plan.python_plan
    monkeypatch.setattr(breeding_plan, "python_plan",
                        lambda *parents: built.append(parents) or python_plan(*parents))
    plan = breeding_plan.BreedingPlan([0, 0, 1], [1, 0, 2])
    assert built == [([0, 0, 1], [1, 0, 2])] and plan.status == [2, 2, 1]


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
