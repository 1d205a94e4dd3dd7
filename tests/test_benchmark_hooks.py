"""The traced benchmark run instruments poolgp from outside; keep its hooks working."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from poolgp import engine
from poolgp.engine import PooledEngine, RunConfig, run_evolution
from poolgp.naive import run_evolution_naive

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tracing():
    return load_perfbench("tracing")


def test_traced_run_sees_every_hook_and_changes_no_result():
    tracing = load_tracing()
    cfg = RunConfig(popsize=16, nthreads=2, generations=3, buffer_bytes=63, max_initial_depth=4)
    draw_outcome = engine.draw_outcome
    traced, _, tracer = tracing.run_traced(PooledEngine(cfg))
    plain = run_evolution(cfg)
    assert traced.genomes == plain.genomes
    assert traced.fitness_history == plain.fitness_history
    assert engine.draw_outcome is draw_outcome  # the tracer put everything back

    children = cfg.popsize * (cfg.generations - 1)
    calls = {name: row[0] for name, row in tracer.totals().items()}
    assert calls["engine.draw_outcome"] == cfg.generations - 1
    assert calls["breeding_plan.build"] == cfg.generations - 1
    assert calls["engine.child_stream"] == children
    assert calls["genome.subtree_crossover"] == children
    assert calls["breeding_plan.rem_child"] == 2 * children
    assert calls["engine.threads.start"] == (cfg.nthreads - 1) * (cfg.generations - 1)
    counters = tracer.counters()
    assert counters["claims.class1"] + counters["claims.class2"] == children
    assert counters["release.childless"] + counters["release.early"] == children
    layers = tracing.raw_layer_totals(tracer)
    assert layers["engine.lock.hold.n"] == layers["engine.lock.wait.n"] > 0
    # one hold per claim: each child, then the None that ends each worker
    assert layers["engine.lock.hold.n"] == (cfg.generations - 1) * (cfg.popsize + cfg.nthreads)
    # every member of every generation is evaluated through the traced names
    opcodes = sum(row.total_opcodes_evaluated for row in traced.stats)
    assert counters["evaluate.opcodes"] == opcodes > 0
    assert calls["problems.fitness"] == cfg.popsize * cfg.generations


def one_run(request):
    """The benchmark's run child on `request`: its last printed JSON line."""
    proc = subprocess.run([sys.executable, str(PERFBENCH / "one_run.py"), json.dumps(request)],
                          cwd=PERFBENCH.parent, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_run_child_reports_what_run_py_reads():
    # perfbench/run.py reads these fields of every untraced child; a change
    # that breaks one must fail here, not only inside the benchmark
    common = load_perfbench("common")
    fields = dict(popsize=16, nthreads=2, generations=3, buffer_bytes=63,
                  max_initial_depth=4, seed=1)
    out = one_run({"config": fields, "trace": 0})
    oracle = run_evolution_naive(RunConfig(**fields))
    assert out["fitness"] == common.fitness_digests(oracle.fitness_history)
    assert out["genomes"] == common.genome_digest(oracle.genomes)
    assert out["capacity"] == 20
    assert out["peak_buffers"] <= out["capacity"]
    assert len(out["gen_s"]) == 3
    assert out["children"] == 32
    assert all(17 <= peak <= 20 for peak in out["pool_used_peak"][1:])
    assert {"run_s", "setup_s", "opcodes", "allocated", "effective_cores", "maxrss_mib"} <= out.keys()
    assert one_run({"config": fields, "setup_only": True})["setup_s"] > 0


def test_the_tracer_sees_each_python_walk_and_none_in_the_kernel(evaluator):
    # the tracer counts crossover attempts from its wrapper of genome.subtree_end, so
    # python_crossover must look the walk up there; the kernel's crossover walks in C
    tracing = load_tracing()
    cfg = RunConfig(popsize=16, nthreads=0, generations=3, buffer_bytes=63, max_initial_depth=4)
    _, _, tracer = tracing.run_traced(PooledEngine(cfg))
    attempts = tracer.counters()["crossover.attempts"]
    walks = tracer.totals()["genome.subtree_end"][0]
    if evaluator == "numpy":
        assert attempts >= cfg.popsize * (cfg.generations - 1)
        assert walks == 2 * attempts
    else:
        assert (attempts, walks) == (0, 0)
