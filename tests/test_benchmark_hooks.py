"""The traced benchmark run instruments poolgp from outside; keep its hooks working."""

import importlib.util
from pathlib import Path

from poolgp import engine
from poolgp.engine import PooledEngine, RunConfig, run_evolution


def load_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
    assert calls["engine.threads.start"] == 2 * (cfg.generations - 1)
    counters = tracer.counters()
    assert counters["claims.class1"] + counters["claims.class2"] == children
    assert counters["release.childless"] + counters["release.early"] == children
    layers = tracing.raw_layer_totals(tracer)
    assert layers["engine.lock.hold.n"] == layers["engine.lock.wait.n"] > 0
    # one hold per claim: each child, then the None that ends each worker
    assert layers["engine.lock.hold.n"] == (cfg.generations - 1) * (cfg.popsize + cfg.nthreads)
    # every real evaluation goes through the traced names; reused fitness does not
    opcodes = sum(row.total_opcodes_evaluated for row in traced.stats)
    reused = sum(row.fitness_reused for row in traced.stats)
    assert counters["evaluate.opcodes"] == opcodes > 0
    assert calls["problems.fitness"] == cfg.popsize * cfg.generations - reused
