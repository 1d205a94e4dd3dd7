"""One benchmark repetition in a fresh process; prints one JSON line.

    python3 perfbench/one_run.py '<json request>'

The request names the RunConfig fields, whether to trace, and where to write
the spans. The child times `import poolgp` plus `PooledEngine(config)` as
set-up, then `engine.run()`, and reports its own peak RSS, so each figure
comes from a process that ran exactly one workload run.
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import common  # noqa: E402


def peak_rss_mib() -> float:
    """This process's own peak RSS.

    ru_maxrss is no good here: execve carries the parent's high-water mark
    over into the child, so every child would report at least the driver's.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main() -> int:
    request = json.loads(sys.argv[1])
    poolgp = common.import_poolgp()
    config = poolgp.RunConfig(**request["config"])
    engine = poolgp.PooledEngine(config)
    setup_s = time.perf_counter() - T_START
    out = {"setup_s": setup_s}
    if request.get("setup_only"):
        print(json.dumps(out))
        return 0

    if request["trace"]:
        import tracing

        result, run_s, tracer = tracing.run_traced(engine)
        out["layers"] = tracing.raw_layer_totals(tracer)
        if request.get("spans_path"):
            tracer.write(request["spans_path"])
    else:
        gen_s = []
        run_generation = engine.run_generation

        def timed_generation(g):
            t0 = time.perf_counter()
            run_generation(g)
            gen_s.append(time.perf_counter() - t0)

        engine.run_generation = timed_generation
        t0 = time.perf_counter()
        result = engine.run()
        run_s = time.perf_counter() - t0
        # generation 0 (random population) is whatever run() spent outside breeding
        out["gen_s"] = [run_s - sum(gen_s)] + gen_s

    stats = result.stats
    breeding = stats[1:]
    mean_idle = sum(r.idle_fraction for r in breeding) / len(breeding) if breeding else 0.0
    out.update(
        run_s=run_s,
        generations=len(stats),
        children=config.popsize * (len(stats) - 1),
        opcodes=sum(r.total_opcodes_evaluated for r in stats),
        peak_buffers=result.peak_buffers,
        capacity=result.capacity,
        allocated=stats[-1].allocated_slots,
        pool_used_peak=[r.pool_used_peak for r in stats],
        effective_cores=poolgp.metrics.effective_cores(max(1, config.nthreads), mean_idle),
        fitness=common.fitness_digests(result.fitness_history),
        genomes=common.genome_digest(result.genomes),
        maxrss_mib=peak_rss_mib(),
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
