"""Command-line front end: run either engine, write metrics, print the summary."""

from __future__ import annotations

import argparse
import sys

from . import metrics
from .engine import RunConfig, run_evolution
from .naive import run_evolution_naive


def build_parser() -> argparse.ArgumentParser:
    defaults = RunConfig()  # RunConfig.validate checks every value at run time
    parser = argparse.ArgumentParser(
        prog="poolgp",
        description="Generational GP with a bounded genome-buffer footprint "
        "(pooled engine) or the plain two-population scheme (naive engine).",
    )
    parser.add_argument("--popsize", type=int, default=defaults.popsize,
                        help="population size M (default %(default)s)")
    parser.add_argument("--threads", type=int, default=None,
                        help="breeder threads; 0 runs breeding inline "
                        f"(default {defaults.nthreads})")
    parser.add_argument("--generations", type=int, default=defaults.generations,
                        help="total generations including the random first one "
                        "(default %(default)s)")
    parser.add_argument("--seed", type=int, default=defaults.seed,
                        help="master random seed (default %(default)s)")
    parser.add_argument("--buffer-bytes", type=int, default=defaults.buffer_bytes,
                        help="fixed size of every genome buffer (default %(default)s)")
    parser.add_argument("--tournament-size", type=int, default=defaults.tournament_size,
                        help="tournament size for parent selection (default %(default)s)")
    parser.add_argument("--engine", choices=("pooled", "naive"), default="pooled",
                        help="pooled = bounded-memory engine, naive = two-population reference")
    parser.add_argument("--max-initial-depth", type=int, default=defaults.max_initial_depth,
                        help="largest ramped depth for the random first generation "
                        "(default %(default)s)")
    parser.add_argument("--csv", metavar="PATH", default=None,
                        help="write per-generation statistics to this CSV file")
    parser.add_argument("--zero-time", action="store_true",
                        help="zero wall-clock fields in the CSV (for golden-file comparisons)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the summary line and warnings")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    threads = RunConfig().nthreads  # the naive engine runs and is checked with this
    if args.threads is not None and args.engine == "pooled":
        threads = args.threads
    elif args.threads is not None and not args.quiet:
        print("warning: --engine naive is single-threaded; ignoring --threads",
              file=sys.stderr)

    config = RunConfig(
        popsize=args.popsize,
        nthreads=threads,
        generations=args.generations,
        buffer_bytes=args.buffer_bytes,
        tournament_size=args.tournament_size,
        seed=args.seed,
        max_initial_depth=args.max_initial_depth,
    )
    try:
        config.validate()
    except ValueError as exc:
        print(f"poolgp: configuration error: {exc}", file=sys.stderr)
        return 2

    if args.engine == "naive":
        result = run_evolution_naive(config)
    else:
        result = run_evolution(config)

    status = 0
    if args.csv is not None:
        rows = result.stats
        if args.zero_time:
            rows = [metrics.zero_wall_clock(row) for row in rows]
        try:
            metrics.emit_csv(rows, args.csv)
        except OSError as exc:
            print(f"poolgp: cannot write CSV {args.csv!r}: {exc}", file=sys.stderr)
            status = 1

    if not args.quiet:
        breeding = result.stats[1:]
        mean_idle = (
            sum(row.idle_fraction for row in breeding) / len(breeding) if breeding else 0.0
        )
        cores = metrics.effective_cores(len(result.stats[-1].worker_busy_times), mean_idle)
        print(
            f"engine={args.engine} popsize={config.popsize} threads={threads} "
            f"generations={config.generations} seed={config.seed} "
            f"capacity={result.capacity} peak_buffers={result.peak_buffers} "
            f"bound={result.capacity} "
            f"effective_cores={cores:.2f} best_fitness={min(result.fitness_history[-1])!r}"
        )
    return status


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
