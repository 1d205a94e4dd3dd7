"""Command-line front end: run either engine, write metrics, print the summary."""

from __future__ import annotations

import argparse
import sys

from . import metrics
from .engine import RunConfig, run_evolution
from .expr_pool import PoolExhaustedError, worker_count
from .naive import run_evolution_naive
from .problems import PROBLEMS


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poolgp",
        description="Generational GP with a bounded genome-buffer footprint "
        "(pooled engine) or the plain two-population scheme (naive engine).",
    )
    parser.add_argument("--popsize", type=_positive_int, default=500,
                        help="population size M (default 500)")
    parser.add_argument("--threads", type=_nonnegative_int, default=None,
                        help="breeder threads; 0 runs breeding inline (default 8)")
    parser.add_argument("--generations", type=_positive_int, default=20,
                        help="total generations including the random first one (default 20)")
    parser.add_argument("--seed", type=int, default=1, help="master random seed (default 1)")
    parser.add_argument("--buffer-bytes", type=_positive_int, default=1024,
                        help="fixed size of every genome buffer (default 1024)")
    parser.add_argument("--tournament-size", type=_positive_int, default=7,
                        help="tournament size for parent selection (default 7)")
    parser.add_argument("--engine", choices=("pooled", "naive"), default="pooled",
                        help="pooled = bounded-memory engine, naive = two-population reference")
    parser.add_argument("--problem", choices=sorted(PROBLEMS), default="quartic",
                        help="fitness problem (default quartic)")
    parser.add_argument("--max-initial-depth", type=_positive_int, default=6,
                        help="largest ramped depth for the random first generation (default 6)")
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

    threads_given = args.threads is not None
    threads = args.threads if threads_given else 8
    if args.engine == "naive" and threads_given and not args.quiet:
        print("warning: --engine naive is single-threaded; ignoring --threads",
              file=sys.stderr)

    config = RunConfig(
        popsize=args.popsize,
        nthreads=threads,
        generations=args.generations,
        buffer_bytes=args.buffer_bytes,
        tournament_size=args.tournament_size,
        seed=args.seed,
        problem=args.problem,
        max_initial_depth=args.max_initial_depth,
    )
    try:
        config.validate()
    except ValueError as exc:
        print(f"poolgp: configuration error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.engine == "naive":
            result = run_evolution_naive(config)
        else:
            result = run_evolution(config)
    except PoolExhaustedError as exc:
        print(f"poolgp: fatal: {exc}", file=sys.stderr)
        return 1

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
        nworkers = worker_count(config.popsize, config.nthreads) if args.engine == "pooled" else 1
        breeding = result.stats[1:]
        mean_idle = (
            sum(row.idle_fraction for row in breeding) / len(breeding) if breeding else 0.0
        )
        cores = metrics.effective_cores(nworkers, mean_idle)
        print(
            f"engine={args.engine} popsize={config.popsize} threads={threads} "
            f"generations={config.generations} seed={config.seed} "
            f"capacity={result.capacity} peak_buffers={result.peak_buffers} "
            f"bound={result.capacity} "
            f"effective_cores={cores:.2f} best_fitness={min(result.fitnesses)!r}"
        )
    return status


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
