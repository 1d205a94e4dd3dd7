"""Command-line front end: run either engine, write metrics, print the summary."""

from __future__ import annotations

import argparse
import sys

from . import genome, metrics
from .engine import RunConfig, run_evolution
from .naive import run_evolution_naive


# each RunConfig setting's flag, in --help order: flag -> (field, help); its default is RunConfig's
SETTINGS = {
    "--popsize": ("popsize", "population size M"),
    "--threads": ("nthreads", "the master breeds with N - 1 helper threads; 0 or 1 starts none"),
    "--generations": ("generations", "total generations including the random first one"),
    "--seed": ("seed", "master random seed"),
    "--buffer-bytes": ("buffer_bytes", "fixed size of every genome buffer"),
    "--tournament-size": ("tournament_size", "tournament size for parent selection"),
    "--max-initial-depth": ("max_initial_depth", "largest ramped depth for the random first "
                            "generation"),
}


def build_parser() -> argparse.ArgumentParser:
    defaults = RunConfig()  # RunConfig.validate checks every value at run time
    parser = argparse.ArgumentParser(
        prog="poolgp",
        description="Generational GP with a bounded genome-buffer footprint "
        "(pooled engine) or the plain two-population scheme (naive engine).",
    )
    for flag, (field, text) in SETTINGS.items():
        # None means "not given", so the field keeps RunConfig's default
        parser.add_argument(flag, type=int, dest=field, metavar=flag[2:].upper().replace("-", "_"),
                            help=f"{text} (default {getattr(defaults, field)})")
    parser.add_argument("--engine", choices=("pooled", "naive"), default="pooled",
                        help="pooled = bounded-memory engine, naive = two-population reference")
    parser.add_argument("--csv", metavar="PATH", default=None,
                        help="write per-generation statistics to this CSV file")
    parser.add_argument("--zero-time", action="store_true",
                        help="zero wall-clock fields in the CSV (for golden-file comparisons)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the summary line and warnings")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    given = {field: v for field, _ in SETTINGS.values() if (v := getattr(args, field)) is not None}
    # the naive engine runs, and is checked, with RunConfig's thread count
    if args.engine == "naive" and given.pop("nthreads", None) is not None and not args.quiet:
        print("warning: --engine naive is single-threaded; ignoring --threads", file=sys.stderr)
    config = RunConfig(**given)
    try:
        config.validate()
    except ValueError as exc:
        print(f"poolgp: configuration error: {exc}", file=sys.stderr)
        return 2

    result = (run_evolution_naive if args.engine == "naive" else run_evolution)(config)

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
        print(
            f"engine={args.engine} popsize={config.popsize} threads={config.nthreads} "
            f"generations={config.generations} seed={config.seed} "
            f"capacity={result.capacity} peak_buffers={result.peak_buffers} "
            f"evaluator={genome.evaluator()} best_fitness={min(result.fitness_history[-1])!r}"
        )
    return status
