"""Per-generation run statistics and CSV emission."""

from __future__ import annotations

import csv
import dataclasses
from dataclasses import dataclass

from .errors import InvariantError


@dataclass
class GenerationStats:
    generation: int
    mean_tree_size: float
    max_tree_size: int
    pool_used_peak: int
    pool_max_used: int
    allocated_slots: int
    best_fitness: float
    mean_fitness: float
    total_opcodes_evaluated: int
    fitness_reused: int
    generation_wall_time: float
    worker_busy_times: list[float]
    idle_fraction: float


# how a column of each annotated type is written to the CSV and read back
CODECS = {
    "int": (str, int),
    "float": (repr, float),
    "list[float]": (
        lambda values: ";".join(map(repr, values)),
        lambda cell: [float(t) for t in cell.split(";") if t],
    ),
}
COLUMNS = [(f.name, *CODECS[f.type]) for f in dataclasses.fields(GenerationStats)]
FIELDS = [name for name, _, _ in COLUMNS]


def idle_fraction(busy_times: list[float]) -> float:
    """Fraction of worker capacity spent waiting on the slowest worker.

    Each entry is one worker's active span; the phase lasts as long as the
    slowest. A single worker is never idle by definition.
    """
    if len(busy_times) <= 1:
        return 0.0
    span = max(busy_times)
    if span <= 0.0:
        return 0.0
    frac = 1.0 - sum(busy_times) / (len(busy_times) * span)
    return min(1.0, max(0.0, frac))


def effective_cores(nworkers: int, idle: float) -> float:
    return nworkers * (1.0 - idle)


def record_generation(
    generation: int,
    tree_sizes: list[int],
    fitnesses: list[float],
    pool_used_peak: int,
    pool_max_used: int,
    allocated_slots: int,
    total_opcodes: int,
    fitness_reused: int,
    wall_time: float,
    busy_times: list[float],
) -> GenerationStats:
    """Assemble one fully populated stats row from an engine snapshot."""
    if not tree_sizes or not fitnesses:
        raise InvariantError("a generation row needs a non-empty population")
    return GenerationStats(
        generation=generation,
        mean_tree_size=sum(tree_sizes) / len(tree_sizes),
        max_tree_size=max(tree_sizes),
        pool_used_peak=pool_used_peak,
        pool_max_used=pool_max_used,
        allocated_slots=allocated_slots,
        best_fitness=min(fitnesses),
        mean_fitness=sum(fitnesses) / len(fitnesses),
        total_opcodes_evaluated=total_opcodes,
        fitness_reused=fitness_reused,
        generation_wall_time=wall_time,
        worker_busy_times=list(busy_times),
        idle_fraction=idle_fraction(busy_times),
    )


def zero_wall_clock(row: GenerationStats) -> GenerationStats:
    """Copy of a row with all wall-clock-derived fields zeroed (golden files)."""
    return dataclasses.replace(
        row,
        generation_wall_time=0.0,
        worker_busy_times=[0.0] * len(row.worker_busy_times),
        idle_fraction=0.0,
    )


def emit_csv(series: list[GenerationStats], path) -> None:
    """Write header plus one row per generation; busy times ';'-joined."""
    if not series:
        raise ValueError("refusing to emit an empty stats series")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(FIELDS)
        for row in series:
            writer.writerow([fmt(getattr(row, name)) for name, fmt, _ in COLUMNS])


def parse_csv(path) -> list[GenerationStats]:
    """Read back a file produced by emit_csv."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != FIELDS:
            raise ValueError(f"unexpected CSV header: {header}")
        return [
            GenerationStats(**{name: parse(cell) for (name, _, parse), cell in zip(COLUMNS, rec)})
            for rec in reader
        ]
