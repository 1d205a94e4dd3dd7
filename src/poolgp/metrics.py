"""Per-generation run statistics and CSV emission."""

from __future__ import annotations

import csv
import dataclasses
from array import array
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
    generation_wall_time: float
    worker_busy_times: list[float]
    idle_fraction: float
    # what the breeding protocol did (see `protocol_counts`); the naive engine, which has no
    # pool, and generation 0, which breeds nothing, leave them at 0
    claims_class1: int = 0
    claims_class2: int = 0
    promotions: int = 0
    releases_childless: int = 0
    releases_early: int = 0


FIELDS = [f.name for f in dataclasses.fields(GenerationStats)]


def csv_cell(value) -> str:
    """One CSV cell: repr of an int or float, ';'-joined reprs of a list."""
    return ";".join(map(repr, value)) if isinstance(value, list) else repr(value)


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


def protocol_counts(children: int, class1: int, promotions: int, childless: int) -> dict:
    """A bred generation's protocol fields of its row, from the three counts that decide them.

    Every child is claimed once, from chain 1 (class 1) or by the class-2
    cursor, and every parent gives its buffer back once, at set-up when it
    has no child (childless) or when its last child is booked (early).
    """
    return dict(claims_class1=class1, claims_class2=children - class1, promotions=promotions,
                releases_childless=childless, releases_early=children - childless)


def record_generation(
    generation: int,
    tree_sizes: list[int],
    fitnesses: array,
    pool_used_peak: int,
    pool_max_used: int,
    total_opcodes: int,
    wall_time: float,
    busy_times: list[float],
    counts: dict | None = None,
) -> GenerationStats:
    """Assemble one fully populated stats row from an engine snapshot; `counts`, from
    `protocol_counts`, fills the protocol fields of a pooled breeding."""
    if not tree_sizes or not fitnesses:
        raise InvariantError("a generation row needs a non-empty population")
    return GenerationStats(
        generation=generation,
        mean_tree_size=sum(tree_sizes) / len(tree_sizes),
        max_tree_size=max(tree_sizes),
        pool_used_peak=pool_used_peak,
        pool_max_used=pool_max_used,
        allocated_slots=pool_max_used,
        best_fitness=min(fitnesses),
        mean_fitness=sum(fitnesses) / len(fitnesses),
        total_opcodes_evaluated=total_opcodes,
        generation_wall_time=wall_time,
        worker_busy_times=list(busy_times),
        idle_fraction=idle_fraction(busy_times),
        **(counts or {}),
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
    """Write header plus one row per generation, each cell from `csv_cell`."""
    if not series:
        raise ValueError("refusing to emit an empty stats series")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(FIELDS)
        for row in series:
            writer.writerow([csv_cell(getattr(row, name)) for name in FIELDS])
