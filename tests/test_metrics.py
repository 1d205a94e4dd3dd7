"""Metrics tests: idle accounting and CSV output."""

import math
import subprocess
import sys
from pathlib import Path

import pytest

from poolgp import metrics
from poolgp.metrics import GenerationStats, idle_fraction


def make_row(gen=0, **overrides):
    base = dict(
        generation=gen,
        mean_tree_size=3.5,
        max_tree_size=9,
        pool_used_peak=11,
        pool_max_used=12,
        allocated_slots=12,
        best_fitness=1.25,
        mean_fitness=4.75,
        total_opcodes_evaluated=1234,
        generation_wall_time=0.5,
        worker_busy_times=[0.4, 0.3],
        idle_fraction=0.125,
    )
    base.update(overrides)
    return GenerationStats(**base)


def test_idle_fraction_single_worker_is_zero():
    assert idle_fraction([7.5]) == 0.0


def test_idle_fraction_balanced_workers_is_zero():
    assert idle_fraction([2.0, 2.0, 2.0]) == 0.0


def test_idle_fraction_half_idle_pair():
    assert idle_fraction([1.0, 0.0]) == pytest.approx(0.5)


def test_idle_fraction_stays_in_unit_interval():
    assert 0.0 <= idle_fraction([0.0, 0.0]) <= 1.0
    assert 0.0 <= idle_fraction([1e-9, 5.0, 2.5]) <= 1.0


def test_effective_cores_mirrors_idle():
    assert metrics.effective_cores(8, 0.0) == 8.0
    assert metrics.effective_cores(8, 0.115) == pytest.approx(7.08)


def test_record_generation_populates_all_fields():
    row = metrics.record_generation(
        generation=2,
        tree_sizes=[1, 3, 5],
        fitnesses=[4.0, 2.0, 8.0],
        pool_used_peak=5,
        pool_max_used=6,
        total_opcodes=60,
        wall_time=0.25,
        busy_times=[0.2, 0.1],
    )
    assert row.allocated_slots == row.pool_max_used == 6
    assert row.mean_tree_size == 3.0
    assert row.max_tree_size == 5
    assert row.best_fitness == 2.0
    assert row.mean_fitness == pytest.approx(14.0 / 3.0)
    assert 0.0 <= row.idle_fraction <= 1.0


def test_empty_population_raises_under_python_optimize():
    src = Path(metrics.__file__).resolve().parents[1]
    empty = dict(generation=0, tree_sizes=[], fitnesses=[], pool_used_peak=0,
                 pool_max_used=0, total_opcodes=0, wall_time=0.0, busy_times=[])
    script = (
        "import sys\n"
        "from poolgp import metrics\n"
        "from poolgp.errors import InvariantError\n"
        "if not sys.flags.optimize:\n"
        "    sys.exit(2)\n"
        "try:\n"
        f"    metrics.record_generation(**{empty!r})\n"
        "except InvariantError:\n"
        "    sys.exit(0)\n"
        "sys.exit(3)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script], cwd=src,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_csv_rows_are_exact_text(tmp_path):
    series = [make_row(0, best_fitness=math.inf, mean_fitness=0.1),
              make_row(1, worker_busy_times=[])]
    path = tmp_path / "stats.csv"
    metrics.emit_csv(series, path)
    assert path.read_text().splitlines() == [
        ",".join(metrics.FIELDS),
        "0,3.5,9,11,12,12,inf,0.1,1234,0.5,0.4;0.3,0.125",
        "1,3.5,9,11,12,12,1.25,4.75,1234,0.5,,0.125",
    ]


def test_csv_trailing_newline_and_field_count(tmp_path):
    path = tmp_path / "stats.csv"
    metrics.emit_csv([make_row()], path)
    text = path.read_text()
    assert text.endswith("\n")
    # busy times are ';'-joined, so every row has exactly one cell per field
    assert len(text.splitlines()[1].split(",")) == len(metrics.FIELDS)


def test_empty_series_rejected_without_creating_file(tmp_path):
    path = tmp_path / "stats.csv"
    with pytest.raises(ValueError):
        metrics.emit_csv([], path)
    assert not path.exists()


def test_unwritable_destination_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        metrics.emit_csv([make_row()], tmp_path / "no" / "such" / "dir.csv")


def test_zero_wall_clock_keeps_everything_else():
    row = make_row()
    zeroed = metrics.zero_wall_clock(row)
    assert zeroed.generation_wall_time == 0.0
    assert zeroed.worker_busy_times == [0.0, 0.0]
    assert zeroed.idle_fraction == 0.0
    assert zeroed.pool_used_peak == row.pool_used_peak
    assert zeroed.best_fitness == row.best_fitness
    assert row.generation_wall_time == 0.5  # original untouched
