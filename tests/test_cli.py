"""CLI tests: argument handling, summary line, exit codes, CSV output."""

import csv
import dataclasses
import os
import struct
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from poolgp import cli, engine, genome
from poolgp.cli import SETTINGS, build_parser, main
from poolgp.engine import MAX_THREADS, TOURNAMENT_BLOCK, RunConfig

FAST = ["--popsize", "8", "--generations", "4", "--buffer-bytes", "63",
        "--max-initial-depth", "4", "--seed", "5"]


def summary_fields(line):
    return dict(pair.split("=", 1) for pair in line.split())


def csv_columns(path, *names):
    """Each named column of a stats CSV, one cell per generation, as text."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {name: [row[name] for row in rows] for name in names}


def test_defaults_mirror_reference_run(capsys):
    args = build_parser().parse_args([])
    # every setting flag parses to None, "not given": the run takes RunConfig's default
    assert [getattr(args, field) for field, _ in SETTINGS.values()] == [None] * len(SETTINGS)
    assert args.engine == "pooled"
    assert RunConfig().nthreads == 0
    assert main(FAST) == 0
    fields = summary_fields(capsys.readouterr().out.strip().splitlines()[-1])
    assert fields["threads"] == "0"
    assert fields["capacity"] == "10"  # inline breeding: M + 2


class Ran(Exception):
    """Raised in place of a run, once main has built and checked its config."""


def config_of(monkeypatch, argv):
    """The RunConfig that `main(argv)` hands the pooled engine, which then does not run."""
    seen = []

    def capture(config):
        seen.append(config)
        raise Ran

    monkeypatch.setattr(cli, "run_evolution", capture)
    with pytest.raises(Ran):
        main(argv)
    return seen[0]


def test_flag_table_names_every_run_config_field_once(monkeypatch):
    fields = [field for field, _ in SETTINGS.values()]
    assert sorted(fields) == sorted(f.name for f in dataclasses.fields(RunConfig))
    assert config_of(monkeypatch, []) == RunConfig()
    # each flag sets its own field
    values = dict(popsize=11, nthreads=3, generations=2, seed=4, buffer_bytes=63,
                  tournament_size=5, max_initial_depth=4)
    argv = [word for flag, (field, _) in SETTINGS.items() for word in (flag, str(values[field]))]
    assert config_of(monkeypatch, argv) == RunConfig(**values)


def test_zero_popsize_is_a_usage_error(capsys):
    assert main(FAST + ["--popsize", "0"]) == 2
    assert "popsize" in capsys.readouterr().err


def test_a_negative_seed_is_a_configuration_error(capsys):
    # random.Random folds a negative seed onto its absolute value: -1 would run seed 1
    assert main(FAST + ["--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "seed" in err


def test_unknown_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["--frobnicate"])
    assert exc.value.code == 2
    assert "--frobnicate" in capsys.readouterr().err


def test_bad_depth_for_buffer_is_a_configuration_error(capsys):
    assert main(["--popsize", "4", "--buffer-bytes", "31"]) == 2
    assert "configuration error" in capsys.readouterr().err
    # a huge depth gets the same message, naming the deepest tree that fits
    assert main(["--popsize", "4", "--max-initial-depth", "20000"]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "depth 20000" in err
    assert "the deepest that fits is 10" in err


def test_thread_count_above_the_cap_starts_no_thread(monkeypatch, capsys):
    started = []

    def refuse_start(thread):
        started.append(thread.name)
        raise AssertionError(f"thread {thread.name} started")

    monkeypatch.setattr(threading.Thread, "start", refuse_start)
    assert main(FAST + ["--threads", str(10**9)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and f"<= {MAX_THREADS}" in err
    assert started == []


@pytest.mark.skipif(
    not {"SC_PAGE_SIZE", "SC_PHYS_PAGES"} <= getattr(os, "sysconf_names", {}).keys(),
    reason="no physical memory size on this platform")
def test_buffers_beyond_physical_memory_build_no_pool(monkeypatch, capsys):
    def refuse_pool(*args):
        raise AssertionError("BufferPool built")

    monkeypatch.setattr(engine, "BufferPool", refuse_pool)
    for flags in (["--popsize", str(10**12)], ["--buffer-bytes", str(10**11)]):
        assert main(FAST + flags) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "physical memory" in err
        assert "popsize=" in err and "buffer_bytes=" in err


def test_memory_check_counts_the_pools_two_buffers_per_breeder(monkeypatch, capsys):
    def refuse_pool(*args):
        raise AssertionError("BufferPool built")

    # a buffer's bytearray, list slot, in-use byte and free-stack entry, and two handles:
    # 389 bytes on 64-bit CPython 3.11
    each = (sys.getsizeof(bytearray()) + 63 + 1 + 2 * struct.calcsize("P") + 1 + sys.getsizeof(10)
            + 4 * sys.getsizeof(engine.Individual()))
    pages = {"SC_PAGE_SIZE": each, "SC_PHYS_PAGES": 9}  # 9 buffers
    monkeypatch.setattr(os, "sysconf_names", pages, raising=False)
    monkeypatch.setattr(os, "sysconf", pages.__getitem__, raising=False)
    monkeypatch.setattr(engine, "BufferPool", refuse_pool)
    # 8 buffers fit, but the inline pool builds 8 + 2
    assert main(["--popsize", "8", "--buffer-bytes", "63"]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "popsize=8 x buffer_bytes=63: 10 buffers" in err


def test_tournament_size_above_the_block_draws_nothing(monkeypatch, capsys):
    def refuse_draw(*args):
        raise AssertionError("draw_outcome called")

    monkeypatch.setattr(engine, "draw_outcome", refuse_draw)
    assert main(FAST + ["--tournament-size", str(TOURNAMENT_BLOCK + 1)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and f"<= {TOURNAMENT_BLOCK}" in err
    assert main(FAST + ["--tournament-size", str(10**9)]) == 2


def test_naive_ignores_a_thread_count_above_the_cap(capsys):
    assert main(FAST + ["--engine", "naive", "--threads", str(MAX_THREADS + 44)]) == 0
    captured = capsys.readouterr()
    assert "ignoring --threads" in captured.err
    assert "configuration error" not in captured.err
    assert summary_fields(captured.out.strip().splitlines()[-1])["engine"] == "naive"


def test_pooled_run_summary_and_exit_code(capsys):
    assert main(FAST + ["--threads", "2"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    fields = summary_fields(out[-1])
    assert fields["engine"] == "pooled"
    assert int(fields["peak_buffers"]) <= int(fields["capacity"]) == 12
    assert fields["evaluator"] == genome.evaluator()
    assert "best_fitness" in fields


def test_summary_names_the_evaluator_that_ran(capsys, python_evaluator):
    assert main(FAST) == 0
    assert summary_fields(capsys.readouterr().out.strip().splitlines()[-1])["evaluator"] == "python"


def test_summary_prints_each_number_once(capsys):
    assert main(FAST + ["--threads", "2"]) == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    assert list(summary_fields(line)) == ["engine", "popsize", "threads", "generations", "seed",
                                          "capacity", "peak_buffers", "evaluator", "best_fitness"]


def test_summary_bound_for_m50_two_threads(capsys):
    assert main(["--popsize", "50", "--threads", "2", "--generations", "5",
                 "--buffer-bytes", "63", "--max-initial-depth", "4"]) == 0
    fields = summary_fields(capsys.readouterr().out.strip().splitlines()[-1])
    assert fields["capacity"] == "54"
    assert int(fields["peak_buffers"]) <= 54


def test_naive_ignoring_threads_warns(capsys):
    assert main(FAST + ["--engine", "naive", "--threads", "4"]) == 0
    captured = capsys.readouterr()
    assert "ignoring --threads" in captured.err
    fields = summary_fields(captured.out.strip().splitlines()[-1])
    assert fields["engine"] == "naive"
    assert fields["peak_buffers"] == fields["capacity"] == "16"  # 2M


def test_naive_and_pooled_report_same_best_fitness(capsys):
    assert main(FAST + ["--threads", "2"]) == 0
    pooled = summary_fields(capsys.readouterr().out.strip().splitlines()[-1])
    assert main(FAST + ["--engine", "naive"]) == 0
    naive = summary_fields(capsys.readouterr().out.strip().splitlines()[-1])
    assert naive["best_fitness"] == pooled["best_fitness"]


def test_csv_written_and_peak_matches_summary(tmp_path, capsys):
    path = tmp_path / "run.csv"
    assert main(FAST + ["--threads", "2", "--csv", str(path)]) == 0
    fields = summary_fields(capsys.readouterr().out.strip().splitlines()[-1])
    peaks = csv_columns(path, "pool_max_used")["pool_max_used"]
    assert len(peaks) == 4  # one row per generation
    assert max(map(int, peaks)) == int(fields["peak_buffers"])


def test_zero_time_flag_zeroes_wall_clock_fields(tmp_path):
    path = tmp_path / "run.csv"
    assert main(FAST + ["--threads", "2", "--csv", str(path), "--zero-time"]) == 0
    cols = csv_columns(path, "generation_wall_time", "worker_busy_times", "idle_fraction")
    assert cols["generation_wall_time"] == cols["idle_fraction"] == ["0.0"] * 4
    assert {t for cell in cols["worker_busy_times"] for t in cell.split(";")} == {"0.0"}


def test_zero_time_runs_are_byte_identical(tmp_path):
    a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
    assert main(FAST + ["--threads", "1", "--csv", str(a), "--zero-time"]) == 0
    assert main(FAST + ["--threads", "4", "--csv", str(b), "--zero-time"]) == 0
    assert main(FAST + ["--threads", "0", "--csv", str(c), "--zero-time"]) == 0
    ta, tb = a.read_bytes(), b.read_bytes()
    assert c.read_bytes() == ta  # one breeder, inline or threaded: one schedule
    # pool peaks may differ across thread counts; fitness columns may not
    same = ("best_fitness", "mean_fitness", "mean_tree_size")
    assert csv_columns(a, *same) == csv_columns(b, *same)
    assert len(ta) > 0 and len(tb) > 0


def test_unwritable_csv_fails_but_still_prints_summary(tmp_path, capsys):
    path = tmp_path / "missing" / "run.csv"
    assert main(FAST + ["--threads", "1", "--csv", str(path)]) == 1
    captured = capsys.readouterr()
    assert "cannot write CSV" in captured.err
    assert "peak_buffers=" in captured.out


def test_quiet_suppresses_summary(capsys):
    assert main(FAST + ["--threads", "1", "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def test_python_dash_m_exits_with_mains_status():
    src = Path(cli.__file__).resolve().parents[1]

    def module_run(*flags):
        return subprocess.run([sys.executable, "-m", "poolgp", *flags], cwd=src,
                              capture_output=True, text=True, timeout=60)

    bad = module_run("--popsize", "0")
    assert bad.returncode == 2 and "configuration error" in bad.stderr
    ran = module_run(*FAST)
    assert ran.returncode == 0, ran.stderr
    assert summary_fields(ran.stdout.strip().splitlines()[-1])["engine"] == "pooled"
