"""CLI tests: argument handling, summary line, exit codes, CSV output."""

import threading

import pytest

from poolgp import metrics
from poolgp.cli import build_parser, main
from poolgp.engine import MAX_THREADS

FAST = ["--popsize", "8", "--generations", "4", "--buffer-bytes", "63",
        "--max-initial-depth", "4", "--seed", "5"]


def summary_fields(line):
    return dict(pair.split("=", 1) for pair in line.split())


def test_defaults_mirror_reference_run():
    args = build_parser().parse_args([])
    assert args.popsize == 500
    assert args.threads is None  # filled to 8 at run time
    assert args.tournament_size == 7
    assert args.engine == "pooled"
    assert args.problem == "quartic"


def test_zero_popsize_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["--popsize", "0"])
    assert exc.value.code == 2
    assert "--popsize" in capsys.readouterr().err


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


def test_pooled_run_summary_and_exit_code(capsys):
    assert main(FAST + ["--threads", "2"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    fields = summary_fields(out[-1])
    assert fields["engine"] == "pooled"
    assert fields["capacity"] == "12"
    assert int(fields["peak_buffers"]) <= int(fields["bound"]) == 12
    assert 0.0 <= float(fields["effective_cores"]) <= 2.0
    assert "best_fitness" in fields


def test_summary_bound_for_m50_two_threads(capsys):
    assert main(["--popsize", "50", "--threads", "2", "--generations", "5",
                 "--buffer-bytes", "63", "--max-initial-depth", "4"]) == 0
    fields = summary_fields(capsys.readouterr().out.strip().splitlines()[-1])
    assert fields["bound"] == "54"
    assert int(fields["peak_buffers"]) <= 54


def test_naive_ignoring_threads_warns(capsys):
    assert main(FAST + ["--engine", "naive", "--threads", "4"]) == 0
    captured = capsys.readouterr()
    assert "ignoring --threads" in captured.err
    fields = summary_fields(captured.out.strip().splitlines()[-1])
    assert fields["engine"] == "naive"
    assert fields["peak_buffers"] == fields["bound"] == "16"  # 2M


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
    series = metrics.parse_csv(path)
    assert len(series) == 4  # one row per generation
    assert max(row.pool_max_used for row in series) == int(fields["peak_buffers"])


def test_zero_time_flag_zeroes_wall_clock_fields(tmp_path):
    path = tmp_path / "run.csv"
    assert main(FAST + ["--threads", "2", "--csv", str(path), "--zero-time"]) == 0
    for row in metrics.parse_csv(path):
        assert row.generation_wall_time == 0.0
        assert all(t == 0.0 for t in row.worker_busy_times)
        assert row.idle_fraction == 0.0


def test_zero_time_runs_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(FAST + ["--threads", "1", "--csv", str(a), "--zero-time"]) == 0
    assert main(FAST + ["--threads", "4", "--csv", str(b), "--zero-time"]) == 0
    ta, tb = a.read_bytes(), b.read_bytes()
    # pool peaks may differ across thread counts; fitness columns may not
    for ra, rb in zip(metrics.parse_csv(a), metrics.parse_csv(b)):
        assert ra.best_fitness == rb.best_fitness
        assert ra.mean_fitness == rb.mean_fitness
        assert ra.mean_tree_size == rb.mean_tree_size
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
