"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "experiments:" in out
    assert "fig6" in out
    assert "cfs" in out and "ule" in out
    assert "Sysbench" in out


def test_run_command(capsys):
    assert main(["run", "Gzip", "--sched", "ule", "--cpus", "1"]) == 0
    out = capsys.readouterr().out
    assert "Gzip on ule" in out
    assert "performance=" in out


def test_compare_command(capsys):
    assert main(["compare", "Gzip", "--cpus", "2"]) == 0
    out = capsys.readouterr().out
    assert "ULE is" in out


def test_experiment_command(capsys):
    assert main(["experiment", "table1"]) == 0
    out = capsys.readouterr().out
    assert "sched_pickcpu" in out


def test_unknown_workload_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "not-a-workload"])


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["experiment", "fig99"])


def test_report_subset_to_file(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the default result store lands here
    out = tmp_path / "report.txt"
    assert main(["report", "--only", "table1", "-o", str(out)]) == 0
    text = out.read_text()
    assert "Reproduction report" in text
    assert "sched_pickcpu" in text
    assert "completed in" not in text  # no wall-clock time in a report


def test_report_is_the_campaign_report(tmp_path, capsys, monkeypatch):
    """``report`` runs the campaign: same bytes as ``python -m
    repro.experiments run``, and a rerun is served from the store."""
    from repro.experiments.__main__ import main as campaign_main

    monkeypatch.chdir(tmp_path)
    names = ["table1", "fig2"]
    assert main(["report", "--only", *names, "-o", "a.txt"]) == 0
    assert "cell cache: 0 hit(s), 2 executed" in capsys.readouterr().err
    assert campaign_main(["run", *names, "--no-cache",
                          "-o", "b.txt"]) == 0
    assert (tmp_path / "a.txt").read_bytes() == \
        (tmp_path / "b.txt").read_bytes()
    assert main(["report", "--only", *names, "-o", "c.txt"]) == 0
    assert "cell cache: 2 hit(s), 0 executed" in capsys.readouterr().err
    assert (tmp_path / "c.txt").read_bytes() == \
        (tmp_path / "a.txt").read_bytes()


def test_compare_with_noise(capsys):
    assert main(["compare", "Gzip", "--cpus", "2", "--noise"]) == 0
    assert "ULE is" in capsys.readouterr().out
