"""The campaign CLI contract the end-to-end benchmark relies on: its
argv (``perfbench/workloads.py``'s ``campaign_argv``, read here, not
copied) runs every cell cold in a fresh directory, none on a warm
rerun in the same directory, and every cell again in a fresh one —
with byte-identical reports throughout."""

import importlib.util
import os

import pytest

from repro.experiments import campaign
from repro.experiments.__main__ import main

WORKLOADS = os.path.join(os.path.dirname(__file__), os.pardir,
                         "perfbench", "workloads.py")

#: where ``_logged_cell`` appends one line per executed cell; set
#: before a run, and inherited by forked pool workers
LOG = None


def _perfbench_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _logged_cell(cell):
    with open(LOG, "a") as fh:
        fh.write(cell["experiment"] + "\n")
    return _real_cell(cell)


_real_cell = campaign.run_campaign_cell


@pytest.fixture
def run(tmp_path, monkeypatch):
    """Run the benchmark's campaign argv in ``workdir``; returns the
    executed experiments and the report bytes."""
    workloads = _perfbench_workloads()
    monkeypatch.setattr(campaign, "run_campaign_cell", _logged_cell)

    def go(workdir):
        global LOG
        workdir.mkdir(exist_ok=True)
        LOG = str(workdir / "executed.log")
        if os.path.exists(LOG):
            os.unlink(LOG)
        argv = workloads.campaign_argv(["table1", "fig2"], 1,
                                       str(workdir),
                                       workloads.CAMPAIGN_JOBS)
        assert "--checkpoint" in argv  # still passed, still accepted
        assert main(argv) == 0
        executed = []
        if os.path.exists(LOG):
            with open(LOG) as fh:
                executed = sorted(fh.read().split())
        return executed, (workdir / "report.txt").read_bytes()

    return go


def test_cold_warm_and_fresh_campaign_runs(run, tmp_path):
    cold, report = run(tmp_path / "D")
    assert cold == ["fig2", "table1"]
    warm, warm_report = run(tmp_path / "D")
    assert warm == []
    assert warm_report == report
    fresh, fresh_report = run(tmp_path / "D2")
    assert fresh == ["fig2", "table1"]
    assert fresh_report == report
