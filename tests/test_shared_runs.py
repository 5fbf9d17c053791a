"""Shared runs: a simulation that several campaign cells read is
computed once per campaign and served to the others as a ``done`` row
of the result store (:func:`repro.experiments.store.shared_run`)."""

import contextlib
import io
import json
import warnings

import pytest

from repro.core.engine import Engine
from repro.experiments.__main__ import main
from repro.experiments.campaign import render_report, run_campaign
from repro.experiments.store import (ShardStore, cache_key, serving_runs,
                                     shared_run)

RUN = {"run": "demo", "sched": "cfs", "seed": 1}

#: Table 2, Fig. 1 and the sensitivity study read the fibo+sysbench
#: pair; Fig. 3 and the sensitivity study read Fig. 3's ULE run
SHARING = ["table2", "fig1", "fig3", "sensitivity"]


@pytest.fixture
def store(tmp_path):
    with ShardStore(tmp_path / "store", fingerprint="fp-a") as s:
        yield s


def counted(calls):
    def compute():
        calls.append(1)
        return {"value": len(calls), "series": [1, 2.5]}
    return compute


def test_outside_a_campaign_every_lookup_computes():
    calls = []
    assert shared_run(RUN, counted(calls)) == {"value": 1,
                                               "series": [1, 2.5]}
    assert shared_run(RUN, counted(calls))["value"] == 2


def test_a_run_is_computed_once_and_never_enqueued(store):
    calls = []
    with serving_runs(store):
        first = shared_run(RUN, counted(calls))
        assert shared_run(RUN, counted(calls)) == first
    assert len(calls) == 1
    assert store.run_counts() == (1, 1)
    # a done row under the run's key, which no worker can claim
    assert store.done_keys() == [cache_key(RUN, "fp-a")]
    assert store.claim("worker", 5.0) is None
    assert store.all_terminal()
    # leaving the cell hands the store back: computed again
    shared_run(RUN, counted(calls))
    assert len(calls) == 2


def test_a_corrupt_run_row_is_recomputed_with_one_warning(store):
    calls = []
    with serving_runs(store):
        shared_run(RUN, counted(calls))
    store._conn.execute("UPDATE cells SET result = '{\"value\":9}'")
    with serving_runs(store):
        with pytest.warns(RuntimeWarning, match="corrupt result row"):
            assert shared_run(RUN, counted(calls))["value"] == 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert shared_run(RUN, counted(calls))["value"] == 2
    assert len(calls) == 2
    assert store.counts() == {"done": 1}


@pytest.fixture(scope="module")
def serial(tmp_path_factory):
    """The sharing campaign in-process, with and without serving:
    ``{mode: (engine runs, report, stderr)}``."""
    out = {}
    for mode, flags in (("shared", []), ("unshared", ["--no-cache"])):
        workdir = tmp_path_factory.mktemp(mode)
        runs = []
        real = Engine.run

        def counting(engine, *args, **kwargs):
            runs.append(1)
            return real(engine, *args, **kwargs)

        err = io.StringIO()
        with pytest.MonkeyPatch.context() as mp, \
                contextlib.redirect_stderr(err):
            mp.setattr(Engine, "run", counting)
            assert main(["run", *SHARING, "--cache-dir",
                         str(workdir / "store"), "-o",
                         str(workdir / "report.txt"), *flags]) == 0
        out[mode] = (len(runs), (workdir / "report.txt").read_text(),
                     err.getvalue())
    return out


def test_a_sharing_campaign_computes_each_run_once(serial):
    """13 engine runs become 8: the sensitivity study computes the
    fibo+sysbench pair and Fig. 3's ULE run, and Table 2, Fig. 1 and
    Fig. 3 are served them; the report does not change."""
    runs, report, err = serial["shared"]
    unshared_runs, unshared_report, unshared_err = serial["unshared"]
    assert (runs, unshared_runs) == (8, 13)
    assert report == unshared_report
    assert "cell cache: 0 hit(s), 4 executed; " \
           "shared runs: 5 served, 4 computed" in err
    assert "shared runs: 0 served, 0 computed" in unshared_err


def test_two_workers_store_one_row_per_run(serial, tmp_path):
    cells, results = run_campaign(SHARING, jobs=2,
                                  store_dir=tmp_path / "store")
    assert render_report(cells, results) == serial["shared"][1]
    with ShardStore(tmp_path / "store") as store:
        rows = store._conn.execute(
            "SELECT cell, state FROM cells").fetchall()
    cells = [json.loads(cell) for cell, _ in rows]
    runs = sorted((cell["run"], cell["sched"]) for cell in cells
                  if "run" in cell)
    assert runs == [("fibo_sysbench", "cfs"), ("fibo_sysbench", "ule"),
                    ("fig3_single_app", "cfs"), ("fig3_single_app", "ule")]
    assert {state for _, state in rows} == {"done"}
