"""Parallel experiment fan-out == serial, row for row.

``repro.experiments.parallel`` promises that ``--jobs N`` only changes
the wall clock: the cell list is built in a stable order, Pool.map
returns results in submission order, and the merge code is shared with
the serial path.  These tests pin that promise down.
"""

import pytest

from repro.experiments.parallel import cell_map, default_jobs
from repro.experiments.registry import run_experiment

try:
    from hypothesis import given, settings, strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover
    HAVE_HYPOTHESIS = False


def _square_cell(cell):
    # Module-level so it pickles into pool workers.
    base, offset = cell
    return {"cell": cell, "value": base * base + offset}


def test_cell_map_serial_matches_parallel():
    cells = [(i, i % 3) for i in range(10)]
    serial = cell_map(_square_cell, cells, jobs=None)
    fanned = cell_map(_square_cell, cells, jobs=4)
    assert serial == fanned
    # Results come back in cell order, not completion order.
    assert [r["cell"] for r in fanned] == cells


def test_cell_map_jobs_zero_means_all_cores():
    assert default_jobs() >= 1
    cells = [(i, 0) for i in range(4)]
    assert cell_map(_square_cell, cells, jobs=0) == \
        cell_map(_square_cell, cells, jobs=None)


def test_cell_map_single_cell_stays_in_process():
    # One cell short-circuits the pool entirely; a lambda (unpicklable)
    # proves no worker process was involved.
    assert cell_map(lambda c: c + 1, [41], jobs=8) == [42]


if HAVE_HYPOTHESIS:
    @settings(max_examples=10, deadline=None)
    @given(st.lists(st.tuples(st.integers(-50, 50), st.integers(0, 5)),
                    max_size=8),
           st.sampled_from([None, 1, 2, 3]))
    def test_cell_map_order_property(cells, jobs):
        assert cell_map(_square_cell, cells, jobs=jobs) == \
            [_square_cell(c) for c in cells]


@pytest.mark.slow
def test_fig6_quick_rows_identical_under_jobs():
    # The acceptance criterion: fig6 quick under --jobs 4 produces
    # exactly the rows of a serial run.
    serial = run_experiment("fig6", quick=True, seed=1)
    fanned = run_experiment("fig6", quick=True, seed=1, jobs=4)
    assert fanned.rows == serial.rows
    assert fanned.data == serial.data
    assert fanned.text == serial.text


def test_registry_ignores_jobs_for_serial_only_drivers():
    # table1 has no jobs parameter; the registry must swallow the flag
    # rather than TypeError into the driver.
    result = run_experiment("table1", quick=True, seed=1, jobs=4)
    assert result.rows


#: where ``_recording_claim`` logs each claim; set before a run, and
#: inherited by forked workers
CLAIM_LOG = None


def _recording_claim(self, owner, lease_s, k=None):
    """``ShardStore.claim_batch``, logging each non-empty claim as one
    line of its experiments.  The claim runs under an exclusive lock
    on the log, so the lines land in the order the claims commit."""
    import fcntl

    from repro.experiments.store import ShardStore

    with open(CLAIM_LOG, "a") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)
        batch = ShardStore._claim_batch(self, owner, lease_s, k)
        if batch:
            fh.write(",".join(cell["experiment"]
                              for _, cell in batch) + "\n")
    return batch


def test_sensitivity_is_still_leased_before_fig5():
    """``sensitivity`` runs each seed-free row once, yet it stays the
    costliest cell of a campaign without ``fig8``/``fig9``/``fig6``,
    so a pool still starts it first and ``fig5`` second."""
    from repro.experiments.campaign import build_cells, cell_cost

    names = ["table1", "table2", "fig1", "fig2", "fig3", "fig4", "fig5",
             "fig7", "i7", "latency", "predict", "sensitivity"]
    cells = sorted(build_cells(names, quick=True, seed=1),
                   key=lambda cell: -cell_cost(cell))
    assert [cell["experiment"] for cell in cells[:2]] == \
        ["sensitivity", "fig5"]


def test_campaign_pool_submits_longest_first_and_matches_serial(
        tmp_path, monkeypatch):
    """A ``jobs=2`` campaign leases its cells one per claim in
    descending cost-hint order yet renders the serial run's report
    byte for byte."""
    global CLAIM_LOG
    from repro.experiments.campaign import render_report, run_campaign
    from repro.experiments.registry import QUICK_EVENTS
    from repro.experiments.store import ShardStore

    names = ["table1", "fig2", "predict", "fig4"]
    serial = render_report(*run_campaign(
        names, quick=True, seed=1, store_dir=tmp_path / "serial"))

    CLAIM_LOG = str(tmp_path / "claims.log")
    monkeypatch.setattr(ShardStore, "_claim_batch",
                        ShardStore.claim_batch, raising=False)
    monkeypatch.setattr(ShardStore, "claim_batch", _recording_claim)
    fanned = render_report(*run_campaign(
        names, quick=True, seed=1, jobs=2, store_dir=tmp_path / "jobs"))
    with open(CLAIM_LOG) as fh:
        claimed = fh.read().split()
    assert claimed == ["fig4", "fig2", "predict", "table1"]
    assert claimed == sorted(names, key=lambda n: -QUICK_EVENTS[n])
    assert fanned == serial
