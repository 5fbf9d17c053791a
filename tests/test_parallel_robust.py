"""Failure paths of the campaign executor: raising cells, timeouts,
retries with reseeding, FAILED markers, and the resume contract
through the result store (resumed rows byte-identical to an
uninterrupted run)."""

import os
import signal
import time
import warnings

import pytest

from repro.experiments import campaign
from repro.experiments.parallel import cell_map
from repro.experiments.shard import FailedCell, shard_map
from repro.experiments.store import ShardStore, cache_key


def _double(cell):
    return cell * 2


def _boom_on_negative(cell):
    if cell < 0:
        raise ValueError(f"bad cell {cell}")
    return cell * 2


def _sleep_forever(cell):
    if cell == "stuck":
        time.sleep(60)
    return cell


def _always_boom(cell):
    raise RuntimeError("must not be called")


# ---------------------------------------------------------------- failures


def test_raising_cell_propagates_unwrapped_on_plain_path():
    # No robustness options: the historical behavior, exception and all.
    with pytest.raises(ValueError):
        cell_map(_boom_on_negative, [1, -2, 3])


def test_mark_failures_yields_failed_cell_in_place(tmp_path):
    results = shard_map(_boom_on_negative, [1, -2, 3],
                        store_dir=tmp_path / "store")
    assert results[0] == 2 and results[2] == 6
    failure = results[1]
    assert isinstance(failure, FailedCell)
    assert failure.cell == -2
    assert failure.render().startswith("FAILED(error")


def _fails_on_first_seed(cell):
    """A campaign cell that fails for ``beta`` at its original seed
    only: the seed-specific pathology reseeding dodges."""
    if cell["experiment"] == "beta" and cell["seed"] == 1:
        raise ValueError("seed-specific failure")
    return {"experiment": cell["experiment"], "claim": "ok",
            "text": f"seed {cell['seed']}\n"}


def test_retry_with_reseed_recovers(tmp_path, monkeypatch):
    monkeypatch.setattr(campaign, "run_campaign_cell",
                        _fails_on_first_seed)
    cells, results = campaign.run_campaign(
        ["alpha", "beta"], retries=1, backoff_s=0, reseed=True,
        store_dir=tmp_path / "store")
    # placed at the ORIGINAL cell's position, computed from the
    # reseeded one
    assert [cell["seed"] for cell in cells] == [1, 1]
    assert [r["text"] for r in results] == ["seed 1\n", "seed 100001\n"]


def _fails_below_round_two_seed(cell):
    """Fails ``beta`` at its original seed and at its first reseed."""
    if cell["experiment"] == "beta" and cell["seed"] < 300_001:
        raise ValueError("seed-specific failure")
    return {"experiment": cell["experiment"], "claim": "ok",
            "text": f"seed {cell['seed']}\n"}


def test_reseed_rounds_compound(tmp_path, monkeypatch):
    # round k reseeds the cell round k - 1 ran: seed 1, then 100001,
    # then 100001 + 200000
    monkeypatch.setattr(campaign, "run_campaign_cell",
                        _fails_below_round_two_seed)
    _, results = campaign.run_campaign(
        ["alpha", "beta"], retries=2, backoff_s=0, reseed=True,
        store_dir=tmp_path / "store")
    assert results[1]["text"] == "seed 300001\n"


def test_timeout_cell_is_marked_and_pool_recovers(tmp_path):
    # one worker: the timeout alone makes the supervisor run the cells
    # in a worker process, the only kind it can kill; the respawned
    # worker finishes the sweep
    start = time.monotonic()
    results = shard_map(_sleep_forever, ["a", "stuck", "b"],
                        store_dir=tmp_path / "store", timeout_s=1.0,
                        lease_s=0.5)
    assert time.monotonic() - start < 15
    assert results[0] == "a" and results[2] == "b"
    assert isinstance(results[1], FailedCell)
    assert results[1].reason == "timeout"
    assert results[1].render() == "FAILED(timeout)"


# ------------------------------------------------ result store (resume)


def _value(cell):
    return cell["x"] * cell["seed"]


def _counting(executed, fn):
    def run(cell):
        executed.append(cell)
        return fn(cell)
    return run


def _corrupt(target, cell, text):
    """Overwrite ``cell``'s stored result text in place."""
    with ShardStore(target) as store:
        store._conn.execute(
            "UPDATE cells SET result = ? WHERE key = ?",
            (text, cache_key(cell)))


def test_checkpoint_records_only_successes(tmp_path):
    target = tmp_path / "store"
    results = shard_map(_boom_on_negative, [1, -2, 3], store_dir=target)
    assert isinstance(results[1], FailedCell)
    with ShardStore(target) as store:
        # failures are never done rows: the next run retries them
        assert store.results() == {cache_key(1): 2, cache_key(3): 6}
    executed = []
    again = shard_map(_counting(executed, _boom_on_negative),
                      [1, -2, 3], store_dir=target)
    assert executed == [-2] and again[2] == 6


def test_resume_short_circuits_finished_cells(tmp_path):
    target = tmp_path / "store"
    shard_map(_double, [1, 2, 3], store_dir=target)
    # A "restarted" run: _always_boom would explode if any cell were
    # re-executed, so every row must come from the store.
    assert shard_map(_always_boom, [1, 2, 3],
                     store_dir=target) == [2, 4, 6]


def test_resume_after_partial_run_matches_uninterrupted(tmp_path):
    cells = [1, 2, 3, 4]
    uninterrupted = cell_map(_double, cells)

    # Simulate a campaign killed after two cells: only their rows
    # made it into the store.
    target = tmp_path / "store"
    shard_map(_double, cells[:2], store_dir=target)
    executed = []
    resumed = shard_map(_counting(executed, _double), cells,
                        store_dir=target)
    assert resumed == uninterrupted  # rows identical, in order
    assert executed == [3, 4]  # only the unfinished cells re-ran


def test_no_resume_clears_a_stale_manifest(tmp_path):
    # a stale row (a wrong value under the cell's key) is served while
    # serving is on; with it off the cell is recomputed and the
    # recompute replaces the stale row for good
    target = tmp_path / "store"
    with ShardStore(target) as store:
        keys, _ = store.open_sweep([1])
        store.complete(keys[0], 999)
    assert shard_map(_double, [1], store_dir=target) == [999]
    assert shard_map(_double, [1], store_dir=target, serve=False) == [2]
    assert shard_map(_always_boom, [1], store_dir=target) == [2]


def test_mismatched_meta_discards_the_manifest(tmp_path):
    # a differently parameterised cell keys differently: nothing of
    # the first campaign is served to the second
    target = tmp_path / "store"
    shard_map(_value, [{"x": 3, "seed": 1}], store_dir=target)
    results = shard_map(_always_boom, [{"x": 3, "seed": 2}],
                        store_dir=target)
    assert isinstance(results[0], FailedCell)


def test_corrupt_manifest_is_treated_as_empty(tmp_path):
    target = tmp_path / "store"
    target.mkdir()
    (target / "cells.sqlite3").write_text("{ not json !")
    with pytest.warns(RuntimeWarning, match="corrupt"):
        assert shard_map(_double, [1, 2], store_dir=target) == [2, 4]
    assert (target / "cells.sqlite3.corrupt").exists()


def test_reseeded_retry_is_not_stored_under_the_original_cell(tmp_path,
                                                               monkeypatch):
    # a reseeded retry is a different cell with its own key: its
    # result fills the report, but no row claims the original cell
    monkeypatch.setattr(campaign, "run_campaign_cell",
                        _fails_on_first_seed)
    target = tmp_path / "store"
    cells, results = campaign.run_campaign(
        ["alpha", "beta"], retries=1, backoff_s=0, reseed=True,
        store_dir=target)
    assert results[1]["text"] == "seed 100001\n"
    alpha, beta = (cache_key(cell) for cell in cells)
    with ShardStore(target) as store:
        assert store.results([alpha, beta]) == {alpha: results[0]}


def test_cell_key_is_canonical_json():
    assert cache_key({"b": 1, "a": 2}) == cache_key({"a": 2, "b": 1})
    assert cache_key((1, "x")) == cache_key([1, "x"])
    assert cache_key(1) != cache_key("1")


def _await_stored_row(cell):
    """The slow cell waits (bounded) for the fast cell's row to reach
    the store, and reports whether it did."""
    kind, path, other = cell
    if kind == "fast":
        return True
    deadline = time.monotonic() + 10
    with ShardStore(path) as store:
        while time.monotonic() < deadline:
            if store.get_result(cache_key(other))[0]:
                return True
            time.sleep(0.01)
    return False


def test_checkpoint_lands_in_completion_order(tmp_path):
    # A fast cell submitted behind a slow one must reach the store
    # while the slow one is still running: a kill in that window
    # loses only the in-flight cell.
    path = str(tmp_path / "store")
    fast = ("fast", path, None)
    slow = ("slow", path, fast)
    # the cost hint leases one cell per claim, slow first: the two
    # cells run on two workers
    assert shard_map(_await_stored_row, [slow, fast], 2, store_dir=path,
                     cost=lambda cell: cell[0] == "slow") == [True, True]


# ------------------------------------------------------- campaign wiring


def test_campaign_resume_report_is_byte_identical(tmp_path,
                                                  monkeypatch):
    """The acceptance criterion, at campaign level: a killed-then-
    rerun campaign renders the same report as an uninterrupted one,
    re-executing only unfinished cells."""
    import repro.experiments.campaign as campaign_mod
    from repro.experiments.campaign import (build_cells, render_report,
                                            run_campaign,
                                            run_campaign_cell)

    names = ["table1", "table2"]
    store_dir = tmp_path / "store"

    # The uninterrupted reference.
    cells, results = run_campaign(names, quick=True, seed=1,
                                  store_dir=tmp_path / "reference")
    reference = render_report(cells, results)

    # "Kill" a campaign after its first cell: the store holds table1.
    first = build_cells(names, True, 1)[0]
    shard_map(run_campaign_cell, [first], store_dir=store_dir)

    # Rerun: table1 must come from the store, not re-run.
    executed = []
    monkeypatch.setattr(
        campaign_mod, "run_campaign_cell",
        _counting(executed, run_campaign_cell))
    cells2, results2 = run_campaign(names, quick=True, seed=1,
                                    store_dir=store_dir)
    assert [cell["experiment"] for cell in executed] == ["table2"]
    assert render_report(cells2, results2) == reference
    # the finished campaign's rows stay: a rerun executes nothing
    stats = {}
    run_campaign(names, quick=True, seed=1, store_dir=store_dir,
                 stats=stats)
    assert len(executed) == 1 and stats == {
        "served": 2, "runs_served": 0, "runs_computed": 0}


# ----------------------------------------------------- store recovery


def test_corrupt_middle_line_is_skipped_not_fatal(tmp_path):
    target = tmp_path / "store"
    shard_map(_double, [1, 2, 3], store_dir=target)
    _corrupt(target, 2, "[4")  # torn row for cell 2
    executed = []
    with pytest.warns(RuntimeWarning, match="corrupt"):
        results = shard_map(_counting(executed, _double), [1, 2, 3],
                            store_dir=target)
    assert results == [2, 4, 6]
    assert executed == [2]  # lost -> re-run; its neighbours survive


def test_bitflipped_entry_fails_its_digest_and_is_dropped(tmp_path):
    target = tmp_path / "store"
    shard_map(_double, [500], store_dir=target)
    _corrupt(target, 500, "1001")  # still valid JSON
    with pytest.warns(RuntimeWarning, match="corrupt"):
        assert shard_map(_double, [500], store_dir=target) == [1000]


def test_journal_survives_kill_mid_append(tmp_path):
    """End-to-end: SIGKILL a writer mid-stream; the store still opens
    and serves every committed row, each intact."""
    import multiprocessing
    import signal

    target = tmp_path / "store"
    ShardStore(target).close()

    def writer():
        with ShardStore(target) as store:
            i = 0
            while True:
                keys, _ = store.open_sweep([i], serve=False)
                store.complete(keys[0], {"payload": "x" * 512, "i": i})
                i += 1

    proc = multiprocessing.Process(target=writer)
    proc.start()
    deadline = time.monotonic() + 30
    with ShardStore(target) as store:
        while time.monotonic() < deadline \
                and store.counts().get("done", 0) < 100:
            time.sleep(0.005)
    os.kill(proc.pid, signal.SIGKILL)
    proc.join()
    with ShardStore(target) as store, warnings.catch_warnings():
        warnings.simplefilter("error")  # no row may be torn
        recovered = store.results()
    assert len(recovered) >= 100
    for i in range(len(recovered)):
        assert recovered[cache_key(i)] == {"payload": "x" * 512, "i": i}


# --------------------------------------------------- worker crashes


def _worker_dies_once(cell):
    """SIGKILL the worker on the first run of each cell (the flag file
    marks "already died once"), succeed after — the shape of a worker
    lost to the OOM killer."""
    flag, value = cell
    if not os.path.exists(flag):
        open(flag, "w").close()
        os.kill(os.getpid(), signal.SIGKILL)
    return value * 2


def test_broken_pool_cells_checkpoint_after_respawn(tmp_path):
    # no retries: the rerun comes from lease expiry and the respawned
    # worker, not the per-cell retry budget
    target = tmp_path / "store"
    cells = [(str(tmp_path / f"f{i}"), i) for i in range(3)]
    results = shard_map(_worker_dies_once, cells, 2, store_dir=target,
                        lease_s=0.3)
    assert results == [0, 2, 4]
    with ShardStore(target) as store:
        assert store.results() == {cache_key(cell): cell[1] * 2
                                   for cell in cells}
