"""Failure paths of the hardened parallel runner: raising cells,
timeouts, retries with reseeding, FAILED markers, and the
checkpoint/resume contract (resumed rows byte-identical to an
uninterrupted run)."""

import json
import os
import time
import warnings
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.experiments.checkpoint import CampaignCheckpoint, cell_key
from repro.experiments.parallel import CellError, FailedCell, cell_map


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


def test_raising_cell_raises_cell_error_when_not_marking():
    with pytest.raises(CellError) as exc_info:
        cell_map(_boom_on_negative, [1, -2, 3], retries=1, backoff_s=0)
    failure = exc_info.value.failure
    assert failure.cell == -2
    assert failure.reason == "error"
    assert "ValueError" in failure.error
    assert failure.attempts == 2


def test_mark_failures_yields_failed_cell_in_place():
    results = cell_map(_boom_on_negative, [1, -2, 3],
                       mark_failures=True)
    assert results[0] == 2 and results[2] == 6
    failure = results[1]
    assert isinstance(failure, FailedCell)
    assert failure.cell == -2
    assert failure.render().startswith("FAILED(error")


def test_retry_with_reseed_recovers():
    calls = []

    def reseed(cell, attempt):
        calls.append((cell, attempt))
        return -cell  # flip the failing cell positive

    results = cell_map(_boom_on_negative, [1, -2, 3], retries=1,
                       backoff_s=0, reseed=reseed, mark_failures=True)
    # Keyed by the ORIGINAL cell, computed from the reseeded one.
    assert results == [2, 4, 6]
    assert calls == [(-2, 1)]


def test_timeout_cell_is_marked_and_pool_recovers():
    results = cell_map(_sleep_forever, ["a", "stuck", "b"], jobs=2,
                       timeout_s=1.0, mark_failures=True)
    assert results[0] == "a" and results[2] == "b"
    assert isinstance(results[1], FailedCell)
    assert results[1].reason == "timeout"
    assert results[1].render() == "FAILED(timeout)"


# -------------------------------------------------------------- checkpoint


def test_checkpoint_records_only_successes(tmp_path):
    ck = CampaignCheckpoint(tmp_path / "ck.json", meta={"k": 1})
    results = cell_map(_boom_on_negative, [1, -2, 3],
                       mark_failures=True, checkpoint=ck)
    assert isinstance(results[1], FailedCell)
    assert ck.get(1) == 2 and ck.get(3) == 6
    assert ck.get(-2) is ck.MISS  # failures are never checkpointed
    # The manifest survives a "process restart".
    fresh = CampaignCheckpoint(tmp_path / "ck.json", meta={"k": 1})
    assert fresh.load(resume=True) == 2
    assert fresh.get(3) == 6


def test_resume_short_circuits_finished_cells(tmp_path):
    path = tmp_path / "ck.json"
    ck = CampaignCheckpoint(path, meta={})
    cell_map(_double, [1, 2, 3], checkpoint=ck)
    # A "restarted" run: _always_boom would explode if any cell were
    # re-executed, so every row must come from the manifest.
    resumed = CampaignCheckpoint(path, meta={})
    assert resumed.load(resume=True) == 3
    results = cell_map(_always_boom, [1, 2, 3], checkpoint=resumed)
    assert results == [2, 4, 6]


def test_resume_after_partial_run_matches_uninterrupted(tmp_path):
    cells = [1, 2, 3, 4]
    uninterrupted = cell_map(_double, cells)

    # Simulate a campaign killed after two cells: only their results
    # made it into the manifest.
    path = tmp_path / "ck.json"
    partial = CampaignCheckpoint(path, meta={"run": 1})
    cell_map(_double, cells[:2], checkpoint=partial)

    resumed_ck = CampaignCheckpoint(path, meta={"run": 1})
    assert resumed_ck.load(resume=True) == 2
    executed = []

    def counting(cell):
        executed.append(cell)
        return _double(cell)

    resumed = cell_map(counting, cells, checkpoint=resumed_ck)
    assert resumed == uninterrupted  # rows identical, in order
    assert executed == [3, 4]  # only the unfinished cells re-ran


def test_no_resume_clears_a_stale_manifest(tmp_path):
    path = tmp_path / "ck.json"
    ck = CampaignCheckpoint(path, meta={})
    ck.put(1, 999)
    assert path.exists()
    fresh = CampaignCheckpoint(path, meta={})
    assert fresh.load(resume=False) == 0
    assert not path.exists()
    assert fresh.get(1) is fresh.MISS


def test_mismatched_meta_discards_the_manifest(tmp_path):
    path = tmp_path / "ck.json"
    ck = CampaignCheckpoint(path, meta={"seed": 1})
    ck.put("cell", "result")
    other = CampaignCheckpoint(path, meta={"seed": 2})
    assert other.load(resume=True) == 0
    assert other.get("cell") is other.MISS


def test_corrupt_manifest_is_treated_as_empty(tmp_path):
    path = tmp_path / "ck.json"
    path.write_text("{ not json !")
    ck = CampaignCheckpoint(path, meta={})
    assert ck.load(resume=True) == 0


def test_cell_key_is_canonical_json():
    assert cell_key({"b": 1, "a": 2}) == cell_key({"a": 2, "b": 1})
    assert cell_key((1, "x")) == cell_key([1, "x"])
    assert cell_key(1) != cell_key("1")


def _await_journal_entry(cell):
    """The slow cell waits (bounded) for the fast cell's checkpoint
    line to reach the journal, and reports whether it did."""
    kind, path, other = cell
    if kind == "fast":
        return True
    key = cell_key(other)
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            with open(path) as fh:
                lines = fh.read().splitlines()
        except OSError:
            lines = []
        for line in lines:
            try:
                if json.loads(line).get("cell") == key:
                    return True
            except ValueError:
                pass  # a line caught mid-append
        time.sleep(0.01)
    return False


def test_checkpoint_lands_in_completion_order(tmp_path):
    # A fast cell submitted behind a slow one must reach the
    # checkpoint while the slow one is still running: a kill in that
    # window loses only the in-flight cell.
    path = str(tmp_path / "ck.jsonl")
    fast = ("fast", path, None)
    slow = ("slow", path, fast)
    ck = CampaignCheckpoint(path, meta={})
    results = cell_map(_await_journal_entry, [slow, fast], jobs=2,
                       checkpoint=ck)
    assert results == [True, True]


# ------------------------------------------------------- campaign wiring


def test_campaign_resume_report_is_byte_identical(tmp_path):
    """The acceptance criterion, at campaign level: a killed-then-
    resumed campaign renders the same report as an uninterrupted one,
    re-executing only unfinished cells."""
    from repro.experiments.campaign import (build_cells, render_report,
                                            run_campaign,
                                            run_campaign_cell)

    names = ["table1", "table2"]
    ck_path = tmp_path / "campaign.json"
    meta = {"experiments": names, "quick": True, "seed": 1}

    # The uninterrupted reference.
    cells, results = run_campaign(names, quick=True, seed=1)
    reference = render_report(cells, results)

    # "Kill" a campaign after its first cell: manifest holds table1.
    partial = CampaignCheckpoint(ck_path, meta=meta)
    first = build_cells(names, True, 1)[0]
    partial.put(first, run_campaign_cell(first))

    # Resume: table1 must come from the manifest, not re-run.
    import repro.experiments.campaign as campaign_mod
    real_cell = campaign_mod.run_campaign_cell
    executed = []

    def tracking(cell):
        executed.append(cell["experiment"])
        return real_cell(cell)

    campaign_mod.run_campaign_cell = tracking
    try:
        cells2, results2 = run_campaign(
            names, quick=True, seed=1, checkpoint_path=ck_path,
            resume=True)
    finally:
        campaign_mod.run_campaign_cell = real_cell
    assert executed == ["table2"]
    assert render_report(cells2, results2) == reference
    # Fully successful campaign removes its manifest.
    assert not ck_path.exists()


# ------------------------------------------------- journal recovery (v2)


def _journal_lines(path):
    return path.read_text().splitlines()


def test_put_appends_one_journal_line(tmp_path):
    path = tmp_path / "ck.jsonl"
    ck = CampaignCheckpoint(path, meta={"k": 1})
    ck.put(1, 2)
    ck.put(2, 4)
    lines = _journal_lines(path)
    assert len(lines) == 3  # header + one line per cell
    header = json.loads(lines[0])
    assert header["format"].endswith("v2")
    assert header["meta"] == {"k": 1}


def test_truncated_trailing_line_is_recovered_and_compacted(tmp_path):
    path = tmp_path / "ck.jsonl"
    ck = CampaignCheckpoint(path, meta={})
    for cell in (1, 2, 3):
        ck.put(cell, cell * 2)
    # crash mid-append: the journal ends in half a JSON line
    with open(path, "a") as fh:
        fh.write('{"cell": "4", "resu')
    fresh = CampaignCheckpoint(path, meta={})
    with pytest.warns(RuntimeWarning, match="truncated"):
        assert fresh.load(resume=True) == 3
    assert fresh.get(2) == 4
    # the journal was compacted: the torn tail is gone for good
    reloaded = CampaignCheckpoint(path, meta={})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert reloaded.load(resume=True) == 3


def test_corrupt_middle_line_is_skipped_not_fatal(tmp_path):
    path = tmp_path / "ck.jsonl"
    ck = CampaignCheckpoint(path, meta={})
    ck.put(1, 2)
    ck.put(2, 4)
    lines = _journal_lines(path)
    lines[1] = lines[1][: len(lines[1]) // 2]  # corrupt entry for 1
    path.write_text("\n".join(lines) + "\n")
    fresh = CampaignCheckpoint(path, meta={})
    with pytest.warns(RuntimeWarning, match="corrupt"):
        assert fresh.load(resume=True) == 1
    assert fresh.get(1) is fresh.MISS  # lost -> will re-run
    assert fresh.get(2) == 4  # later entries survive the bad line


def test_bitflipped_entry_fails_its_digest_and_is_dropped(tmp_path):
    path = tmp_path / "ck.jsonl"
    ck = CampaignCheckpoint(path, meta={})
    ck.put(1, 1000)
    lines = _journal_lines(path)
    lines[1] = lines[1].replace("1000", "1001")  # still valid JSON
    path.write_text("\n".join(lines) + "\n")
    fresh = CampaignCheckpoint(path, meta={})
    with pytest.warns(RuntimeWarning, match="corrupt"):
        assert fresh.load(resume=True) == 0
    assert fresh.get(1) is fresh.MISS  # never served, recomputed


def test_v1_manifest_still_loads(tmp_path):
    path = tmp_path / "ck.json"
    v1 = {"format": "repro-campaign-checkpoint-v1",
          "meta": {"seed": 1},
          "cells": {cell_key(1): 2, cell_key(2): 4}}
    path.write_text(json.dumps(v1, indent=2) + "\n")
    ck = CampaignCheckpoint(path, meta={"seed": 1})
    assert ck.load(resume=True) == 2
    assert ck.get(1) == 2
    # the first write migrates the manifest to the journal format
    ck.put(3, 6)
    header = json.loads(_journal_lines(path)[0])
    assert header["format"].endswith("v2")
    fresh = CampaignCheckpoint(path, meta={"seed": 1})
    assert fresh.load(resume=True) == 3


def test_journal_survives_kill_mid_append(tmp_path):
    """End-to-end: SIGKILL a campaign mid-append; the next load
    recovers every fully-written line instead of raising."""
    import multiprocessing
    import os
    import signal
    import time

    path = tmp_path / "ck.jsonl"

    def writer():
        ck = CampaignCheckpoint(path, meta={})
        i = 0
        while True:
            ck.put(i, {"payload": "x" * 512, "i": i})
            i += 1

    proc = multiprocessing.Process(target=writer)
    proc.start()
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        try:
            if path.stat().st_size > 64 * 1024:
                break
        except OSError:
            pass
        time.sleep(0.005)
    os.kill(proc.pid, signal.SIGKILL)
    proc.join()
    ck = CampaignCheckpoint(path, meta={})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a torn tail may warn
        recovered = ck.load(resume=True)
    assert recovered > 0
    for i in range(recovered):
        assert ck.get(i) == {"payload": "x" * 512, "i": i}


# -------------------------------------------- broken pool (infrastructure)


def _broken_pool_once(cell):
    """Raise BrokenProcessPool on the first run of each cell (the
    flag file marks "already failed once"), succeed after — the shape
    of a worker lost to the OOM killer."""
    flag, value = cell
    if not os.path.exists(flag):
        open(flag, "w").close()
        raise BrokenProcessPool("worker died")
    return value * 2


def _broken_pool_always(cell):
    raise BrokenProcessPool("pool keeps collapsing")


def test_broken_pool_respawns_and_reruns_in_flight_cells(tmp_path):
    cells = [(str(tmp_path / f"flag{i}"), i) for i in range(4)]
    # no retries: the rerun comes from the pool-respawn path, not the
    # per-cell retry budget
    results = cell_map(_broken_pool_once, cells, jobs=2,
                       timeout_s=60, mark_failures=True)
    assert results == [0, 2, 4, 6]


def test_persistently_broken_pool_degrades_to_serial(tmp_path):
    # Serial in-process execution surfaces the exception as an
    # ordinary cell error: the campaign records FAILED rows instead
    # of aborting (and instead of respawning pools forever).
    results = cell_map(_broken_pool_always, [1, 2], jobs=2,
                       timeout_s=60, mark_failures=True)
    assert all(isinstance(r, FailedCell) for r in results)
    assert all(r.reason == "error" for r in results)
    assert "BrokenProcessPool" in results[0].error


def test_broken_pool_cells_checkpoint_after_respawn(tmp_path):
    ck = CampaignCheckpoint(tmp_path / "ck.jsonl", meta={})
    cells = [(str(tmp_path / f"f{i}"), i) for i in range(3)]
    results = cell_map(_broken_pool_once, cells, jobs=2,
                       timeout_s=60, mark_failures=True,
                       checkpoint=ck)
    assert results == [0, 2, 4]
    assert all(ck.get(cell) == cell[1] * 2 for cell in cells)


def _log_run(cell):
    """Append one line per finished run; the first cell breaks the
    pool at once while the second is still running."""
    log, value = cell
    if value == 0 and not os.path.exists(log + ".broke"):
        open(log + ".broke", "w").close()
        raise BrokenProcessPool("worker died")
    time.sleep(0.3)
    with open(log, "a") as fh:
        fh.write(f"{value}\n")
    return value


def test_broken_pool_lets_in_flight_cells_finish_before_teardown(tmp_path):
    # Killing a worker mid-cell can catch it taking the result
    # queue's lock, which hangs the pool's teardown; so the cell in
    # flight runs to its end (and re-runs on the fresh pool).
    log = str(tmp_path / "runs.log")
    results = cell_map(_log_run, [(log, 0), (log, 1)], jobs=2,
                       timeout_s=60, mark_failures=True)
    assert results == [0, 1]
    with open(log) as fh:
        assert sorted(fh.read().split()) == ["0", "1", "1"]
