"""The leased work-stealing shard executor: serial equivalence,
in-flight dedupe, serving stored rows, poison-cell quarantine,
wedged-cell timeouts, SIGKILL survival, serial degradation — and the
capstone chaos test: a multi-thousand-cell sweep that loses its
supervisor *and* three workers to SIGKILL, resumes, and still
produces results byte-identical to an uninterrupted serial run with
no already-stored cell executed twice."""

import json
import multiprocessing
import os
import signal
import time
from collections import Counter

import pytest

from repro.experiments.shard import FailedCell, shard_map
from repro.experiments.store import ShardStore, cache_key
from repro.faults.procchaos import WorkerKiller


# ------------------------------------------------------- cell functions
# (module-level: workers inherit them across fork)


def _triple(cell):
    return {"v": cell["i"] * 3}


def _logged(cell):
    """Log one execution line (O_APPEND, atomic per line) then
    compute; the chaos capstone counts these to prove no finished
    cell ever re-executes."""
    with open(os.path.join(cell["log"], f"{os.getpid()}.log"),
              "a") as fh:
        fh.write(f"{cell['i']}\n")
        fh.flush()
    return {"v": cell["i"] * 3}


def _slow_logged(cell):
    result = _logged(cell)
    time.sleep(0.002)
    return result


def _suicide_or_triple(cell):
    """The poison cell: SIGKILL the worker that runs it.  Everything
    else computes normally."""
    if cell.get("suicide"):
        os.kill(os.getpid(), signal.SIGKILL)
    return _triple(cell)


def _store_rows(store_dir, cells, value) -> None:
    """Record every cell of ``cells`` as done with ``value``, as an
    earlier sweep over them would have."""
    with ShardStore(store_dir) as store:
        keys, _ = store.open_sweep(cells)
        for key in keys:
            store.complete(key, value)


def _executions(log_dir) -> Counter:
    counts = Counter()
    for name in os.listdir(log_dir):
        with open(os.path.join(log_dir, name)) as fh:
            counts.update(int(line) for line in fh if line.strip())
    return counts


# ------------------------------------------------------------ contract


def test_results_in_submission_order_match_serial(tmp_path):
    cells = [{"i": i} for i in range(40)]
    results = shard_map(_triple, cells, 2,
                        store_dir=tmp_path / "store")
    assert results == [_triple(cell) for cell in cells]


def test_supervisor_serial_path_when_single_worker(tmp_path):
    cells = [{"i": i} for i in range(10)]
    results = shard_map(_triple, cells, 1,
                        store_dir=tmp_path / "store")
    assert results == [_triple(cell) for cell in cells]


def test_duplicate_cells_collapse_to_one_execution(tmp_path):
    log = tmp_path / "log"
    log.mkdir()
    base = [{"i": i, "log": str(log)} for i in range(20)]
    cells = base * 3  # every cell three times
    results = shard_map(_logged, cells, 2,
                        store_dir=tmp_path / "store")
    assert results == [_triple(cell) for cell in cells]
    counts = _executions(log)
    assert sum(counts.values()) == 20  # one execution per content key
    assert all(count == 1 for count in counts.values())


def test_checkpointed_cells_replay_without_execution(tmp_path):
    log = tmp_path / "log"
    log.mkdir()
    cells = [{"i": i, "log": str(log)} for i in range(10)]
    store_dir = tmp_path / "store"
    _store_rows(store_dir, cells[:6], {"v": "replayed"})  # marker
    stats = {}
    results = shard_map(_logged, cells, 2, store_dir=store_dir,
                        stats=stats)
    assert results[:6] == [{"v": "replayed"}] * 6
    assert results[6:] == [_triple(cell) for cell in cells[6:]]
    assert set(_executions(log)) == {6, 7, 8, 9}
    assert stats == {"served": 6}


def test_cache_hits_skip_execution_and_backfill_checkpoint(tmp_path):
    log = tmp_path / "log"
    log.mkdir()
    cells = [{"i": i, "log": str(log)} for i in range(6)]
    store_dir = tmp_path / "store"
    # an earlier, different sweep finished the first four cells (and
    # left one cell of its own unfinished)
    _store_rows(store_dir, cells[:4], {"v": "cached"})
    with ShardStore(store_dir) as store:
        store.open_sweep(cells[:4] + [{"i": 99, "log": str(log)}])
    results = shard_map(_logged, cells, 2, store_dir=store_dir)
    assert results == [{"v": "cached"}] * 4 + \
        [_triple(cell) for cell in cells[4:]]
    assert set(_executions(log)) == {4, 5}
    # every cell of this sweep now has its done row; the other
    # sweep's unfinished row was pruned
    with ShardStore(store_dir) as store:
        assert set(store.results()) == {cache_key(cell)
                                         for cell in cells}
        assert store.counts() == {"done": 6}


def _outlives_lease(cell):
    """A healthy cell that takes several lease durations to finish:
    only the heartbeat keeps it from being stolen."""
    time.sleep(cell["sleep_s"])
    return _triple(cell)


def test_heartbeat_keeps_slow_cell_leased_in_worker(tmp_path):
    """Regression: the heartbeat runs in a thread, and sqlite
    connections are thread-bound — a heartbeat sharing the worker's
    connection dies on its first renew, so any cell slower than the
    lease was stolen, then falsely poison-quarantined."""
    cells = [{"i": i, "sleep_s": 0.7} for i in range(2)]
    results = shard_map(_outlives_lease, cells, 2,
                        store_dir=tmp_path / "store", lease_s=0.2)
    assert results == [_triple(cell) for cell in cells]


# ------------------------------------------------------------ robustness


def test_poison_cell_quarantined_sweep_survives(tmp_path):
    cells = [{"i": i} for i in range(8)]
    cells.insert(3, {"i": 99, "suicide": True})
    results = shard_map(_suicide_or_triple, cells, 2,
                        store_dir=tmp_path / "store", lease_s=0.3)
    poison = results[3]
    assert isinstance(poison, FailedCell)
    assert poison.reason == "poison"
    assert "crashed 2 workers" in poison.error
    clean = results[:3] + results[4:]
    assert clean == [_triple(cell) for cell in cells
                     if not cell.get("suicide")]


def test_worker_sigkills_do_not_change_results(tmp_path):
    log = tmp_path / "log"
    log.mkdir()
    cells = [{"i": i, "log": str(log)} for i in range(250)]
    killer = WorkerKiller(2, seed=3, min_gap_s=0.05, max_gap_s=0.15)
    results = shard_map(_slow_logged, cells, 3,
                        store_dir=tmp_path / "store", lease_s=0.5,
                        chaos=killer)
    assert results == [_triple(cell) for cell in cells]
    assert len(killer.killed) == 2  # the chaos budget was spent


def test_unrespawnable_pool_degrades_to_serial(tmp_path):
    cells = [{"i": i} for i in range(30)]
    # kill every worker immediately and forbid replacements: the
    # supervisor must finish the sweep in-process
    killer = WorkerKiller(2, seed=1, min_gap_s=0.0, max_gap_s=0.001)
    results = shard_map(_triple, cells, 2,
                        store_dir=tmp_path / "store", lease_s=0.3,
                        respawn_budget=0, chaos=killer)
    assert results == [_triple(cell) for cell in cells]


def _wedge_or_triple(cell):
    """A cell that never returns (within the test) when asked to."""
    if cell.get("wedge"):
        time.sleep(30)
    return _triple(cell)


def test_timeout_kills_a_wedged_worker(tmp_path):
    """A cell that never returns costs one worker, not the sweep: the
    supervisor kills the worker still running it past ``timeout_s``,
    the respawn budget replaces the worker, the cell ends as
    FAILED(timeout) and no late result can land over it."""
    cells = [{"i": i} for i in range(8)]
    cells.insert(0, {"i": 99, "wedge": True})
    start = time.monotonic()
    results = shard_map(_wedge_or_triple, cells, 2,
                        store_dir=tmp_path / "store", timeout_s=1.0,
                        lease_s=0.5)
    assert time.monotonic() - start < 15
    wedge = results[0]
    assert isinstance(wedge, FailedCell)
    assert wedge.render() == "FAILED(timeout)"
    assert results[1:] == [_triple(cell) for cell in cells[1:]]


def test_timeouts_beyond_the_respawn_budget_still_fail_fast(tmp_path):
    """A timeout kill is not a crash: more wedged cells than the
    respawn budget (4 per worker) each end as FAILED(timeout) on a
    fresh worker, and the supervisor never drains a wedged cell
    in-process, which it could not kill."""
    cells = [{"i": i, "wedge": True} for i in range(6)]
    cells.append({"i": 6})
    start = time.monotonic()
    results = shard_map(_wedge_or_triple, cells,
                        store_dir=tmp_path / "store", timeout_s=0.3,
                        lease_s=0.5)
    assert time.monotonic() - start < 20
    assert [r.render() for r in results[:6]] == ["FAILED(timeout)"] * 6
    assert results[6] == _triple(cells[6])


def test_lost_pool_under_a_timeout_fails_the_rest(tmp_path):
    """With a timeout the supervisor must not drain in-process: once
    the pool is gone and cannot be respawned, the unfinished cells
    end as FAILED(pool)."""
    def kill_all(procs):
        for proc in procs:
            proc.kill()

    cells = [{"i": i} for i in range(30)]
    results = shard_map(_slow_logged, [dict(c, log=str(tmp_path))
                                       for c in cells], 2,
                        store_dir=tmp_path / "store", timeout_s=5.0,
                        lease_s=0.3, respawn_budget=0, chaos=kill_all)
    failed = [r for r in results if isinstance(r, FailedCell)]
    assert failed and all(r.reason == "pool" for r in failed)
    assert all(r == _triple(cell) for cell, r in zip(cells, results)
               if not isinstance(r, FailedCell))


def _interrupt_once(cell):
    """Raise KeyboardInterrupt the first time cell 1 runs (a marker
    file in the cell's ``log`` directory remembers it)."""
    marker = os.path.join(cell["log"], "interrupted")
    if cell["i"] == 1 and not os.path.exists(marker):
        open(marker, "w").close()
        raise KeyboardInterrupt
    time.sleep(cell.get("sleep", 0))
    return _triple(cell)


def _crashes(store_dir) -> int:
    with ShardStore(store_dir) as store:
        assert store.running() == []
        assert "leased" not in store.counts()
        return store._conn.execute(
            "SELECT sum(crashes) FROM cells").fetchone()[0]


def test_interrupted_in_process_sweep_reruns_at_once(tmp_path):
    """Ctrl-C during an in-process sweep hands the running cell's
    lease straight back: a rerun claims it without waiting for the
    lease to expire and without counting a crash."""
    cells = [{"i": i, "log": str(tmp_path)} for i in range(3)]
    store_dir = tmp_path / "store"
    with pytest.raises(KeyboardInterrupt):
        shard_map(_interrupt_once, cells, store_dir=store_dir)
    assert _crashes(store_dir) == 0
    start = time.monotonic()
    results = shard_map(_interrupt_once, cells, store_dir=store_dir)
    assert time.monotonic() - start < 10  # the drain's lease is 60 s
    assert results == [_triple(cell) for cell in cells]
    assert _crashes(store_dir) == 0


def test_interrupted_supervisor_gives_back_its_workers_leases(tmp_path):
    """An interrupt in the supervisor of a two-worker sweep stops the
    workers and gives back the leases they held, without a crash
    count; the rerun does not wait for them to expire."""
    armed = time.monotonic() + 0.5

    def interrupt(procs):
        if time.monotonic() > armed:
            raise KeyboardInterrupt

    cells = [{"i": i, "log": str(tmp_path), "sleep": 0.2}
             for i in range(2, 40)]
    store_dir = tmp_path / "store"
    with pytest.raises(KeyboardInterrupt):
        shard_map(_interrupt_once, cells, 2, store_dir=store_dir,
                  lease_s=30.0, chaos=interrupt)
    assert _crashes(store_dir) == 0
    start = time.monotonic()
    results = shard_map(_interrupt_once, cells, 2,
                        store_dir=store_dir, lease_s=30.0)
    assert time.monotonic() - start < 20  # the leases ran for 30 s
    assert results == [_triple(cell) for cell in cells]
    assert _crashes(store_dir) == 0


def test_failing_cell_retries_then_marks_failed(tmp_path):
    def check(results):
        failure = results[1]
        assert isinstance(failure, FailedCell)
        assert failure.reason == "error"
        assert "RuntimeError" in failure.error
        assert failure.attempts == 2  # the run and its one retry

    cells = [{"i": 0}, {"i": 1, "boom": True}, {"i": 2}]
    results = shard_map(_boom_flagged, cells, 2,
                        store_dir=tmp_path / "store",
                        retries=1, backoff_s=0.01)
    assert results[0] == _triple(cells[0])
    assert results[2] == _triple(cells[2])
    check(results)


def _boom_flagged(cell):
    if cell.get("boom"):
        raise RuntimeError(f"bad cell {cell['i']}")
    return _triple(cell)


# ------------------------------------------------------------ capstone


CAPSTONE_N = 2400


def _capstone_cells(log_dir):
    return [{"i": i, "log": str(log_dir)} for i in range(CAPSTONE_N)]


def _capstone_child(store_dir, log_dir):
    """Phase-1 supervisor, run in a child so the test can SIGKILL
    it."""
    shard_map(_logged, _capstone_cells(log_dir), 3,
              store_dir=store_dir, lease_s=0.5)


def _render(cells, results):
    return "".join(
        f"{cell['i']}: {json.dumps(result, sort_keys=True)}\n"
        for cell, result in zip(cells, results))


def test_chaos_capstone_supervisor_and_worker_sigkills(tmp_path):
    """The acceptance scenario: a multi-thousand-cell sweep loses its
    supervisor to SIGKILL mid-run, is run again against the same
    store, loses three more workers to seeded SIGKILLs — and the
    merged report is byte-identical to an uninterrupted serial run,
    with no cell executed again once its row was stored."""
    log = tmp_path / "log"
    log.mkdir()
    store_dir = tmp_path / "store"
    cells = _capstone_cells(log)

    # the uninterrupted serial reference (pure compute, no store)
    reference = _render(cells, [_triple(cell) for cell in cells])

    # phase 1: SIGKILL the whole sharded campaign mid-sweep
    ShardStore(store_dir).close()  # created before the child races it
    child = multiprocessing.Process(
        target=_capstone_child, args=(str(store_dir), str(log)))
    child.start()
    deadline = time.monotonic() + 60
    with ShardStore(store_dir) as store:
        while time.monotonic() < deadline and child.is_alive():
            if store.counts().get("done", 0) >= CAPSTONE_N // 8:
                break
            time.sleep(0.01)
    assert child.is_alive(), "sweep finished before it could be killed"
    os.kill(child.pid, signal.SIGKILL)
    child.join()

    with ShardStore(store_dir) as store:
        stored = set(store.done_keys())
    finished_keys = {cell["i"] for cell in cells
                     if cache_key(cell) in stored}
    assert 0 < len(finished_keys) < CAPSTONE_N, "kill landed mid-sweep"
    # give phase-1 orphan workers a beat to notice the dead
    # supervisor and exit before counting phase-1 executions
    time.sleep(0.3)
    phase1 = _executions(log)

    # phase 2: rerun; SIGKILL three workers while it runs
    killer = WorkerKiller(3, seed=11, min_gap_s=0.05, max_gap_s=0.15)
    stats = {}
    results = shard_map(_logged, cells, 3, store_dir=store_dir,
                        lease_s=0.5, chaos=killer, stats=stats)

    assert len(killer.killed) >= 3
    assert stats["served"] >= len(finished_keys)
    report = _render(cells, results)
    assert report == reference  # byte-identical to the serial run

    # no cell executed twice once a stored result existed
    phase2 = _executions(log)
    phase2.subtract(phase1)
    re_executed = {i for i, extra in phase2.items()
                   if extra > 0 and i in finished_keys}
    assert re_executed == set()


# ------------------------------------------------------------ campaign


def _fake_campaign_cell(cell):
    return {"experiment": cell["experiment"], "claim": "ok",
            "text": f"rows for {cell['experiment']}\n"}


def test_run_campaign_through_shard_executor(tmp_path, monkeypatch):
    from repro.experiments import campaign

    monkeypatch.setattr(campaign, "run_campaign_cell",
                        _fake_campaign_cell)
    store_dir = tmp_path / "store"
    stats = {}
    cells, results = campaign.run_campaign(
        ["alpha", "beta"], quick=True, seed=1, jobs=2,
        store_dir=store_dir, stats=stats)
    assert [r["experiment"] for r in results] == ["alpha", "beta"]
    assert stats == {"served": 0}
    report = campaign.render_report(cells, results)
    assert "rows for alpha" in report and "rows for beta" in report
    # a successful campaign keeps its rows: a rerun is served them
    _, again = campaign.run_campaign(
        ["alpha", "beta"], quick=True, seed=1, jobs=2,
        store_dir=store_dir, stats=stats)
    assert again == results and stats == {"served": 2}


def _fake_fails_on_first_seed(cell):
    if cell["experiment"] == "beta" and cell["seed"] == 1:
        raise ValueError("seed-specific failure")
    return _fake_campaign_cell(cell)


def test_run_campaign_reseeded_retry_recovers_under_sharding(
        tmp_path, monkeypatch):
    from repro.experiments import campaign

    monkeypatch.setattr(campaign, "run_campaign_cell",
                        _fake_fails_on_first_seed)
    store_dir = tmp_path / "store"
    cells, results = campaign.run_campaign(
        ["alpha", "beta"], quick=True, seed=1, jobs=2, retries=2,
        backoff_s=0, reseed=True, store_dir=store_dir)
    assert results == [_fake_campaign_cell(cell) for cell in cells]
    # the reseeded cell has its own row; the original has none
    reseeded = campaign.reseed_cell(cells[1], 1)
    with ShardStore(store_dir) as store:
        assert set(store.results()) == {cache_key(cells[0]),
                                        cache_key(reseeded)}


def test_cli_accepts_shard_flags():
    from repro.experiments.__main__ import build_parser

    parser = build_parser()
    args = parser.parse_args(
        ["run", "--jobs", "4", "--cache-dir", "/tmp/s", "--resume"])
    assert args.jobs == 4
    assert args.cache_dir == "/tmp/s"
    assert args.resume
    # one spelling per option: the old aliases are gone
    for old in (["--shard-workers", "4"], ["--store-dir", "/tmp/s"]):
        with pytest.raises(SystemExit):
            parser.parse_args(["run", *old])


def test_cli_profile_runs_in_process_under_timeout(tmp_path, capsys):
    """``--profile`` profiles this process, so it runs the cells
    here and ignores ``--timeout`` (which needs a worker to kill)
    rather than printing an empty profile."""
    from repro.experiments.__main__ import main

    assert main(["run", "fig2", "--profile", "--timeout", "60",
                 "--cache-dir", str(tmp_path / "store"),
                 "-o", str(tmp_path / "report.txt")]) == 0
    err = capsys.readouterr().err
    assert "--timeout ignored" in err
    total = [line for line in err.splitlines()
             if line.startswith("total")]
    assert len(total) == 1 and int(total[0].split()[1]) > 0
