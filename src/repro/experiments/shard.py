"""Leased work-stealing shard executor for campaign sweeps.

:func:`shard_map` is the distributed sibling of
:func:`~repro.experiments.parallel.cell_map`: same contract (apply
``fn`` to every cell, results back in submission order, failures as
:class:`~repro.experiments.parallel.FailedCell` markers), but the
workers coordinate through the shared on-disk result store
(:class:`~repro.experiments.store.ShardStore`) instead of pipes to a
parent — which is what lets the sweep survive anything short of
losing the disk:

* **Worker crash (any signal, incl. SIGKILL)** — the dead worker's
  leased cell expires and is stolen by a surviving worker; the
  supervisor reaps the corpse and respawns a replacement (bounded by
  ``respawn_budget``).
* **Poison cells** — a cell whose lease expires
  ``max_crashes`` times (it keeps killing workers) is quarantined as
  a ``FAILED(poison)`` row instead of taking the sweep down with it.
* **Wedged cells** — with ``timeout_s`` set, the supervisor kills a
  worker whose cell has run longer than that and records a timeout
  attempt, so a cell that never returns costs one worker (respawned)
  and ends as ``FAILED(timeout)``, like under ``cell_map``.
* **Supervisor crash** — every finished cell is already a ``done``
  row of the store; re-running the same sweep against the same
  ``store_dir`` serves those rows and re-executes only the rest.
* **Pool collapse** — if no worker can be (re)spawned, the supervisor
  degrades to executing the remaining cells serially in-process; the
  sweep finishes slower instead of not at all.
* **Corrupt artifacts** — a torn store row or database is detected
  by digest, discarded with a single warning, and recomputed (see
  store.py).

Determinism is inherited from the cell contract: cells are pure
functions of their content, results are plain JSON, and the output
list is ordered by submission — so a sharded, crashed, resumed sweep
renders a report byte-identical to an uninterrupted serial run
(asserted by ``make shard-chaos-smoke`` and the chaos tests).

In-flight dedupe rides on content addressing: store rows are keyed by
:func:`~repro.experiments.store.cache_key`, so identical cells
collapse to one row, one execution, one result — and a cell whose
row is already ``done`` is never executed at all.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from typing import Any, Callable, Iterable, Optional

from .parallel import FailedCell
from .store import DEFAULT_CLAIM_BATCH, DEFAULT_MAX_CRASHES, ShardStore

#: default lease duration; workers heartbeat at a third of this, so a
#: healthy worker is three missed beats away from losing a cell
DEFAULT_LEASE_S = 2.0

#: supervisor poll / idle-worker nap interval
DEFAULT_POLL_S = 0.05


def default_respawn_budget(workers: int) -> int:
    """How many replacement workers the supervisor will spawn before
    declaring the pool unrespawnable: generous enough to ride out a
    chaos run's kills, small enough that a crash-looping environment
    degrades to serial instead of forking forever."""
    return 4 * max(1, workers)


def _fail_reason(reason: str) -> tuple:
    """Split a store failure reason into FailedCell (reason, error)."""
    kind, _, detail = reason.partition(": ")
    if kind in ("poison", "error", "timeout"):
        return kind, detail
    return "error", reason


def _owner(pid: int) -> str:
    """The lease owner name of the worker process ``pid``."""
    return f"worker-{pid}"


class _Heartbeat:
    """Daemon thread renewing a claim batch's leases while ``fn``
    runs (one :meth:`ShardStore.renew_many` per beat for the whole
    batch).

    Python's sqlite3 connections are bound to their opening thread,
    so the heartbeat clones the worker's store *inside* its own
    thread rather than sharing the claim/complete connection.

    ``held`` is a one-slot list holding a tuple of keys; the drain
    loop swaps in a smaller tuple as cells finish (replacing the
    tuple, never mutating it, so this thread always reads a
    consistent snapshot).

    A cell slower than the lease keeps its lease for as long as it
    runs; bounding a cell's run time is the supervisor's job
    (``timeout_s``, :func:`_kill_wedged`).
    """

    def __init__(self, store: ShardStore, owner: str, held: list,
                 lease_s: float):
        self._store = store
        self._owner = owner
        self._held = held
        self._lease_s = lease_s
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        if self._stop.wait(self._lease_s / 3):
            return  # batch finished before the first beat: skip the
            #         per-batch connection entirely (the common case)
        store = self._store.clone()  # this thread's own connection
        try:
            while True:
                keys = self._held[0]
                if keys and not store.renew_many(self._owner, keys,
                                                 self._lease_s):
                    return  # every lease lost (stolen): renewing a
                    #         dead lease would fight the new owners
                if self._stop.wait(self._lease_s / 3):
                    return
        except Exception:  # pragma: no cover - store racing close
            return
        finally:
            store.close()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=1.0)


def _drain(store: ShardStore, fn: Callable, owner: str, *,
           lease_s: float, retries: int, backoff_s: float,
           poll_s: float = DEFAULT_POLL_S,
           parent_pid: Optional[int] = None,
           max_cells: Optional[int] = None,
           claim_k: int = DEFAULT_CLAIM_BATCH) -> int:
    """The claim/execute/complete loop shared by worker processes and
    the supervisor's serial-degradation path.  Claims up to
    ``claim_k`` cells per store write transaction
    (:meth:`ShardStore.claim_batch`) and renews the whole batch with
    one heartbeat thread, so per-cell store traffic is one fused
    complete+start-next write plus a share of a batch renew.  Returns
    the number of cells executed.  Exits when every cell is terminal,
    when ``max_cells`` is reached, or — for workers — when the
    supervisor (``parent_pid``) is gone."""
    done = 0
    while max_cells is None or done < max_cells:
        if parent_pid is not None and os.getppid() != parent_pid:
            break  # orphaned: supervisor died, don't run headless
        want = (claim_k if max_cells is None
                else min(claim_k, max_cells - done))
        batch = store.claim_batch(owner, lease_s, want)
        if not batch:
            if store.all_terminal():
                break
            time.sleep(poll_s)
            continue
        held = [tuple(key for key, _ in batch)]
        beat = _Heartbeat(store, owner, held, lease_s)
        try:
            ours = True  # claim_batch marked the first cell started
            for pos, (key, cell) in enumerate(batch):
                if parent_pid is not None \
                        and os.getppid() != parent_pid:
                    break  # orphaned mid-batch: unstarted leases
                    #        expire and are re-claimed bump-free
                if not ours:
                    # the previous cell failed (or its complete saw
                    # this lease stolen): claim executing rights
                    # before running
                    ours = store.mark_started(owner, key)
                    if not ours:
                        held[0] = tuple(k for k in held[0]
                                        if k != key)
                        continue  # stolen while queued: the thief
                        #           runs it, we move on
                next_key = (batch[pos + 1][0]
                            if pos + 1 < len(batch) else None)
                try:
                    result = fn(cell)
                except BaseException as exc:
                    if not isinstance(exc, Exception):
                        raise  # KeyboardInterrupt/SystemExit: die
                        #        leased, lease expiry hands cells on
                    store.fail_attempt(
                        key, f"{type(exc).__name__}: {exc}",
                        retries=retries, backoff_s=backoff_s)
                    ours = False
                else:
                    ours = store.complete(key, result, owner=owner,
                                          start_next=next_key)
                done += 1
                held[0] = tuple(k for k in held[0] if k != key)
        finally:
            beat.stop()
    return done


def _worker_main(store_dir, fn, *, lease_s, retries, backoff_s,
                 fingerprint, max_crashes, parent_pid,
                 claim_k=DEFAULT_CLAIM_BATCH) -> None:
    """Worker process entry point: open the shared store and drain."""
    # warm-engine reuse: a worker runs many cells, and campaign cells
    # repeat (topology, scheduler) configurations — let make_engine
    # recycle engines via Engine.reset() unless the parent explicitly
    # exported REPRO_WARM_ENGINES=0
    os.environ.setdefault("REPRO_WARM_ENGINES", "1")
    with ShardStore(store_dir, fingerprint=fingerprint,
                    max_crashes=max_crashes) as store:
        _drain(store, fn, owner=_owner(os.getpid()),
               lease_s=lease_s, retries=retries, backoff_s=backoff_s,
               parent_pid=parent_pid, claim_k=claim_k)


def shard_map(fn: Callable[[Any], Any], cells: Iterable[Any],
              workers: int, *, store_dir,
              serve: bool = True,
              stats: Optional[dict] = None,
              lease_s: float = DEFAULT_LEASE_S,
              timeout_s: Optional[float] = None,
              retries: int = 0,
              backoff_s: float = 0.5,
              max_crashes: int = DEFAULT_MAX_CRASHES,
              respawn_budget: Optional[int] = None,
              poll_s: float = DEFAULT_POLL_S,
              claim_k: int = DEFAULT_CLAIM_BATCH,
              chaos: Optional[Callable] = None) -> list:
    """Apply ``fn`` to every cell through ``workers`` leased
    work-stealing processes sharing the store at ``store_dir``.

    Same result contract as
    :func:`~repro.experiments.parallel.cell_map` with
    ``mark_failures=True``: a list in submission order, exhausted,
    timed-out or quarantined cells as :class:`FailedCell` markers.
    ``fn`` must be module-level and cells/results plain JSON data
    (the store persists them as canonical JSON).

    A cell whose ``done`` row is already in the store is served from
    it (with ``serve``) and never executed; ``stats["served"]``, when
    given, receives the number of cells served.  ``timeout_s`` bounds
    one cell's run: the supervisor kills the worker running it past
    that and records a timeout attempt, retried like an error.

    ``chaos`` is the fault-injection hook: a callable invoked each
    supervisor poll with the list of live worker ``Process`` objects
    (see :mod:`repro.faults.procchaos`).
    """
    cells = list(cells)
    store = ShardStore(store_dir, max_crashes=max_crashes)
    try:
        keys, served = store.open_sweep(cells, serve=serve)
        if stats is not None:
            stats["served"] = sum(1 for key in keys if key in served)
        _supervise(store, fn, workers,
                   lease_s=lease_s, timeout_s=timeout_s,
                   retries=retries, backoff_s=backoff_s,
                   max_crashes=max_crashes,
                   respawn_budget=respawn_budget,
                   poll_s=poll_s, claim_k=claim_k,
                   chaos=chaos, store_dir=store_dir)
        failures = store.failures()
        results = []
        for cell, key in zip(cells, keys):
            if key in served:
                results.append(served[key])
                continue
            found, value = store.get_result(key)
            if not found and key in failures:
                reason, attempts, crashes = failures[key]
                kind, detail = _fail_reason(reason)
                value = FailedCell(cell, kind, detail,
                                   attempts=max(1, attempts + crashes))
            elif not found:
                # a done row failed verification at the last moment
                # (or vanished): recompute inline rather than abort
                value = fn(cell)
                store.complete(key, value)
            results.append(value)
    finally:
        store.close()
    return results


def _kill_wedged(store: ShardStore, procs: list, seen: dict,
                 timeout_s: float, retries: int,
                 backoff_s: float) -> dict:
    """Kill every live worker still running a cell it started more
    than ``timeout_s`` ago, and record a timeout attempt for that
    cell.  ``seen`` maps each started execution to when a poll first
    saw it; returns the map for the next poll.  The heartbeat keeps a
    wedged cell leased, so the kill is what frees its worker — and
    what stops a late result from landing after the cell has been
    given up on."""
    now = time.monotonic()
    seen = {run: seen.get(run, now) for run in store.running()}
    live = {_owner(proc.pid): proc for proc in procs}
    for (owner, key, _attempts, _crashes), since in seen.items():
        proc = live.get(owner)
        if proc is None or now - since < timeout_s:
            continue
        proc.kill()
        proc.join(timeout=5.0)
        store.fail_attempt(key, "", retries=retries,
                           backoff_s=backoff_s, kind="timeout")
    return seen


def _supervise(store: ShardStore, fn, workers: int, *, lease_s,
               timeout_s, retries, backoff_s, max_crashes,
               respawn_budget, poll_s, claim_k, chaos,
               store_dir) -> None:
    """Run the pool until every cell is terminal: spawn workers,
    reap/respawn the dead, kill workers wedged past ``timeout_s``,
    poison crash-looping cells, and degrade to serial when the pool
    is gone."""
    if store.all_terminal():
        return  # everything served: no pool to spawn
    if respawn_budget is None:
        respawn_budget = default_respawn_budget(workers)
    worker_kwargs = dict(
        lease_s=lease_s, retries=retries, backoff_s=backoff_s,
        fingerprint=store.fingerprint, max_crashes=max_crashes,
        parent_pid=os.getpid(), claim_k=claim_k)

    def spawn():
        proc = multiprocessing.Process(
            target=_worker_main, args=(store_dir, fn),
            kwargs=worker_kwargs, daemon=True)
        proc.start()
        return proc

    procs: list = []
    if workers > 1:
        try:
            procs = [spawn() for _ in range(workers)]
        except OSError:
            procs = []  # can't fork at all: serial from the start

    seen: dict = {}
    try:
        while not store.all_terminal():
            if chaos is not None:
                chaos([p for p in procs if p.is_alive()])
            if timeout_s is not None:
                seen = _kill_wedged(store, procs, seen, timeout_s,
                                    retries, backoff_s)
            store.reap()
            dead = [p for p in procs if not p.is_alive()]
            for proc in dead:
                proc.join()
                procs.remove(proc)
            while dead and len(procs) < workers and respawn_budget > 0:
                respawn_budget -= 1
                try:
                    procs.append(spawn())
                except OSError:
                    respawn_budget = 0
                    break
            if not procs:
                # pool gone and unrespawnable: finish the sweep
                # serially in-process rather than abandoning it
                _drain(store, fn, f"supervisor-{os.getpid()}",
                       lease_s=max(lease_s, 60.0), retries=retries,
                       backoff_s=backoff_s, poll_s=poll_s,
                       claim_k=claim_k)
                store.reap()
                continue
            time.sleep(poll_s)
    finally:
        for proc in procs:
            proc.terminate()
        for proc in procs:
            proc.join(timeout=5.0)
