"""Leased work-stealing shard executor: the campaign executor.

:func:`shard_map` applies ``fn`` to every cell and returns the results
in submission order, with failures as :class:`FailedCell` markers.
Every campaign sweep runs on it (``python -m repro.experiments run
--jobs N``): its workers coordinate through the shared on-disk result
store (:class:`~repro.experiments.store.ShardStore`) instead of pipes
to a parent, which is what lets the sweep survive anything short of
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
  attempt, so a cell that never returns costs one worker and ends as
  ``FAILED(timeout)``.  The replacement is not charged to the respawn
  budget: a timeout kill is not a crash.
* **Supervisor crash** — every finished cell is already a ``done``
  row of the store; re-running the same sweep against the same
  ``store_dir`` serves those rows and re-executes only the rest.
* **Pool collapse** — if no worker can be (re)spawned, the supervisor
  degrades to executing the remaining cells serially in-process; the
  sweep finishes slower instead of not at all.  With ``timeout_s``
  set it cannot (it could not kill itself over a wedged cell), so the
  remaining cells end as ``FAILED(pool)`` instead.
* **Interrupt** — when the supervisor is interrupted (Ctrl-C), it
  stops its workers and hands every lease they and it held straight
  back as ``pending``, without counting a crash, so a rerun claims
  those cells at once.
* **Corrupt artifacts** — a torn store row or database is detected
  by digest, discarded with a single warning, and recomputed (see
  store.py).

Determinism is inherited from the cell contract: cells are pure
functions of their content, results are plain JSON, and the output
list is ordered by submission — so a sharded, crashed, resumed sweep
renders a report byte-identical to an uninterrupted serial run
(asserted by ``make shard-chaos-smoke`` and the chaos tests).
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional

from .parallel import default_jobs
from .store import DEFAULT_CLAIM_BATCH, DEFAULT_MAX_CRASHES, ShardStore

#: default lease duration; workers heartbeat at a third of this, so a
#: healthy worker is three missed beats away from losing a cell
DEFAULT_LEASE_S = 2.0

#: supervisor poll / idle-worker nap interval
DEFAULT_POLL_S = 0.05


@dataclass
class FailedCell:
    """Marker returned in place of a result for a cell that exhausted
    its retries, timed out or was quarantined.

    ``reason`` is ``"error"``, ``"timeout"``, ``"poison"`` or
    ``"pool"`` (no worker was left to run it under a timeout);
    ``error`` carries the exception summary for error failures;
    ``attempts`` counts the runs consumed.  Renders as
    ``FAILED(reason)`` in reports.
    """

    cell: Any
    reason: str
    error: str = ""
    attempts: int = 1

    def render(self) -> str:
        """The report marker, e.g. ``FAILED(timeout)``."""
        detail = f": {self.error}" if self.error else ""
        return f"FAILED({self.reason}{detail})"


def default_respawn_budget(workers: int) -> int:
    """How many replacement workers the supervisor will spawn before
    declaring the pool unrespawnable: generous enough to ride out a
    chaos run's kills, small enough that a crash-looping environment
    degrades to serial instead of forking forever."""
    return 4 * max(1, workers)


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
           claim_k: int, poll_s: float = DEFAULT_POLL_S,
           parent_pid: Optional[int] = None) -> None:
    """The claim/execute/complete loop shared by worker processes and
    the supervisor's in-process drain.  Claims up to
    ``claim_k`` cells per store write transaction
    (:meth:`ShardStore.claim_batch`) and renews the whole batch with
    one heartbeat thread, so per-cell store traffic is one fused
    complete+start-next write plus a share of a batch renew.  Exits
    when every cell is terminal or — for workers — when the
    supervisor (``parent_pid``) is gone.  A KeyboardInterrupt or
    SystemExit in ``fn`` propagates with the batch still leased."""
    while True:
        if parent_pid is not None and os.getppid() != parent_pid:
            break  # orphaned: supervisor died, don't run headless
        batch = store.claim_batch(owner, lease_s, claim_k)
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
                except Exception as exc:
                    store.fail_attempt(
                        key, f"{type(exc).__name__}: {exc}",
                        retries=retries, backoff_s=backoff_s)
                    ours = False
                else:
                    ours = store.complete(key, result, owner=owner,
                                          start_next=next_key)
                held[0] = tuple(k for k in held[0] if k != key)
        finally:
            beat.stop()


def _worker_main(store_dir, fn, *, lease_s, retries, backoff_s,
                 fingerprint, max_crashes, parent_pid,
                 claim_k) -> None:
    """Worker process entry point: open the shared store and drain."""
    with ShardStore(store_dir, fingerprint=fingerprint,
                    max_crashes=max_crashes) as store:
        _drain(store, fn, owner=_owner(os.getpid()),
               lease_s=lease_s, retries=retries, backoff_s=backoff_s,
               parent_pid=parent_pid, claim_k=claim_k)


def shard_map(fn: Callable[[Any], Any], cells: Iterable[Any],
              workers: Optional[int] = None, *, store_dir,
              serve: bool = True,
              stats: Optional[dict] = None,
              lease_s: float = DEFAULT_LEASE_S,
              timeout_s: Optional[float] = None,
              retries: int = 0,
              backoff_s: float = 0.5,
              cost: Optional[Callable[[Any], float]] = None,
              max_crashes: int = DEFAULT_MAX_CRASHES,
              respawn_budget: Optional[int] = None,
              poll_s: float = DEFAULT_POLL_S,
              chaos: Optional[Callable] = None) -> list:
    """Apply ``fn`` to every cell through ``workers`` leased
    work-stealing processes sharing the store at ``store_dir``.

    Returns a list in submission order; exhausted, timed-out or
    quarantined cells come back as :class:`FailedCell` markers.
    ``fn`` must be module-level and cells/results plain JSON data
    (the store persists them as canonical JSON).

    ``workers`` ``None`` or ``1`` drains the queue in the calling
    process, unless ``timeout_s`` is set: only a separate process can
    be killed, so then one worker is spawned.  ``0`` means all cores.
    No more workers are spawned than there are cells to run.

    A cell whose ``done`` row is already in the store is served from
    it (with ``serve``) and never executed; ``stats["served"]``, when
    given, receives the number of cells served.  ``timeout_s`` bounds
    one cell's run: the supervisor kills the worker running it past
    that and records a timeout attempt, retried like an error.

    ``cost(cell)`` estimates a cell's run time.  With it, the cells
    are enqueued costliest first (ties in cell order) and leased one
    per claim, so the longest cell does not start last while the
    other workers idle, nor share a worker with the next longest;
    without it, workers lease
    :data:`~repro.experiments.store.DEFAULT_CLAIM_BATCH` cells per
    claim.

    ``chaos`` is the fault-injection hook: a callable invoked each
    supervisor poll with the list of live worker ``Process`` objects
    (see :mod:`repro.faults.procchaos`).
    """
    cells = list(cells)
    if workers == 0:
        workers = default_jobs()
    store = ShardStore(store_dir, max_crashes=max_crashes)
    try:
        keys, served = store.open_sweep(cells, serve=serve, cost=cost)
        if stats is not None:
            stats["served"] = sum(1 for key in keys if key in served)
        unserved = len(set(keys) - served.keys())
        _supervise(store, fn, max(1, min(workers or 1, unserved)),
                   lease_s=lease_s, timeout_s=timeout_s,
                   retries=retries, backoff_s=backoff_s,
                   max_crashes=max_crashes,
                   respawn_budget=respawn_budget,
                   poll_s=poll_s,
                   claim_k=DEFAULT_CLAIM_BATCH if cost is None else 1,
                   chaos=chaos, store_dir=store_dir)
        failures = store.failures()
        results = []
        for cell, key in zip(cells, keys):
            found, value = ((True, served[key]) if key in served
                            else store.get_result(key))
            if not found and key in failures:
                reason, attempts, crashes = failures[key]
                # every store reason is "kind" or "kind: detail"
                kind, _, detail = reason.partition(": ")
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
                 backoff_s: float) -> tuple:
    """Kill every live worker still running a cell it started more
    than ``timeout_s`` ago, and record a timeout attempt for that
    cell.  ``seen`` maps each started execution to when a poll first
    saw it; returns ``(seen, killed)``: the map for the next poll and
    the workers killed.  The heartbeat keeps a wedged cell leased, so
    the kill is what frees its worker — and what stops a late result
    from landing after the cell has been given up on."""
    now = time.monotonic()
    seen = {run: seen.get(run, now) for run in store.running()}
    live = {_owner(proc.pid): proc for proc in procs}
    killed = []
    for (owner, key, _attempts, _crashes), since in seen.items():
        proc = live.get(owner)
        if proc is None or now - since < timeout_s:
            continue
        proc.kill()
        proc.join(timeout=5.0)
        killed.append(proc)
        store.fail_attempt(key, "", retries=retries,
                           backoff_s=backoff_s, kind="timeout")
    return seen, killed


def _supervise(store: ShardStore, fn, workers: int, *, lease_s,
               timeout_s, retries, backoff_s, max_crashes,
               respawn_budget, poll_s, claim_k, chaos,
               store_dir) -> None:
    """Run the pool until every cell is terminal: spawn workers (none
    for one worker without ``timeout_s``: the supervisor drains
    in-process), reap/respawn the dead, kill workers wedged past
    ``timeout_s``, poison crash-looping cells, and degrade to serial
    when the pool is gone (or, under ``timeout_s``, fail the rest)."""
    if store.all_terminal():
        return  # everything served: no pool to spawn
    if respawn_budget is None:
        respawn_budget = default_respawn_budget(workers)
    worker_kwargs = dict(
        lease_s=lease_s, retries=retries, backoff_s=backoff_s,
        fingerprint=store.fingerprint, max_crashes=max_crashes,
        parent_pid=os.getpid(), claim_k=claim_k)
    drainer = f"supervisor-{os.getpid()}"

    def spawn(count: int) -> list:
        """Start up to ``count`` workers (fewer if fork fails).  The
        store is closed across the forks: a child holding a copy of an
        open sqlite connection shares its lock bookkeeping without
        owning its locks, so once the supervisor dies a new opener
        could reset the WAL index under the still-running child."""
        started: list = []
        store.close()
        try:
            for _ in range(count):
                proc = multiprocessing.Process(
                    target=_worker_main, args=(store_dir, fn),
                    kwargs=worker_kwargs, daemon=True)
                proc.start()
                started.append(proc)
        except OSError:
            pass  # can't fork (any more): run with what started
        finally:
            store.reopen()
        return started

    procs: list = []
    seen: dict = {}
    interrupted = True
    try:
        if workers > 1 or timeout_s is not None:
            procs = spawn(workers)
        while not store.all_terminal():
            if chaos is not None:
                chaos([p for p in procs if p.is_alive()])
            killed: list = []
            if timeout_s is not None:
                seen, killed = _kill_wedged(store, procs, seen,
                                            timeout_s, retries,
                                            backoff_s)
            store.reap()
            dead = [p for p in procs if not p.is_alive()]
            for proc in dead:
                proc.join()
                procs.remove(proc)
            # a timeout kill is not a crash: replacing it is free
            free = len(killed)
            want = (min(workers - len(procs), respawn_budget + free)
                    if dead else 0)
            if want:
                spawned = spawn(want)
                procs += spawned
                respawn_budget = (respawn_budget - max(0, want - free)
                                  if len(spawned) == want else 0)
            if not procs:
                if timeout_s is not None:
                    # the supervisor cannot kill itself over a wedged
                    # cell, so it never drains under a timeout
                    store.fail_unfinished(
                        "pool: no worker left to run it under a "
                        "timeout")
                    break
                # one worker, or the pool is gone and unrespawnable:
                # finish the sweep in-process
                _drain(store, fn, drainer,
                       lease_s=max(lease_s, 60.0), retries=retries,
                       backoff_s=backoff_s, poll_s=poll_s,
                       claim_k=claim_k)
                store.reap()
                continue
            time.sleep(poll_s)
        interrupted = False
    finally:
        for proc in procs:
            proc.terminate()
        for proc in procs:
            proc.join(timeout=5.0)
        if interrupted:
            # interrupted, not crashed: give back every lease this
            # process and the workers it just stopped held, without a
            # crash count, so a rerun can claim those cells at once
            store.release([drainer, *(_owner(p.pid) for p in procs)])
