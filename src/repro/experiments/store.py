r"""The result store: every finished campaign cell, as one sqlite row.

A campaign cell — one ``(experiment, quick, seed)`` simulation, say —
is a pure function of its cell dict and the simulator source.  This
module keeps finished cells in one sqlite database
(``<store_dir>/cells.sqlite3``) as ``done`` rows keyed by
:func:`cache_key`: the sha256 of the cell's canonical JSON and the
:func:`code_fingerprint` of ``src/repro``.  Each row carries its
result and that result's :func:`result_sha`.  The one row is four
things at once:

* **The cell cache.**  A row is served whenever its key matches, so
  a warm rerun of an unchanged campaign executes zero cells and
  renders a byte-identical report, and campaigns that share a cell
  share its row.  Any source change flips the fingerprint and re-keys
  everything, so a row can never be served to different code; rows
  of an older fingerprint are purged on the next enqueue.
* **The resume record.**  A cell's row is written the moment the cell
  finishes, by the process that ran it, so an interrupted campaign
  resumes by running it again.  Only successes are ``done``: a failed
  cell is retried by the next run.
* **The run cache.**  A simulation that several cells read (the
  fibo+sysbench pair behind Table 2, Fig. 1 and the sensitivity
  study, say) is a ``done`` row of its own, keyed by its run cell
  (``{"run": ..., "sched": ..., "seed": ...}``): the first cell to
  need it computes it and later cells are served it
  (:func:`shared_run`).  A run row is written finished, never
  enqueued, so no worker ever claims it as a cell.
* **The work queue.**  The campaign executor
  (:mod:`~repro.experiments.shard`) leases ``pending`` rows to worker
  *processes*, which coordinate through the database rather than
  pipes to a parent.  A worker that dies (SIGKILL mid-cell included)
  leaves nothing behind but an expiring lease, and a surviving worker
  steals the cell back when the lease lapses.

Cell lifecycle::

    pending --claim--> leased --complete--> done
       ^                 |    \--fail_attempt (retries left,
       |                 |         jittered backoff)--> pending
       |                 |    \--fail_attempt (exhausted)--> failed
       |                 +--lease expiry (worker died)
       |                 |      crashes < max_crashes
       +-----------------+
                         \--lease expiry, crashes >= max_crashes
                               --> failed ("poison" quarantine)

Robustness properties, in store terms:

* **Work stealing / reaping** — :meth:`ShardStore.claim` hands out
  pending cells *and* cells whose lease has expired; a long-running
  healthy worker keeps its lease alive by heartbeating
  (:meth:`renew`), so only a dead worker loses its cell.
* **Poison quarantine** — every expired lease bumps the cell's crash
  counter; a cell that has taken down ``max_crashes`` workers is
  marked ``failed`` with a ``poison`` reason instead of crashing a
  third, so one bad cell can never wedge the sweep.
* **Dedupe by content** — duplicate cells in a sweep collapse to one
  row and at most one in-flight execution per content key.
* **Verified results** — a ``done`` row whose result no longer
  matches its sha (bit flip, torn write) is discarded back to
  ``pending`` with one warning and recomputed, never served.
* **Corrupt-store recovery** — a truncated or otherwise unreadable
  database is moved aside to ``*.corrupt`` with one warning and
  rebuilt empty; the executor re-enqueues its cells and recomputes.

sqlite is the "multi-machine-ready" part of the design: WAL mode with
``BEGIN IMMEDIATE`` claim transactions gives atomic lease handoff for
any number of reader/writer processes on one host, and the same
schema ports to a server-grade store unchanged.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import time
import warnings
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterable, Optional

FORMAT = "repro-shard-store-v1"

#: default store directory (repo-root relative); ``--cache-dir`` and
#: ``REPRO_CELL_CACHE`` relocate it
DEFAULT_DIR = ".repro-store"

#: database filename under the store directory
DB_NAME = "cells.sqlite3"

#: a cell whose lease expired this many times is quarantined
DEFAULT_MAX_CRASHES = 2

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    k TEXT PRIMARY KEY,
    v TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS cells (
    key         TEXT PRIMARY KEY,
    cell        TEXT NOT NULL,
    state       TEXT NOT NULL DEFAULT 'pending',
    owner       TEXT,
    lease_until REAL NOT NULL DEFAULT 0,
    not_before  REAL NOT NULL DEFAULT 0,
    attempts    INTEGER NOT NULL DEFAULT 0,
    crashes     INTEGER NOT NULL DEFAULT 0,
    started     INTEGER NOT NULL DEFAULT 0,
    result      TEXT,
    result_sha  TEXT,
    reason      TEXT
);
CREATE INDEX IF NOT EXISTS cells_state ON cells (state);
"""

#: default number of cells leased per claim transaction (see
#: :meth:`ShardStore.claim_batch`); chosen so the write-lock traffic
#: per cell drops ~4x while a crashed worker still strands at most a
#: few seconds of stolen-back work
DEFAULT_CLAIM_BATCH = 4

#: process-wide fingerprint memo — source files do not change under a
#: running process, and hashing ~40k lines per store open would
#: defeat the point
_FINGERPRINT: Optional[str] = None


def canonical_json(value: Any) -> str:
    """The store's canonical encoding: sorted keys, compact.  Tuples
    encode as lists, so ``("mg", 1)`` and ``["mg", 1]`` are the same
    cell."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def result_sha(result: Any) -> str:
    """sha256 over the canonical JSON of a result — the integrity
    check for ``done`` rows."""
    return hashlib.sha256(canonical_json(result).encode()).hexdigest()


def code_fingerprint() -> str:
    """sha256 over every ``src/repro/**/*.py`` (sorted relative path +
    file bytes).  Computed once per process."""
    global _FINGERPRINT
    if _FINGERPRINT is None:
        root = Path(__file__).resolve().parents[1]
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _FINGERPRINT = digest.hexdigest()
    return _FINGERPRINT


def cache_key(cell: Any, fingerprint: Optional[str] = None) -> str:
    """Content address for ``cell``: sha256 of its canonical JSON (so
    dict ordering is irrelevant) and the code fingerprint."""
    if fingerprint is None:
        fingerprint = code_fingerprint()
    digest = hashlib.sha256(canonical_json(cell).encode())
    digest.update(b"\0")
    digest.update(fingerprint.encode())
    return digest.hexdigest()


def cache_dir_from_env() -> Optional[str]:
    """The store directory ``REPRO_CELL_CACHE`` asks for: unset /
    ``0`` / ``off`` / ``no`` / ``false`` → ``None`` (no store);
    ``1`` / ``on`` / ``yes`` / ``true`` → :data:`DEFAULT_DIR`;
    anything else is the directory.  This is how ``make golden-check``
    opts in without threading a flag through pytest."""
    value = os.environ.get("REPRO_CELL_CACHE", "").strip()
    if value.lower() in ("", "0", "off", "no", "false"):
        return None
    if value.lower() in ("1", "on", "yes", "true"):
        return DEFAULT_DIR
    return value


def backoff_jitter(key: str, attempt: int) -> float:
    """Deterministic jitter multiplier in ``[1.0, 2.0)`` derived from
    (key, attempt).  Jittered backoff de-synchronizes retry storms
    across workers without introducing wall-clock randomness into the
    results (jitter shifts *when* a retry runs, never *what* it
    computes)."""
    digest = hashlib.sha256(f"{key}:{attempt}".encode()).digest()
    return 1.0 + int.from_bytes(digest[:4], "big") / 2**32


class ShardStore:
    """The result store at ``<store_dir>/cells.sqlite3``.

    Every process of a sweep (a worker, the supervisor) opens its own
    :class:`ShardStore` on the same directory; sqlite serializes the
    claim/complete transactions.  All methods are safe to call from
    any process at any time — that is the point.  ``fingerprint``
    defaults to :func:`code_fingerprint`.
    """

    def __init__(self, store_dir, *, fingerprint: Optional[str] = None,
                 max_crashes: int = DEFAULT_MAX_CRASHES,
                 timeout_s: float = 30.0,
                 _now=time.monotonic):
        self.dir = Path(store_dir)
        self.path = self.dir / DB_NAME
        self.fingerprint = (code_fingerprint() if fingerprint is None
                            else fingerprint)
        self.max_crashes = max_crashes
        self.timeout_s = timeout_s
        # monotonic by default; injectable for lease-expiry tests
        self._now = _now
        self._conn: Optional[sqlite3.Connection] = None
        self._connect()

    # ------------------------------------------------------------ connection

    def _connect(self) -> None:
        self.dir.mkdir(parents=True, exist_ok=True)
        try:
            self._conn = self._open_db()
        except sqlite3.DatabaseError:
            self._recover_corrupt()
            self._conn = self._open_db()

    def _open_db(self) -> sqlite3.Connection:
        conn = sqlite3.connect(str(self.path), timeout=self.timeout_s,
                               isolation_level=None)
        try:
            conn.execute("PRAGMA synchronous=NORMAL")
            # a whole worker pool opens this database at once, so the
            # write transactions below (schema creation, WAL switch,
            # migration) only run when actually needed: probing is a
            # read, and reads don't queue on the write lock the way a
            # spawn-time thundering herd of CREATEs would (WAL mode
            # is a sticky property of the file — setting it once at
            # creation covers every later connection)
            have = {row[0] for row in conn.execute(
                "SELECT name FROM sqlite_master "
                "WHERE type = 'table'")}
            if "cells" not in have or "meta" not in have:
                conn.execute("PRAGMA journal_mode=WAL")
                conn.executescript(_SCHEMA)
            # migrate pre-batching stores in place ("started" tracks
            # which leased cell of a claim batch is actually running)
            cols = {row[1] for row in
                    conn.execute("PRAGMA table_info(cells)")}
            if "started" not in cols:
                conn.execute("ALTER TABLE cells ADD COLUMN "
                             "started INTEGER NOT NULL DEFAULT 0")
            # schema check doubles as a corruption probe: a truncated
            # db file fails here, not on first claim
            conn.execute("SELECT count(*) FROM cells").fetchone()
        except sqlite3.DatabaseError:
            conn.close()
            raise
        return conn

    def _recover_corrupt(self) -> None:
        """Move a corrupt database aside and start fresh — one
        warning, no abort; the executor re-enqueues and recomputes."""
        aside = self.path.with_suffix(self.path.suffix + ".corrupt")
        try:
            os.replace(self.path, aside)
        except OSError:
            try:
                self.path.unlink()
            except OSError:  # pragma: no cover - vanished underneath
                pass
        # WAL sidecar files belong to the dead database
        for suffix in ("-wal", "-shm"):
            try:
                os.unlink(f"{self.path}{suffix}")
            except OSError:
                pass
        warnings.warn(
            f"result store {self.path} is corrupt (truncated or "
            f"unreadable); moved aside and rebuilt — affected cells "
            f"will be recomputed", RuntimeWarning, stacklevel=3)

    def clone(self) -> "ShardStore":
        """A second store on the same database with its own sqlite
        connection.  Python's sqlite3 connections are bound to the
        thread that opened them, so anything touching the store from
        another thread (the lease-heartbeat thread) must use a clone,
        not the owner's connection."""
        return ShardStore(self.dir, fingerprint=self.fingerprint,
                          max_crashes=self.max_crashes,
                          timeout_s=self.timeout_s, _now=self._now)

    def close(self) -> None:
        """Close the sqlite connection (idempotent); leased rows keep
        their leases and expire naturally if never completed."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def reopen(self) -> None:
        """Reconnect after :meth:`close` (no-op while open)."""
        if self._conn is None:
            self._connect()

    def __enter__(self) -> "ShardStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------ enqueue

    def add_cells(self, keyed_cells: Iterable[tuple], *,
                  reset: bool = False) -> int:
        """Enqueue ``(key, cell)`` pairs as ``pending`` rows, leased in
        the order given.  A ``done`` row is left alone (that is the
        resume: a finished cell stays finished) unless ``reset`` asks
        for a recompute; a ``failed`` row is re-enqueued with a fresh
        retry budget; a ``pending`` or ``leased`` row keeps its place
        and lease, which expires if its worker is gone.  Rows written
        under another code fingerprint can never be served again and
        are purged first.  Returns the number of rows inserted."""
        keyed_cells = list(keyed_cells)
        if not keyed_cells:
            return 0
        before = self._conn.execute(
            "SELECT count(*) FROM cells").fetchone()[0]
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            stored = self._conn.execute(
                "SELECT v FROM meta WHERE k = 'fingerprint'").fetchone()
            if stored is not None and stored[0] != self.fingerprint:
                self._conn.execute("DELETE FROM cells")
                before = 0
            # a re-enqueued row is deleted and inserted afresh, so it
            # takes its place in the given order (claims lease by rowid)
            self._conn.executemany(
                "DELETE FROM cells WHERE key = ?1 AND "
                "(state = 'failed' OR (?2 AND state = 'done'))",
                [(key, reset) for key, _ in keyed_cells])
            self._conn.executemany(
                "INSERT OR IGNORE INTO cells (key, cell) VALUES (?, ?)",
                [(key, canonical_json(cell))
                 for key, cell in keyed_cells])
            self._conn.execute(
                "INSERT OR REPLACE INTO meta (k, v) VALUES "
                "('format', ?), ('fingerprint', ?)",
                (FORMAT, self.fingerprint))
            self._conn.execute("COMMIT")
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise
        after = self._conn.execute(
            "SELECT count(*) FROM cells").fetchone()[0]
        return after - before

    def open_sweep(self, cells: list, *, serve: bool = True,
                   cost: Optional[Callable[[Any], float]] = None
                   ) -> tuple:
        """Start a sweep over ``cells``: ``(keys, served)``, where
        ``keys`` holds each cell's :func:`cache_key` and ``served``
        maps the keys already ``done`` to their verified results
        (empty when not ``serve``).  Every other cell is enqueued as
        ``pending`` (with ``serve`` off, over its ``done`` row) —
        costliest first by ``cost(cell)`` when given, ties in cell
        order — and another sweep's unfinished rows are pruned."""
        keys = [cache_key(cell, self.fingerprint) for cell in cells]
        served = self.results(keys) if serve else {}
        todo = {key: cell for key, cell in zip(keys, cells)
                if key not in served}
        self.prune_except(todo)
        self._conn.execute("DELETE FROM meta WHERE k IN "
                           "('runs_served', 'runs_computed')")
        queue = todo.items()
        if cost is not None:
            queue = sorted(queue, key=lambda item: -cost(item[1]))
        self.add_cells(queue, reset=not serve)
        return keys, served

    # ------------------------------------------------------------ leasing

    def claim(self, owner: str, lease_s: float) -> Optional[tuple]:
        """Atomically lease one runnable cell to ``owner``; returns
        ``(key, cell)`` or ``None`` when nothing is claimable right
        now.  Single-cell form of :meth:`claim_batch`."""
        batch = self.claim_batch(owner, lease_s, 1)
        return batch[0] if batch else None

    def claim_batch(self, owner: str, lease_s: float,
                    k: int = DEFAULT_CLAIM_BATCH) -> list:
        """Atomically lease up to ``k`` runnable cells to ``owner`` in
        one write transaction; returns a list of ``(key, cell)`` pairs
        (empty when nothing is claimable right now).

        Runnable means ``pending`` past its backoff window, or
        ``leased`` with an expired lease (work stealing).  Only the
        first cell of the batch is marked *started* — the worker marks
        each later cell as it reaches it (:meth:`complete` with
        ``start_next``, or :meth:`mark_started`).  Stealing an expired
        lease bumps the crash counter only when the dead owner had
        actually started the cell; unstarted batch-mates of a crashed
        worker re-enter circulation without a bump, so batching never
        inflates poison counts.  A started cell at the poison
        threshold is quarantined instead of handed out."""
        now = self._now()
        # read-probe first: claimers poll when the queue runs dry
        # (tail of a sweep, backoff windows), and an empty claim
        # should not cost a write-lock acquisition
        probe = self._conn.execute(
            "SELECT 1 FROM cells "
            "WHERE (state = 'pending' AND not_before <= ?) "
            "   OR (state = 'leased' AND lease_until <= ?) "
            "LIMIT 1", (now, now)).fetchone()
        if probe is None:
            return []
        claimed: list = []
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            while len(claimed) < k:
                rows = self._conn.execute(
                    "SELECT key, cell, state, crashes, started "
                    "FROM cells "
                    "WHERE (state = 'pending' AND not_before <= ?) "
                    "   OR (state = 'leased' AND lease_until <= ?) "
                    "ORDER BY rowid LIMIT ?",
                    (now, now, k - len(claimed))).fetchall()
                if not rows:
                    break
                for key, cell_json, state, crashes, started in rows:
                    if state == "leased" and started:
                        crashes += 1
                        if crashes >= self.max_crashes:
                            self._conn.execute(
                                "UPDATE cells SET state = 'failed', "
                                "owner = NULL, crashes = ?, "
                                "started = 0, reason = ? "
                                "WHERE key = ?",
                                (crashes,
                                 f"poison: crashed {crashes} workers",
                                 key))
                            continue
                    self._conn.execute(
                        "UPDATE cells SET state = 'leased', "
                        "owner = ?, lease_until = ?, crashes = ?, "
                        "started = ? WHERE key = ?",
                        (owner, now + lease_s, crashes,
                         0 if claimed else 1, key))
                    claimed.append((key, json.loads(cell_json)))
            self._conn.execute("COMMIT")
            return claimed
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise

    def mark_started(self, owner: str, key: str) -> bool:
        """Mark a batch-claimed cell as actually executing (the normal
        path fuses this into :meth:`complete` via ``start_next``; this
        standalone form serves the failed-previous-cell path).
        Returns ``False`` when the lease is no longer ours — the
        worker must skip the cell, not run it."""
        cur = self._conn.execute(
            "UPDATE cells SET started = 1 "
            "WHERE key = ? AND owner = ? AND state = 'leased'",
            (key, owner))
        return cur.rowcount == 1

    def renew(self, owner: str, key: str, lease_s: float) -> bool:
        """Heartbeat: extend ``owner``'s lease on ``key``.  Returns
        ``False`` when the lease is no longer ours (expired and
        stolen) — the worker should abandon the cell."""
        cur = self._conn.execute(
            "UPDATE cells SET lease_until = ? "
            "WHERE key = ? AND owner = ? AND state = 'leased'",
            (self._now() + lease_s, key, owner))
        return cur.rowcount == 1

    def renew_many(self, owner: str, keys: Iterable[str],
                   lease_s: float) -> int:
        """Batch heartbeat: one UPDATE extending ``owner``'s lease on
        every listed key still held.  Returns the number of leases
        renewed — ``0`` means every cell was stolen (or completed) and
        the worker should re-claim.  Keys no longer ours are silently
        skipped; a batch worker only learns a specific cell was stolen
        when it tries to start it."""
        keys = tuple(keys)
        if not keys:
            return 0
        marks = ",".join("?" * len(keys))
        cur = self._conn.execute(
            f"UPDATE cells SET lease_until = ? "
            f"WHERE owner = ? AND state = 'leased' "
            f"AND key IN ({marks})",
            (self._now() + lease_s, owner, *keys))
        return cur.rowcount

    def release(self, owners: Iterable[str]) -> int:
        """Hand every lease the listed ``owners`` hold back as
        ``pending`` without counting a crash: an interrupted sweep's
        cells are claimable at once by the next one.  Returns the
        number of cells released."""
        owners = tuple(owners)
        marks = ",".join("?" * len(owners))
        cur = self._conn.execute(
            f"UPDATE cells SET state = 'pending', owner = NULL, "
            f"started = 0 WHERE state = 'leased' "
            f"AND owner IN ({marks})", owners)
        return cur.rowcount

    def reap(self) -> int:
        """Supervisor sweep: quarantine every *started* cell whose
        lease has expired ``max_crashes`` times; merely-expired leases
        (and unstarted batch-mates of dead workers, which carry no
        crash evidence) are left for :meth:`claim` to steal.  Returns
        the number of cells poisoned by this call."""
        now = self._now()
        # read-probe first: the supervisor reaps every poll and a
        # healthy sweep never has a poisonable lease, so skip the
        # write transaction (and its lock, which the whole worker
        # pool contends for) unless there is actually work
        probe = self._conn.execute(
            "SELECT 1 FROM cells "
            "WHERE state = 'leased' AND lease_until <= ? "
            "AND started = 1 AND crashes + 1 >= ? LIMIT 1",
            (now, self.max_crashes)).fetchone()
        if probe is None:
            return 0
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            cur = self._conn.execute(
                "UPDATE cells SET state = 'failed', owner = NULL, "
                "crashes = crashes + 1, started = 0, "
                "reason = 'poison: crashed ' || (crashes + 1) "
                "         || ' workers' "
                "WHERE state = 'leased' AND lease_until <= ? "
                "AND started = 1 "
                "AND crashes + 1 >= ?", (now, self.max_crashes))
            self._conn.execute("COMMIT")
            return cur.rowcount
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise

    # ------------------------------------------------------------ terminal

    def complete(self, key: str, result: Any, *,
                 owner: Optional[str] = None,
                 start_next: Optional[str] = None) -> bool:
        """Record a finished cell (with its result digest).  Runs
        unconditionally: a worker whose lease was stolen may still
        land its (deterministic, hence identical) result — last write
        wins and both are correct.

        ``start_next`` (with ``owner``) marks the worker's next
        batch-claimed cell as started in the same write transaction —
        the per-cell store traffic of a batch worker is this one fused
        call plus its share of a :meth:`renew_many` heartbeat.
        Returns ``False`` when ``start_next`` is no longer ours (lease
        stolen) — the worker must skip that cell."""
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            self._conn.execute(
                "UPDATE cells SET state = 'done', owner = NULL, "
                "started = 0, result = ?, result_sha = ?, "
                "reason = NULL WHERE key = ?",
                (canonical_json(result), result_sha(result), key))
            ok = True
            if start_next is not None:
                cur = self._conn.execute(
                    "UPDATE cells SET started = 1 "
                    "WHERE key = ? AND owner = ? AND state = 'leased'",
                    (start_next, owner))
                ok = cur.rowcount == 1
            self._conn.execute("COMMIT")
            return ok
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise

    def fail_attempt(self, key: str, error: str, *, retries: int,
                     backoff_s: float, kind: str = "error") -> bool:
        """Record a failed execution attempt (``kind`` is ``error`` or
        ``timeout``).  With retries left the cell returns to
        ``pending`` behind a jittered exponential backoff window;
        otherwise it is terminally ``failed``.
        Returns ``True`` when a retry was scheduled.  A cell another
        worker already completed (our lease was stolen mid-attempt and
        the thief finished first) is left ``done`` untouched — a stale
        failure never clobbers a good result."""
        now = self._now()
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            row = self._conn.execute(
                "SELECT attempts, state FROM cells WHERE key = ?",
                (key,)).fetchone()
            if row is None or row[1] == "done":
                self._conn.execute("COMMIT")
                return False
            attempts = row[0] + 1
            if attempts > retries:
                self._conn.execute(
                    "UPDATE cells SET state = 'failed', owner = NULL, "
                    "started = 0, attempts = ?, reason = ? "
                    "WHERE key = ?",
                    (attempts, f"{kind}: {error}" if error else kind,
                     key))
                retried = False
            else:
                delay = (backoff_s * 2 ** (attempts - 1)
                         * backoff_jitter(key, attempts))
                self._conn.execute(
                    "UPDATE cells SET state = 'pending', owner = NULL, "
                    "started = 0, attempts = ?, not_before = ? "
                    "WHERE key = ?",
                    (attempts, now + delay, key))
                retried = True
            self._conn.execute("COMMIT")
            return retried
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise

    def fail_unfinished(self, reason: str) -> int:
        """Mark every cell not yet ``done`` or ``failed`` as terminally
        ``failed`` with ``reason``: the sweep can no longer run them.
        Returns the number of cells failed."""
        cur = self._conn.execute(
            "UPDATE cells SET state = 'failed', owner = NULL, "
            "started = 0, reason = ? "
            "WHERE state NOT IN ('done', 'failed')", (reason,))
        return cur.rowcount

    # ------------------------------------------------------------ queries

    def prune_except(self, keys: Iterable[str]) -> int:
        """Delete the unfinished rows whose key is not in ``keys`` —
        called before enqueueing, so the queue holds exactly one
        sweep's work.  ``done`` rows are never pruned: they are the
        cache every later sweep is served from.  Returns the number
        of rows dropped."""
        keep = set(keys)
        cur = self._conn.execute(
            "SELECT key FROM cells WHERE state != 'done'")
        stale = [(key,) for (key,) in cur.fetchall()
                 if key not in keep]
        if stale:
            self._conn.executemany(
                "DELETE FROM cells WHERE key = ?", stale)
        return len(stale)

    def done_keys(self) -> list:
        """Keys of every ``done`` row (no result parsing)."""
        cur = self._conn.execute(
            "SELECT key FROM cells WHERE state = 'done'")
        return [key for (key,) in cur.fetchall()]

    def get_result(self, key: str, *, requeue: bool = True) -> tuple:
        """``(True, result)`` for a verified ``done`` row, else
        ``(False, None)``.  A row that fails verification (bit flip,
        torn write) is discarded with one warning — back to
        ``pending``, or deleted without ``requeue`` (a run row, which
        no worker may claim) — so corrupt data is recomputed, never
        served."""
        row = self._conn.execute(
            "SELECT result, result_sha FROM cells "
            "WHERE key = ? AND state = 'done'", (key,)).fetchone()
        if row is None:
            return False, None
        raw, sha = row
        try:
            value = json.loads(raw)
            ok = result_sha(value) == sha
        except (TypeError, ValueError):
            ok = False
        if not ok:
            warnings.warn(
                "result store: discarded a corrupt result row "
                "(unparsable or hash mismatch); recomputing",
                RuntimeWarning, stacklevel=2)
            if requeue:
                self._conn.execute(
                    "UPDATE cells SET state = 'pending', result = NULL, "
                    "result_sha = NULL, owner = NULL WHERE key = ?",
                    (key,))
            else:
                self._conn.execute("DELETE FROM cells WHERE key = ?",
                                   (key,))
            return False, None
        return True, value

    def put_done(self, key: str, cell: Any, result: Any) -> None:
        """Write ``cell``'s finished row outright, with no queue life
        before it (a shared run's record; see :func:`shared_run`).
        Last write wins, as for :meth:`complete`."""
        self._conn.execute(
            "INSERT OR REPLACE INTO cells "
            "(key, cell, state, result, result_sha) "
            "VALUES (?, ?, 'done', ?, ?)",
            (key, canonical_json(cell), canonical_json(result),
             result_sha(result)))

    def count_run(self, outcome: str) -> None:
        """Count one shared-run lookup (``served`` or ``computed``)
        for :meth:`run_counts`."""
        self._conn.execute(
            "INSERT INTO meta (k, v) VALUES (?, '1') ON CONFLICT (k) "
            "DO UPDATE SET v = CAST(v AS INTEGER) + 1",
            (f"runs_{outcome}",))

    def run_counts(self) -> tuple:
        """``(served, computed)`` shared-run lookups since the sweep
        began (:meth:`open_sweep` resets both)."""
        counts = dict(self._conn.execute(
            "SELECT k, v FROM meta WHERE k IN "
            "('runs_served', 'runs_computed')").fetchall())
        return (int(counts.get("runs_served", 0)),
                int(counts.get("runs_computed", 0)))

    def counts(self) -> dict:
        """Row count per state (absent states omitted)."""
        cur = self._conn.execute(
            "SELECT state, count(*) FROM cells GROUP BY state")
        return dict(cur.fetchall())

    def all_terminal(self) -> bool:
        """True when every cell is ``done`` or ``failed`` — the
        workers' exit condition."""
        cur = self._conn.execute(
            "SELECT count(*) FROM cells "
            "WHERE state NOT IN ('done', 'failed')")
        return cur.fetchone()[0] == 0

    def results(self, keys: Optional[Iterable[str]] = None) -> dict:
        """``{key: result}`` for every verified ``done`` row among
        ``keys`` (default: every ``done`` row), each checked as by
        :meth:`get_result` — a corrupt row is discarded, not
        served."""
        out = {}
        for key in self.done_keys() if keys is None else keys:
            found, value = self.get_result(key)
            if found:
                out[key] = value
        return out

    def running(self) -> list:
        """``(owner, key, attempts, crashes)`` for every cell a
        worker has started and not finished; the counters tell a
        retry or a steal of the same cell from the first run."""
        return self._conn.execute(
            "SELECT owner, key, attempts, crashes FROM cells "
            "WHERE state = 'leased' AND started = 1").fetchall()

    def failures(self) -> dict:
        """``{key: (reason, attempts, crashes)}`` for ``failed``
        rows."""
        cur = self._conn.execute(
            "SELECT key, reason, attempts, crashes FROM cells "
            "WHERE state = 'failed'")
        return {key: (reason or "error", attempts, crashes)
                for key, reason, attempts, crashes in cur.fetchall()}


# ---------------------------------------------------------------- shared runs

#: the store of the campaign cell running in this process, while the
#: shard executor runs it with serving on; ``None`` otherwise.  A slot
#: rather than a parameter: drivers are ``run(quick, seed)`` and reach
#: their runs through helpers that know nothing of campaigns
_RUN_STORE: Optional[ShardStore] = None


@contextmanager
def serving_runs(store: Optional[ShardStore]):
    """Hand ``store`` to :func:`shared_run` for the duration (the
    shard executor wraps each campaign cell in this)."""
    global _RUN_STORE
    outer, _RUN_STORE = _RUN_STORE, store
    try:
        yield
    finally:
        _RUN_STORE = outer


def shared_run(run: dict, compute: Callable[[], Any]) -> Any:
    """The record of the simulation ``run`` names, e.g.
    ``{"run": "fibo_sysbench", "sched": "cfs", "seed": 1}``, computed
    once per campaign.  ``compute()`` builds the record as plain JSON
    data.

    Inside a serving campaign cell the record is a ``done`` row of the
    cell's store, keyed by :func:`cache_key` of ``run``: a verified
    row is served, otherwise ``compute()`` runs and its record is
    written (last write wins).  A run row is never enqueued, so no
    worker can mistake it for an experiment cell; a corrupt one is
    deleted with the store's usual warning and recomputed.  Anywhere
    else this is ``compute()``."""
    store = _RUN_STORE
    if store is None:
        return compute()
    key = cache_key(run, store.fingerprint)
    found, record = store.get_result(key, requeue=False)
    if not found:
        record = compute()
        store.put_done(key, run, record)
    store.count_run("served" if found else "computed")
    return record
