"""Parallel experiment fan-out, hardened for long campaigns.

The paper's figures come from sweeping many independent *cells* — one
``(driver, scheduler, seed)`` simulation each.  Cells share nothing
(every cell builds its own :class:`~repro.core.engine.Engine` with its
own seed), so they parallelize perfectly across worker processes.

Determinism is preserved by construction:

* the cell list is built in a stable order before any work starts;
* results come back *in cell order* regardless of submission or
  completion order;
* each cell's seed is part of the cell itself, never derived from
  worker identity or timing.

A driver opts in by building its cells, running them through
:func:`cell_map`, and merging the returned list — the merge code is
identical for the serial (``jobs=None``) and parallel paths, so
``--jobs N`` can never change the rows, only the wall clock.

Cell functions must be module-level (picklable); cell inputs and
outputs must be plain data — engines stay inside the worker.

Robustness (opt-in keywords; with none of them set :func:`cell_map`
is exactly the historical plain map and exceptions propagate
unwrapped):

* ``timeout_s`` bounds each cell's wall clock; a cell that exceeds it
  is abandoned (the pool — including the stuck worker — is torn down
  after the sweep) and recorded as a timeout failure;
* ``retries``/``backoff_s``/``reseed`` re-run failed cells with
  exponential backoff, optionally transforming the cell first (e.g.
  bumping its seed — the campaign's reseeding policy);
* ``mark_failures`` degrades gracefully: exhausted cells come back as
  :class:`FailedCell` markers in-place instead of aborting the sweep,
  so a report renders ``FAILED(reason)`` rows for them;
* ``on_result(cell, result)`` runs in the parent as each cell
  finishes, in completion order — the hook
  :func:`~repro.experiments.store.store_map` writes each finished
  cell's row of the result store through.

Independently of those options, the pool path treats a broken pool
(:class:`~concurrent.futures.process.BrokenProcessPool`, a severed
result pipe) as a retryable *infrastructure* failure: the pool is
respawned and the in-flight cells re-run, degrading to serial
in-process execution if pools keep collapsing — never recorded as a
cell failure, never aborting the campaign.  For sweeps that need
worker-crash tolerance with leases and work stealing, see
:mod:`~repro.experiments.shard` (docs/distributed-campaigns.md).
"""

from __future__ import annotations

import math
import multiprocessing
import os
import queue
import time
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Iterable, Optional, Sequence

#: fresh pools spawned per attempt before degrading to serial
#: in-process execution (see :func:`_is_pool_failure`)
MAX_POOL_RESPAWNS = 2


def _is_pool_failure(exc: BaseException) -> bool:
    """True for exceptions that indict the worker *pool* rather than
    the cell: a worker process that vanished (OOM kill, segfault in a
    C extension, container eviction) or a severed result pipe.  These
    are retryable infrastructure failures — the cell never got to
    run, so it is re-run on a fresh pool instead of being recorded as
    a cell error."""
    return isinstance(exc,
                      (BrokenProcessPool, BrokenPipeError, EOFError))


def default_jobs() -> int:
    """Worker count used for ``--jobs 0`` (all cores)."""
    return os.cpu_count() or 1


def _warm_worker() -> None:
    """Pool initializer: enable warm-engine reuse in the worker (see
    :func:`repro.experiments.base.make_engine`) — a pool worker runs
    many same-shaped cells, exactly the case engine recycling pays
    for.  ``setdefault`` keeps an explicit parent
    ``REPRO_WARM_ENGINES=0`` in force."""
    os.environ.setdefault("REPRO_WARM_ENGINES", "1")


def _call(payload):
    """Pool trampoline: unpack ``(fn, cell)`` and apply."""
    fn, cell = payload
    return fn(cell)


def _deadline(timeout_s: Optional[float]) -> float:
    """The monotonic deadline of a cell starting now."""
    return math.inf if timeout_s is None else time.monotonic() + timeout_s


class FailedCell:
    """Marker returned (under ``mark_failures=True``) in place of a
    result for a cell that exhausted its retries.

    ``reason`` is ``"timeout"`` or ``"error"``; ``error`` carries the
    exception summary for error failures; ``attempts`` counts the
    runs consumed.  Renders as ``FAILED(reason)`` in reports.
    """

    __slots__ = ("cell", "reason", "error", "attempts")

    def __init__(self, cell, reason: str, error: str = "",
                 attempts: int = 1):
        self.cell = cell
        self.reason = reason
        self.error = error
        self.attempts = attempts

    def render(self) -> str:
        """The report marker, e.g. ``FAILED(timeout)``."""
        detail = f": {self.error}" if self.error else ""
        return f"FAILED({self.reason}{detail})"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FailedCell {self.cell!r} {self.render()}>"


class CellError(RuntimeError):
    """Raised when a cell exhausts its retries and ``mark_failures``
    is off; the :class:`FailedCell` is at ``.failure``."""

    def __init__(self, failure: FailedCell):
        self.failure = failure
        super().__init__(f"cell {failure.cell!r} {failure.render()} "
                         f"after {failure.attempts} attempt(s)")


def _run_attempt(fn, items, jobs, timeout_s, on_success=None):
    """Run ``items`` (a list of ``(index, cell)``) once.

    Returns ``(successes, failures)``: index-keyed result and
    ``(reason, error)`` dicts.  ``on_success(index, result)`` fires as
    each cell finishes, in completion order — NOT at the end of the
    attempt, nor behind a longer cell submitted earlier — so the
    result store records finished cells even when the process is
    killed mid-attempt.  Uses a pool whenever ``timeout_s`` is set (a hung
    cell cannot be interrupted in-process) or ``jobs`` asks for
    parallelism.  Afterwards the pool shuts down gracefully once
    every cell has finished, and is terminated only when a cell
    timed out, which also kills the worker stuck past its timeout.
    """
    successes: dict[int, Any] = {}
    failures: dict[int, tuple] = {}

    def collect(index, result):
        successes[index] = result
        if on_success is not None:
            on_success(index, result)

    def run_serial(batch):
        for index, cell in batch:
            try:
                result = fn(cell)
            except Exception as exc:
                failures[index] = ("error",
                                   f"{type(exc).__name__}: {exc}")
            else:
                collect(index, result)

    if timeout_s is None and (jobs is None or jobs <= 1):
        run_serial(items)
        return successes, failures

    # Pool path.  A pool-infrastructure failure (worker OOM-killed /
    # segfaulted, result pipe severed — surfacing as
    # BrokenProcessPool and friends) is NOT a cell failure: the pool
    # is torn down, a fresh one is spawned, and the uncollected cells
    # re-run.  After MAX_POOL_RESPAWNS broken pools the remaining
    # cells degrade to serial in-process execution — the sweep
    # finishes slower instead of aborting.
    remaining = list(items)
    respawns = 0
    while remaining:
        nproc = max(1, min(jobs or 1, len(remaining)))
        broken = None
        with multiprocessing.Pool(processes=nproc,
                                  initializer=_warm_worker) as pool:
            # Results are collected as they finish, not in submission
            # order, so a short cell reaches on_success without
            # waiting behind a longer one submitted before it.
            done: queue.SimpleQueue = queue.SimpleQueue()
            handles = [pool.apply_async(
                _call, ((fn, cell),),
                callback=lambda r, pos=pos: done.put((pos, r, None)),
                error_callback=lambda e, pos=pos: done.put((pos, None, e)))
                for pos, (_index, cell) in enumerate(remaining)]
            # The pool starts cells in submission order, one per free
            # worker, so a cell's timeout runs from the moment the
            # cell ahead of it settles (finishes or times out).
            # ``clocks`` maps each cell presumed running to its
            # deadline; deadlines grow in insertion order, so the
            # first entry is the earliest.
            clocks = {pos: _deadline(timeout_s) for pos in range(nproc)}
            started = nproc
            settled = True
            while clocks and broken is None:
                first = next(iter(clocks))
                wait = None if timeout_s is None else max(
                    0.0, clocks[first] - time.monotonic())
                try:
                    pos, result, exc = done.get(timeout=wait)
                except queue.Empty:
                    pos = first
                    settled = False
                    failures[remaining[pos][0]] = ("timeout", "")
                else:
                    if pos not in clocks:
                        continue  # a timed-out cell finished late
                    index = remaining[pos][0]
                    if exc is None:
                        collect(index, result)
                    elif _is_pool_failure(exc):
                        broken = exc
                    else:
                        failures[index] = (
                            "error", f"{type(exc).__name__}: {exc}")
                del clocks[pos]
                if started < len(remaining):
                    clocks[started] = _deadline(timeout_s)
                    started += 1
            uncollected = []
            if broken is not None:
                for (index, cell), handle in zip(remaining, handles):
                    if index in successes or index in failures:
                        continue
                    # let the in-flight cell finish; it re-runs anyway
                    handle.wait(timeout_s)
                    settled = settled and handle.ready()
                    uncollected.append((index, cell))
            if settled:
                # Every worker is idle: shut down gracefully.  The
                # terminate() on leaving the block SIGTERMs the live
                # workers, and one killed while taking the result
                # queue's lock leaves the pool's task handler blocked
                # on it for good, so the teardown hangs.
                pool.close()
                pool.join()
        if broken is None:
            break
        remaining = uncollected
        respawns += 1
        if respawns > MAX_POOL_RESPAWNS:
            run_serial(remaining)
            break
    return successes, failures


def cell_map(fn: Callable[[Any], Any], cells: Iterable[Any],
             jobs: Optional[int] = None, *,
             timeout_s: Optional[float] = None,
             retries: int = 0,
             backoff_s: float = 0.5,
             reseed: Optional[Callable[[Any, int], Any]] = None,
             mark_failures: bool = False,
             on_result: Optional[Callable[[Any, Any], None]] = None,
             cost: Optional[Callable[[Any], float]] = None) -> list:
    """Apply ``fn`` to every cell, fanning out to ``jobs`` worker
    processes; results come back in cell order.

    ``jobs=None`` or ``1`` runs serially in-process (no pool, no
    pickling — the default path, and the reference the parallel path
    must match row-for-row).  ``jobs=0`` means all cores.  ``fn``
    must be a module-level function and cells/results plain picklable
    data.

    The keyword-only robustness options are documented in the module
    docstring.  ``reseed(cell, attempt)`` returns the cell to use for
    retry ``attempt`` (1-based); results are always placed at the
    *original* cell's position, while ``on_result`` receives the cell
    that actually ran.

    ``cost(cell)`` estimates a cell's run time.  With more than one
    worker, cells are submitted costliest first (ties in cell order),
    so the longest cell does not start last while the other workers
    idle; results still come back in cell order.
    """
    cells = list(cells)
    if jobs == 0:
        jobs = default_jobs()
    if (timeout_s is None and retries == 0 and not mark_failures
            and on_result is None and cost is None):
        # The historical plain path, byte-for-byte.
        if jobs is None or jobs <= 1 or len(cells) <= 1:
            return [fn(cell) for cell in cells]
        nproc = min(jobs, len(cells))
        with multiprocessing.Pool(processes=nproc,
                                  initializer=_warm_worker) as pool:
            return pool.map(_call, [(fn, cell) for cell in cells],
                            chunksize=1)

    results: dict[int, Any] = {}
    pending = list(range(len(cells)))
    if cost is not None and jobs is not None and jobs > 1:
        pending.sort(key=lambda index: -cost(cells[index]))

    live = {index: cells[index] for index in pending}
    attempts_used = {index: 0 for index in pending}
    fail_info: dict[int, tuple] = {}
    on_success = None
    if on_result is not None:
        def on_success(index, result):
            on_result(live[index], result)
    for attempt in range(retries + 1):
        if not pending:
            break
        if attempt:
            if backoff_s > 0:
                time.sleep(backoff_s * (2 ** (attempt - 1)))
            if reseed is not None:
                for index in pending:
                    live[index] = reseed(live[index], attempt)
        successes, fail_info = _run_attempt(
            fn, [(index, live[index]) for index in pending],
            jobs, timeout_s, on_success)
        for index, result in successes.items():
            results[index] = result
            attempts_used[index] += 1
        for index in fail_info:
            attempts_used[index] += 1
        pending = [index for index in pending if index in fail_info]

    for index in pending:
        reason, error = fail_info[index]
        failure = FailedCell(cells[index], reason, error,
                             attempts_used[index])
        if not mark_failures:
            raise CellError(failure)
        results[index] = failure
    return [results[index] for index in range(len(cells))]


def _run_experiment_cell(cell):
    name, quick, seed = cell
    from .registry import run_experiment
    return run_experiment(name, quick=quick, seed=seed)


def run_experiments(names: Sequence[str], quick: bool = True,
                    seed: int = 1, jobs: Optional[int] = None) -> list:
    """Run several experiments, one worker process per experiment;
    returns their :class:`~repro.experiments.base.ExperimentResult`
    objects in ``names`` order.  Used by the full-report path of
    ``repro.cli`` (``report --jobs N``)."""
    return cell_map(_run_experiment_cell,
                    [(name, quick, seed) for name in names], jobs=jobs)
