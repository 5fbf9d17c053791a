"""Parallel experiment fan-out: the plain cell map.

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

Crash tolerance is not this module's job: a campaign's sweep runs on
the leased shard executor (:func:`~repro.experiments.shard.shard_map`,
docs/distributed-campaigns.md), which adds timeouts, retries,
``FAILED`` markers and the result store.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Any, Callable, Iterable, Optional


def default_jobs() -> int:
    """Worker count used for ``--jobs 0`` (all cores)."""
    return os.cpu_count() or 1


def _call(payload):
    """Pool trampoline: unpack ``(fn, cell)`` and apply."""
    fn, cell = payload
    return fn(cell)


def cell_map(fn: Callable[[Any], Any], cells: Iterable[Any],
             jobs: Optional[int] = None) -> list:
    """Apply ``fn`` to every cell, fanning out to ``jobs`` worker
    processes; results come back in cell order.

    ``jobs=None`` or ``1`` runs serially in-process (no pool, no
    pickling — the default path, and the reference the parallel path
    must match row-for-row).  ``jobs=0`` means all cores.  ``fn``
    must be a module-level function and cells/results plain picklable
    data.  An exception in a cell propagates unwrapped.
    """
    cells = list(cells)
    if jobs == 0:
        jobs = default_jobs()
    if jobs is None or jobs <= 1 or len(cells) <= 1:
        return [fn(cell) for cell in cells]
    nproc = min(jobs, len(cells))
    with multiprocessing.Pool(processes=nproc) as pool:
        return pool.map(_call, [(fn, cell) for cell in cells],
                        chunksize=1)

