"""Resumable experiment campaigns (``python -m repro.experiments``).

A *campaign* runs a list of experiments as independent cells through
the leased shard executor (:func:`~repro.experiments.shard.shard_map`)
— per-cell timeouts, bounded retries with exponential backoff,
graceful ``FAILED(reason)`` rows — and records every finished cell as
a row of the result store (:mod:`~repro.experiments.store`) the moment
it finishes.  A rerun is served those rows instead of recomputing them,
so an interrupted run resumes by running it again, and a warm rerun
of an unchanged campaign executes nothing.

Cells and results are plain JSON dicts (not
:class:`~repro.experiments.base.ExperimentResult` objects) so they
round-trip through the store unchanged; the report is rendered
*after* the map from those values, with no timing lines, so a resumed
or served campaign's report is byte-identical to an uninterrupted
one.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

from .registry import QUICK_EVENTS, run_experiment
from .shard import FailedCell, shard_map

REPORT_HEADER = ("# Reproduction report\n"
                 "# The Battle of the Schedulers: FreeBSD ULE vs. "
                 "Linux CFS (ATC'18)\n")


def run_campaign_cell(cell: dict) -> dict:
    """Execute one campaign cell (one experiment) and return a plain
    JSON-serializable summary — the result store keeps exactly this
    value."""
    result = run_experiment(cell["experiment"], quick=cell["quick"],
                            seed=cell["seed"])
    return {"experiment": cell["experiment"], "claim": result.claim,
            "text": result.text}


def cell_cost(cell: dict) -> int:
    """A cell's dispatch hint: its experiment's quick-mode event
    count (:data:`~repro.experiments.registry.QUICK_EVENTS`).  The
    executor leases the costliest cells first, so the longest one
    does not run alone at the end while the other workers idle."""
    return QUICK_EVENTS.get(cell["experiment"], 0)


def build_cells(names: Sequence[str], quick: bool,
                seed: int) -> list[dict]:
    """The campaign's stable cell list (one dict per experiment)."""
    return [{"experiment": name, "quick": quick, "seed": seed}
            for name in names]


def reseed_cell(cell: dict, attempt: int) -> dict:
    """The campaign reseeding policy: retry ``attempt`` perturbs the
    cell's seed by a large deterministic stride, dodging a
    seed-specific pathology.  Rounds compound: round ``k`` reseeds
    the cell round ``k - 1`` ran, so the seed moves by
    ``100_000 * (1 + 2 + ... + k)`` in all.  Opt-in (``--reseed``)
    because it trades byte-identical reports for forward progress.  The reseeded cell
    is a new cell, stored under its own key."""
    return dict(cell, seed=cell["seed"] + 100_000 * attempt)


def render_report(cells: Sequence[dict], results: Sequence) -> str:
    """Render the combined report.  Deterministic: derived only from
    cell/result values (no wall-clock timing), so serial, parallel
    and resumed runs all render byte-identically."""
    parts = [REPORT_HEADER]
    rule = "=" * 72
    for cell, result in zip(cells, results):
        name = cell["experiment"]
        if isinstance(result, FailedCell):
            parts.append(f"\n\n{rule}\n== {name}: {result.render()}\n"
                         f"{rule}\n")
            parts.append(f"(no rows: cell failed after "
                         f"{result.attempts} attempt(s))\n")
        else:
            parts.append(f"\n\n{rule}\n== {name}: {result['claim']}\n"
                         f"{rule}\n")
            parts.append(result["text"])
    return "".join(parts)


def run_campaign(names: Sequence[str], quick: bool = True,
                 seed: int = 1, jobs: Optional[int] = None,
                 timeout_s: Optional[float] = None, retries: int = 0,
                 backoff_s: float = 0.5, reseed: bool = False, *,
                 store_dir, serve: bool = True,
                 stats: Optional[dict] = None) -> tuple[list, list]:
    """Run a campaign; returns ``(cells, results)`` where each result
    is a summary dict or a :class:`FailedCell` marker.

    The cells run on :func:`~repro.experiments.shard.shard_map` with
    ``jobs`` leased workers (``None`` or ``1``: in-process, ``0``: all
    cores), costliest first.  ``store_dir`` is the result store: each
    finished cell's row is written there as it finishes and, with
    ``serve``, a cell whose row is already there is served instead of
    run.  ``stats["served"]``, when given, receives the number of
    cells served.

    With ``reseed``, ``retries`` counts retry rounds after the sweep:
    round ``k`` re-sweeps the still-failed cells, each as
    ``reseed_cell`` of the cell round ``k - 1`` ran.  A reseeded cell
    is a new cell under its own key, never the original's; its result
    is placed at the original cell's position.
    """
    cells = build_cells(names, quick, seed)

    def sweep(batch, budget, stats=None):
        return shard_map(run_campaign_cell, batch, jobs,
                         store_dir=store_dir, serve=serve, stats=stats,
                         timeout_s=timeout_s, retries=budget,
                         backoff_s=backoff_s, cost=cell_cost)

    results = sweep(cells, 0 if reseed else retries, stats)
    live = list(cells)  # the cell each position last ran as
    for attempt in range(1, retries + 1 if reseed else 1):
        failed = [index for index, result in enumerate(results)
                  if isinstance(result, FailedCell)]
        if not failed:
            break
        time.sleep(backoff_s * 2 ** (attempt - 1))
        for index in failed:
            live[index] = reseed_cell(live[index], attempt)
        retried = sweep([live[index] for index in failed], 0)
        for index, result in zip(failed, retried):
            if isinstance(result, FailedCell):
                result = FailedCell(
                    cells[index], result.reason, result.error,
                    results[index].attempts + result.attempts)
            results[index] = result
    return cells, results
