"""Resumable experiment campaigns (``python -m repro.experiments``).

A *campaign* runs a list of experiments as independent cells through
the hardened :func:`~repro.experiments.parallel.cell_map` — per-cell
timeouts, bounded retries with exponential backoff, graceful
``FAILED(reason)`` rows — and records every finished cell as a row of
the result store (:mod:`~repro.experiments.store`) the moment it
finishes.  A rerun is served those rows instead of recomputing them,
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

from typing import Optional, Sequence

from .parallel import FailedCell, cell_map
from .registry import QUICK_EVENTS, run_experiment
from .store import DEFAULT_DIR as DEFAULT_STORE_DIR
from .store import store_map

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
    count (:data:`~repro.experiments.registry.QUICK_EVENTS`).  A
    pool submits the costliest cells first, so the longest one does
    not run alone at the end while the other workers idle."""
    return QUICK_EVENTS.get(cell["experiment"], 0)


def build_cells(names: Sequence[str], quick: bool,
                seed: int) -> list[dict]:
    """The campaign's stable cell list (one dict per experiment)."""
    return [{"experiment": name, "quick": quick, "seed": seed}
            for name in names]


def reseed_cell(cell: dict, attempt: int) -> dict:
    """The campaign reseeding policy: retry ``attempt`` perturbs the
    cell's seed by a large deterministic stride, dodging a
    seed-specific pathology.  Opt-in (``--reseed``) because it trades
    byte-identical reports for forward progress."""
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
                 backoff_s: float = 0.5, reseed: bool = False,
                 store_dir=None, serve: bool = True,
                 shard_workers: Optional[int] = None,
                 stats: Optional[dict] = None) -> tuple[list, list]:
    """Run a campaign; returns ``(cells, results)`` where each result
    is a summary dict or a :class:`FailedCell` marker.

    ``store_dir`` is the result store: each finished cell's row is
    written there as it finishes and, with ``serve``, a cell whose
    row is already there is served instead of run.  Without it the
    ``jobs`` path computes every cell and records nothing.  A
    reseeded retry is a different cell, so its result is reported but
    not stored under the original cell.  ``stats["served"]``, when
    given, receives the number of cells served.

    ``shard_workers`` switches the map to the leased work-stealing
    shard executor (:mod:`~repro.experiments.shard`,
    docs/distributed-campaigns.md): workers coordinate through the
    store under ``store_dir`` (default
    :data:`~repro.experiments.store.DEFAULT_DIR`) and the sweep
    survives worker SIGKILLs, poison cells, and supervisor crashes.
    Incompatible with ``reseed`` (shard results must stay
    content-addressed) — sharded retries re-run the cell's own
    parameters.
    """
    cells = build_cells(names, quick, seed)
    if shard_workers is not None:
        if reseed:
            raise ValueError("--reseed is incompatible with "
                             "--shard-workers (sharded cells are "
                             "content-addressed by their parameters)")
        from .shard import shard_map
        results = shard_map(run_campaign_cell, cells, shard_workers,
                            store_dir=store_dir or DEFAULT_STORE_DIR,
                            serve=serve, stats=stats,
                            timeout_s=timeout_s, retries=retries,
                            backoff_s=backoff_s)
        return cells, results
    options = dict(jobs=jobs, timeout_s=timeout_s, retries=retries,
                   backoff_s=backoff_s,
                   reseed=reseed_cell if reseed else None,
                   mark_failures=True, cost=cell_cost)
    if store_dir is None:
        return cells, cell_map(run_campaign_cell, cells, **options)
    return cells, store_map(run_campaign_cell, cells, store_dir,
                            serve=serve, stats=stats, **options)
