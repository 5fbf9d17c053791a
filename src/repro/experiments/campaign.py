"""Resumable experiment campaigns (``python -m repro.experiments``).

A *campaign* runs a list of experiments as independent cells through
the hardened :func:`~repro.experiments.parallel.cell_map` — per-cell
timeouts, bounded retries with exponential backoff, graceful
``FAILED(reason)`` rows — and checkpoints every finished cell through
a :class:`~repro.experiments.checkpoint.CampaignCheckpoint` so an
interrupted ``--jobs`` run can be re-invoked with ``--resume`` and
re-execute only the unfinished cells.

Cells and results are plain JSON dicts (not
:class:`~repro.experiments.base.ExperimentResult` objects) so they
round-trip through the checkpoint manifest unchanged; the report is
rendered *after* the map from those values, with no timing lines, so
a resumed campaign's report is byte-identical to an uninterrupted
one.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .cellcache import CellCache
from .checkpoint import CampaignCheckpoint
from .parallel import FailedCell, cell_map
from .registry import QUICK_EVENTS, run_experiment
from .store import DEFAULT_DIR as DEFAULT_STORE_DIR

REPORT_HEADER = ("# Reproduction report\n"
                 "# The Battle of the Schedulers: FreeBSD ULE vs. "
                 "Linux CFS (ATC'18)\n")


def run_campaign_cell(cell: dict) -> dict:
    """Execute one campaign cell (one experiment) and return a plain
    JSON-serializable summary — checkpoint manifests store exactly
    this value."""
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
                 checkpoint_path=None,
                 resume: bool = False,
                 cache: Optional[CellCache] = None,
                 shard_workers: Optional[int] = None,
                 store_dir=None
                 ) -> tuple[list, list]:
    """Run a campaign; returns ``(cells, results)`` where each result
    is a summary dict or a :class:`FailedCell` marker.

    When ``checkpoint_path`` is given, finished cells are flushed to
    it atomically as they complete; ``resume=True`` replays a prior
    manifest (matching experiment list/quick/seed) instead of
    re-running its cells, and a fully successful campaign removes the
    manifest.

    ``cache`` is the content-addressed cell cache
    (:mod:`~repro.experiments.cellcache`): unlike the checkpoint it
    survives successful campaigns and is shared across campaigns with
    overlapping cells, so a warm rerun executes zero cells.  Reseeded
    retries are deliberately *not* cached under the original cell —
    the cache stores only what the cell's own parameters produced.

    ``shard_workers`` switches the map to the leased work-stealing
    shard executor (:mod:`~repro.experiments.shard`,
    docs/distributed-campaigns.md): workers coordinate through the
    shared store under ``store_dir`` and the sweep survives worker
    SIGKILLs, poison cells, and supervisor crashes.  Incompatible
    with ``reseed`` (shard results must stay content-addressed) —
    sharded retries re-run the cell's own parameters.
    """
    cells = build_cells(names, quick, seed)
    checkpoint = None
    if checkpoint_path is not None:
        checkpoint = CampaignCheckpoint(
            checkpoint_path,
            meta={"experiments": list(names), "quick": quick,
                  "seed": seed})
        checkpoint.load(resume=resume)
    store = None
    if shard_workers is not None:
        if reseed:
            raise ValueError("--reseed is incompatible with "
                             "--shard-workers (sharded cells are "
                             "content-addressed by their parameters)")
        from .shard import shard_map
        if store_dir is None:
            store_dir = DEFAULT_STORE_DIR
        if not resume:
            # fresh sweep: a stale store from an older interrupted
            # run must not replay (mirrors checkpoint.load semantics)
            from .store import ShardStore
            ShardStore(store_dir).clear()
        results = shard_map(run_campaign_cell, cells, shard_workers,
                            store_dir=store_dir, timeout_s=timeout_s,
                            retries=retries, backoff_s=backoff_s,
                            checkpoint=checkpoint, cache=cache)
        store = store_dir
    else:
        results = cell_map(run_campaign_cell, cells, jobs,
                           timeout_s=timeout_s, retries=retries,
                           backoff_s=backoff_s,
                           reseed=reseed_cell if reseed else None,
                           mark_failures=True, checkpoint=checkpoint,
                           cache=None if reseed else cache,
                           cost=cell_cost)
    if not any(isinstance(r, FailedCell) for r in results):
        if checkpoint is not None:
            checkpoint.clear()
        if store is not None:
            from .store import ShardStore
            ShardStore(store).clear()
    return cells, results
