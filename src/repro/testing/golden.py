"""Golden-trace regression store.

A *golden cell* is one (experiment, scheduler) simulation whose
canonical schedule digest (:mod:`repro.tracing.digest`) is pinned in
``tests/golden/digests.json``.  Any behavioural change to the engine
or a scheduler — intended or not — flips the digest and fails the
tier-1 gate; intended changes are re-recorded with ``make golden``
(mirroring the ``bench-baseline`` flow for performance).

The cells cover the paper's three experiment families at smoke scale:

* ``fig1/<sched>``  — the fibo+sysbench interactivity scenario;
* ``fig5/<app>/<sched>`` — single-core app cells (the two cheapest
  quick apps);
* ``fig6/<sched>`` — the 32-spinner pin/release load-balancing cell,
  truncated to a few simulated seconds.

Cells are module-level functions of their name only, so they can fan
out through :func:`repro.experiments.parallel.cell_map` — the digests
are identical serial or parallel (worker processes share no state
with the parent; the digest deliberately excludes process-global
ids).
"""

from __future__ import annotations

import json
from pathlib import Path

from ..core.artifacts import atomic_write_json
from ..core.clock import sec
from ..experiments import parallel
from ..tracing.digest import schedule_digest

#: where the pinned digests live (run from the source tree, as all
#: Makefile entry points do)
GOLDEN_DIR = Path(__file__).resolve().parents[3] / "tests" / "golden"
GOLDEN_FILE = GOLDEN_DIR / "digests.json"

#: simulated-time cap for the fig6 smoke cell: long enough to cover
#: the 2 s pinned phase plus the release transient under both
#: schedulers, short enough for the tier-1 budget
FIG6_TIMEOUT_NS = sec(4)
FIG6_NTHREADS = 32

#: two cheap quick apps: MG pins the pure single-thread engine path
#: (its digest is scheduler-independent by design), Apache pins the
#: wakeup-preemption behaviour where CFS and ULE genuinely diverge
FIG5_APPS = ("MG", "Apache")

GOLDEN_SCHEDULERS = ("cfs", "ule")

#: the policy-DSL zoo is pinned on the fig1 family only: one cell per
#: policy keeps every zoo scheduler digest-stable without growing the
#: tier-1 golden budget by the full family matrix
ZOO_GOLDEN_SCHEDULERS = ("eevdf", "bfs", "lottery", "staticprio",
                         "predictive")


def compute_cell(name: str) -> str:
    """Compute the digest for one golden cell (module-level so
    ``cell_map`` can pickle it)."""
    family, _, rest = name.partition("/")
    if family == "fig1":
        from ..experiments.fibo_sysbench import run_scenario
        outcome = run_scenario(rest, seed=1)
        return schedule_digest(outcome.engine)
    if family == "fig5":
        app, _, sched = rest.partition("/")
        from ..experiments.fig5_single_core_perf import run_app
        return run_app(app, sched, seed=1)["digest"]
    if family == "fig6":
        from ..experiments.fig6_load_balancing import run_release
        engine, _, _ = run_release(rest, FIG6_NTHREADS, seed=1,
                                   timeout_ns=FIG6_TIMEOUT_NS)
        return schedule_digest(engine)
    raise ValueError(f"unknown golden cell: {name}")


def cell_names() -> list[str]:
    names = [f"fig1/{sched}" for sched in GOLDEN_SCHEDULERS]
    names += [f"fig1/{sched}" for sched in ZOO_GOLDEN_SCHEDULERS]
    names += [f"fig5/{app}/{sched}" for app in FIG5_APPS
              for sched in GOLDEN_SCHEDULERS]
    names += [f"fig6/{sched}" for sched in GOLDEN_SCHEDULERS]
    return names


def compute_all(jobs: int | None = None,
                names: list[str] | None = None) -> dict[str, str]:
    """Digests for every golden cell.

    Honours ``REPRO_CELL_CACHE`` (see
    :mod:`repro.experiments.store`): with it set, a repeated
    ``make golden-check`` against unchanged sources is served the
    stored digests instead of re-simulating — safe because a row's
    key includes the code fingerprint, so any source change forces a
    real recompute.  A cell that fails there raises instead of being
    compared as a digest.  Unset (the in-test default), every cell is
    computed fresh.
    """
    names = cell_names() if names is None else names
    from ..experiments.shard import FailedCell, shard_map
    from ..experiments.store import cache_dir_from_env
    store_dir = cache_dir_from_env()
    if store_dir is None:
        digests = parallel.cell_map(compute_cell, names, jobs=jobs)
    else:
        digests = shard_map(compute_cell, names, jobs,
                            store_dir=store_dir)
    for name, digest in zip(names, digests):
        if isinstance(digest, FailedCell):
            raise RuntimeError(f"golden cell {name}: {digest.render()}")
    return dict(zip(names, digests))


def load(path: Path = GOLDEN_FILE) -> dict[str, str]:
    if not path.exists():
        return {}
    return json.loads(path.read_text())


def record(jobs: int | None = None,
           path: Path = GOLDEN_FILE) -> dict[str, str]:
    """Re-record every golden digest (``make golden``)."""
    digests = compute_all(jobs=jobs)
    atomic_write_json(path, digests)
    return digests


def check(jobs: int | None = None,
          path: Path = GOLDEN_FILE) -> list[str]:
    """Compare fresh digests against the store; returns human-readable
    mismatch lines (empty = green)."""
    want = load(path)
    if not want:
        return [f"no golden store at {path}; run 'make golden'"]
    got = compute_all(jobs=jobs, names=sorted(want))
    problems = []
    for name in sorted(want):
        if got[name] != want[name]:
            problems.append(f"{name}: digest {got[name]} != recorded "
                            f"{want[name]}")
    return problems
