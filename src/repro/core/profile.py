"""Where a run's time goes (``--profile``).

:func:`profile_call` runs a callable under ``cProfile`` and sums the
self-time of every Python function by the module that defines it:
one row per module path relative to ``src/repro`` (``core/events``,
``cfs/balance``, ``ule/runq``), plus one ``python`` row for code
outside the package (stdlib, importlib).  Self-time is cProfile's
``tt``: time inside a function minus the time in the Python functions
it calls.  The profiler runs with ``builtins=False``, so a C builtin
(``len``, ``heapq.heappush``) is not a function of its own and its
time stays with the Python function that called it.

``calls`` counts calls of a module's Python functions.  For the same
command they are the same on every run, which the seconds are not,
so compare two runs by their call counts.  cProfile slows a run
several-fold, so profiled seconds are relative; ``make bench`` and
``perfbench/`` give absolute ones.  Profiling only observes the run:
the simulated schedule is the same with or without it.
"""

from __future__ import annotations

import cProfile
from pathlib import Path

#: the package root the module rows are relative to (``src/repro``)
_PACKAGE_DIR = Path(__file__).resolve().parent.parent


def _module_of(filename: str) -> str:
    """The row of a function defined in ``filename``."""
    try:
        module = Path(filename).resolve().relative_to(_PACKAGE_DIR)
    except ValueError:
        return "python"
    return module.with_suffix("").as_posix()


def _module_table(stats: dict) -> str:
    """The fixed-width per-module table of a cProfile ``stats`` dict:
    rows sorted by self-time (descending, name-tiebroken), then one
    ``total <calls> <seconds>`` line."""
    rows: dict[str, list] = {}
    for (filename, _line, _name), (_cc, nc, tt, _ct, _callers) in \
            stats.items():
        row = rows.setdefault(_module_of(filename), [0, 0.0])
        row[0] += nc
        row[1] += tt
    total_calls = sum(calls for calls, _ in rows.values())
    total_s = sum(self_s for _, self_s in rows.values())
    width = max([len("module"), *map(len, rows)])
    lines = [f"{'module':<{width}} {'calls':>12} {'self-s':>9} "
             f"{'share':>6}"]
    for module in sorted(rows, key=lambda m: (-rows[m][1], m)):
        calls, self_s = rows[module]
        share = 100.0 * self_s / total_s if total_s else 0.0
        lines.append(f"{module:<{width}} {calls:>12} {self_s:>9.3f} "
                     f"{share:>5.1f}%")
    lines.append(f"{'total':<{width}} {total_calls:>12} {total_s:>9.3f}")
    return "\n".join(lines)


def profile_call(fn, *args, **kwargs) -> tuple:
    """``(fn(*args, **kwargs), table)``: the call's result and its
    per-module self-time table (see :func:`_module_table`)."""
    profile = cProfile.Profile(builtins=False)
    profile.enable()
    try:
        result = fn(*args, **kwargs)
    finally:
        profile.create_stats()  # disables the profiler first
    return result, _module_table(profile.stats)
