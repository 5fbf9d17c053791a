"""Module -> layer table and cProfile self-time attribution.

Every module under ``src/repro/`` belongs to exactly one layer.  A
pattern is either an exact module path (``core/events``, relative to
``src/repro`` without ``.py``) or a package wildcard (``sync/*``,
every module below ``sync/``).  An exact pattern beats a wildcard and
a deeper wildcard beats a shallower one, so each package names its
default layer once and lists only the modules that live elsewhere.
:func:`check_table` fails when a module under ``src/repro/`` matches
no pattern (so a new package cannot silently fall into ``python``) or
when one pattern is listed under two layers.

Self-time is cProfile's ``tt``: time inside a function minus the time
in the Python functions it calls.  The profiler runs with
``builtins=False``, so a C builtin (``len``, ``heapq.heappush``,
``list.append``) is not a function of its own: its time stays with
the Python function that called it, because that call is the caller's
work (and skipping builtins roughly halves cProfile's overhead).
Python functions outside ``src/repro/`` (stdlib, importlib, the
benchmark itself) go to ``python``.  ``calls`` counts calls of a
layer's Python functions.
"""

from __future__ import annotations

from pathlib import Path

#: layer -> module patterns.  The order is the report order.
LAYERS: dict[str, tuple[str, ...]] = {
    "eventq": ("core/events", "core/timerwheel"),
    "engine": ("core/*", "core/engine", "core/machine", "core/thread",
               "core/actions", "core/clock", "core/rng", "core/metrics",
               "core/schedflags", "faults/*"),
    "topology": ("core/topology",),
    "cfs": ("cfs/*", "cfs/core", "cfs/entity", "cfs/weights",
            "cfs/params", "cfs/cgroup", "cfs/placement"),
    "cfs_rq": ("cfs/runqueue", "cfs/timeline", "cfs/rbtree"),
    "cfs_balance": ("cfs/balance", "cfs/domains"),
    "pelt": ("cfs/pelt", "cfs/peltbank"),
    "ule": ("ule/*", "ule/core", "ule/interactivity", "ule/priority",
            "ule/placement", "ule/params"),
    "ule_rq": ("ule/runq", "ule/tdq"),
    "ule_balance": ("ule/balance",),
    "sched": ("sched/*",),
    "sync": ("sync/*",),
    "workloads": ("workloads/*",),
    "tracing": ("tracing/*", "analysis/*"),
    "harness": ("experiments/*", "cli", "__init__", "__main__",
                "core/artifacts", "core/profile", "testing/*",
                "faults/procchaos", "faults/__main__"),
    "python": (),
}

LAYER_NAMES = tuple(LAYERS)


class LayerTableError(RuntimeError):
    """The table is ambiguous or leaves a module of the program out."""


def _patterns() -> dict[str, str]:
    """pattern -> layer; a pattern listed twice is an error."""
    owner: dict[str, str] = {}
    for layer, patterns in LAYERS.items():
        for pattern in patterns:
            if pattern in owner:
                raise LayerTableError(
                    f"pattern {pattern!r} is listed under both "
                    f"{owner[pattern]!r} and {layer!r}")
            owner[pattern] = layer
    return owner


_OWNER = _patterns()


def module_layer(module: str) -> str | None:
    """The layer of ``module`` (``core/events``), or None when no
    pattern matches."""
    layer = _OWNER.get(module)
    if layer is not None:
        return layer
    parts = module.split("/")[:-1]
    while parts:
        layer = _OWNER.get("/".join(parts) + "/*")
        if layer is not None:
            return layer
        parts.pop()
    return None


def program_modules(package_dir: Path) -> list[str]:
    """Every module under ``package_dir`` (``src/repro``), sorted."""
    return sorted(path.relative_to(package_dir).with_suffix("").as_posix()
                  for path in package_dir.rglob("*.py"))


def check_table(package_dir: Path) -> dict[str, str]:
    """Map every module of the program to its layer; raise
    :class:`LayerTableError` naming any module no pattern covers."""
    mapping = {module: module_layer(module)
               for module in program_modules(package_dir)}
    missing = [module for module, layer in mapping.items()
               if layer is None]
    if missing:
        raise LayerTableError(
            "modules with no layer in perfbench/layers.py: "
            + ", ".join(missing))
    return mapping


class Attributor:
    """Turns cProfile statistics into per-layer self-time and calls."""

    def __init__(self, package_dir: Path):
        self.package_dir = package_dir.resolve()
        check_table(self.package_dir)
        self._file_layer: dict[str, str] = {}

    def file_layer(self, filename: str) -> str:
        """The layer of the Python source file ``filename``."""
        layer = self._file_layer.get(filename)
        if layer is None:
            path = Path(filename).resolve()
            try:
                module = path.relative_to(self.package_dir)
            except ValueError:
                layer = "python"
            else:
                layer = module_layer(module.with_suffix("").as_posix()) \
                    or "python"
            self._file_layer[filename] = layer
        return layer

    def attribute(self, stats: dict) -> dict[str, dict[str, float]]:
        """``stats`` is ``pstats.Stats(profile).stats`` of a profile
        taken with ``builtins=False``.  Returns ``{layer: {"self_s":
        s, "calls": n}}`` for every layer."""
        out = {layer: {"self_s": 0.0, "calls": 0}
               for layer in LAYER_NAMES}
        for (filename, _line, _name), (_cc, nc, tt, _ct, _callers) in \
                stats.items():
            layer = self.file_layer(filename)
            out[layer]["self_s"] += tt
            out[layer]["calls"] += nc
        return out

    def calls_of(self, stats: dict, layer: str,
                 names: tuple[str, ...]) -> int:
        """Calls of the functions called ``names`` defined in
        ``layer``."""
        return sum(nc for (filename, _line, name), (_cc, nc, *_rest)
                   in stats.items()
                   if name in names and self.file_layer(filename) == layer)
