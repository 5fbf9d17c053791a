"""Registry of available scheduler implementations.

Experiments refer to schedulers by name ("cfs", "ule", "fifo", ...); the
registry turns a name plus keyword options into a factory suitable for
:class:`~repro.core.engine.Engine`.

Registration is the zoo's single enrollment point: a name registered
here is automatically selectable from ``repro-sched run --sched``,
pulled through the differential oracles and the seeded fuzzer
(``repro.testing``), covered by the conformance battery
(``tests/test_sched_conformance.py``), and eligible for golden-trace
cells — see docs/scheduler-zoo.md.
"""

from __future__ import annotations

from typing import Callable, Dict

from ..core.errors import SchedulerError

_FACTORIES: Dict[str, Callable] = {}


def register_scheduler(name: str, factory: Callable) -> None:
    """Register ``factory(engine, **options) -> SchedClass`` under
    ``name``.

    Re-registering an existing name is almost always an accident (two
    zoo modules colliding, a test leaking a stub into the process-wide
    registry), so it raises :class:`SchedulerError` and keeps the
    registered factory.  Intentional replacement:
    ``unregister_scheduler`` first.
    """
    if name in _FACTORIES:
        raise SchedulerError(f"scheduler {name!r} is already registered; "
                             f"unregister it first to replace it")
    _FACTORIES[name] = factory


def unregister_scheduler(name: str) -> None:
    """Remove ``name`` from the registry (intentional replacement and
    test cleanup); unknown names are a no-op."""
    _FACTORIES.pop(name, None)


def scheduler_factory(name: str, **options) -> Callable:
    """Return an ``engine -> SchedClass`` callable for ``name``.

    Options are forwarded to the scheduler constructor, e.g.
    ``scheduler_factory("ule", pickcpu_scan_cost_ns=120)``.
    """
    _ensure_builtin()
    try:
        factory = _FACTORIES[name]
    except KeyError:
        known = ", ".join(sorted(_FACTORIES))
        raise SchedulerError(
            f"unknown scheduler {name!r} (known: {known})") from None
    return lambda engine: factory(engine, **options)


def available_schedulers() -> list[str]:
    """Names of all registered schedulers."""
    _ensure_builtin()
    return sorted(_FACTORIES)


def _ensure_builtin() -> None:
    """Register the built-in schedulers lazily to avoid import cycles."""
    if "fifo" not in _FACTORIES:
        from .fifo import FifoScheduler
        register_scheduler(
            "fifo", lambda engine, **kw: FifoScheduler(engine, **kw))
    if "cfs" not in _FACTORIES:
        try:
            from ..cfs.core import CfsScheduler
        except ImportError:  # pragma: no cover - during bootstrap
            pass
        else:
            register_scheduler(
                "cfs", lambda engine, **kw: CfsScheduler(engine, **kw))
    if "ule" not in _FACTORIES:
        try:
            from ..ule.core import UleScheduler
        except ImportError:  # pragma: no cover - during bootstrap
            pass
        else:
            register_scheduler(
                "ule", lambda engine, **kw: UleScheduler(engine, **kw))
    if "rt" not in _FACTORIES:
        from .rt import RtScheduler
        register_scheduler(
            "rt", lambda engine, **kw: RtScheduler(engine, **kw))
    if "linux" not in _FACTORIES:
        try:
            from .classes import ClassStackScheduler
        except ImportError:  # pragma: no cover - during bootstrap
            pass
        else:
            register_scheduler(
                "linux",
                lambda engine, **kw: ClassStackScheduler(engine, **kw))
    # -- the scheduler zoo (policy-DSL schedulers; docs/scheduler-zoo.md)
    if "eevdf" not in _FACTORIES:
        from .eevdf import EevdfScheduler
        register_scheduler(
            "eevdf", lambda engine, **kw: EevdfScheduler(engine, **kw))
    if "bfs" not in _FACTORIES:
        from .bfs import BfsScheduler
        register_scheduler(
            "bfs", lambda engine, **kw: BfsScheduler(engine, **kw))
    if "lottery" not in _FACTORIES:
        from .lottery import LotteryScheduler
        register_scheduler(
            "lottery",
            lambda engine, **kw: LotteryScheduler(engine, **kw))
    if "staticprio" not in _FACTORIES:
        from .staticprio import StaticPrioScheduler
        register_scheduler(
            "staticprio",
            lambda engine, **kw: StaticPrioScheduler(engine, **kw))
    if "predictive" not in _FACTORIES:
        from .predictive import PredictiveScheduler
        register_scheduler(
            "predictive",
            lambda engine, **kw: PredictiveScheduler(engine, **kw))
