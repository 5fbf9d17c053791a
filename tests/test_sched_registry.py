"""Registry regressions: re-registration raises, unknown names list
the zoo, and cleanup helpers work.

``register_scheduler`` used to overwrite silently — a zoo module
colliding with a builtin (or a test leaking a stub) would swap the
implementation behind every ``scheduler_factory`` call in the process
with no trace.  Now it raises and keeps the registered factory;
``unregister_scheduler`` is the one way to replace it.
"""

import warnings

import pytest

from repro.core.errors import SchedulerError
from repro.sched import available_schedulers, scheduler_factory
from repro.sched.registry import register_scheduler, unregister_scheduler

ZOO = ("eevdf", "bfs", "lottery", "staticprio", "predictive")


@pytest.fixture
def scratch_name():
    """A throwaway registry slot, guaranteed unregistered afterwards."""
    name = "test-scratch-sched"
    unregister_scheduler(name)
    yield name
    unregister_scheduler(name)


def _stub(engine, **kw):  # pragma: no cover - never constructed
    raise AssertionError("stub factory must not be instantiated")


def test_first_registration_is_silent(scratch_name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        register_scheduler(scratch_name, _stub)
    assert scratch_name in available_schedulers()


def test_reregistration_raises_and_keeps(scratch_name):
    register_scheduler(scratch_name, _stub)
    replacement = lambda engine, **kw: None
    with pytest.raises(SchedulerError, match="already registered"):
        register_scheduler(scratch_name, replacement)
    # the registered factory stays (raise-and-keep, not replace)
    from repro.sched import registry
    assert registry._FACTORIES[scratch_name] is _stub


def test_unregister_then_register_is_silent(scratch_name):
    register_scheduler(scratch_name, _stub)
    unregister_scheduler(scratch_name)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        register_scheduler(scratch_name, _stub)


def test_unregister_unknown_name_is_noop():
    unregister_scheduler("never-registered-name")  # must not raise


def test_unknown_scheduler_error_lists_zoo():
    with pytest.raises(SchedulerError) as exc_info:
        scheduler_factory("no-such-policy")
    message = str(exc_info.value)
    assert "no-such-policy" in message
    for name in ZOO:
        assert name in message, \
            f"error message should list zoo entry {name!r}"


def test_zoo_and_builtins_all_available():
    names = available_schedulers()
    for name in ("fifo", "cfs", "ule", "rt", "linux") + ZOO:
        assert name in names
    assert names == sorted(names)  # stable, sorted listing
