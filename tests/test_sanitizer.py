"""Runtime invariant sanitizer: bug injection, gating, smoke runs.

The injection tests corrupt live scheduler state from a mid-run event
and assert the sanitizer catches each corruption *with accurate
context* (invariant name, simulated time, core, recent trace).  The
smoke tests run one fig5 cell per shipped scheduler under
``--sanitize`` to prove they are invariant-clean end to end.
"""

import pytest

from repro.core import Engine
from repro.core.clock import msec, sec, usec
from repro.core.engine import _sanitize_from_env
from repro.core.errors import SanitizerError, SimulationError
from repro.core.topology import single_core, smp
from repro.experiments.base import make_engine as make_exp_engine
from repro.experiments.fig5_single_core_perf import run_app
from repro.sched import scheduler_factory
from repro.workloads import SpinnerWorkload
from tests.conftest import SCHEDULERS as SMOKE_SCHEDULERS
from tests.conftest import build_engine, churn, corun_engine, inject


def make_engine(sched="fifo", ncpus=2, **kw):
    """Sanitized engine, two cores by default (shared helpers live in
    tests/conftest.py)."""
    return build_engine(sched, ncpus, sanitize=True, **kw)


# ----------------------------------------------------------------------
# gating: off by default, REPRO_SANITIZE env, explicit flag
# ----------------------------------------------------------------------

def test_sanitizer_off_by_default(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    engine = Engine(smp(2), scheduler_factory("fifo"))
    assert engine.sanitizer is None


def test_sanitizer_env_enables(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    engine = Engine(smp(2), scheduler_factory("fifo"))
    assert engine.sanitizer is not None


def test_sanitizer_param_overrides_env(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    engine = Engine(smp(2), scheduler_factory("fifo"), sanitize=False)
    assert engine.sanitizer is None


@pytest.mark.parametrize("value,expected", [
    ("", False), ("0", False), ("false", False), ("no", False),
    ("off", False), ("1", True), ("true", True), ("yes", True),
])
def test_env_truthiness(monkeypatch, value, expected):
    monkeypatch.setenv("REPRO_SANITIZE", value)
    assert _sanitize_from_env() is expected


def test_sanitizer_runs_checks():
    engine = make_engine()
    churn(engine)
    engine.run(until=msec(5))
    assert engine.sanitizer.checks_run > 0
    assert engine.sanitizer.checks_run <= engine.events_processed


def test_sanitizer_does_not_change_schedule():
    def run_once(sanitize):
        engine = Engine(smp(2), scheduler_factory("cfs"), seed=7,
                        sanitize=sanitize)
        churn(engine)
        engine.run(until=msec(20))
        return [(t.name, t.total_runtime, t.nr_switches)
                for t in engine.threads]
    assert run_once(True) == run_once(False)


# ----------------------------------------------------------------------
# bug injection: runqueue counter corruption
# ----------------------------------------------------------------------

def test_catches_ule_load_counter_corruption():
    engine = make_engine("ule")
    churn(engine)

    def corrupt():
        engine.machine.cores[0].rq.load += 1

    inject(engine, msec(1), corrupt)
    with pytest.raises(SanitizerError) as exc_info:
        engine.run(until=msec(5))
    err = exc_info.value
    # ULE's nr_runnable() IS tdq.load, so the generic queue-count
    # check may name the mismatch before the ULE-specific one does
    assert err.invariant in ("ule-load", "nr-runnable")
    assert err.time_ns == msec(1)
    assert err.cpu == 0


def test_catches_negative_ule_load():
    engine = make_engine("ule", ncpus=1)

    def corrupt():
        engine.machine.cores[0].rq.load = -1

    inject(engine, msec(1), corrupt)
    with pytest.raises(SanitizerError) as exc_info:
        engine.run(until=msec(5))
    assert exc_info.value.invariant in ("ule-load", "nr-runnable")


def test_catches_ule_nr_loaded_corruption():
    engine = make_engine("ule")
    churn(engine)

    def corrupt():
        engine.scheduler._nr_loaded += 1

    inject(engine, msec(1), corrupt)
    with pytest.raises(SanitizerError) as exc_info:
        engine.run(until=msec(5))
    assert exc_info.value.invariant in ("ule-nr-loaded", "ule-load")


def test_catches_ule_idle_mask_corruption():
    engine = make_engine("ule")
    churn(engine)

    def corrupt():
        # a missed update in enqueue_task/dequeue_task would leave a
        # busy cpu marked idle (or the reverse)
        engine.scheduler._idle_mask ^= 1 << 1

    inject(engine, msec(1), corrupt)
    with pytest.raises(SanitizerError) as exc_info:
        engine.run(until=msec(5))
    assert exc_info.value.invariant == "ule-idle-mask"
    assert "cpu(s) [1]" in str(exc_info.value)


def test_catches_stale_ule_priority():
    engine = make_engine("ule", ncpus=1)
    SpinnerWorkload(count=3, pin_cpu=None).launch(engine, at=0)
    corrupted = []

    def corrupt():
        # a recompute skipped although the inputs changed would leave
        # exactly this: a queued thread whose priority is not its
        # history's
        thread = next(engine.machine.cores[0].rq.queued_threads())
        thread.policy.priority += 1
        corrupted.append(thread.name)

    inject(engine, msec(20), corrupt)
    with pytest.raises(SanitizerError) as exc_info:
        engine.run(until=msec(100))
    err = exc_info.value
    assert err.invariant == "ule-priority-current"
    assert err.time_ns == msec(20)
    assert corrupted[0] in str(err)


def test_catches_cfs_nr_running_corruption():
    engine = make_engine("cfs")
    churn(engine)

    def corrupt():
        fair = engine.scheduler
        fair.cpurq(engine.machine.cores[0]).root.nr_running += 1

    inject(engine, msec(1), corrupt)
    with pytest.raises(SanitizerError) as exc_info:
        engine.run(until=msec(5))
    err = exc_info.value
    assert err.invariant in ("cfs-nr-running", "nr-runnable",
                             "cfs-h-nr-running")
    assert err.cpu == 0


def test_catches_cfs_min_vruntime_regression():
    engine = make_engine("cfs")
    churn(engine)

    def corrupt():
        rq = engine.scheduler.cpurq(engine.machine.cores[0]).root
        rq.min_vruntime -= 1

    # let vruntime advance first so the decrement is a regression
    inject(engine, msec(3), corrupt)
    with pytest.raises(SanitizerError) as exc_info:
        engine.run(until=msec(6))
    assert exc_info.value.invariant == "cfs-min-vruntime"
    assert "backwards" in str(exc_info.value)


def test_catches_cfs_runnable_weight_corruption():
    """The balancer's no-op proof bounds each cpu's load by this
    counter; a drifted counter must not go unnoticed."""
    engine = make_engine("cfs")
    churn(engine)

    def corrupt():
        engine.scheduler.runnable_weight[1] += 1

    inject(engine, msec(1), corrupt)
    with pytest.raises(SanitizerError) as exc_info:
        engine.run(until=msec(5))
    err = exc_info.value
    assert err.invariant == "cfs-task-weight"
    assert err.cpu == 1


def test_catches_cfs_group_weight_corruption():
    engine = make_engine("cfs")
    churn(engine)

    def corrupt():
        engine.scheduler.root_group.load_weight_sum -= 1

    inject(engine, msec(1), corrupt)
    with pytest.raises(SanitizerError) as exc_info:
        engine.run(until=msec(5))
    assert exc_info.value.invariant == "cfs-group-weight"


def _spinner_cfs_engine():
    """Sanitized 2-cpu CFS engine with two spinners per cpu: no
    enqueue or dequeue after spawn, so balancing-group memos live."""
    engine = make_engine("cfs")
    for cpu in (0, 1):
        SpinnerWorkload(count=2, pin_cpu=cpu).launch(engine, at=0)
    return engine


def test_catches_cfs_group_weight_drift():
    """The balancer's no-op proof bounds a group's load by its W_g."""
    engine = _spinner_cfs_engine()

    def corrupt():
        engine.scheduler.group_loads[0].weight += 1

    inject(engine, msec(1), corrupt)
    with pytest.raises(SanitizerError) as exc_info:
        engine.run(until=msec(5))
    assert exc_info.value.invariant == "cfs-group-load"
    assert "W_g" in str(exc_info.value)


def test_catches_cfs_group_deficit_corruption():
    """A memo whose projection no longer brackets the exact load."""
    engine = _spinner_cfs_engine()

    def corrupt():
        group = engine.scheduler.group_loads[0]
        group.t0 = engine.now
        group.deficit = float(group.weight)  # claims a load of 0

    inject(engine, msec(10), corrupt)
    with pytest.raises(SanitizerError) as exc_info:
        engine.run(until=msec(20))
    assert exc_info.value.invariant == "cfs-group-load"
    assert "projected bounds" in str(exc_info.value)


def test_pelt_upper_bound_is_exact():
    """One ulp above 1.0 is already a violation: the weight bound
    needs ``util_avg <= 1`` with no slack."""
    engine = make_engine("cfs")
    threads = churn(engine)

    def corrupt():
        threads[0].policy.se.avg.util_avg = 1.0 + 2.0 ** -52

    inject(engine, msec(1), corrupt)
    with pytest.raises(SanitizerError) as exc_info:
        engine.run(until=msec(5))
    assert exc_info.value.invariant == "pelt-range"


# ----------------------------------------------------------------------
# bug injection: double enqueue / two runqueues
# ----------------------------------------------------------------------

def test_catches_double_enqueue():
    engine = make_engine("fifo")
    threads = churn(engine)

    def corrupt():
        # append an already-queued thread to its own runqueue again
        core = engine.machine.cores[0]
        for thread in threads:
            if thread.rq_cpu == core.index:
                core.rq.queue.append(thread)
                return

    inject(engine, msec(1), corrupt)
    with pytest.raises(SanitizerError) as exc_info:
        engine.run(until=msec(5))
    err = exc_info.value
    assert err.invariant in ("double-enqueue", "nr-runnable")
    assert err.time_ns == msec(1)


def test_catches_thread_on_two_runqueues():
    engine = make_engine("fifo", ncpus=2)
    threads = churn(engine)

    def corrupt():
        # mirror a cpu0-queued thread onto cpu1's runqueue
        c0, c1 = engine.machine.cores[:2]
        for thread in threads:
            if thread.rq_cpu == 0:
                c1.rq.queue.append(thread)
                return

    inject(engine, msec(1), corrupt)
    with pytest.raises(SanitizerError) as exc_info:
        engine.run(until=msec(5))
    err = exc_info.value
    assert err.invariant in ("two-runqueues", "rq-cpu-mismatch",
                             "nr-runnable")


# ----------------------------------------------------------------------
# bug injection: co-run app counts
# ----------------------------------------------------------------------

@pytest.mark.parametrize("sched", ("cfs", "ule"))
def test_catches_corun_app_count_drift(sched):
    """A queued thread whose app count leaks onto another core (a
    dequeue site that forgot its count) is caught at once."""
    engine = make_engine(sched, ncpus=2)
    threads = churn(engine)

    def corrupt():
        for thread in threads:
            if thread.rq_cpu is not None:
                engine.machine.cores[thread.rq_cpu].app_leave(thread.app)
                engine.machine.cores[1 - thread.rq_cpu].app_enter(
                    thread.app)
                return

    inject(engine, msec(1), corrupt)
    with pytest.raises(SanitizerError) as exc_info:
        engine.run(until=msec(5))
    assert exc_info.value.invariant == "corun-apps"
    assert exc_info.value.time_ns == msec(1)


# ----------------------------------------------------------------------
# bug injection: CFS timeline corruption
# ----------------------------------------------------------------------

def _catch_timeline_corruption(mutate):
    """Run a sanitized one-core CFS churn, apply ``mutate`` to the
    runqueue's timeline once it holds two entities, and return the
    SanitizerError it raises."""
    engine = Engine(single_core(), scheduler_factory("cfs"),
                    sanitize=True)
    churn(engine, count=5)
    tree = engine.scheduler.cpurq(engine.machine.cores[0]).root.tree
    state = {}

    def corrupt():
        if len(tree) < 2:  # retry until the timeline has two entries
            inject(engine, engine.now + usec(50), corrupt)
            return
        mutate(tree)
        state["corrupted"] = True

    inject(engine, msec(1), corrupt)
    with pytest.raises(SanitizerError) as exc_info:
        engine.run(until=msec(20))
    assert state.get("corrupted")
    assert "cpu0" in str(exc_info.value)
    return exc_info.value


def test_catches_timeline_order_corruption():
    def mutate(tree):
        # push the leftmost key past everyone else's without moving it
        key = tree._keys[0]
        tree._keys[0] = (key[0] + sec(10), key[1])

    err = _catch_timeline_corruption(mutate)
    assert err.invariant == "cfs-timeline-order"


def test_catches_stale_leftmost_cache():
    """A ``leftmost_value`` that no longer names the first entity is
    what ``pick_first`` and ``update_min_vruntime`` would read."""
    def mutate(tree):
        tree.leftmost_value = tree._values[1]

    err = _catch_timeline_corruption(mutate)
    assert err.invariant == "cfs-timeline-leftmost"


# ----------------------------------------------------------------------
# bug injection: tickless contract
# ----------------------------------------------------------------------

def test_catches_tick_counter_corruption():
    engine = make_engine("cfs")
    churn(engine)

    def corrupt():
        # claim a busy core's tick is parked without telling the engine
        for core in engine.machine.cores:
            if core.current is not None:
                core.tick_stopped = True
                return

    inject(engine, msec(1), corrupt)
    with pytest.raises(SanitizerError) as exc_info:
        engine.run(until=msec(5))
    assert exc_info.value.invariant == "tick-counter"


def test_catches_stopped_counter_drift():
    engine = make_engine("cfs")
    churn(engine)

    def corrupt():
        engine._nr_stopped_ticks += 1

    inject(engine, msec(1), corrupt)
    with pytest.raises(SanitizerError) as exc_info:
        engine.run(until=msec(5))
    assert exc_info.value.invariant == "tick-counter"


# ----------------------------------------------------------------------
# error context
# ----------------------------------------------------------------------

def test_error_carries_trace_and_event():
    engine = make_engine("ule")
    churn(engine)

    def corrupt():
        engine.machine.cores[0].rq.load += 1

    inject(engine, msec(2), corrupt)
    with pytest.raises(SanitizerError) as exc_info:
        engine.run(until=msec(5))
    err = exc_info.value
    # the churners have switched/slept by 2 ms, so trace is populated
    assert err.trace
    assert any("switch" in entry or "wake" in entry
               for entry in err.trace)
    assert err.event  # the label of the event that tripped the check
    rendered = str(err)
    assert f"[{err.invariant}]" in rendered
    assert "recent trace:" in rendered
    assert f"t={msec(2)}ns" in rendered


def test_sanitizer_error_is_simulation_error():
    assert issubclass(SanitizerError, SimulationError)


# ----------------------------------------------------------------------
# end-to-end smoke: one fig5 cell per scheduler under --sanitize
# ----------------------------------------------------------------------

@pytest.mark.parametrize("sched", SMOKE_SCHEDULERS)
def test_fig5_smoke_cell_sanitized(sched):
    out = run_app("MG", sched, sanitize=True)
    assert out["perf"] > 0


def test_sanitized_multicore_run_clean():
    """A 4-core mixed run under each scheduler stays invariant-clean."""
    for sched in SMOKE_SCHEDULERS:
        engine = make_exp_engine(sched, ncpus=4, seed=3,
                                 ctx_switch_cost_ns=usec(15),
                                 sanitize=True)
        churn(engine, count=8)
        engine.run(until=msec(50))
        assert engine.sanitizer.checks_run > 0


@pytest.mark.parametrize("sched", ("cfs", "ule"))
def test_sanitized_corun_run_clean(sched):
    """Two apps co-running over 8 cpus at the co-run speed (wakeups,
    balancer migrations, an affinity move) keep every core's app
    counts exact."""
    engine = corun_engine(sched, sanitize=True)
    assert engine.sanitizer.checks_run > 1000
    assert engine.metrics.counter("engine.migrations") > 0
