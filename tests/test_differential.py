"""Differential testing subsystem: fuzzer determinism, oracle runs,
and the mutation self-check.

The mutation self-check re-uses the sanitizer suite's bug-injection
style (tests/conftest.py ``inject``) through the oracle layer's
``corrupt`` hook: every injected bug class from tests/test_sanitizer.py
must surface as an :class:`~repro.testing.oracles.OracleFailure` — a
testing layer that can't fail is worse than none.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.clock import msec, sec
from repro.testing import (OracleFailure, Scenario, check_scenario,
                           fuzz_campaign, generate_scenario,
                           run_with_oracles, shrink)
from repro.testing.fuzzer import FuzzThread

FUZZ_SEEDS = range(10)


# ----------------------------------------------------------------------
# fuzzer determinism
# ----------------------------------------------------------------------

def test_generator_is_deterministic():
    for seed in range(40):
        a = generate_scenario(seed)
        b = generate_scenario(seed)
        assert a == b
        assert a.describe() == b.describe()


def test_generator_seeds_differ():
    scenarios = {generate_scenario(s) for s in range(40)}
    assert len(scenarios) > 35  # collisions would gut coverage


def test_smoke_scenarios_are_smaller():
    for seed in range(20):
        smoke = generate_scenario(seed, smoke=True)
        assert len(smoke.threads) <= 4
        assert all(len(t.plan) <= 4 for t in smoke.threads)


# ----------------------------------------------------------------------
# differential oracles over fuzz seeds
# ----------------------------------------------------------------------

@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_fuzz_seed_passes_all_oracles(seed):
    check_scenario(generate_scenario(seed))


ZOO_SEEDS = range(3)  # bounded: the zoo adds 5 schedulers per seed


@pytest.mark.parametrize("seed", ZOO_SEEDS)
def test_zoo_passes_all_oracles(seed):
    """The policy-DSL zoo (docs/scheduler-zoo.md) through the same
    differential gate: every zoo policy must produce the exact
    per-thread outcome vector cfs does, on smoke scenarios."""
    from repro.testing import ZOO_SCHEDULERS
    check_scenario(generate_scenario(seed, smoke=True),
                   scheds=("cfs",) + tuple(ZOO_SCHEDULERS))


def test_campaign_results_identical_serial_vs_parallel():
    serial = fuzz_campaign(range(6), smoke=True, jobs=None)
    fanned = fuzz_campaign(range(6), smoke=True, jobs=2)
    assert serial == fanned
    assert all(r.ok for r in serial)


# ----------------------------------------------------------------------
# shrinking
# ----------------------------------------------------------------------

def _has_sleep_and_two_threads(scenario: Scenario) -> bool:
    return len(scenario.threads) >= 2 and any(
        kind == "sleep" for t in scenario.threads for kind, _ in t.plan)


def test_shrink_is_deterministic_and_minimal():
    ran = 0
    for seed in range(20):
        scenario = generate_scenario(seed)
        if not _has_sleep_and_two_threads(scenario):
            continue
        m1 = shrink(scenario, _has_sleep_and_two_threads)
        m2 = shrink(scenario, _has_sleep_and_two_threads)
        assert m1 == m2, "same input must shrink identically"
        assert m1.describe() == m2.describe()
        # minimal for this predicate: exactly two threads, a single
        # 1 ms sleep step left in one of them, everything neutralised
        assert len(m1.threads) == 2
        assert sum(len(t.plan) for t in m1.threads) == 2
        assert m1.ncpus == 1
        assert all(t.nice == 0 and t.affinity is None
                   and t.spawn_at_ms == 0 for t in m1.threads)
        ran += 1
        if ran >= 3:
            break
    assert ran >= 1, "no seed produced a shrinkable scenario"


def test_shrink_rejects_invalid_candidates():
    scenario = Scenario(seed=0, ncpus=1, threads=(
        FuzzThread("a", plan=(("run", 2),)),))
    # predicate always fails -> shrinker must still return a valid,
    # non-empty scenario
    minimal = shrink(scenario, lambda s: True)
    assert minimal.threads


# ----------------------------------------------------------------------
# mutation self-check: injected bug classes -> oracle failures
# ----------------------------------------------------------------------

#: a deterministic churn-style scenario that keeps runqueues populated
#: on both cores for the whole injection window
MUTATION_SCENARIO = Scenario(
    seed=99, ncpus=2,
    threads=tuple(
        FuzzThread(f"m{i}", spawn_at_ms=0,
                   plan=tuple(("run", 2) if j % 2 == 0 else ("sleep", 1)
                              for j in range(20)))
        for i in range(6)),
)


def _corrupt_ule_load(engine):
    engine.machine.cores[0].rq.load += 1


def _corrupt_ule_negative_load(engine):
    engine.machine.cores[0].rq.load = -1


def _corrupt_ule_nr_loaded(engine):
    engine.scheduler._nr_loaded += 1


def _corrupt_ule_classification(engine):
    # flip every cached classification; recomputation from history
    # must disagree at the next oracle checkpoint for at least the
    # threads that stay off-CPU meanwhile
    for t in engine.threads:
        if not t.has_exited:
            t.policy.interactive = not t.policy.interactive


def _corrupt_ule_running_classification(engine):
    # only the running threads: the sanitizer checks queued threads'
    # priorities, so these are left for the oracle to catch before
    # the next tick recomputes them
    for t in engine.threads:
        if t.is_running:
            t.policy.interactive = not t.policy.interactive


def _fair(engine):
    sched = engine.scheduler
    return getattr(sched, "fair", sched)


def _corrupt_cfs_nr_running(engine):
    _fair(engine).cpurq(engine.machine.cores[0]).root.nr_running += 1


def _corrupt_cfs_min_vruntime(engine):
    _fair(engine).cpurq(engine.machine.cores[0]).root.min_vruntime -= 1


def _corrupt_cfs_vruntime_lag(engine):
    # catapult the running entity's vruntime: curr is not a timeline
    # entry, so the timeline stays consistent and only the fairness lag
    # bound can notice
    for core in engine.machine.cores:
        rq = _fair(engine).cpurq(core).root
        if rq.curr is not None:
            rq.curr.vruntime += sec(10)
            return


def _corrupt_double_enqueue(engine):
    core = engine.machine.cores[0]
    for thread in engine.threads:
        if thread.rq_cpu == core.index:
            core.rq.queue.append(thread)
            return


def _corrupt_two_runqueues(engine):
    c0, c1 = engine.machine.cores[:2]
    for thread in engine.threads:
        if thread.rq_cpu == 0:
            c1.rq.queue.append(thread)
            return


def _corrupt_runtime_accounting(engine):
    for t in engine.threads:
        if not t.has_exited:
            t.total_runtime += 12345
            return


def _corrupt_busy_accounting(engine):
    engine.machine.cores[0].busy_ns += 54321


def _corrupt_tick_counter(engine):
    for core in engine.machine.cores:
        if core.current is not None:
            core.tick_stopped = True
            return


BUG_CLASSES = [
    # (id, scheduler, corruption, oracles allowed to report it)
    ("ule-load", "ule", _corrupt_ule_load, {"sanitizer"}),
    ("ule-negative-load", "ule", _corrupt_ule_negative_load,
     {"sanitizer"}),
    ("ule-nr-loaded", "ule", _corrupt_ule_nr_loaded, {"sanitizer"}),
    # queued threads' flipped flags trip the sanitizer's
    # ule-priority-current check at the next event
    ("ule-classification", "ule", _corrupt_ule_classification,
     {"ule-classification", "sanitizer"}),
    ("ule-running-classification", "ule",
     _corrupt_ule_running_classification, {"ule-classification"}),
    ("cfs-nr-running", "cfs", _corrupt_cfs_nr_running, {"sanitizer"}),
    ("cfs-min-vruntime", "cfs", _corrupt_cfs_min_vruntime,
     {"sanitizer"}),
    ("cfs-vruntime-lag", "cfs", _corrupt_cfs_vruntime_lag,
     {"cfs-lag-bound"}),
    ("cfs-vruntime-lag-linux", "linux", _corrupt_cfs_vruntime_lag,
     {"cfs-lag-bound"}),
    ("double-enqueue", "fifo", _corrupt_double_enqueue, {"sanitizer"}),
    ("two-runqueues", "fifo", _corrupt_two_runqueues, {"sanitizer"}),
    ("runtime-theft", "cfs", _corrupt_runtime_accounting,
     {"requested-work", "work-conservation"}),
    ("busy-accounting", "ule", _corrupt_busy_accounting,
     {"work-conservation"}),
    ("tick-counter", "cfs", _corrupt_tick_counter, {"sanitizer"}),
]


@pytest.mark.parametrize("name,sched,corrupt,oracles",
                         BUG_CLASSES, ids=[c[0] for c in BUG_CLASSES])
def test_injected_bug_class_is_caught(name, sched, corrupt, oracles):
    with pytest.raises(OracleFailure) as exc_info:
        run_with_oracles(MUTATION_SCENARIO, sched,
                         corrupt=(msec(5), corrupt))
    assert exc_info.value.oracle in oracles, \
        f"{name}: caught by [{exc_info.value.oracle}], " \
        f"expected one of {oracles}"


def test_clean_mutation_scenario_passes():
    """The scenario the corruptions ride on is itself oracle-clean
    (otherwise the self-check would prove nothing)."""
    check_scenario(MUTATION_SCENARIO)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

REPO = Path(__file__).resolve().parents[1]


def _run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "repro.testing", *args],
        capture_output=True, text=True, cwd=REPO,
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        timeout=300)


def test_cli_fuzz_smoke_exits_zero():
    proc = _run_cli("fuzz", "--seeds", "4", "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "4 seeds" in proc.stdout
    assert "0 failing" in proc.stdout


def test_cli_seed_range():
    proc = _run_cli("fuzz", "--seed-range", "7:9", "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "2 seeds" in proc.stdout
