"""The seed-sensitivity study runs a seed-free measurement once.

A run that draws no random number follows one trajectory for every
seed (all of a run's seed dependence flows through its engine's
:class:`~repro.core.rng.RandomSource`), so
:func:`repro.experiments.sensitivity.per_seed` stops at the first seed
whose runs drew nothing and reuses its value for the remaining seeds.
"""

import pytest

from repro.core.rng import RandomSource
from repro.experiments.sensitivity import per_seed
from repro.tracing.digest import schedule_digest


def _fake_measure(drawing_seeds, calls):
    """A measurement whose runs draw only at ``drawing_seeds``; its
    value is the seed's first draw, or a constant when it draws
    nothing."""
    def measure(seed):
        calls.append(seed)
        source = RandomSource(seed)
        value = 0
        if seed in drawing_seeds:
            value = source.stream("m").randint(1, 10**9)
        return value, source.drew()
    return measure


@pytest.mark.parametrize("k", (1, 2, 3, 4))
def test_per_seed_stops_at_the_first_seed_that_drew_nothing(k):
    """Seeds below ``k`` draw, seed ``k`` does not: seeds 1..k run,
    and seed k's value stands in for every later seed."""
    calls = []
    seeds = (1, 2, 3, 4, 5)
    values = per_seed(_fake_measure(set(range(1, k)), calls), seeds)
    assert calls == list(range(1, k + 1))
    assert len(values) == len(seeds)
    assert values[k - 1:] == [0] * (len(seeds) - k + 1)
    assert all(v != 0 for v in values[:k - 1])


def test_per_seed_runs_every_seed_when_every_seed_draws():
    calls = []
    values = per_seed(_fake_measure({1, 2, 3}, calls), (1, 2, 3))
    assert calls == [1, 2, 3]
    assert len(set(values)) == 3


def test_per_seed_trusts_the_first_seed_free_run():
    """Draws only at seed 3 never happen: seed 1 drew nothing, so it
    is the answer for seeds 2 and 3 as well."""
    calls = []
    assert per_seed(_fake_measure({3}, calls), (1, 2, 3)) == [0, 0, 0]
    assert calls == [1]


def _seed_free_runs(seed):
    """The three row kinds whose runs draw nothing, as engines."""
    from repro.experiments import fig3_sysbench_threads, \
        fig6_load_balancing
    from repro.experiments.fibo_sysbench import run_scenario

    yield "table2/cfs", run_scenario("cfs", seed=seed).engine
    yield "table2/ule", run_scenario("ule", seed=seed).engine
    yield "fig3/ule", fig3_sysbench_threads.run_single_app(
        "ule", seed=seed)[0]
    yield "fig6/cfs", fig6_load_balancing.run_release(
        "cfs", nthreads=64, seed=seed, timeout_ns=6 * 10**9)[0]


@pytest.mark.slow
def test_seed_free_rows_render_one_schedule_for_every_seed():
    """What the reuse rests on: the table2 pair, fig3's ULE run and the
    fig6 CFS release draw nothing and give seed 2 seed 1's digest."""
    digests = {}
    for seed in (1, 2):
        for name, engine in _seed_free_runs(seed):
            assert not engine.random.drew(), name
            digests.setdefault(name, []).append(schedule_digest(engine))
    assert all(a == b for a, b in digests.values()), digests


@pytest.mark.parametrize("seed, expected", ((1, [1, 2, 3]), (7, [7, 8, 9])))
def test_run_measures_the_seeds_from_its_seed(monkeypatch, seed, expected):
    """``run(seed=s)`` measures seeds s, s+1, s+2, so a campaign cell
    keyed on another seed measures other seeds (fake measures, no
    engines)."""
    from repro.experiments import sensitivity

    calls = {}
    for name in ("_tps_ratio", "_starved", "_ule_converge",
                 "_cfs_rough"):
        def measure(s, name=name):
            calls.setdefault(name, []).append(s)
            return float(s), True
        monkeypatch.setattr(sensitivity, name, measure)
    result = sensitivity.run(quick=True, seed=seed)
    assert calls == {name: expected for name in calls}
    assert len(calls) == 4
    assert f"seeds {expected}" in result.text
