"""Meta-tests over the experiment registry and figure coverage."""

import importlib
import inspect

import pytest

from repro.experiments import EXPERIMENTS, experiment_claim
from repro.experiments.registry import QUICK_EVENTS
from repro.workloads.registry import (ALL_WORKLOADS, FIGURE5_APPS,
                                      FIGURE8_EXTRA)


def test_every_experiment_has_claim_and_run():
    for name, (module_name, description) in EXPERIMENTS.items():
        module = importlib.import_module(
            f"repro.experiments.{module_name}")
        assert isinstance(module.CLAIM, str) and module.CLAIM
        sig = inspect.signature(module.run)
        assert "quick" in sig.parameters
        assert "seed" in sig.parameters
        assert description


def test_every_experiment_has_a_cost_hint():
    assert set(QUICK_EVENTS) == set(EXPERIMENTS)
    assert all(isinstance(v, int) and v > 0
               for v in QUICK_EVENTS.values())


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_cost_hint_within_2x_of_measured_events(name, monkeypatch):
    """Re-measure the quick-mode seed-1 event count the campaign's
    dispatch order ranks by, so a stale hint cannot go unnoticed."""
    from repro.core.engine import Engine
    from repro.experiments.registry import run_experiment

    total = [0]
    run = Engine.run

    def counting(self, *args, **kwargs):
        before = self.events_processed
        try:
            return run(self, *args, **kwargs)
        finally:
            total[0] += self.events_processed - before

    monkeypatch.setattr(Engine, "run", counting)
    run_experiment(name, quick=True, seed=1)
    hint = QUICK_EVENTS[name]
    assert hint / 2 <= total[0] <= hint * 2, (name, total[0], hint)


def test_experiment_claims_accessible():
    assert "starv" in experiment_claim("fig1") or \
        "starve" in experiment_claim("fig1")


def test_paper_tables_and_figures_all_covered():
    """The paper's evaluation has 2 tables and 9 figures; each must
    have an experiment driver AND a benchmark."""
    import pathlib
    bench_dir = pathlib.Path(__file__).parent.parent / "benchmarks"
    bench_files = {p.stem for p in bench_dir.glob("test_*.py")}
    coverage = {
        "table1": "test_table1_api",
        "table2": "test_table2_fibo_sysbench",
        "fig1": "test_fig1_cumulative_runtime",
        "fig2": "test_fig2_penalty",
        "fig3": "test_fig3_sysbench_threads",
        "fig4": "test_fig4_penalty_single_app",
        "fig5": "test_fig5_single_core",
        "fig6": "test_fig6_load_balancing",
        "fig7": "test_fig7_cray_placement",
        "fig8": "test_fig8_multicore",
        "fig9": "test_fig9_multi_app",
    }
    for exp, bench in coverage.items():
        assert exp in EXPERIMENTS, f"no driver for {exp}"
        assert bench in bench_files, f"no benchmark for {exp}"


def test_figure5_app_list_matches_paper_x_axis():
    """The registry carries every bar of the paper's Fig. 5: 18
    Phoronix bars, 10 NAS kernels, 2 databases, 12 PARSEC apps."""
    names = list(FIGURE5_APPS)
    phoronix = [n for n in names if n in (
        "Build-apache", "Build-php", "7zip", "Gzip", "C-Ray", "DCraw",
        "himeno", "hmmer", "Apache")
        or n.startswith(("scimark2", "john"))]
    nas = [n for n in names if n in
           ("BT", "CG", "DC", "EP", "FT", "IS", "LU", "MG", "SP", "UA")]
    dbs = [n for n in names if n in ("Sysbench", "Rocksdb")]
    parsec = [n for n in names
              if n not in phoronix + nas + dbs]
    assert len(phoronix) == 18
    assert len(nas) == 10
    assert len(dbs) == 2
    assert len(parsec) == 12
    assert len(names) == 42


def test_figure8_adds_hackbench():
    assert set(FIGURE8_EXTRA) == {"Hackb-800", "Hackb-10"}


def test_all_workload_factories_are_callable_and_fresh():
    made = {}
    for name, factory in ALL_WORKLOADS.items():
        wl = factory()
        assert wl.name
        # factories return fresh instances (workloads are single-use)
        assert factory() is not wl
        made[name] = wl


def test_quick_app_subsets_are_valid():
    from repro.experiments.fig5_single_core_perf import \
        QUICK_APPS as Q5
    from repro.experiments.fig8_multicore_perf import QUICK_APPS as Q8
    for name in Q5:
        assert name in FIGURE5_APPS
    for name in Q8:
        assert name in FIGURE5_APPS or name in FIGURE8_EXTRA
