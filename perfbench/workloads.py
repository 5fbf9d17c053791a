"""The benchmark's workloads, their correctness pins, and the probe
that observes ``Engine.run`` from outside the program.

The measured child process (``child.py``) and the traced pass of
``run.py --trace 1`` both import this module after putting ``src/``
on ``sys.path``.  Only the functions import ``repro``, so ``run.py``
can scrub ``REPRO_*`` from the environment first.
"""

from __future__ import annotations

import functools
import json
import time

WORKLOADS = ("fig6_release", "numa_scale", "campaign")

#: the seed the pins below were recorded with
PINNED_SEED = 1

#: per workload, what one cold pass must produce on the pinned seed:
#: one schedule digest per ``Engine.run`` (sim workloads), or the
#: sha256 of the rendered campaign report
PINS = {
    "fig6_release": ("4814dc486bb0aba5", "397433e34482e758"),
    "numa_scale": ("95b55e3444d81744", "fec4a87aa0a92ad1"),
    "campaign": ("8a16860dcbaf9438e37a75de312d319d"
                 "6e694fee599c9498a2afb9279bc53ba4",),
}

#: the user's campaign: ``python -m repro.experiments run <these>``
CAMPAIGN_EXPERIMENTS = ("table1", "table2", "fig1", "fig2", "fig3",
                        "fig4", "fig5", "fig7", "i7", "latency",
                        "predict", "sensitivity")
CAMPAIGN_JOBS = 2
#: a one-cell campaign (~10 ms of simulation) for extra set-up samples
SETUP_EXPERIMENTS = ("table1",)

#: engine counters summed over every run the probe sees
COUNTERS = ("engine.switches", "engine.migrations", "engine.tick_stops",
            "ule.balance_invocations", "ule.idle_steals",
            "cfs.balance_migrations")


class SetupDone(Exception):
    """Raised by the probe at the first ``Engine.run`` when only the
    set-up is being timed."""


def effective_config(engine) -> dict:
    """The performance configuration an engine actually runs with.

    Attributes are read with defaults so the record survives the
    removal of a mechanism: a knob that no longer exists reads None.
    """
    rq = engine.machine.cores[0].rq
    tree = getattr(getattr(rq, "root", rq), "tree", None)
    return {"scheduler": type(engine.scheduler).__name__,
            "eventq": type(engine.events).__name__,
            "fast": getattr(engine, "fast", None),
            "tick_lane": (engine._lane is not None
                          if hasattr(engine, "_lane") else None),
            "cfs_timeline": type(tree).__name__ if tree is not None
            else None}


class EngineProbe:
    """Wraps ``Engine.run``: counts runs, events and engine counters,
    times the host seconds inside each run, and stamps the monotonic
    time of the first run (the end of set-up).  While ``skip_runs`` is
    set, ``Engine.run`` returns at once without simulating."""

    def __init__(self, setup_only: bool = False):
        self.setup_only = setup_only
        self.skip_runs = False
        self.first_run_at: float | None = None
        self.runs = 0
        self.events = 0
        self.seconds = 0.0
        self.counters = dict.fromkeys(COUNTERS, 0.0)
        self.configs: list[dict] = []
        self._restore = None

    def install(self) -> "EngineProbe":
        from repro.core.engine import Engine
        original = Engine.run
        probe = self

        @functools.wraps(original)
        def run(engine, *args, **kwargs):
            if probe.first_run_at is None:
                probe.first_run_at = time.monotonic()
                if probe.setup_only:
                    raise SetupDone
            if probe.skip_runs:
                return "skipped"
            events = engine.events_processed
            metrics = engine.metrics
            before = [metrics.counter(name) for name in COUNTERS]
            start = time.perf_counter()
            try:
                return original(engine, *args, **kwargs)
            finally:
                probe._record(engine, engine.events_processed - events,
                              time.perf_counter() - start, before)

        Engine.run = run
        self._restore = lambda: setattr(Engine, "run", original)
        return self

    def uninstall(self) -> None:
        if self._restore is not None:
            self._restore()
            self._restore = None

    def _record(self, engine, events: int, seconds: float,
                before: list) -> None:
        self.runs += 1
        self.events += events
        self.seconds += seconds
        for name, value in zip(COUNTERS, before):
            self.counters[name] += engine.metrics.counter(name) - value
        config = effective_config(engine)
        if config not in self.configs:
            self.configs.append(config)

    def summary(self) -> dict:
        return {"runs": self.runs, "events": self.events,
                "engine_seconds": self.seconds,
                "counters": self.counters, "configs": self.configs}


def write_line(path: str, record: dict) -> None:
    """Append one JSON line (one ``write`` call, so lines from
    concurrent workers do not interleave)."""
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")


def read_lines(path) -> list[dict]:
    try:
        with open(path, encoding="utf-8") as fh:
            return [json.loads(line) for line in fh if line.strip()]
    except FileNotFoundError:
        return []


def stamp_campaign_cells(probe: EngineProbe, sink: str | None = None,
                         sampler=None) -> list[float]:
    """Wrap the campaign's per-cell function so every executed cell is
    stamped with its monotonic start time.  With ``sink`` set, each
    finished cell is appended to that file with the probe's events,
    engine seconds and configurations since the cell started, and the
    host-speed samples ``sampler`` took meanwhile (a pool worker runs
    it only during its cells), so pool workers report to ``run.py``.
    Returns the list this process's start stamps go to.

    The wrapper keeps the original's module and name, so a process
    pool pickles it by reference and a forked worker runs it too.
    """
    from repro.experiments import campaign
    original = campaign.run_campaign_cell
    starts: list[float] = []

    @functools.wraps(original)
    def run_campaign_cell(cell):
        # a pool worker samples only while it runs a cell, so it never
        # exits with the timer armed
        own = sampler is not None and not sampler.running
        if own:
            sampler.start()
        first = len(sampler.samples) if sampler is not None else 0
        start = time.monotonic()
        starts.append(start)
        runs, events, seconds = probe.runs, probe.events, probe.seconds
        try:
            return original(cell)
        finally:
            if own:
                sampler.stop()
            if sink is not None:
                write_line(sink, {"t": start, "runs": probe.runs - runs,
                                  "events": probe.events - events,
                                  "engine_seconds": probe.seconds - seconds,
                                  "configs": probe.configs,
                                  "samples": sampler.samples[first:]
                                  if sampler is not None else []})

    campaign.run_campaign_cell = run_campaign_cell
    return starts


# ----------------------------------------------------------------------
# simulation workloads: each returns one record per Engine.run, in run
# order: {"run", "digest", "ok", "reason"}
# ----------------------------------------------------------------------

def fig6_release(seed: int) -> list[dict]:
    """The paper's Fig. 6 at full size: 512 spinners pinned to core 0
    of the 32-core Opteron, released at 2 s.  CFS runs 6 s simulated
    (it never reaches tolerance-1 balance); ULE runs until balanced."""
    from repro.core.clock import sec
    from repro.experiments.fig6_load_balancing import run_release
    from repro.tracing.digest import schedule_digest
    records = []
    for sched, budget, want in (("cfs", sec(6), "deadline"),
                                ("ule", sec(900), "condition")):
        engine, _spinners, reason = run_release(sched, 512, seed=seed,
                                                timeout_ns=budget)
        records.append({"run": sched, "digest": schedule_digest(engine),
                        "ok": reason == want, "reason": reason})
        del engine, _spinners
    return records


def numa_scale(seed: int) -> list[dict]:
    """A 1024-core machine of 32 NUMA nodes with 8-core LLCs, two
    spinners per core, 200 ms simulated under CFS, then under ULE."""
    from repro.core.clock import msec
    from repro.core.engine import Engine
    from repro.core.topology import smp
    from repro.sched import scheduler_factory
    from repro.tracing.digest import schedule_digest
    from repro.workloads import SpinnerWorkload
    records = []
    for sched in ("cfs", "ule"):
        engine = Engine(smp(1024, cpus_per_llc=8, numa_nodes=32),
                        scheduler_factory(sched), seed=seed)
        SpinnerWorkload(count=2048, pin_cpu=None).launch(engine, at=0)
        reason = engine.run(until=msec(200))
        records.append({"run": sched, "digest": schedule_digest(engine),
                        "ok": reason == "deadline"
                        and engine.events_processed > 0,
                        "reason": reason})
        del engine
    return records


SIM_FUNCTIONS = {"fig6_release": fig6_release, "numa_scale": numa_scale}


def campaign_argv(experiments, seed: int, workdir: str,
                  jobs: int | None) -> list[str]:
    """Arguments of ``python -m repro.experiments`` for one campaign
    whose cache, checkpoint and report live in ``workdir``."""
    argv = ["run", *experiments, "--seed", str(seed),
            "--cache-dir", f"{workdir}/cache",
            "--checkpoint", f"{workdir}/checkpoint.json",
            "-o", f"{workdir}/report.txt"]
    if jobs is not None:
        argv += ["--jobs", str(jobs)]
    return argv
