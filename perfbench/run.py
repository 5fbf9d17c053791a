"""The repository benchmark: host speed of the simulator, end to end
and layer by layer, on the default configuration.

    python3 perfbench/run.py --workload fig6_release --seed 1 --trace 0
    python3 perfbench/run.py --compare PARENT_RESULTS CHANGE_RESULTS
    python3 perfbench/run.py --check-layers

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``fig6_release`` -- the paper's Fig. 6 at full size (512 spinners
  released on the 32-core Opteron; CFS 6 s, ULE until balanced).
* ``numa_scale`` -- 1024 cores, 32 NUMA nodes, 2 spinners per core,
  200 ms under CFS then ULE.
* ``campaign`` -- ``python -m repro.experiments run <12 experiments>
  --jobs 2``, cold (fresh cache and checkpoint), then the identical
  command warm.

``--trace 0`` measures in fresh child processes with every ``REPRO_*``
variable removed, repeating the workload until ``--seconds`` have
passed, and prints the end-to-end metrics: ``wall_s`` (process start
to result, cold), ``warm_wall_s`` (the rerun once everything that can
be is cached: for ``campaign`` the cache-served rerun, median of 9;
for the sim workloads, whose results nothing caches, the rerun in the
same warm process with the simulation itself skipped -- engine
builds, thread spawns and digests -- median of 3 to 100 within 3 s),
``setup_s`` (process start to the first ``Engine.run`` or first cell;
median over 5 to 15 processes), ``events_per_s`` (events over the
host seconds spent inside ``Engine.run``) and ``peak_rss_mb`` (the
peak resident size of the cold pass: the child up to its result, and
for ``campaign`` also every pool worker).

Every time above is in *reference seconds*: the measured wall time of
an interval times ``hostspeed.speed`` over it, the ratio of a fixed
calibration loop's reference time to its median time in the samples
the measured processes took during that interval (see
``hostspeed.py``).  On a shared 2-vCPU host whose speed swings by
1.3-1.7x, this cut the spread (IQR over median) of ``wall_s`` over
ten seeds from 9-19% raw to 3-6%.
The raw wall time and the speed factor of each iteration go to the
run record.

``--trace 1`` first runs the cold pass untraced in a child, then runs
it again inside this process under ``cProfile`` (``campaign``: serial,
plus the warm rerun), and prints per-layer self-time, calls and
ns/event through the module->layer table in ``layers.py``, engine
counters, useful/attempted ratios, ``failed_frac`` and
``trace.overhead`` (traced cold pass / untraced cold pass).  cProfile
inflates per-call cost, so compare layer shares across commits, not
as absolute cost.

Every operation (one ``Engine.run`` or one campaign cell) is checked:
the schedule digest of each run, or the sha256 of the campaign report,
must equal the pin for seed 1, and on other seeds every repeat (later
iterations, cache-served reruns, the traced pass) must equal the
first.  A crash, a
timeout, a ``FAILED`` row or a mismatch counts as a failed operation.

Each run also writes a record to ``.perfbench/results/`` (``--results``
to change): the metrics, every sample, the effective configuration of
each engine, and the code it measured (git HEAD, a hash of the
uncommitted diff, and a hash of ``src/``).  ``--compare`` reads two
such directories, e.g. a parent's and a change's.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import hashlib
import io
import json
import os
import pstats
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from hostspeed import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
STATE = ROOT / ".perfbench"

#: a run must end within this many seconds of starting
RUN_BUDGET_S = 170.0
#: set-up samples per run (iterations count towards them): at least
#: SETUP_MIN, then more until SETUP_SAMPLING_S of sampling or SETUP_MAX
SETUP_MIN = 5
SETUP_MAX = 15
SETUP_SAMPLING_S = 1.5
#: cache-served campaign reruns per iteration (each takes ~0.15 s)
WARM_REPEATS = 9
#: cold passes a run makes at least, past ``--seconds`` if need be:
#: the campaign's makespan also varies with when a pool worker draws
#: its longest cell, which the host-speed factor does not correct
MIN_ITERATIONS = {"campaign": 2}

E2E_UNITS = {"wall_s": "s", "warm_wall_s": "s", "setup_s": "s",
             "events_per_s": "1/s", "peak_rss_mb": "MB"}

FAILED_ROW = re.compile(r"^== \S+: FAILED\(", re.MULTILINE)


def _median(values):
    return statistics.median(values) if values else 0.0


# ----------------------------------------------------------------------
# code stamp
# ----------------------------------------------------------------------

def code_stamp() -> dict:
    """What code a result measured: git HEAD and a hash of everything
    uncommitted (diff plus untracked files) when the checkout is a git
    repository, and always a hash of every file under ``src/``."""

    def git(*args) -> bytes | None:
        if not (ROOT / ".git").exists():
            return None  # a plain checkout: never search parent dirs
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), *args],
                                  capture_output=True, timeout=30,
                                  check=False)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return proc.stdout if proc.returncode == 0 else None

    head = git("rev-parse", "HEAD")
    dirty = None
    if head is not None:
        digest = hashlib.sha256(git("diff", "HEAD", "--binary") or b"")
        others = git("ls-files", "-z", "--others", "--exclude-standard")
        for name in sorted(filter(None, (others or b"").split(b"\0"))):
            digest.update(name)
            with contextlib.suppress(OSError):
                digest.update((ROOT / name.decode()).read_bytes())
        dirty = digest.hexdigest()
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src.update(path.relative_to(SRC).as_posix().encode() + b"\0")
            src.update(path.read_bytes())
    return {"git_head": head.decode().strip() if head else None,
            "uncommitted_sha256": dirty,
            "src_sha256": src.hexdigest()}


# ----------------------------------------------------------------------
# child processes
# ----------------------------------------------------------------------

class Child:
    """One finished child process."""

    def __init__(self, rc, maxrss_kb, t_spawn, t_exit, data):
        self.rc = rc
        self.maxrss_mb = maxrss_kb / 1024.0
        self.t_spawn = t_spawn
        self.t_exit = t_exit
        self.data = data

    @property
    def ok(self) -> bool:
        return self.rc == 0 and self.data is not None


def _kill_group(pgid: int) -> None:
    with contextlib.suppress(ProcessLookupError, PermissionError):
        os.killpg(pgid, signal.SIGKILL)


def _reap_group(pgid: int) -> None:
    """Make sure nothing of a child's process group outlives it."""
    try:
        os.killpg(pgid, 0)
    except (ProcessLookupError, PermissionError):
        return
    _kill_group(pgid)
    for _ in range(100):
        time.sleep(0.05)
        try:
            os.killpg(pgid, 0)
        except (ProcessLookupError, PermissionError):
            return


class Bench:
    """One benchmark run of one workload."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 tmp: Path):
        import workloads
        self.w = workloads
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.tmp = tmp
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("REPRO_")}
        self.env.update(PYTHONPATH=str(SRC), TMPDIR=str(tmp))
        self.attempted = 0
        self.failed = 0
        #: position -> digest every repeat must reproduce
        self.expected: dict[int, str] = (
            dict(enumerate(workloads.PINS[workload]))
            if seed == workloads.PINNED_SEED else {})
        self.configs: list[dict] = []
        self._n = 0

    # -- bookkeeping ----------------------------------------------------

    def _note_configs(self, configs) -> None:
        for config in configs or ():
            if config not in self.configs:
                self.configs.append(config)

    def check(self, what: str, got, count: int) -> None:
        """Count ``count`` operations whose outcome is ``got``: None
        when they all crashed, else one digest per run (or one report
        hash standing for every cell), None for a run that failed.  A
        digest must equal the pin, or on an unpinned seed the first
        digest seen at its position."""
        self.attempted += count
        if got is None:
            self.failed += count
            print(f"[{what}] FAILED: no result", file=sys.stderr)
            return
        share = count // len(got)
        for i, value in enumerate(got):
            want = value if value is None else \
                self.expected.setdefault(i, value)
            if value is None or value != want:
                self.failed += share
                print(f"[{what}] FAILED op {i}: got {value}, "
                      f"want {want}", file=sys.stderr)

    def child(self, *args: str) -> Child:
        self._n += 1
        out = self.tmp / f"child-{self._n}.json"
        log = self.tmp / f"child-{self._n}.log"
        cwd = self.tmp / f"cwd-{self._n}"
        cwd.mkdir()
        cmd = [sys.executable, str(CHILD), self.workload,
               "--seed", str(self.seed), "--out", str(out), *args]
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(log, "wb") as fh:
            t_spawn = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=cwd, env=self.env,
                                    stdout=fh, stderr=subprocess.STDOUT,
                                    start_new_session=True)
            timer = threading.Timer(timeout, _kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            t_exit = time.monotonic()
            proc.returncode = os.waitstatus_to_exitcode(status)
        _reap_group(proc.pid)
        data = None
        if proc.returncode == 0 and out.exists():
            data = json.loads(out.read_text())
        if proc.returncode != 0:
            print(f"child {' '.join(args)} exited {proc.returncode}:\n"
                  + log.read_text(errors="replace")[-4000:],
                  file=sys.stderr)
        return Child(proc.returncode, usage.ru_maxrss, t_spawn, t_exit,
                     data)

    def fits(self, estimate: float) -> bool:
        return time.monotonic() + estimate < self.deadline

    # -- sim workloads --------------------------------------------------

    def _digests(self, records):
        if records is None:
            return None
        return [r["digest"] if r["ok"] else None for r in records]

    def sim_iteration(self) -> dict:
        c = self.child("--phase", "full")
        d = c.data if c.ok else {}
        self.check("cold", self._digests(d.get("cold")), 2)
        if "warm_s" not in d:
            return {}
        self._note_configs(d.get("configs"))
        samples = d["samples"]
        cold = speed(samples, c.t_spawn, d["t_cold_done"])
        warm = speed(samples, d["t_cold_done"], d["t_warm_done"])
        setup = speed(samples, c.t_spawn, d["t_first_run"])
        return {"wall_s": (d["t_cold_done"] - c.t_spawn) * cold,
                "warm_wall_s": _median(d["warm_s"]) * warm,
                "setup_s": (d["t_first_run"] - c.t_spawn) * setup,
                "events": d["events"],
                "engine_seconds": d["engine_seconds"] * cold,
                "peak_rss_mb": d["cold_maxrss_kb"] / 1024.0,
                "raw_wall_s": d["t_cold_done"] - c.t_spawn,
                "speed": cold}

    def sim_setup(self):
        c = self.child("--phase", "setup")
        if not c.ok or c.data.get("t_first_run") is None:
            self.check("setup", None, 1)
            return None
        t_first_run = c.data["t_first_run"]
        return (t_first_run - c.t_spawn) \
            * speed(c.data["samples"], c.t_spawn, t_first_run)

    # -- campaign -------------------------------------------------------

    def _campaign_child(self, workdir: Path, phase: str = "full"):
        sink = workdir / f"cells-{self._n + 1}.jsonl"
        c = self.child("--phase", phase, "--workdir", str(workdir),
                       "--sink", str(sink))
        report = workdir / "report.txt"
        text = report.read_text() if c.ok and report.exists() else None
        return c, text, self.w.read_lines(sink)

    @staticmethod
    def _campaign_samples(c: Child, lines) -> list:
        """Host-speed samples of a campaign child and its pool
        workers."""
        samples = list(c.data["samples"]) if c.ok else []
        for line in lines:
            samples += line["samples"]
        return samples

    def _check_report(self, what: str, text, cells: int) -> None:
        if text is None:
            self.check(what, None, cells)
            return
        failed_rows = len(FAILED_ROW.findall(text))
        if failed_rows:
            print(f"[{what}] {failed_rows} FAILED row(s)",
                  file=sys.stderr)
            self.attempted += failed_rows
            self.failed += failed_rows
            cells -= failed_rows
        self.check(what, [hashlib.sha256(text.encode()).hexdigest()],
                   cells)

    def _new_workdir(self) -> Path:
        workdir = self.tmp / f"campaign-{self._n + 1}"
        workdir.mkdir()
        return workdir

    def campaign_iteration(self) -> dict:
        ncells = len(self.w.CAMPAIGN_EXPERIMENTS)
        workdir = self._new_workdir()
        cold, cold_text, lines = self._campaign_child(workdir)
        self._check_report("cold", cold_text, ncells)
        warm_walls, warm_samples = [], []
        for _ in range(WARM_REPEATS):
            warm, warm_text, warm_lines = self._campaign_child(workdir)
            self._check_report("warm", warm_text, ncells)
            if warm_text is not None:
                warm_walls.append(warm.t_exit - warm.t_spawn)
                warm_samples += self._campaign_samples(warm, warm_lines)
        if cold_text is None or not warm_walls or not lines:
            return {}
        for line in lines:
            self._note_configs(line["configs"])
        samples = self._campaign_samples(cold, lines)
        first_cell = min(line["t"] for line in lines)
        speed_cold = speed(samples, cold.t_spawn, cold.t_exit)
        return {"wall_s": (cold.t_exit - cold.t_spawn) * speed_cold,
                "warm_wall_s": _median(warm_walls) * speed(
                    warm_samples, cold.t_exit, time.monotonic()),
                "setup_s": (first_cell - cold.t_spawn)
                * speed(samples, cold.t_spawn, first_cell),
                "events": sum(line["events"] for line in lines),
                "engine_seconds": speed_cold * sum(
                    line["engine_seconds"] for line in lines),
                "peak_rss_mb": cold.maxrss_mb,
                "raw_wall_s": cold.t_exit - cold.t_spawn,
                "speed": speed_cold}

    def campaign_setup(self):
        c, text, lines = self._campaign_child(self._new_workdir(),
                                              "setup")
        if text is None or not lines or FAILED_ROW.search(text):
            self.check("setup", None, 1)
            return None
        self.attempted += 1
        first_cell = min(line["t"] for line in lines)
        return (first_cell - c.t_spawn) * speed(
            self._campaign_samples(c, lines), c.t_spawn, first_cell)

    # -- trace 0 --------------------------------------------------------

    def measure(self) -> dict:
        sim = self.workload in self.w.SIM_FUNCTIONS
        iteration = self.sim_iteration if sim else self.campaign_iteration
        setup = self.sim_setup if sim else self.campaign_setup
        start = time.monotonic()
        samples: list[dict] = []
        while True:
            t0 = time.monotonic()
            samples.append(iteration())
            took = time.monotonic() - t0
            if not self.fits(1.5 * took) or (
                    time.monotonic() - start >= self.seconds
                    and len(samples) >= MIN_ITERATIONS.get(self.workload,
                                                           1)):
                break
        done = [s for s in samples if s]
        setups = [s["setup_s"] for s in done]
        sampling_start = time.monotonic()
        for _ in range(SETUP_MAX - len(setups)):
            if len(setups) >= SETUP_MIN and time.monotonic() \
                    - sampling_start >= SETUP_SAMPLING_S:
                break
            t0 = time.monotonic()
            value = setup()
            if value is not None:
                setups.append(value)
            if not self.fits(2 * (time.monotonic() - t0)):
                break
        engine_seconds = sum(s["engine_seconds"] for s in done)
        metrics = {
            "wall_s": _median([s["wall_s"] for s in done]),
            "setup_s": _median(setups),
            "events_per_s": (sum(s["events"] for s in done)
                             / engine_seconds if engine_seconds else 0.0),
            "peak_rss_mb": _median([s["peak_rss_mb"] for s in done]),
            "warm_wall_s": _median([s["warm_wall_s"] for s in done]),
        }
        extra = {"iterations": samples, "setup_samples": setups}
        return {"metrics": {name: {"value": value,
                                   "unit": E2E_UNITS[name]}
                            for name, value in metrics.items()},
                "samples": extra}

    # -- trace 1 --------------------------------------------------------

    def trace(self) -> dict:
        from layers import LAYER_NAMES, Attributor
        attributor = Attributor(SRC / "repro")
        w = self.w
        sim = self.workload in w.SIM_FUNCTIONS
        ncells = 0 if sim else len(w.CAMPAIGN_EXPERIMENTS)
        # untraced reference: the cold pass in a child
        if sim:
            c = self.child("--phase", "cold")
            d = c.data if c.ok else {}
            self.check("untraced", self._digests(d.get("cold")), 2)
            ref_wall = (d["t_cold_done"] - d["t_main"]
                        if "t_cold_done" in d else None)
        else:
            c, text, _ = self._campaign_child(self._new_workdir())
            self._check_report("untraced", text, ncells)
            d = c.data if c.ok else {}
            ref_wall = d["t_done"] - d["t_main"] if "t_done" in d else None

        probe = w.EngineProbe().install()
        cells = [] if sim else w.stamp_campaign_cells(probe)
        profile = cProfile.Profile(builtins=False)

        def traced(what, fn):
            """(result of ``fn`` under the profiler, seconds taken);
            an exception is reported and counted as failed ops."""
            start = time.perf_counter()
            profile.enable()
            try:
                return fn(), time.perf_counter() - start
            except Exception as exc:
                print(f"[{what}] raised {type(exc).__name__}: {exc}",
                      file=sys.stderr)
                return None, time.perf_counter() - start
            finally:
                profile.disable()

        try:
            if sim:
                run = w.SIM_FUNCTIONS[self.workload]
                records, cold_wall = traced("traced",
                                            lambda: run(self.seed))
                self.check("traced", self._digests(records), 2)
                warm_cells = 0
            else:
                from repro.experiments.__main__ import main
                workdir = self._new_workdir()
                argv = w.campaign_argv(w.CAMPAIGN_EXPERIMENTS, self.seed,
                                       str(workdir), None)

                def campaign():
                    with contextlib.redirect_stdout(io.StringIO()), \
                            contextlib.redirect_stderr(io.StringIO()):
                        main(argv)
                    report = workdir / "report.txt"
                    return report.read_text() if report.exists() else None

                text, cold_wall = traced("traced", campaign)
                self._check_report("traced", text, ncells)
                cold_cells = len(cells)
                text, _ = traced("traced-warm", campaign)
                self._check_report("traced-warm", text, ncells)
                warm_cells = len(cells) - cold_cells
        finally:
            probe.uninstall()
        self._note_configs(probe.configs)

        stats = pstats.Stats(profile).stats
        layers = attributor.attribute(stats)
        events = probe.events
        counters = probe.counters
        posts = attributor.calls_of(stats, "eventq", ("post", "repost"))
        balances = attributor.calls_of(stats, "cfs_balance",
                                       ("load_balance",))
        values: dict[str, tuple[float, str]] = {}
        for layer in LAYER_NAMES:
            self_s = layers[layer]["self_s"]
            values[f"{layer}.self_s"] = (self_s, "s")
            values[f"{layer}.calls"] = (layers[layer]["calls"], "count")
            values[f"{layer}.ns_per_event"] = (
                self_s * 1e9 / events if events else 0.0, "ns")
        values.update({
            "engine.events": (events, "count"),
            "engine.switches": (counters["engine.switches"], "count"),
            "engine.migrations": (counters["engine.migrations"], "count"),
            "engine.tick_stops": (counters["engine.tick_stops"], "count"),
            "ule_balance.invocations": (
                counters["ule.balance_invocations"], "count"),
            "ule.idle_steals": (counters["ule.idle_steals"], "count"),
            "harness.cells_executed": (len(cells) - warm_cells, "count"),
            "eventq.executed_per_post": (
                events / posts if posts else 0.0, "ratio"),
            "cfs_balance.migrations_per_call": (
                counters["cfs.balance_migrations"] / balances
                if balances else 0.0, "ratio"),
            "harness.cache_hit_ratio": (
                (ncells - warm_cells) / ncells if ncells else 0.0,
                "ratio"),
            "trace.overhead": (cold_wall / ref_wall if ref_wall else 0.0,
                               "x"),
        })
        values["failed_frac"] = (
            self.failed / self.attempted if self.attempted else 1.0,
            "ratio")
        return {"metrics": {name: {"value": value, "unit": unit}
                            for name, (value, unit) in values.items()},
                "samples": {"untraced_cold_s": ref_wall,
                            "traced_cold_s": cold_wall}}


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------

def _quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _load_results(directory: Path) -> dict:
    groups: dict = {}
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        key = (record["workload"], record["trace"])
        groups.setdefault(key, []).append(record)
    return groups


def compare(parent_dir: Path, change_dir: Path) -> int:
    """Print, per workload, each end-to-end metric's median and
    quartiles on both sides and each layer's self-time delta."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    parent, change = _load_results(parent_dir), _load_results(change_dir)
    for side, groups in (("parent", parent), ("change", change)):
        stamps = {json.dumps(r["stamp"], sort_keys=True)
                  for records in groups.values() for r in records}
        print(f"{side}: {len(stamps)} code stamp(s): "
              + "; ".join(sorted(stamps)))
    for workload in sorted({k[0] for k in parent} | {k[0] for k in change}):
        print(f"\n== {workload}")
        a, b = parent.get((workload, 0), []), change.get((workload, 0), [])
        print(f"  end to end ({len(a)} parent / {len(b)} change runs; "
              "median [q1, q3])")
        for name, meta in bounds.items():
            va = [r["metrics"][name]["value"] for r in a
                  if name in r["metrics"]]
            vb = [r["metrics"][name]["value"] for r in b
                  if name in r["metrics"]]
            if not va or not vb:
                continue
            qa, qb = _quartiles(va), _quartiles(vb)
            delta = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            worse = delta if meta["better"] == "lower" else -delta
            spread = (qa[2] - qa[0]) / qa[1] if qa[1] else 0.0
            verdict = ("REGRESSED" if worse > meta["bound"]
                       else "unresolved" if spread > meta["bound"]
                       else "ok")
            print(f"  {name:<14} {qa[1]:12.4f} [{qa[0]:.4f}, {qa[2]:.4f}]"
                  f" -> {qb[1]:12.4f} [{qb[0]:.4f}, {qb[2]:.4f}] "
                  f"{delta:+7.1%} {meta['unit']:<4} {verdict}")
        ta, tb = parent.get((workload, 1), []), change.get((workload, 1), [])
        if not ta or not tb:
            continue
        print(f"  layer self-time ({len(ta)} / {len(tb)} traced runs; "
              "medians, share of total)")
        names = [n[:-len(".self_s")] for n in ta[0]["metrics"]
                 if n.endswith(".self_s")]
        tot_a = sum(_median([r["metrics"][f"{n}.self_s"]["value"]
                             for r in ta]) for n in names)
        tot_b = sum(_median([r["metrics"][f"{n}.self_s"]["value"]
                             for r in tb]) for n in names)
        for n in names:
            sa = _median([r["metrics"][f"{n}.self_s"]["value"] for r in ta])
            sb = _median([r["metrics"][f"{n}.self_s"]["value"]
                          for r in tb if f"{n}.self_s" in r["metrics"]])
            if not sa and not sb:
                continue
            print(f"  {n:<12} {sa:9.3f}s {sa / tot_a:6.1%} -> "
                  f"{sb:9.3f}s {sb / tot_b:6.1%}  {sb - sa:+8.3f}s")
    return 0


# ----------------------------------------------------------------------
# main
# ----------------------------------------------------------------------

def _write_record(results: Path, record: dict) -> Path:
    results.mkdir(parents=True, exist_ok=True)
    stem = (f"{record['workload']}-seed{record['seed']}"
            f"-trace{record['trace']}")
    n = 0
    while (path := results / f"{stem}-{n:03d}.json").exists():
        n += 1
    path.write_text(json.dumps(record, indent=1))
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="host-speed benchmark of the scheduler simulator")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", type=Path,
                        default=STATE / "results",
                        help="directory the run record is written to")
    parser.add_argument("--compare", nargs=2, type=Path,
                        metavar=("PARENT", "CHANGE"),
                        help="compare two directories of run records")
    parser.add_argument("--check-layers", action="store_true",
                        help="print the module->layer mapping and exit")
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program at {SRC / 'repro'}",
              file=sys.stderr)
        return 2
    if args.check_layers:
        from layers import check_table
        for module, layer in check_table(SRC / "repro").items():
            print(f"{layer:<12} {module}")
        return 0
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {workloads.WORKLOADS}")

    scrubbed = sorted(k for k in os.environ if k.startswith("REPRO_"))
    for name in scrubbed:
        del os.environ[name]
    sys.path.insert(0, str(SRC))
    tmp = STATE / "tmp" / str(os.getpid())
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        bench = Bench(args.workload, args.seed, args.seconds, tmp)
        out = bench.trace() if args.trace else bench.measure()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    correct = bench.attempted > 0 and bench.failed == 0
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "stamp": code_stamp(), "scrubbed_env": scrubbed,
              "config": bench.configs, "correct": correct,
              "attempted": bench.attempted, "failed": bench.failed,
              **out}
    path = _write_record(args.results, record)
    for config in bench.configs:
        print("config: " + json.dumps(config, sort_keys=True))
    print("stamp: " + json.dumps(record["stamp"], sort_keys=True))
    for name, metric in out["metrics"].items():
        print(f"{name:<34} {metric['value']:>16.6g} {metric['unit']}")
    print(f"record: {path}")
    print(json.dumps({"correct": correct,
                      "attempted": max(1, bench.attempted),
                      "failed": bench.failed,
                      "metrics": out["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
