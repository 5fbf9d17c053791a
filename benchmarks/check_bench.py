"""Compare BENCH_simulator.json against the recorded baseline and
record the performance trajectory.

Run by ``make bench`` after the simulator-performance benchmarks:
exits non-zero when any profile's events/sec regressed more than
``MAX_REGRESSION``x against ``BENCH_baseline.json``.  Baselines are
machine-dependent; the threshold leaves headroom for hardware
variance while still catching algorithmic regressions (an accidental
O(n) in the event queue shows up as 5-50x).  The recorded figure per
profile is the median of five timing rounds, which removes enough
round-level noise to hold the tolerance at 1.5x (it was 2x when a
single round was recorded).  Residual swings up to ~1.3x between
whole runs on shared/virtualized hardware are still normal — CPU
frequency phases move every profile together by 1.2-1.5x for minutes
at a time (see the noise-band section of docs/performance.md) —
treat trajectory deltas below that as noise and only ratios beyond
the tolerance as signal.

Every run also appends one entry — git sha, smoke flag, events/sec
per profile family — to ``BENCH_trajectory.json``, so the perf story
across PRs is recorded data, not commit-message claims (see
docs/performance.md for how to read it).  On a dirty tree the sha
carries a ``+<hash>`` of the uncommitted changes, so numbers measured
before a commit name the code they measured rather than its parent.
Re-running on the same key replaces that key's entry instead of
duplicating it.

To re-record the baseline after an intentional change::

    make bench-baseline
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
CURRENT = os.path.join(HERE, "BENCH_simulator.json")
BASELINE = os.path.join(HERE, "BENCH_baseline.json")
TRAJECTORY = os.path.join(HERE, "BENCH_trajectory.json")

#: fail when events/sec drops below baseline / MAX_REGRESSION
#: (median-of-5 recording keeps this tight; see module docstring)
MAX_REGRESSION = 1.5


def _git(*args, cwd=None):
    """stdout of ``git args`` (bytes), or None when git fails."""
    try:
        proc = subprocess.run(["git", *args], capture_output=True,
                              cwd=cwd or HERE, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout if proc.returncode == 0 else None


def _dirty_hash():
    """8 hex digits hashing the uncommitted changes (tracked diff plus
    untracked files), or None for a clean tree.  The trajectory file
    itself is left out: recording an entry must not make the next run
    on the same commit look dirty."""
    top = _git("rev-parse", "--show-toplevel")
    if not top:
        return None
    top = top.decode().strip()
    own = os.path.relpath(os.path.realpath(TRAJECTORY),
                          os.path.realpath(top))
    diff = _git("diff", "HEAD", "--binary", "--", ".",
                f":(exclude){own}", cwd=top) or b""
    others = _git("ls-files", "-z", "--others", "--exclude-standard",
                  cwd=top) or b""
    names = sorted(filter(None, others.split(b"\0")))
    if not diff and not names:
        return None
    digest = hashlib.sha256(diff)
    for name in names:
        digest.update(name)
        try:
            with open(os.path.join(top, name.decode()), "rb") as fh:
                digest.update(fh.read())
        except OSError:
            pass
    return digest.hexdigest()[:8]


def _git_sha() -> str:
    """Short sha of HEAD, suffixed ``+<dirty hash>`` when the tree has
    uncommitted changes (so a change's numbers are not filed under its
    parent's sha), or ``"unknown"`` outside a git checkout."""
    head = _git("rev-parse", "--short", "HEAD")
    head = head.decode().strip() if head else ""
    if not head:
        return "unknown"
    dirty = _dirty_hash()
    return f"{head}+{dirty}" if dirty else head


def append_trajectory(current: dict) -> dict:
    """Append this run's per-profile events/sec to the trajectory
    file, keyed by (sha, smoke); re-runs on the same sha replace
    their previous entry.  Returns the appended entry."""
    from repro.core.artifacts import atomic_write_json
    entry = {
        "sha": _git_sha(),
        "smoke": bool(current.get("smoke")),
        "events_per_sec": {
            profile: result["events_per_sec"]
            for profile, result in sorted(current["profiles"].items())
        },
    }
    try:
        with open(TRAJECTORY) as fh:
            trajectory = json.load(fh)
    except (OSError, ValueError):
        trajectory = []
    if not isinstance(trajectory, list):
        trajectory = []
    trajectory = [e for e in trajectory
                  if not (e.get("sha") == entry["sha"]
                          and e.get("smoke") == entry["smoke"])]
    trajectory.append(entry)
    atomic_write_json(TRAJECTORY, trajectory)
    return entry


def main() -> int:
    if not os.path.exists(CURRENT):
        print(f"check_bench: {CURRENT} missing - run the benchmarks "
              f"first (make bench)", file=sys.stderr)
        return 2
    with open(CURRENT) as fh:
        current = json.load(fh)
    entry = append_trajectory(current)
    print(f"check_bench: trajectory entry recorded for "
          f"sha {entry['sha']} (smoke={entry['smoke']})")
    if not os.path.exists(BASELINE):
        print(f"check_bench: no baseline recorded; copying current "
              f"results to {BASELINE}")
        from repro.core.artifacts import atomic_write_text
        with open(CURRENT) as fh:
            data = fh.read()
        atomic_write_text(BASELINE, data)
        return 0
    with open(BASELINE) as fh:
        baseline = json.load(fh)
    if current.get("smoke") != baseline.get("smoke"):
        print("check_bench: smoke-mode mismatch between current and "
              "baseline; skipping comparison")
        return 0
    failures = []
    for profile, base in sorted(baseline["profiles"].items()):
        cur = current["profiles"].get(profile)
        if cur is None:
            failures.append(f"{profile}: missing from current results")
            continue
        base_eps = base["events_per_sec"]
        cur_eps = cur["events_per_sec"]
        ratio = base_eps / cur_eps if cur_eps else float("inf")
        status = "FAIL" if ratio > MAX_REGRESSION else "ok"
        print(f"  {profile:<16} {cur_eps:>12,.0f} ev/s "
              f"(baseline {base_eps:>12,.0f}, {base_eps / cur_eps:.2f}x) "
              f"{status}")
        if ratio > MAX_REGRESSION:
            failures.append(
                f"{profile}: {cur_eps:,.0f} ev/s is more than "
                f"{MAX_REGRESSION}x below baseline {base_eps:,.0f}")
    if failures:
        print("\ncheck_bench: PERFORMANCE REGRESSION", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("check_bench: all profiles within "
          f"{MAX_REGRESSION}x of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
