"""Smoke tests: every example script runs end to end.

The two long demos (starvation, balancer race) are exercised with the
same entry points the scripts use; the fast ones run as subprocesses
exactly as a user would.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).parent.parent / "examples"


def run_example(name, *args, timeout=240):
    # pin the env: a REPRO_SANITIZE=1 suite run would otherwise slow
    # the long demos past their timeout (invariant coverage for the
    # schedulers lives in tests/test_sanitizer.py)
    env = {k: v for k, v in os.environ.items() if k != "REPRO_SANITIZE"}
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True, text=True, timeout=timeout, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_quickstart():
    out = run_example("quickstart.py")
    assert "CFS (one core, 10 s)" in out
    assert "ULE (one core, 10 s)" in out
    assert "hog" in out and "ia" in out


def test_custom_scheduler():
    out = run_example("custom_scheduler.py")
    for sched in ("cfs", "ule", "tickets"):
        assert sched in out


def test_trace_visualization(tmp_path):
    target = tmp_path / "trace.json"
    out = run_example("trace_visualization.py", str(target))
    assert "trace written" in out
    assert target.exists()
    import json
    doc = json.loads(target.read_text())
    assert doc["traceEvents"]


def test_starvation_demo():
    out = run_example("starvation_demo.py")
    assert "interactivity penalty" in out
    assert "tx/s" in out


@pytest.mark.slow
def test_load_balancer_race():
    out = run_example("load_balancer_race.py", timeout=300)
    assert "CFS" in out and "ULE" in out
    assert "balancer invocations" in out


@pytest.mark.slow
def test_multi_app_consolidation():
    out = run_example("multi_app_consolidation.py")
    assert "webapp" in out
    assert "MG" in out
