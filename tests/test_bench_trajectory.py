"""The bench trajectory recorder (benchmarks/check_bench.py):
entry shape, same-sha replacement, corrupt-file recovery, and the
dirty-tree key."""

import importlib.util
import json
import os
import shutil
import subprocess

import pytest

_CHECK_BENCH = os.path.join(os.path.dirname(__file__), os.pardir,
                            "benchmarks", "check_bench.py")


@pytest.fixture
def check_bench(tmp_path, monkeypatch):
    """The check_bench module with its trajectory file redirected to a
    temp dir and the git sha pinned."""
    spec = importlib.util.spec_from_file_location("check_bench",
                                                  _CHECK_BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "TRAJECTORY",
                        str(tmp_path / "BENCH_trajectory.json"))
    monkeypatch.setattr(module, "_git_sha", lambda: "abc1234")
    return module


def _current(eps, smoke=True):
    return {"smoke": smoke,
            "profiles": {name: {"events_per_sec": value}
                         for name, value in eps.items()}}


def test_entry_shape(check_bench):
    entry = check_bench.append_trajectory(
        _current({"tick_4x8": 100_000.0, "fig6_cfs": 50_000.0}))
    assert entry == {
        "sha": "abc1234",
        "smoke": True,
        "events_per_sec": {"fig6_cfs": 50_000.0,
                           "tick_4x8": 100_000.0},
    }
    with open(check_bench.TRAJECTORY) as fh:
        assert json.load(fh) == [entry]


def test_same_sha_replaced_not_duplicated(check_bench):
    check_bench.append_trajectory(_current({"a": 1.0}))
    check_bench.append_trajectory(_current({"a": 2.0}))
    with open(check_bench.TRAJECTORY) as fh:
        trajectory = json.load(fh)
    assert len(trajectory) == 1
    assert trajectory[0]["events_per_sec"] == {"a": 2.0}


def test_smoke_and_full_entries_coexist(check_bench):
    check_bench.append_trajectory(_current({"a": 1.0}, smoke=True))
    check_bench.append_trajectory(_current({"a": 2.0}, smoke=False))
    with open(check_bench.TRAJECTORY) as fh:
        assert len(json.load(fh)) == 2


def test_corrupt_trajectory_recovered(check_bench):
    with open(check_bench.TRAJECTORY, "w") as fh:
        fh.write("{not json")
    check_bench.append_trajectory(_current({"a": 1.0}))
    with open(check_bench.TRAJECTORY) as fh:
        assert len(json.load(fh)) == 1


def _write(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh)


@pytest.fixture
def gated(check_bench, tmp_path, monkeypatch):
    """check_bench with CURRENT/BASELINE also redirected, ready to
    drive ``main()`` against synthetic results."""
    monkeypatch.setattr(check_bench, "CURRENT",
                        str(tmp_path / "BENCH_simulator.json"))
    monkeypatch.setattr(check_bench, "BASELINE",
                        str(tmp_path / "BENCH_baseline.json"))
    return check_bench


def test_gate_tolerance_is_median_tight(gated):
    """Median-of-3 recording holds the regression gate at 1.5x."""
    assert gated.MAX_REGRESSION == 1.5


def test_gate_passes_within_tolerance(gated):
    _write(gated.BASELINE, _current({"a": 150_000.0}))
    _write(gated.CURRENT, _current({"a": 101_000.0}))  # 1.49x below
    assert gated.main() == 0


def test_gate_fails_beyond_tolerance(gated):
    _write(gated.BASELINE, _current({"a": 150_000.0}))
    _write(gated.CURRENT, _current({"a": 99_000.0}))  # 1.52x below
    assert gated.main() == 1


def test_gate_skips_on_smoke_mismatch(gated):
    _write(gated.BASELINE, _current({"a": 150_000.0}, smoke=False))
    _write(gated.CURRENT, _current({"a": 1.0}, smoke=True))
    assert gated.main() == 0


def test_git_sha_fallback(check_bench, monkeypatch):
    """Outside a git checkout the sha is the literal ``unknown``."""
    spec = importlib.util.spec_from_file_location("check_bench_sha",
                                                  _CHECK_BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "HERE", "/nonexistent-dir")
    assert module._git_sha() == "unknown"


@pytest.fixture
def repo(tmp_path, monkeypatch):
    """A fresh one-commit git repository holding a benchmarks/ dir,
    with check_bench pointed at it (the sha is not pinned)."""
    if shutil.which("git") is None:
        pytest.skip("git not installed")
    bench = tmp_path / "benchmarks"
    bench.mkdir()
    (tmp_path / "code.py").write_text("x = 1\n")
    (bench / "BENCH_trajectory.json").write_text("[]\n")
    identity = ["-c", "user.name=bench", "-c", "user.email=bench@example",
                "-c", "commit.gpgsign=false"]
    for args in (["init", "-q"], ["add", "-A"],
                 [*identity, "commit", "-q", "-m", "init"]):
        subprocess.run(["git", *args], cwd=tmp_path, check=True,
                       capture_output=True)
    spec = importlib.util.spec_from_file_location("check_bench_git",
                                                  _CHECK_BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "HERE", str(bench))
    monkeypatch.setattr(module, "TRAJECTORY",
                        str(bench / "BENCH_trajectory.json"))
    head = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                          cwd=tmp_path, capture_output=True, text=True,
                          check=True).stdout.strip()
    return module, tmp_path, head


def test_clean_tree_keys_by_head(repo):
    module, _root, head = repo
    assert module._git_sha() == head
    # recording an entry dirties only the trajectory file itself,
    # which must not change the key of the next run
    module.append_trajectory(_current({"a": 1.0}))
    assert module._git_sha() == head


def test_dirty_tree_key_hashes_the_diff(repo):
    module, root, head = repo
    (root / "code.py").write_text("x = 2\n")
    first = module._git_sha()
    assert first.startswith(head + "+")
    assert len(first) == len(head) + 9
    assert module._git_sha() == first  # stable for the same diff
    (root / "code.py").write_text("x = 3\n")
    assert module._git_sha() not in (head, first)
    (root / "code.py").write_text("x = 1\n")
    (root / "new.py").write_text("y = 1\n")  # untracked counts too
    assert module._git_sha().startswith(head + "+")
