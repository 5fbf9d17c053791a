"""The cell cache, which is the result store's ``done`` rows: keying,
hit/miss, fingerprint invalidation and purge, torn-row tolerance,
env-var construction, and the interplay with ``shard_map``."""

import warnings

import pytest

from repro.experiments.shard import shard_map
from repro.experiments.store import (DEFAULT_DIR, ShardStore,
                                     cache_dir_from_env, cache_key,
                                     code_fingerprint)

CELL = {"experiment": "table1", "quick": True, "seed": 1}
MISS = object()


@pytest.fixture
def store(tmp_path):
    with ShardStore(tmp_path / "store", fingerprint="fp-a") as s:
        yield s


def lookup(store, cell):
    """The served result of ``cell``, or ``MISS`` (enqueueing it, as a
    sweep would)."""
    _, served = store.open_sweep([cell])
    return served.get(cache_key(cell, store.fingerprint), MISS)


def put(store, cell, result):
    """Record ``cell`` as finished, as a sweep's completion does."""
    keys, _ = store.open_sweep([cell], serve=False)
    store.complete(keys[0], result)


def row_result(store, cell, text):
    """Overwrite the stored result text of ``cell`` in place (the
    stored sha is left alone)."""
    store._conn.execute("UPDATE cells SET result = ? WHERE key = ?",
                        (text, cache_key(cell, store.fingerprint)))


# ----------------------------------------------------------------------
# keying
# ----------------------------------------------------------------------

def test_key_ignores_dict_ordering():
    a = {"x": 1, "y": 2}
    b = {"y": 2, "x": 1}
    assert cache_key(a, "fp") == cache_key(b, "fp")


def test_key_depends_on_cell_and_fingerprint():
    assert cache_key({"x": 1}, "fp") != cache_key({"x": 2}, "fp")
    assert cache_key({"x": 1}, "fp") != cache_key({"x": 1}, "fp2")


def test_code_fingerprint_is_memoized():
    assert code_fingerprint() == code_fingerprint()
    assert len(code_fingerprint()) == 64


# ----------------------------------------------------------------------
# lookup / record
# ----------------------------------------------------------------------

def test_miss_then_hit(store):
    assert lookup(store, CELL) is MISS
    put(store, CELL, {"metric": 42})
    assert lookup(store, CELL) == {"metric": 42}


def test_cached_none_is_not_a_miss(store):
    put(store, CELL, None)
    assert lookup(store, CELL) is None


def test_torn_entry_counts_as_miss(store):
    put(store, CELL, {"metric": 42})
    row_result(store, CELL, '{"metric": 4')
    with pytest.warns(RuntimeWarning, match="corrupt"):
        assert lookup(store, CELL) is MISS


def test_wrong_fingerprint_entry_is_a_miss(tmp_path):
    with ShardStore(tmp_path / "store", fingerprint="fp-old") as old:
        put(old, CELL, {"metric": 42})
    with ShardStore(tmp_path / "store", fingerprint="fp-new") as new:
        assert lookup(new, CELL) is MISS


def test_put_gcs_stale_generations(tmp_path):
    with ShardStore(tmp_path / "store", fingerprint="fp-old") as old:
        put(old, CELL, {"metric": 1})
        put(old, {"other": True}, {"metric": 1})
    with ShardStore(tmp_path / "store", fingerprint="fp-new") as new:
        put(new, CELL, {"metric": 2})
        # the older generation's rows are gone, not just unserved
        assert new.done_keys() == [cache_key(CELL, "fp-new")]


def test_gc_races_concurrent_writer(tmp_path):
    """Two writers of the new generation interleave with the purge of
    the old one: the purge runs once, inside the first enqueue's
    write transaction, and neither writer loses a row to it."""
    with ShardStore(tmp_path / "store", fingerprint="fp-old") as old:
        for seed in range(4):
            put(old, {"seed": seed}, 0)
    new = ShardStore(tmp_path / "store", fingerprint="fp-new")
    racer = ShardStore(tmp_path / "store", fingerprint="fp-new")
    try:
        put(racer, {"landed": "first"}, {"metric": 7})
        put(new, CELL, {"metric": 1})
        assert sorted(new.done_keys()) == sorted(
            [cache_key(CELL, "fp-new"),
             cache_key({"landed": "first"}, "fp-new")])
        assert lookup(new, CELL) == {"metric": 1}
        assert lookup(racer, {"landed": "first"}) == {"metric": 7}
    finally:
        new.close()
        racer.close()


# ----------------------------------------------------------------------
# env construction
# ----------------------------------------------------------------------

@pytest.mark.parametrize("value", ["", "0", "off", "no", "FALSE"])
def test_cache_from_env_disabled(monkeypatch, value):
    monkeypatch.setenv("REPRO_CELL_CACHE", value)
    assert cache_dir_from_env() is None


def test_cache_from_env_default_dir(monkeypatch):
    monkeypatch.setenv("REPRO_CELL_CACHE", "1")
    assert cache_dir_from_env() == DEFAULT_DIR == ".repro-store"


def test_cache_from_env_explicit_dir(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CELL_CACHE", str(tmp_path / "c"))
    assert cache_dir_from_env() == str(tmp_path / "c")


# ----------------------------------------------------------------------
# shard_map integration
# ----------------------------------------------------------------------

def test_cell_map_uses_cache(tmp_path):
    calls = []

    def compute(cell):
        calls.append(cell)
        return cell * 10

    cells = [1, 2, 3]
    stats = {}
    assert shard_map(compute, cells, store_dir=tmp_path / "store",
                     stats=stats) == [10, 20, 30]
    assert calls == cells and stats == {
        "served": 0, "runs_served": 0, "runs_computed": 0}
    # warm rerun: nothing executes, results come from the store
    assert shard_map(compute, cells, store_dir=tmp_path / "store",
                     stats=stats) == [10, 20, 30]
    assert calls == cells and stats == {
        "served": 3, "runs_served": 0, "runs_computed": 0}
    # without serving, every cell runs again and its row is rewritten
    assert shard_map(compute, cells, store_dir=tmp_path / "store",
                     serve=False) == [10, 20, 30]
    assert calls == cells * 2


# ----------------------------------------------------------------------
# corruption: bit flips and truncation are discarded, never served
# ----------------------------------------------------------------------

def test_bitflipped_entry_is_evicted_and_recomputed(store):
    put(store, CELL, {"metric": 42})
    # flip a bit: still valid JSON, but the stored sha no longer
    # matches the result
    row_result(store, CELL, '{"metric":43}')
    with pytest.warns(RuntimeWarning, match="hash mismatch"):
        assert lookup(store, CELL) is MISS
    assert store.done_keys() == []  # discarded, not left to warn again
    # the recompute repopulates the row and it serves again
    put(store, CELL, {"metric": 42})
    assert lookup(store, CELL) == {"metric": 42}


def test_truncated_entry_is_evicted_with_one_warning(store):
    put(store, CELL, {"metric": 42})
    row_result(store, CELL, '{"met')
    with pytest.warns(RuntimeWarning, match="corrupt"):
        assert lookup(store, CELL) is MISS
    # subsequent lookups are plain (silent) misses: warn once only
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert lookup(store, CELL) is MISS


def test_corrupt_entry_recomputes_through_cell_map(tmp_path):
    calls = []

    def compute(cell):
        calls.append(cell)
        return cell * 10

    target = tmp_path / "store"
    assert shard_map(compute, [7], store_dir=target) == [70]
    # corrupt the row in place (bit flip in the stored result)
    with ShardStore(target) as store:
        row_result(store, 7, "71")
    with pytest.warns(RuntimeWarning, match="corrupt"):
        assert shard_map(compute, [7], store_dir=target) == [70]
    assert calls == [7, 7]  # recomputed, the corrupt 71 never served
    # and the recompute healed the row
    with ShardStore(target) as store:
        assert lookup(store, 7) == 70
