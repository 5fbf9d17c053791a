"""The shard store's crash-tolerance contract: atomic lease claims,
work stealing after expiry, poison quarantine, jittered retry
backoff, verified results, and corrupt-database recovery."""

import sqlite3

import pytest

from repro.experiments.store import (DEFAULT_MAX_CRASHES, ShardStore,
                                     backoff_jitter, result_sha)


class FakeClock:
    """Injectable monotonic clock so lease expiry needs no sleeping."""

    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def store(tmp_path, clock):
    with ShardStore(tmp_path / "store", fingerprint="fp",
                    _now=clock) as s:
        yield s


def keyed(n):
    return [(f"k{i}", {"i": i}) for i in range(n)]


# ------------------------------------------------------------ enqueue


def test_add_cells_inserts_and_ignores_existing(store):
    assert store.add_cells(keyed(3)) == 3
    assert store.add_cells(keyed(5)) == 2  # k0-k2 already present
    assert store.counts() == {"pending": 5}


def test_add_cells_preserves_terminal_rows(store):
    store.add_cells(keyed(2))
    key, _ = store.claim("w", 10)
    store.complete(key, {"v": 1})
    # re-enqueueing the same sweep (a resume) keeps the done row
    store.add_cells(keyed(2))
    assert store.counts() == {"done": 1, "pending": 1}
    assert store.get_result(key) == (True, {"v": 1})


def test_prune_except_scopes_store_to_one_sweep(store):
    store.add_cells(keyed(4))
    assert store.prune_except(["k1", "k3"]) == 2
    assert store.counts() == {"pending": 2}
    assert store.prune_except(["k1", "k3"]) == 0


def test_prune_except_keeps_done_rows(store):
    # another sweep's finished cells are the cache: never pruned
    store.add_cells(keyed(3))
    key, _ = store.claim("w", 10)
    store.complete(key, {"v": 1})
    assert store.prune_except([]) == 2
    assert store.counts() == {"done": 1}
    assert store.get_result(key) == (True, {"v": 1})


def test_add_cells_retries_failed_rows_and_resets_on_request(store):
    store.add_cells(keyed(2))
    first, _ = store.claim("w", 10)
    store.fail_attempt(first, "boom", retries=0, backoff_s=0)
    second, _ = store.claim("w", 10)
    store.complete(second, {"v": 2})
    # the next sweep retries the failure with a fresh budget and keeps
    # the result
    store.add_cells(keyed(2))
    assert store.counts() == {"done": 1, "pending": 1}
    assert store.failures() == {}
    # a recompute (serving off) puts the done row back in the queue
    store.add_cells(keyed(2), reset=True)
    assert store.counts() == {"pending": 2}


def test_reenqueued_rows_lease_in_the_given_order(store):
    # claims lease in rowid order, so a re-enqueued row must take its
    # place in the new order (the campaign's costliest-first) rather
    # than keep the one its first sweep gave it
    store.add_cells(keyed(3))
    for _ in range(3):
        key, _ = store.claim("w", 10)
        store.complete(key, {"v": key})
    store.add_cells(reversed(keyed(3)), reset=True)
    assert [store.claim("w", 10)[0] for _ in range(3)] == \
        ["k2", "k1", "k0"]


# ------------------------------------------------------------ leasing


def test_claim_leases_each_cell_once(store):
    store.add_cells(keyed(2))
    got = {store.claim("w1", 10)[0], store.claim("w2", 10)[0]}
    assert got == {"k0", "k1"}
    assert store.claim("w3", 10) is None  # everything leased


def test_expired_lease_is_stolen_and_counted(store, clock):
    store.add_cells(keyed(1))
    assert store.claim("w1", lease_s=5) is not None
    assert store.claim("w2", lease_s=5) is None
    clock.t = 6.0  # w1's lease lapsed (worker died)
    assert store.claim("w2", lease_s=5) == ("k0", {"i": 0})
    # the steal is recorded as a crash against the cell
    row = store._conn.execute(
        "SELECT crashes, owner FROM cells WHERE key='k0'").fetchone()
    assert row == (1, "w2")


def test_renew_extends_only_own_live_lease(store, clock):
    store.add_cells(keyed(1))
    store.claim("w1", lease_s=5)
    assert store.renew("w1", "k0", lease_s=5)
    clock.t = 20.0
    store.claim("w2", lease_s=5)  # stolen
    assert not store.renew("w1", "k0", lease_s=5)
    assert store.renew("w2", "k0", lease_s=5)


def test_second_expiry_quarantines_poison_cell(store, clock):
    store.add_cells(keyed(1))
    store.claim("w1", lease_s=5)
    clock.t = 6.0
    store.claim("w2", lease_s=5)
    clock.t = 12.0
    assert store.claim("w3", lease_s=5) is None  # quarantined, not dealt
    assert store.counts() == {"failed": 1}
    reason, attempts, crashes = store.failures()["k0"]
    assert reason.startswith("poison")
    assert crashes == DEFAULT_MAX_CRASHES


def test_reap_quarantines_without_a_claimant(store, clock):
    store.add_cells(keyed(1))
    store.claim("w1", lease_s=5)
    clock.t = 6.0
    store.claim("w2", lease_s=5)  # crash 1
    clock.t = 12.0
    assert store.reap() == 1  # crash 2 -> poison, no worker needed
    assert store.counts() == {"failed": 1}


def test_heartbeat_prevents_stealing(store, clock):
    store.add_cells(keyed(1))
    store.claim("w1", lease_s=5)
    clock.t = 4.0
    store.renew("w1", "k0", lease_s=5)
    clock.t = 8.0  # past the original lease, inside the renewed one
    assert store.claim("w2", lease_s=5) is None


# ------------------------------------------------------------ retries


def test_fail_attempt_backs_off_then_exhausts(store, clock):
    store.add_cells(keyed(1))
    store.claim("w", 10)
    assert store.fail_attempt("k0", "boom", retries=1, backoff_s=1.0)
    # backoff window: not claimable yet (jitter keeps it >= 1s)
    assert store.claim("w", 10) is None
    clock.t = 2.5  # jitter is < 2x, so 2.5s is past any window
    assert store.claim("w", 10) == ("k0", {"i": 0})
    assert not store.fail_attempt("k0", "boom2", retries=1,
                                  backoff_s=1.0)
    reason, attempts, _ = store.failures()["k0"]
    assert reason == "error: boom2"
    assert attempts == 2


def test_backoff_jitter_is_deterministic_and_bounded():
    draws = {backoff_jitter(f"key{i}", 1) for i in range(50)}
    assert all(1.0 <= j < 2.0 for j in draws)
    assert len(draws) > 10  # actually spreads retries out
    assert backoff_jitter("key0", 1) == backoff_jitter("key0", 1)
    assert backoff_jitter("key0", 1) != backoff_jitter("key0", 2)


# ------------------------------------------------------------ integrity


def test_results_and_get_result_verify_digests(store):
    store.add_cells(keyed(2))
    for _ in range(2):
        key, _ = store.claim("w", 10)
        store.complete(key, {"v": key})
    assert store.results() == {"k0": {"v": "k0"}, "k1": {"v": "k1"}}

    # flip a bit in one stored result; its sha no longer matches
    store._conn.execute(
        "UPDATE cells SET result = '{\"v\": \"EVIL\"}' "
        "WHERE key = 'k0'")
    with pytest.warns(RuntimeWarning, match="corrupt result"):
        found, value = store.get_result("k0")
    assert (found, value) == (False, None)
    # discarded back to pending: recomputed, never served
    assert store.counts() == {"done": 1, "pending": 1}
    assert not store.all_terminal()


def test_results_discards_unparsable_rows(store):
    store.add_cells(keyed(1))
    key, _ = store.claim("w", 10)
    store.complete(key, [1, 2, 3])
    store._conn.execute(
        "UPDATE cells SET result = '[1, 2' WHERE key = 'k0'")
    with pytest.warns(RuntimeWarning, match="corrupt result"):
        assert store.results() == {}
    assert store.counts() == {"pending": 1}


def test_result_sha_is_canonical():
    assert result_sha({"a": 1, "b": 2}) == result_sha({"b": 2, "a": 1})
    assert result_sha({"a": 1}) != result_sha({"a": 2})


# ------------------------------------------------------------ corruption


def test_truncated_database_is_moved_aside_and_rebuilt(tmp_path):
    target = tmp_path / "store"
    with ShardStore(target, fingerprint="fp") as s:
        s.add_cells(keyed(3))
    # truncate the db mid-file: sqlite can no longer open it
    db = target / "cells.sqlite3"
    db.write_bytes(db.read_bytes()[:100])
    with pytest.warns(RuntimeWarning, match="corrupt"):
        s2 = ShardStore(target, fingerprint="fp")
    try:
        # rebuilt empty; the executor re-enqueues and recomputes
        assert s2.counts() == {}
        assert s2.add_cells(keyed(3)) == 3
        assert (target / "cells.sqlite3.corrupt").exists()
    finally:
        s2.close()


def test_garbage_database_is_recovered(tmp_path):
    target = tmp_path / "store"
    target.mkdir()
    (target / "cells.sqlite3").write_bytes(b"not a database at all")
    with pytest.warns(RuntimeWarning, match="corrupt"):
        s = ShardStore(target, fingerprint="fp")
    try:
        s.add_cells(keyed(1))
        assert s.claim("w", 10) == ("k0", {"i": 0})
    finally:
        s.close()


def test_concurrent_connections_share_one_queue(tmp_path, clock):
    a = ShardStore(tmp_path / "s", fingerprint="fp", _now=clock)
    b = ShardStore(tmp_path / "s", fingerprint="fp", _now=clock)
    try:
        a.add_cells(keyed(2))
        ka, _ = a.claim("wa", 10)
        kb, _ = b.claim("wb", 10)
        assert {ka, kb} == {"k0", "k1"}
        assert b.claim("wb", 10) is None
        a.complete(ka, {"by": "a"})
        assert b.get_result(ka) == (True, {"by": "a"})
    finally:
        a.close()
        b.close()
