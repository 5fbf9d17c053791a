"""The flat sorted-array CFS timeline (repro/cfs/timeline.py).

Two layers:

* unit — the ordered-map surface and the maintained
  ``leftmost_value`` cache;
* property — a seeded op fuzzer drives a :class:`FlatTimeline` and a
  plain ``dict`` oracle, read in order through ``sorted()``, through
  identical insert/remove sequences and asserts identical observable
  state after every op.
"""

import random

import pytest

from repro.cfs.timeline import FlatTimeline

# ----------------------------------------------------------------------
# unit
# ----------------------------------------------------------------------


def test_insert_orders_and_tracks_leftmost():
    tl = FlatTimeline()
    assert not tl and len(tl) == 0
    assert tl.leftmost_value is None
    tl.insert((5, 1), "b")
    tl.insert((3, 1), "a")
    tl.insert((9, 1), "c")
    assert list(tl.items()) == [((3, 1), "a"), ((5, 1), "b"),
                                ((9, 1), "c")]
    assert tl.leftmost_value == "a"
    assert tl.second_value() == "b"
    assert (5, 1) in tl and (4, 1) not in tl
    tl.check_invariants()


def test_duplicate_insert_raises():
    tl = FlatTimeline()
    tl.insert((1, 1), "a")
    with pytest.raises(KeyError):
        tl.insert((1, 1), "again")


def test_remove_returns_value_and_refreshes_leftmost():
    tl = FlatTimeline()
    for k, v in (((1, 0), "a"), ((2, 0), "b"), ((3, 0), "c")):
        tl.insert(k, v)
    assert tl.remove((1, 0)) == "a"
    assert tl.leftmost_value == "b"
    assert tl.remove((3, 0)) == "c"
    assert tl.leftmost_value == "b"
    assert tl.remove((2, 0)) == "b"
    assert tl.leftmost_value is None
    assert tl.second_value() is None
    tl.check_invariants()


def test_remove_absent_raises():
    tl = FlatTimeline()
    tl.insert((1, 0), "a")
    with pytest.raises(KeyError):
        tl.remove((2, 0))


def test_insert_below_leftmost_replaces_cache():
    tl = FlatTimeline()
    tl.insert((10, 0), "old")
    tl.insert((2, 0), "new")
    assert tl.leftmost_value == "new"
    assert tl.second_value() == "old"
    tl.check_invariants()


# ----------------------------------------------------------------------
# property: agreement with a dict oracle
# ----------------------------------------------------------------------


def _observe(tl):
    return (len(tl), list(tl.items()), list(tl.values()),
            tl.leftmost_value, tl.second_value())


def _observe_oracle(oracle):
    items = sorted(oracle.items())
    values = [value for _, value in items]
    return (len(oracle), items, values,
            values[0] if values else None,
            values[1] if len(values) > 1 else None)


@pytest.mark.parametrize("seed", range(8))
def test_flat_matches_dict_oracle_under_fuzzed_ops(seed):
    rng = random.Random(f"flat-timeline:{seed}")
    flat, oracle = FlatTimeline(), {}
    for step in range(300):
        if oracle and rng.random() < 0.4:
            key = rng.choice(sorted(oracle))
            assert flat.remove(key) == oracle.pop(key)
            with pytest.raises(KeyError):
                flat.remove(key)
        else:
            key = (rng.randrange(50), rng.randrange(50))
            if key in oracle:
                with pytest.raises(KeyError):
                    flat.insert(key, str(key))
            else:
                flat.insert(key, str(key))
                oracle[key] = str(key)
        assert _observe(flat) == _observe_oracle(oracle), (seed, step)
        flat.check_invariants()
