"""S5 bucket pairing: the vectorized ``_pairs_of_runs`` against the
per-run loop it replaced, and ``_emit_pairs_fn``'s independence of row
order (which lets it group keys with an unstable sort)."""

import numpy as np
import pyarrow as pa
import pytest

from ray_data_mplsh.stages.pairs import _emit_pairs_fn, _pairs_of_runs


def _pairs_of_runs_loop(ids, starts, cap):
    """The reference: sort each run, all pairs by ``triu_indices`` up to
    ``cap``, else the star at the run's min id; self-pairs dropped."""
    out_a, out_b = [], []
    for lo, hi in zip(starts[:-1], starts[1:]):
        run = np.sort(ids[lo:hi])
        g = len(run)
        if g < 2:
            continue
        if g <= cap:
            i, j = np.triu_indices(g, k=1)
            out_a.append(run[i])
            out_b.append(run[j])
        else:
            out_a.append(np.full(g - 1, run[0], dtype=np.uint64))
            out_b.append(run[1:])
    if not out_a:
        e = np.empty(0, np.uint64)
        return e, e
    a, b = np.concatenate(out_a), np.concatenate(out_b)
    keep = a != b
    return a[keep], b[keep]


def _sorted_pairs(a, b):
    o = np.lexsort((b, a))
    return a[o], b[o]


def _check(ids, starts, cap):
    got = _pairs_of_runs(ids, starts, cap)
    want = _pairs_of_runs_loop(ids, starts, cap)
    assert got[0].dtype == np.uint64 and got[1].dtype == np.uint64
    assert np.all(got[0] < got[1])
    ga, gb = _sorted_pairs(*got)
    wa, wb = _sorted_pairs(*want)
    np.testing.assert_array_equal(ga, wa)      # same multiset of pairs
    np.testing.assert_array_equal(gb, wb)


def _runs(rng, sizes, id_range):
    starts = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
    ids = rng.integers(0, id_range, int(starts[-1])).astype(np.uint64)
    return ids, starts


@pytest.mark.parametrize("cap", [0, 1, 2, 3, 5, 16])
def test_pairs_of_runs_matches_loop_fuzz(cap):
    """Random runs of size 1, 2, 3..cap, exactly cap+1 and far above cap,
    distinct ids or heavy duplicates; every fourth trial stars every run
    (cap 0, the cross-shard pairing of salted S5)."""
    rng = np.random.default_rng(cap)
    for trial in range(300):
        sizes = rng.choice([1, 2, max(3, cap), cap + 1, 4 * cap + 7],
                           size=int(rng.integers(1, 12)))
        sizes = np.maximum(sizes, 1)
        id_range = int(rng.choice([4, 50, 1 << 40]))
        ids, starts = _runs(rng, sizes, id_range)
        _check(ids, starts, 0 if trial % 4 == 0 else cap)


def test_pairs_of_runs_edges():
    e = np.empty(0, np.uint64)
    # an empty input (group_runs' starts for zero rows)
    a, b = _pairs_of_runs(e, np.zeros(1, np.int64), 4)
    assert len(a) == len(b) == 0
    a, b = _pairs_of_runs(e, np.zeros(1, np.int64), 0)
    assert len(a) == len(b) == 0
    # singletons only
    ids = np.array([5, 3, 9], np.uint64)
    a, b = _pairs_of_runs(ids, np.arange(4, dtype=np.int64), 4)
    assert len(a) == 0
    # one run of duplicate ids: only self-pairs, all dropped
    ids = np.array([7, 7, 7, 7], np.uint64)
    for cap in (8, 2, 0):
        _check(ids, np.array([0, 4], np.int64), cap)
        assert len(_pairs_of_runs(ids, np.array([0, 4]), cap)[0]) == 0
    # an unsorted clique run and an unsorted star run
    ids = np.array([9, 2, 5, 2, 8, 1, 6, 3, 1], np.uint64)
    starts = np.array([0, 4, 9], np.int64)
    _check(ids, starts, cap=4)
    a, b = _pairs_of_runs(ids, starts, cap=4)
    assert set(zip(a.tolist(), b.tolist())) == {
        (2, 9), (5, 9), (2, 5), (1, 8), (1, 6), (1, 3)}
    _check(ids, starts, cap=0)


@pytest.mark.parametrize("cap", [0, 3, 256])
def test_emit_pairs_fn_row_order_free(cap):
    """The emitter's output is identical for any order of its input rows:
    the unstable key sort cannot change the pairs."""
    rng = np.random.default_rng(7 + cap)
    n = 4000
    keys = rng.integers(0, 700, n).astype(np.uint64)   # runs up to ~15
    keys[:40] = 12345                                   # one hot bucket
    ids = rng.integers(0, 900, n).astype(np.uint64)
    fn = _emit_pairs_fn("band_hash", cap)

    def table(o):
        return pa.table({"doc_id": pa.array(ids[o], pa.uint64()),
                         "band_hash": pa.array(keys[o], pa.uint64())})

    want = fn(table(np.arange(n)))
    assert want.num_rows > 0
    for _ in range(5):
        assert fn(table(rng.permutation(n))).equals(want)
