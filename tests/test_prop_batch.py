"""Property tests of SB's batched passes against their one-at-a-time forms.

``FunctionIndex.reverse_top1_batch`` must return, bit for bit, what the
threshold algorithm (tight and naive) and a brute-force oracle return for
every point, under removals, exact score ties, signed zeros, subnormal
coordinates, ``dims=1``, a single function and an empty index.
``SkylineState.first_dominators`` must equal a loop of per-probe
``first_dominator`` calls (and a pure-Python oracle) with tombstoned
rows, duplicate points, compaction and growth, and row blocks smaller
than the batch.
"""

from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.prefs.functions as functions_module
import repro.skyline.state as state_module
from repro.errors import DimensionalityError
from repro.prefs import FunctionIndex, LinearPreference, canonical_score
from repro.skyline import SkylineState
from repro.storage import SearchStats

EDGE_VALUES = (0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-300,
               0.25, 0.5, 1.0)
unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
coordinate = st.one_of(st.sampled_from(EDGE_VALUES), unit)
# Small integer raw weights repeat weight vectors: exact score ties.
raw_weight = st.one_of(
    st.integers(min_value=1, max_value=3).map(float),
    st.floats(min_value=1e-6, max_value=1.0),
)


@st.composite
def index_cases(draw):
    dims = draw(st.integers(min_value=1, max_value=4))
    fids = draw(st.lists(st.integers(min_value=0, max_value=60),
                         unique=True, max_size=10))
    functions = [
        LinearPreference.normalized(
            fid, draw(st.tuples(*([raw_weight] * dims)))
        )
        for fid in fids
    ]
    points = draw(st.lists(st.tuples(*([coordinate] * dims)), max_size=8))
    removals = draw(st.lists(st.integers(min_value=0, max_value=100),
                             max_size=10))
    return functions, points, removals


def oracle(alive, point):
    if not alive:
        return None
    score, neg_fid = max(
        (canonical_score(f.weights, point), -f.fid) for f in alive
    )
    return -neg_fid, score


def bits(hits):
    """Hits with scores as hex strings: equality is then bitwise."""
    return [None if hit is None else (hit[0], float(hit[1]).hex())
            for hit in hits]


def tie_case(dims, fids):
    return ([LinearPreference(fid, (1.0 / dims,) * dims) for fid in fids],
            [(0.5,) * dims, (-0.0,) * dims], [])


@settings(max_examples=150, deadline=None)
@given(index_cases())
@example(case=([], [(0.5, 0.5)], []))                       # empty index
@example(case=([LinearPreference(7, (1.0,))],
               [(0.3,), (-0.0,), (5e-324,)], [0]))          # dims=1, single
@example(case=tie_case(2, [9, 2, 5]))                       # exact ties
@example(case=([LinearPreference(3, (0.5, 0.5)),
                LinearPreference(1, (0.25, 0.75))],
               [(5e-324, 2.2250738585072014e-308), (0.0, -0.0)],
               [1]))                                        # subnormals, ±0
def test_reverse_top1_batch_equals_ta_and_oracle(case):
    functions, points, removals = case
    batch = FunctionIndex(functions, threshold="none")
    tight = FunctionIndex(functions, threshold="tight")
    naive = FunctionIndex(functions, threshold="naive")
    alive = {f.fid: f for f in functions}

    def check():
        expected = bits([oracle(list(alive.values()), p) for p in points])
        assert bits(batch.reverse_top1_batch(points)) == expected
        assert bits(tight.reverse_top1_batch(points)) == expected
        assert bits([batch.reverse_top1(p) for p in points]) == expected
        assert bits([tight.reverse_top1(p) for p in points]) == expected
        assert bits([naive.reverse_top1(p) for p in points]) == expected

    check()
    for raw in removals:
        if not alive:
            break
        victim = sorted(alive)[raw % len(alive)]
        for index in (batch, tight, naive):
            index.remove(victim)
        del alive[victim]
        check()


@settings(max_examples=40, deadline=None)
@given(index_cases())
def test_reverse_top1_batch_blocks_agree(case):
    functions, points, _removals = case
    index = FunctionIndex(functions, threshold="none")
    whole = bits(index.reverse_top1_batch(points))
    with mock.patch.object(functions_module, "BLOCK_BYTES", 8):
        assert bits(index.reverse_top1_batch(points)) == whole


def test_reverse_top1_batch_counts_every_score():
    functions = [LinearPreference.normalized(fid, (fid + 1.0, 2.0))
                 for fid in range(5)]
    index = FunctionIndex(functions, threshold="none")
    index.remove(3)
    stats = SearchStats()
    index.reverse_top1_batch([(0.1, 0.2), (0.3, 0.4), (0.5, 0.6)], stats)
    assert stats.score_evaluations == 4 * 3


def test_reverse_top1_batch_rejects_wrong_dims():
    index = FunctionIndex([LinearPreference(0, (0.5, 0.5))])
    with pytest.raises(DimensionalityError):
        index.reverse_top1_batch([(0.1, 0.2, 0.3)])
    assert index.reverse_top1_batch([]) == []


# ---------------------------------------------------------------------------
# Batched dominance probes
# ---------------------------------------------------------------------------

coarse = st.integers(min_value=0, max_value=4).map(lambda v: v / 4)
dominance_value = st.one_of(coarse, st.sampled_from((-0.0, 5e-324)))


def oracle_first_dominator(members, probe):
    for object_id, point in members:
        if all(a >= b for a, b in zip(point, probe)):
            return object_id
    return -1


@settings(max_examples=120, deadline=None)
@given(
    first=st.lists(st.tuples(dominance_value, dominance_value),
                   max_size=80),
    removals=st.lists(st.integers(min_value=0, max_value=200),
                      max_size=60),
    second=st.lists(st.tuples(dominance_value, dominance_value),
                    max_size=80),
    probes=st.lists(st.tuples(dominance_value, dominance_value),
                    max_size=20),
    block_bytes=st.sampled_from((1, 7, 1 << 20)),
)
@example(first=[(0.5, 0.5)] * 3, removals=[0], second=[(0.5, 0.5)],
         probes=[(0.5, 0.5), (-0.0, 0.0), (0.75, 0.0)],
         block_bytes=1)                                     # duplicates
def test_first_dominators_equals_probe_loop(first, removals, second,
                                            probes, block_bytes):
    state = SkylineState(2)
    members = []
    for object_id, point in enumerate(first):
        state.add(object_id, point)
        members.append((object_id, point))
    for raw in removals:  # tombstones (and, past 64 rows, compaction)
        if not members:
            break
        object_id, _point = members.pop(raw % len(members))
        state.remove(object_id)
    for object_id, point in enumerate(second, start=len(first)):
        state.add(object_id, point)
        members.append((object_id, point))
    # Probe the members themselves too: duplicate points, equal corners.
    probes = probes + [point for _object_id, point in members[:5]]
    expected = [oracle_first_dominator(members, probe) for probe in probes]
    loop = [state.first_dominator(probe) for probe in probes]
    assert [-1 if owner is None else owner for owner in loop] == expected
    with mock.patch.object(state_module, "BLOCK_BYTES", block_bytes):
        assert state.first_dominators(probes).tolist() == expected


def test_first_dominators_empty_and_all_tombstoned():
    state = SkylineState(3)
    assert state.first_dominators([(0.1, 0.1, 0.1)]).tolist() == [-1]
    state.add(4, (0.9, 0.9, 0.9))
    assert state.first_dominators([]).tolist() == []
    state.remove(4)
    assert state.first_dominators([(0.1, 0.1, 0.1)]).tolist() == [-1]
    state.add(5, (0.9, 0.9, 0.9))
    with pytest.raises(DimensionalityError):
        state.first_dominators([(0.1, 0.1)])
