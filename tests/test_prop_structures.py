"""Property-based tests for the auxiliary structures (Hilbert, NN,
D&C skyline, buffer pools)."""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.rtree import MemoryNodeStore, RTree, hilbert_index, k_nearest
from repro.skyline import canonical_skyline_naive, dnc_skyline
from repro.storage import BufferPool, ClockBufferPool, DiskManager, Page

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
coarse = st.integers(min_value=0, max_value=5).map(lambda v: v / 5)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=4),
       st.integers(min_value=1, max_value=4), st.data())
def test_hilbert_index_is_injective(dims, order, data):
    side = 1 << order
    coords = data.draw(st.lists(
        st.tuples(*([st.integers(0, side - 1)] * dims)),
        min_size=2, max_size=20, unique=True,
    ))
    indices = [hilbert_index(c, order) for c in coords]
    assert len(set(indices)) == len(coords)
    for index in indices:
        assert 0 <= index < side ** dims


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(unit, unit), min_size=1, max_size=40),
       st.tuples(unit, unit))
@example(points=[(0.0, 4.9e-225), (0.0, 0.0)], query=(0.0, 0.0))
def test_knn_equals_sorted_distances(points, query):
    tree = RTree(MemoryNodeStore(4), dims=2)
    for object_id, point in enumerate(points):
        tree.insert(object_id, point)
    got = [(oid, d) for oid, _, d in k_nearest(tree, query, len(points))]
    want = sorted(
        (
            (math.dist(point, query), oid)
            for oid, point in enumerate(points)
        ),
    )
    assert [oid for oid, _ in got] == [oid for _, oid in want]
    distances = [d for _, d in got]
    assert distances == sorted(distances)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(coarse, coarse, coarse), max_size=50))
def test_dnc_equals_naive_with_ties(points):
    items = list(enumerate(points))
    assert dnc_skyline(items) == canonical_skyline_naive(items)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=80),
    st.integers(min_value=1, max_value=4),
    st.booleans(),
)
def test_buffer_pools_always_serve_correct_bytes(accesses, capacity, clock):
    """Whatever the access pattern, a pool returns exactly what was last
    written for each page, and never exceeds its capacity."""
    disk = DiskManager(page_size=16)
    ids = []
    for i in range(8):
        page_id = disk.allocate()
        disk.write_page(Page(page_id, 16, bytes([i])))
        ids.append(page_id)
    pool = (
        ClockBufferPool(disk, capacity) if clock
        else BufferPool(disk, capacity)
    )
    latest = {page_id: bytes([i]) for i, page_id in enumerate(ids)}
    for step, slot in enumerate(accesses):
        page_id = ids[slot]
        if step % 3 == 2:
            payload = bytes([slot, step % 251])
            pool.put_page(Page(page_id, 16, payload))
            latest[page_id] = payload
        else:
            assert pool.get_page(page_id).data == latest[page_id]
        assert pool.num_resident <= capacity
    pool.flush()
    for page_id, payload in latest.items():
        assert disk.read_page(page_id).data == payload
