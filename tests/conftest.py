"""Shared fixtures and invariant checkers for the test suite."""

from __future__ import annotations

import pytest

from repro.data import generate_independent
from repro.geometry import MBR
from repro.rtree import DiskNodeStore, RTree


def check_rtree_invariants(tree: RTree) -> None:
    """Structural invariants every R-tree must satisfy at all times.

    * levels decrease by exactly one from parent to child, leaves at 0;
    * the root is at level ``height - 1``;
    * every branch entry's MBR is exactly the union of its child's
      entries (the implementation maintains tight boxes);
    * no node exceeds its capacity; non-root nodes are non-empty;
    * object ids at the leaves are unique and count to ``num_objects``.
    """
    root = tree.read_root()
    assert root.level == tree.height - 1
    seen_objects = []

    def visit(node):
        assert len(node.entries) <= tree.capacity(node.level)
        if node.node_id != tree.root_id:
            assert node.entries, "non-root node must be non-empty"
        if node.is_leaf:
            for entry in node.entries:
                assert entry.mbr.is_point
                seen_objects.append(entry.child)
            return
        for entry in node.entries:
            child = tree.read_node(entry.child)
            assert child.level == node.level - 1
            assert entry.mbr == MBR.union_all(e.mbr for e in child.entries)
            visit(child)

    visit(root)
    assert len(seen_objects) == tree.num_objects
    assert len(set(seen_objects)) == len(seen_objects)


@pytest.fixture
def small_disk_tree():
    """A 300-object, 3-dimensional bulk-loaded disk tree (plus dataset)."""
    dataset = generate_independent(300, 3, seed=11)
    store = DiskNodeStore(3)
    tree = RTree.bulk_load(store, 3, dataset.items())
    return tree, dataset


@pytest.fixture
def count_stagings(monkeypatch):
    """Count an engine's object-set stagings by wrapping ``plan.prepare``.

    ``install(engine)`` returns a list that grows by one per
    ``engine.plan.prepare`` call — ``match()`` stages through it.
    """
    def install(engine):
        calls = []
        prepare = engine.plan.prepare

        def counting_prepare(objects):
            calls.append(objects)
            return prepare(objects)

        monkeypatch.setattr(engine.plan, "prepare", counting_prepare)
        return calls

    return install
