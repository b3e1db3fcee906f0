"""Dataset container tests."""

import numpy as np
import pytest

from repro.data import Dataset
from repro.errors import DatasetError


def test_basic_construction():
    ds = Dataset([[0.1, 0.2], [0.3, 0.4]], name="tiny")
    assert len(ds) == 2
    assert ds.dims == 2
    assert ds.ids == [0, 1]
    assert ds.vector(1) == (0.3, 0.4)
    assert list(ds) == [(0, (0.1, 0.2)), (1, (0.3, 0.4))]


def test_explicit_ids():
    ds = Dataset([[0.5, 0.5]], ids=[42])
    assert ds.ids == [42]
    assert 42 in ds and 0 not in ds
    assert ds.vector(42) == (0.5, 0.5)
    with pytest.raises(DatasetError):
        ds.vector(0)


def test_validation_errors():
    with pytest.raises(DatasetError):
        Dataset([0.1, 0.2])  # not 2-D
    with pytest.raises(DatasetError):
        Dataset([[0.1, float("nan")]])
    with pytest.raises(DatasetError):
        Dataset([[1.5, 0.0]])  # out of range
    with pytest.raises(DatasetError):
        Dataset([[-0.1, 0.0]])
    with pytest.raises(DatasetError):
        Dataset([[0.1, 0.2]], ids=[1, 2])  # length mismatch
    with pytest.raises(DatasetError):
        Dataset([[0.1, 0.2], [0.3, 0.4]], ids=[1, 1])  # duplicate ids
    with pytest.raises(DatasetError):
        Dataset([[0.1, 0.2]], ids=[-1])


def test_matrix_is_read_only():
    ds = Dataset([[0.1, 0.2]])
    with pytest.raises(ValueError):
        ds.matrix[0, 0] = 0.9


def test_from_raw_minmax_normalization():
    raw = [[10.0, 100.0], [20.0, 300.0], [15.0, 200.0]]
    ds = Dataset.from_raw(raw)
    assert ds.vector(0) == (0.0, 0.0)
    assert ds.vector(1) == (1.0, 1.0)
    assert ds.vector(2) == (0.5, 0.5)


def test_from_raw_flips_smaller_is_better():
    raw = [[100.0], [300.0]]
    ds = Dataset.from_raw(raw, larger_is_better=[False])  # e.g. price
    assert ds.vector(0) == (1.0,)  # cheapest scores best
    assert ds.vector(1) == (0.0,)


def test_from_raw_constant_column_maps_to_half():
    ds = Dataset.from_raw([[5.0, 1.0], [5.0, 2.0]])
    assert ds.vector(0)[0] == 0.5
    assert ds.vector(1)[0] == 0.5


def test_from_raw_orientation_length_mismatch():
    with pytest.raises(DatasetError):
        Dataset.from_raw([[1.0, 2.0]], larger_is_better=[True])


def test_subset_preserves_ids_and_order():
    ds = Dataset(np.random.default_rng(0).random((10, 2)))
    sub = ds.subset([7, 3, 5])
    assert sub.ids == [7, 3, 5]
    assert sub.vector(3) == ds.vector(3)
    assert sub.subset([5]).ids == [5]


def test_unknown_ids_raise_dataset_error():
    default = Dataset([[0.1, 0.2], [0.3, 0.4]])
    explicit = Dataset([[0.1, 0.2], [0.3, 0.4]], ids=[8, 3])
    for ds, missing in ((default, 2), (default, -1), (explicit, 0)):
        assert missing not in ds
        with pytest.raises(DatasetError):
            ds.vector(missing)
        with pytest.raises(DatasetError):
            ds.subset([missing])
    with pytest.raises(DatasetError):
        Dataset([[0.1, 0.2]], ids=[2 ** 70])


def test_default_ids_look_up_by_row():
    ds = Dataset([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])
    assert 2 in ds and np.int64(1) in ds and 1.0 in ds
    assert 1.5 not in ds and "1" not in ds and None not in ds
    assert 3 not in ds
    assert ds.vector(np.int64(2)) == (0.5, 0.6)
    assert ds.sample(2, seed=0).ids == sorted(ds.sample(2, seed=0).ids)


def test_sample_without_replacement_deterministic():
    ds = Dataset(np.random.default_rng(1).random((100, 3)))
    a = ds.sample(20, seed=5)
    b = ds.sample(20, seed=5)
    assert a.ids == b.ids
    assert len(set(a.ids)) == 20
    c = ds.sample(20, seed=6)
    assert a.ids != c.ids
    with pytest.raises(DatasetError):
        ds.sample(101)


def test_empty_dataset():
    ds = Dataset(np.empty((0, 3)))
    assert len(ds) == 0
    assert ds.dims == 3
    assert list(ds) == []
