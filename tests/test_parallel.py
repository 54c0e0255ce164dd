import concurrent.futures
import os

import pytest

from twinsieve.parallel import parallel_map


def _square(x):
    return x * x


class FakePool:
    """Stands in for ProcessPoolExecutor and records its size; starts no process."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        FakePool.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.fixture
def fake_pool(monkeypatch):
    FakePool.sizes = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    return FakePool.sizes


@pytest.mark.parametrize(
    "cores, workers, n_items, size",
    [
        (2, 10**6, 5, 2),  # capped by the cores
        (8, 10**6, 3, 3),  # capped by the items
        (8, 4, 16, 4),
        (2, 10**6, 1, None),  # one item: in-process
        (1, 16, 16, None),  # one core: in-process
        (None, 16, 16, None),  # core count unknown: in-process
        (8, 1, 16, None),
    ],
)
def test_pool_size_is_capped(monkeypatch, fake_pool, cores, workers, n_items, size):
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    items = list(range(n_items))
    assert parallel_map(_square, items, workers) == [x * x for x in items]
    assert fake_pool == ([] if size is None else [size])
