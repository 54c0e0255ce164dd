"""The one process-pool map behind verify_classify, the Legendre floor sum and the c2 product's block sums."""

from __future__ import annotations

import os


def pool_size(workers: int, items: int) -> int:
    """How many processes parallel_map runs: min(workers, cores, items), and at least one."""
    return max(1, min(workers, os.cpu_count() or 1, items))


def parallel_map(fn, items, workers: int) -> list:
    """[fn(item) for item in items] on min(workers, cores, len(items)) processes; in-process for one.

    fn must be a module-level function, since the pool pickles it by name.
    Results come back in the order of items, so the merged result depends only
    on how the caller cuts its chunks, never on scheduling or the pool size.
    """
    workers = pool_size(workers, len(items))
    if workers == 1:
        return [fn(item) for item in items]
    from concurrent.futures import ProcessPoolExecutor  # lazy: pulls in multiprocessing, ~20 ms of start-up

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
