import contextlib
import json
import os
import signal
import subprocess
import sys

import pytest

from twinsieve.errors import DomainError
from twinsieve.parallel import parallel_map

from conftest import CHILD_ENV


def _square_and_pid(x):
    return x * x, os.getpid()


def _refuse(item):
    x, refused = item
    if x == refused:
        raise DomainError(f"refused {x}")
    return x


def _die(x):
    if x == 1:
        os._exit(3)  # as a worker killed mid-chunk: no result, no exception
    return x


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in the block after seconds, so that a map which hangs fails the test instead."""

    def expire(signum, frame):
        raise TimeoutError(f"no answer in {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


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
def test_pool_size_is_capped(monkeypatch, cores, workers, n_items, size):
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    items = list(range(n_items))
    with deadline(30):
        out = parallel_map(_square_and_pid, items, workers)
    assert [sq for sq, _ in out] == [x * x for x in items]
    pids = [pid for _, pid in out]
    if size is None:
        assert set(pids) == {os.getpid()}
    else:
        assert len(set(pids)) == size and os.getpid() not in pids
        assert pids == [pids[i % size] for i in range(n_items)]  # worker i maps items[i::size]
    assert_no_child_left()


@pytest.mark.parametrize("refused", [2, 3])  # in worker 0, whose error leaves worker 1 to be stopped, or in worker 1
def test_a_workers_exception_reaches_the_caller(monkeypatch, refused):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    with deadline(30), pytest.raises(DomainError, match=f"^refused {refused}$"):
        parallel_map(_refuse, [(x, refused) for x in range(6)], 2)
    assert_no_child_left()


def test_a_worker_that_dies_without_a_result_raises(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    with deadline(30), pytest.raises(RuntimeError, match="pool worker 1 ended without a result"):
        parallel_map(_die, list(range(6)), 2)
    assert_no_child_left()


def test_verify_on_two_workers_loads_no_executor():
    probe = (
        "import os, sys\n"
        "os.cpu_count = lambda: 2  # so that the pool forks on a one-core host too\n"
        "from twinsieve.cli import main\n"
        "assert main(['verify', '--limit', '3000', '--workers', '2']) == 0\n"
        "print(*sorted({m.split('.')[0] for m in sys.modules} & {'concurrent', 'multiprocessing'}), file=sys.stderr)\n"
    )
    child = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=CHILD_ENV,
                           check=True, timeout=60)
    assert json.loads(child.stdout)["results"]["mismatch_count"] == "0"
    assert child.stderr.splitlines()[-1] == ""
