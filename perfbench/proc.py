"""Run one command in a fresh process and measure its wall time and peak RSS.

Peak RSS comes from wait4 on that one child.  On Linux a child's ru_maxrss
starts at the RSS of the process that forked it, so the harness must stay
small: children write stdout and stderr to files, never to pipes the harness
buffers, and the harness imports nothing heavy.
"""

from __future__ import annotations

import os
import select
import signal
import subprocess
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Outcome:
    argv: tuple[str, ...]
    returncode: int
    wall_s: float
    peak_rss_kb: int
    timed_out: bool


def run(argv, *, stdout_path, stderr_path, env, cwd, timeout_s) -> Outcome:
    """Run argv to completion (or kill its whole session at timeout_s)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            list(argv), stdout=out, stderr=err, stdin=subprocess.DEVNULL,
            env=env, cwd=cwd, start_new_session=True,
        )
        pidfd = os.pidfd_open(proc.pid)
        try:
            poller = select.poll()
            poller.register(pidfd, select.POLLIN)
            timed_out = not poller.poll(max(0.0, timeout_s) * 1000)
            if timed_out:
                os.killpg(proc.pid, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            os.wait4(proc.pid, 0)
            raise
        finally:
            os.close(pidfd)
            # Pool workers share the session; none may outlive its command.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(tuple(argv), proc.returncode, wall, usage.ru_maxrss, timed_out)
