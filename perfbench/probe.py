"""Run one twinsieve CLI command in-process, then report versions and this process's peak RSS.

    python3 perfbench/probe.py ARGV...

The last stderr line is JSON.  vmhwm_kb is VmHWM from /proc/self/status: the
high-water mark of this process's own address space, which, unlike
ru_maxrss, does not carry over what the forking parent held before exec.
"""

import json
import platform
import sys

import numpy

from twinsieve import __version__
from twinsieve.cli import main

rc = main(sys.argv[1:])
sys.stdout.flush()
with open("/proc/self/status") as fh:
    vmhwm_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
info = {"python": platform.python_version(), "numpy": numpy.__version__, "twinsieve": __version__, "vmhwm_kb": vmhwm_kb}
print(json.dumps(info), file=sys.stderr)
sys.exit(rc)
