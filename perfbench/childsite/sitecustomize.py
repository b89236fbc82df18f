"""Imported at start-up by the cli workload's children (it is on their PYTHONPATH).

A child's ru_maxrss also counts the parent's memory at fork, so each child
writes its own peak RSS (VmHWM, in KiB) at exit to the pipe named by
PERFBENCH_HWM_FD.
"""

import atexit
import os


def _report_peak_rss(fd: int) -> None:
    with open("/proc/self/status", encoding="ascii") as fh:
        kib = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    os.write(fd, kib.encode())


if "PERFBENCH_HWM_FD" in os.environ:
    atexit.register(_report_peak_rss, int(os.environ["PERFBENCH_HWM_FD"]))
