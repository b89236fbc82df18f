"""Shared oracle helpers for the test suite.

These deliberately avoid the fast code paths they are used to check:
the simultaneous-core oracle filters every partition up to the extremal
size through the hook-length criterion for both moduli.  Beside them sit
the two guards of every bounded-time or bounded-memory test: ``within``
and ``peak_memory``.
"""

from __future__ import annotations

import math
import signal
import tracemalloc
from contextlib import contextmanager
from types import SimpleNamespace

from stcores import is_s_core_by_hooks, partitions_up_to, size
from stcores.abacus import core_from_s_set, make_sset
from stcores.alcoves import SPoint, rhomboid_points
from stcores.errors import _read_ints
from stcores.partitions import Partition


@contextmanager
def within(seconds: int, what: str):
    """Run the block under a SIGALRM of the given seconds, which raises
    TimeoutError naming what; the alarm is cleared and the previous handler
    restored however the block ends.  A process has one alarm, so blocks
    under within do not nest."""

    def on_alarm(signum, frame):
        raise TimeoutError(f"{what} did not return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@contextmanager
def peak_memory():
    """Run the block under tracemalloc; the namespace it yields holds, once the
    block has returned, the traced peak in bytes, read before tracing stops."""
    peak = SimpleNamespace(bytes=None)
    tracemalloc.start()
    try:
        yield peak
        peak.bytes = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def sset_from_text(text: str, s: int):
    """An s-set printed as by sset_to_text (the qset output), read back."""
    return make_sset(s, _read_ints(text, "s-set text", "[]"))


def point_of_sset(q) -> SPoint:
    """The s-point whose coordinates are the elements of q, in order."""
    return SPoint(q.sorted_elements())


def brute_st_cores(s: int, t: int) -> list[Partition]:
    """All (s,t)-cores by filtering every partition up to the extremal size."""
    bound = (s * s - 1) * (t * t - 1) // 24
    found = [
        p
        for p in partitions_up_to(bound)
        if is_s_core_by_hooks(p, s) and is_s_core_by_hooks(p, t)
    ]
    found.sort(key=lambda p: (size(p), p.parts))
    return found


def st_cores_by_difference_scan(s: int, t: int) -> list[Partition]:
    """(s,t)-cores via the gap-vector scan of the rhomboid (second oracle)."""
    assert math.gcd(s, t) == 1
    from stcores import is_s_core

    cores = []
    for p in rhomboid_points(s, t):
        lam = core_from_s_set(make_sset(s, p.coords))
        if is_s_core(lam, t):
            cores.append(lam)
    cores.sort(key=lambda p: (size(p), p.parts))
    return cores
