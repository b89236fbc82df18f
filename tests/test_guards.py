"""The guards of the bounded-time and bounded-memory tests, checked themselves:
a ``within`` that never armed its alarm would silently lift every time limit
that uses it."""

import signal
import time
import tracemalloc

import pytest

from conftest import peak_memory, within


def test_within_raises_on_time_and_restores_the_previous_handler():
    def previous(signum, frame):
        raise AssertionError("the previous handler ran")

    saved = signal.signal(signal.SIGALRM, previous)
    try:
        start = time.monotonic()
        with pytest.raises(TimeoutError, match="^a 3 s sleep did not return within 1 s$"):
            with within(1, "a 3 s sleep"):
                time.sleep(3)
        assert time.monotonic() - start < 2
        assert signal.getsignal(signal.SIGALRM) is previous
        with within(1, "an empty block"):
            pass
        assert signal.getsignal(signal.SIGALRM) is previous
        assert signal.alarm(0) == 0  # no alarm left armed
    finally:
        signal.signal(signal.SIGALRM, saved)


def test_peak_memory_reads_the_peak_and_stops_tracing_when_its_block_raises():
    with peak_memory() as peak:
        block = bytearray(10**6)
        del block
    assert peak.bytes >= 10**6
    assert not tracemalloc.is_tracing()
    with pytest.raises(ZeroDivisionError), peak_memory():
        1 / 0
    assert not tracemalloc.is_tracing()
