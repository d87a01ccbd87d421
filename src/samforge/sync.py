"""Small concurrency helpers with strict FIFO handoff.

threading.Semaphore wakes waiters in arbitrary order; rate limiting and
the single-drive store need starvation-free FIFO queues, so these hand
slots to waiters strictly in arrival order.  The high-water mark exists
so tests can assert the cap was never exceeded under load.
"""

from __future__ import annotations

import threading
from collections import deque


class FairSemaphore:
    """Counting semaphore granting slots in strict arrival order."""

    def __init__(self, slots: int):
        if slots < 1:
            raise ValueError("slots must be >= 1")
        self.slots = slots
        self._lock = threading.Lock()
        self._waiters: deque[threading.Event] = deque()
        self._in_flight = 0
        self._high_water = 0

    def acquire(self) -> None:
        with self._lock:
            if self._in_flight < self.slots and not self._waiters:
                self._in_flight += 1
                self._high_water = max(self._high_water, self._in_flight)
                return
            event = threading.Event()
            self._waiters.append(event)
        event.wait()

    def release(self) -> None:
        with self._lock:
            if self._waiters:
                # hand the slot straight to the oldest waiter
                self._waiters.popleft().set()
                self._high_water = max(self._high_water, self._in_flight)
            else:
                self._in_flight -= 1

    @property
    def in_flight(self) -> int:
        with self._lock:
            return self._in_flight

    @property
    def high_water(self) -> int:
        """Greatest number of simultaneously held slots observed."""
        with self._lock:
            return self._high_water

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc):
        self.release()
