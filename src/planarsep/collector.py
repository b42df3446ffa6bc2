"""One process-wide pause of the cyclic garbage collector.

The engine entry points and the instance builders (build_embedding and
the graph generators) run under it.  They allocate many containers and
make no reference cycle, so reference counting frees all they drop, and
every collection their allocations would start scans a heap that holds
no garbage.  tests/test_collector.py holds each of them to that.
"""

from __future__ import annotations

import gc
import threading
from contextlib import ContextDecorator


class _CollectorPause(ContextDecorator):
    """Pause the cyclic garbage collector for a block or a call (used as a
    decorator), then restore it.

    The collector's switch is process-wide, so there is one pause per
    process, shared by every block that overlaps it, in any thread: the
    first to enter switches the collector off, and the last to leave, also
    by an exception, switches it back on if it was on when the first
    entered.  Nested blocks, such as a generator calling build_embedding,
    share the one depth count.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._was_enabled = False

    def __enter__(self):
        with self._lock:
            if self._depth == 0:
                self._was_enabled = gc.isenabled()
                gc.disable()
            self._depth += 1

    def __exit__(self, *exc):
        with self._lock:
            self._depth -= 1
            if self._depth == 0 and self._was_enabled:
                gc.enable()


collector_paused = _CollectorPause()  # the one pause of the process
