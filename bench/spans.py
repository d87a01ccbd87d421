"""Span recording for the traced benchmark run, and the arithmetic on spans.

A span is a list ``[id, parent, name, t0_ns, t1_ns, thread, extra]``.
``parent`` is the id of the enclosing span in the same thread, a
``"<pid>:<id>"`` reference to the client span of another process that
caused it, or None.  Times come from ``time.monotonic_ns``, which on
Linux is one system-wide clock, so spans of different processes line up.

``install`` wraps the program's public entry points from outside: no
samforge source file knows it is being traced.  Spans stay in memory
until ``Tracer.dump`` writes them out.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import socketserver
import sys
import threading
import time
import zlib
from pathlib import Path

# Extra request argument carrying the caller's span reference; the traced
# dispatcher removes it before the service sees the arguments.
TRACE_ARG = "_bench_span"


class Tracer:
    """Per-process span store with a per-thread stack of open spans."""

    def __init__(self, label: str):
        self.label = label
        self.pid = os.getpid()
        self.spans: list[list] = []
        self.marks: list[tuple[str, int, int]] = []  # (name, t_ns, amount)
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, parent=None) -> list:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1][0]
        span = [next(self._ids), parent, name, time.monotonic_ns(), 0,
                threading.get_ident(), None]
        stack.append(span)
        self.spans.append(span)
        return span

    def end(self, span: list, extra: dict | None = None) -> None:
        span[4] = time.monotonic_ns()
        if extra:
            span[6] = extra
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:
            stack.remove(span)

    def ref(self, span: list) -> str:
        return f"{self.pid}:{span[0]}"

    def mark(self, name: str, amount: int = 1) -> None:
        """A timestamped count (fsync, CRC bytes, accepted connection)."""
        self.marks.append((name, time.monotonic_ns(), amount))

    def dump(self, path: str | Path) -> None:
        path = Path(path)
        closed = [s for s in list(self.spans) if s[4]]
        doc = {"label": self.label, "pid": self.pid, "spans": closed,
               "marks": list(self.marks)}
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(doc))
        os.replace(tmp, path)


# -- wrapping the program ----------------------------------------------------

def _patch(owner, attr: str, make, undo: list) -> None:
    original = getattr(owner, attr)
    setattr(owner, attr, make(original))
    undo.append((owner, attr, original))


def _patch_function(module_name: str, attr: str, make, undo: list) -> None:
    """Replace a module function and every samforge module's imported copy."""
    original = getattr(sys.modules[module_name], attr)
    wrapped = make(original)
    for name, module in list(sys.modules.items()):
        if (name == "samforge" or name.startswith("samforge.")) and \
                getattr(module, attr, None) is original:
            setattr(module, attr, wrapped)
            undo.append((module, attr, original))


def install(tracer: Tracer):
    """Wrap samforge's entry points; returns a function that unwraps them."""
    import samforge.catalog
    import samforge.journal
    import samforge.project  # noqa: F401  (loaded so its imported names get wrapped)
    import samforge.station  # noqa: F401
    import samforge.store  # noqa: F401
    import samforge.sync
    import samforge.transfer  # noqa: F401
    import samforge.wire
    from samforge.errors import SamError

    undo: list = []

    def spanned(name: str, extra_of=None):
        def make(original):
            def wrapper(*args, **kwargs):
                span = tracer.begin(name)
                result = None
                try:
                    result = original(*args, **kwargs)
                    return result
                finally:
                    tracer.end(span, extra_of(args, result) if extra_of else None)
            return wrapper
        return make

    def make_dispatch(original):
        def dispatch(self, op, args):
            span = tracer.begin(f"op.{op}", parent=args.pop(TRACE_ARG, None))
            code = None
            try:
                return original(self, op, args)
            except SamError as e:
                code = e.code
                raise
            except Exception:
                code = "INTERNAL"
                raise
            finally:
                tracer.end(span, {"err": code} if code else None)
        return dispatch

    def make_call(original):
        def call(self, op, **args):
            span = tracer.begin(f"rpc.{op}")
            try:
                return original(self, op, **{TRACE_ARG: tracer.ref(span), **args})
            finally:
                tracer.end(span)
        return call

    def make_handle(original):
        def handle(self):
            try:
                head = self.rfile.peek(64)[:64]
            except (OSError, ValueError):
                head = b""
            verb = head.split(b" ", 1)[0].split(b"\n", 1)[0].decode(errors="replace")
            span = tracer.begin(f"data.{verb or 'EMPTY'}")
            try:
                return original(self)
            finally:
                tracer.end(span)
        return handle

    def make_init(original):
        def init(self, *args, **kwargs):
            tracer.mark("accept")
            return original(self, *args, **kwargs)
        return init

    def make_catalog_init(original):
        def init(self, *args, **kwargs):
            span = tracer.begin("boot")
            try:
                return original(self, *args, **kwargs)
            finally:
                journal = getattr(self, "journal", None)  # absent if the open failed
                tracer.end(span, {"entries": journal.last_seq} if journal else None)
        return init

    def make_fsync(original):
        def fsync(fd):
            tracer.mark("fsync")
            return original(fd)
        return fsync

    def make_crc(original):
        def crc32(data, value=0):
            tracer.mark("crc_bytes", len(data))
            return original(data, value)
        return crc32

    _patch(samforge.wire.Dispatcher, "dispatch", make_dispatch, undo)
    _patch(samforge.wire.Client, "call", make_call, undo)
    _patch(socketserver.BaseRequestHandler, "__init__", make_init, undo)
    for module_name in ("samforge.store", "samforge.station"):
        for value in list(vars(sys.modules[module_name]).values()):
            if isinstance(value, type) and issubclass(value, socketserver.BaseRequestHandler) \
                    and "handle" in vars(value):
                _patch(value, "handle", make_handle, undo)
    _patch(samforge.catalog.CatalogService, "__init__", make_catalog_init, undo)
    _patch(samforge.journal.Journal, "append", spanned("journal.append"), undo)
    _patch(samforge.sync.FairSemaphore, "acquire", spanned("wait"), undo)
    _patch_function("samforge.transfer", "transfer_with",
                    spanned("pull", lambda a, r: {"bytes": r.bytes_moved} if r else None),
                    undo)
    _patch_function("samforge.transfer", "put_to_store", spanned("put"), undo)
    _patch(os, "fsync", make_fsync, undo)
    _patch(zlib, "crc32", make_crc, undo)

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
    return uninstall


# -- arithmetic on spans -----------------------------------------------------

def duration_ns(span: list) -> int:
    return span[4] - span[3]


def covered_ns(intervals, lo: int, hi: int) -> int:
    """Length of [lo, hi) covered by the union of the given intervals."""
    total = 0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_ns(span: list, children: list[list]) -> int:
    """A span's duration minus the part of it that its children cover."""
    return duration_ns(span) - covered_ns(((c[3], c[4]) for c in children),
                                          span[3], span[4])


def children_index(spans: list[list]) -> dict:
    """Map each local span id to its children that ran in the same thread."""
    by_id = {s[0]: s for s in spans}
    index: dict[int, list] = {}
    for s in spans:
        parent = by_id.get(s[1]) if isinstance(s[1], int) else None
        if parent is not None and parent[5] == s[5]:
            index.setdefault(parent[0], []).append(s)
    return index


def median(values):
    values = sorted(values)
    if not values:
        return None
    mid = len(values) // 2
    return values[mid] if len(values) % 2 else (values[mid - 1] + values[mid]) / 2


def tail(values, want: float = 99.0):
    """Percentile ``want``, or the highest lower one with ten samples beyond it.

    Nearest-rank percentiles: the value at rank k (0-based) of n sorted
    samples has n - k - 1 samples beyond it.  Returns (value, percentile
    used); with ten samples or fewer no percentile qualifies and the
    median is returned.
    """
    values = sorted(values)
    n = len(values)
    if n == 0:
        return None, None
    k = min(math.ceil(want / 100 * n) - 1, n - 11)
    if k < (n - 1) // 2:
        k = (n - 1) // 2
    return values[k], 100 * (k + 1) / n
