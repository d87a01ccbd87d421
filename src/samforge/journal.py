"""Append-only operation journal with crash-safe replay.

One JSON object per line: ``{"seq": n, "kind": ..., "payload": ..., "at": ...}``.
Sequence numbers are dense and strictly increasing from 1.  An append is
flushed and fsynced before it returns, so a caller may acknowledge the
operation the moment append() comes back.

The journal holds no entries: at open it streams the file line by line
into its owner's ``apply(kind, payload)``, and commit() appends, then
applies, so journal order is state order while the owner serializes commits.

Replay drops a final line torn by a crash mid-write - no newline, or NUL
bytes from blocks the crash allocated but never wrote - and truncates it
away before the next append, so it can never become a corrupt middle line.
Any other malformed or out-of-sequence line, even the last, raises
JournalCorrupt.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Callable

from .errors import JournalCorrupt


class Journal:
    def __init__(self, path: str | Path, apply: Callable[[str, dict], None]):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._apply = apply
        self._lock = threading.Lock()
        self.last_seq = 0
        good_bytes = self._replay()
        self._fh = open(self.path, "ab")
        if self.path.stat().st_size > good_bytes:
            self._fh.truncate(good_bytes)
            self._fh.seek(good_bytes)

    def _replay(self) -> int:
        """Apply every whole entry in order; returns the length of the good prefix."""
        if not self.path.exists():
            return 0
        offset = 0
        with open(self.path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            for line in fh:
                if not line.endswith(b"\n"):
                    break  # torn tail, discarded
                try:
                    entry = json.loads(line)
                    seq, kind, payload = entry["seq"], entry["kind"], entry["payload"]
                except (ValueError, KeyError, TypeError):
                    if offset + len(line) == size and b"\0" in line:
                        break  # final line with unwritten blocks: torn tail
                    raise JournalCorrupt(f"{self.path}: malformed entry at byte {offset}")
                if seq != self.last_seq + 1:
                    raise JournalCorrupt(
                        f"{self.path}: sequence gap (expected {self.last_seq + 1}, found {seq})"
                    )
                self._apply(kind, payload)
                self.last_seq = seq
                offset += len(line)
        return offset

    def append(self, kind: str, payload: dict, at: float | None = None) -> int:
        """Durably append one entry; returns its sequence number."""
        with self._lock:
            entry = {
                "seq": self.last_seq + 1,
                "kind": kind,
                "payload": payload,
                "at": time.time() if at is None else at,
            }
            self._fh.write(json.dumps(entry, separators=(",", ":")).encode() + b"\n")
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self.last_seq = entry["seq"]
            return entry["seq"]

    def commit(self, kind: str, payload: dict) -> None:
        """Durably append one entry, then apply it."""
        self.append(kind, payload)
        self._apply(kind, payload)

    def close(self) -> None:
        with self._lock:
            if not self._fh.closed:
                self._fh.close()
