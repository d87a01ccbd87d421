"""Append-only operation journal with crash-safe replay.

One JSON object per line: ``{"seq": n, "kind": ..., "payload": ..., "at": ...}``.
Sequence numbers are dense and strictly increasing from 1.  An append is
flushed and fsynced before it returns, so a caller may acknowledge the
operation the moment append() comes back.

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

from .errors import JournalCorrupt


class Journal:
    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._entries: list[dict] = []
        self._good_bytes = 0
        self._load()
        self._fh = open(self.path, "ab")
        if self.path.stat().st_size > self._good_bytes:
            self._fh.truncate(self._good_bytes)
            self._fh.seek(self._good_bytes)

    def _load(self) -> None:
        if not self.path.exists():
            return
        raw = self.path.read_bytes()
        offset = 0
        expected = 1
        while offset < len(raw):
            newline = raw.find(b"\n", offset)
            if newline == -1:
                break  # torn tail, discarded
            line = raw[offset:newline]
            try:
                entry = json.loads(line)
                seq = entry["seq"]
            except (ValueError, KeyError, TypeError):
                if newline + 1 == len(raw) and b"\0" in line:
                    break  # final line with unwritten blocks: torn tail
                raise JournalCorrupt(f"{self.path}: malformed entry at byte {offset}")
            if seq != expected:
                raise JournalCorrupt(
                    f"{self.path}: sequence gap (expected {expected}, found {seq})"
                )
            self._entries.append(entry)
            self._good_bytes = newline + 1
            expected += 1
            offset = newline + 1

    @property
    def last_seq(self) -> int:
        return len(self._entries)

    def entries(self) -> list[dict]:
        """Entries recovered at open time, in order."""
        return list(self._entries)

    def append(self, kind: str, payload: dict, at: float | None = None) -> int:
        """Durably append one entry; returns its sequence number."""
        with self._lock:
            entry = {
                "seq": len(self._entries) + 1,
                "kind": kind,
                "payload": payload,
                "at": time.time() if at is None else at,
            }
            self._fh.write(json.dumps(entry, separators=(",", ":")).encode() + b"\n")
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._entries.append(entry)
            return entry["seq"]

    def close(self) -> None:
        with self._lock:
            if not self._fh.closed:
                self._fh.close()
