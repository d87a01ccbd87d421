"""Simulated mass-storage endpoint: volumes, filesets, mounts, access rights.

Files land on tape-like volumes grouped by fileset number; a single
drive means one mounted volume at a time, and switching volumes charges
a configurable mount latency before the first byte.  Every request is
checked against a per-client access matrix.  The backing is a directory
of volume subdirectories plus an inventory journal replayed at startup,
the same crash discipline as the catalog.

Control plane: line-delimited JSON (list_volumes, status).  Data plane,
on the same address: one request line, then a SEND frame (see
``transfer``), streamed in constant memory —

    PUT <client> <fileset_number>\n + SEND <file_name> <size_bytes> <crc32-hex>\n + bytes
        -> OK <volume_id>\n | ERR <code> <msg>\n
    FETCH <client> <file_name>\n
        -> SEND <file_name> <size_bytes> <crc32-hex>\n + bytes | ERR <code> <msg>\n

A request line or SEND header that does not parse is answered
ERR BAD_REQUEST.  A PUT that its request line and SEND header already
rule out (access, a file name the catalog would refuse, size, duplicate
name, capacity) is answered ERR before its body is read; the body is
then read and dropped so the client sees the reply.  Otherwise the body
streams into a staging file under ``incoming/`` with a running CRC; only
a body matching its declared CRC takes the drive, moves into its volume,
is fsynced and journalled, and then acknowledged.  A FETCH answers with
the CRC recorded in the inventory journal at PUT time, so the store
makes no pass over the file to serve it, and waits for no
acknowledgement: the connection stays open for the puller's next
FETCH.  A PUT, or any answer ERR, closes it.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from .config import ACCESS_NONE, ACCESS_READ_ONLY, ACCESS_READ_WRITE, StoreConfig
from .errors import (
    AccessDenied,
    BadRequest,
    DuplicateName,
    FileTooLarge,
    NotFound,
    StoreFull,
    ValidationError,
)
from .journal import Journal
from .records import file_name_problem
from .sync import FairSemaphore
from .transfer import DataHandler, send_frame, send_header, serve_push, serve_request
from .wire import Dispatcher

@dataclass
class Volume:
    volume_id: str
    fileset_number: int
    files: list[tuple[str, int, int]] = field(default_factory=list)  # (name, offset, size)
    bytes_used: int = 0

    def to_wire(self, mounted: bool) -> dict:
        return {
            "volume_id": self.volume_id,
            "fileset_number": self.fileset_number,
            "files": [list(f) for f in self.files],
            "bytes_used": self.bytes_used,
            "mounted": mounted,
        }


class StoreService(Dispatcher):
    """One simulated store; all requests serialize through the drive lock."""

    ops = {
        "list_volumes": "list_volumes",
        "status": "status",
    }

    def __init__(self, config: StoreConfig):
        self.config = config
        self.root = Path(config.root_dir)
        self.root.mkdir(parents=True, exist_ok=True)
        self._drive = FairSemaphore(1)  # one tape drive, granted in arrival order
        self._state_lock = threading.RLock()
        self.volumes: dict[str, Volume] = {}
        # name -> (volume_id, size, crc32 recorded at put time)
        self.file_index: dict[str, tuple[str, int, int]] = {}
        self._open_volume: dict[int, str] = {}  # fileset -> volume with room
        self._next_volume = 1
        self.mounted_volume: str | None = None
        self.counters = {"puts": 0, "gets": 0, "mount_switches": 0, "bytes_used": 0}
        self.incoming = self.root / "incoming"
        self.incoming.mkdir(exist_ok=True)
        for leftover in self.incoming.iterdir():  # puts cut off by a crash
            leftover.unlink()
        self.journal = Journal(self.root / "inventory.journal", self._apply)

    def _apply(self, kind: str, payload: dict) -> None:
        volume_id = payload["volume_id"]
        volume = self.volumes.get(volume_id)
        if volume is None:
            volume = Volume(volume_id, payload["fileset_number"])
            self.volumes[volume_id] = volume
            seq = int(volume_id.rsplit("-", 1)[1])
            self._next_volume = max(self._next_volume, seq + 1)
        name, size = payload["file_name"], payload["size_bytes"]
        volume.files.append((name, volume.bytes_used, size))
        volume.bytes_used += size
        self.file_index[name] = (volume_id, size, payload["crc32"])
        self.counters["bytes_used"] += size
        if volume.bytes_used < self.config.volume_capacity_bytes:
            self._open_volume[volume.fileset_number] = volume_id
        elif self._open_volume.get(volume.fileset_number) == volume_id:
            del self._open_volume[volume.fileset_number]

    # -- access ------------------------------------------------------------

    def _access(self, client: str) -> str:
        return self.config.access_matrix.get(client, ACCESS_NONE)

    def _require_read(self, client: str) -> None:
        if self._access(client) not in (ACCESS_READ_ONLY, ACCESS_READ_WRITE):
            raise AccessDenied(f"client {client!r} may not read from {self.config.name}")

    def _require_write(self, client: str) -> None:
        if self._access(client) != ACCESS_READ_WRITE:
            raise AccessDenied(f"client {client!r} may not write to {self.config.name}")

    # -- operations --------------------------------------------------------

    def check_put(self, client: str, file_name: str, size: int) -> None:
        """Every reason to refuse a put that its request line and SEND header show."""
        self._require_write(client)
        problem = file_name_problem(file_name)  # also keeps the write inside its volume
        if problem:
            raise ValidationError(problem)
        if size > self.config.volume_capacity_bytes:
            raise FileTooLarge(
                f"{file_name}: {size} bytes exceeds volume capacity "
                f"{self.config.volume_capacity_bytes}")
        with self._state_lock:
            if file_name in self.file_index:
                raise DuplicateName(f"{file_name} already stored")  # names are catalog-unique
            if self.counters["bytes_used"] + size > self.config.capacity_bytes:
                raise StoreFull(f"{self.config.name} is full")

    def staging_path(self) -> Path:
        return self.incoming / os.urandom(16).hex()

    def put_file(self, client: str, file_name: str, staged: Path, crc: int,
                 fileset_number: int) -> str:
        """Move a received, CRC-checked staging file into a volume; durable on return."""
        size = staged.stat().st_size
        with self._drive:
            with self._state_lock:
                self.check_put(client, file_name, size)
                volume_id = self._volume_for(fileset_number, size)
            path = self.root / volume_id / file_name
            path.parent.mkdir(parents=True, exist_ok=True)
            os.replace(staged, path)
            fd = os.open(path, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
            payload = {
                "volume_id": volume_id,
                "fileset_number": fileset_number,
                "file_name": file_name,
                "size_bytes": size,
                "crc32": crc,
            }
            with self._state_lock:
                self.journal.commit("PutFile", payload)
                self.counters["puts"] += 1
            return volume_id

    def _volume_for(self, fileset_number: int, size: int) -> str:
        open_id = self._open_volume.get(fileset_number)
        if open_id is not None:
            volume = self.volumes[open_id]
            if volume.bytes_used + size <= self.config.volume_capacity_bytes:
                return open_id
        return f"{self.config.name}-{self._next_alloc()}"

    def _next_alloc(self) -> str:
        allocated = f"vol-{self._next_volume:04d}"
        self._next_volume += 1
        return allocated

    def open_file(self, client: str, file_name: str):
        """Mount the file's volume and open it: (file, size, recorded crc32)."""
        self._require_read(client)
        with self._drive:
            with self._state_lock:
                entry = self.file_index.get(file_name)
                if entry is None:
                    raise NotFound(f"{file_name} not on {self.config.name}")
                volume_id, size, crc = entry
            self._mount(volume_id)
            body = open(self.root / volume_id / file_name, "rb")
            with self._state_lock:
                self.counters["gets"] += 1
            return body, size, crc

    def _mount(self, volume_id: str) -> None:
        """Single-drive model: switching volumes costs mount_latency_ms."""
        if self.mounted_volume == volume_id:
            return
        if self.config.mount_latency_ms:
            time.sleep(self.config.mount_latency_ms / 1000.0)
        with self._state_lock:
            self.mounted_volume = volume_id
            self.counters["mount_switches"] += 1

    def list_volumes(self) -> list[dict]:
        with self._state_lock:
            return [self.volumes[vid].to_wire(vid == self.mounted_volume)
                    for vid in sorted(self.volumes)]

    def status(self) -> dict:
        with self._state_lock:
            return {
                "name": self.config.name,
                "volumes": len(self.volumes),
                "files": len(self.file_index),
                "capacity_bytes": self.config.capacity_bytes,
                **self.counters,
            }

    def close(self) -> None:
        self.journal.close()


# -- data plane ------------------------------------------------------------

class StoreDataHandler(DataHandler):
    def handle(self):
        serve_request(self, {"FETCH": self._fetch, "PUT": self._put})

    def _fetch(self, args: str) -> None:
        parts = args.split()
        if len(parts) != 2:
            raise BadRequest(f"bad FETCH request: {args!r}")
        client, file_name = parts
        body, size, crc = self.server.service.open_file(client, file_name)
        with body:
            send_frame(self.connection, send_header(file_name, size, crc), body, size)

    def _put(self, args: str) -> None:
        service: StoreService = self.server.service
        parts = args.split()
        if len(parts) != 2 or not parts[1].isdecimal():
            raise BadRequest(f"bad PUT request: {args!r}")
        client, fileset_number = parts[0], int(parts[1])
        serve_push(self, service.staging_path(),
                   lambda name, size, _crc: service.check_put(client, name, size),
                   lambda name, staged, crc: service.put_file(client, name, staged, crc,
                                                              fileset_number))
