"""Framed file transfers with CRC-32 checksumming and fault injection.

A pull, :func:`transfer_with`, sends one request line to a peer's data
port and streams the answering frame into a local file, reporting the
size and CRC of what it wrote, computed while the bytes stream in.
Deliberately, nothing here compares against the catalog checksum:
verification and retry belong to the station, which lets a
:class:`FaultInjector` corrupt data below the verification layer the way
a failing disk would.

The data plane is a length-prefixed byte stream: a
``SEND <file_name> <size_bytes> <crc32-hex>`` header line followed by
exactly size_bytes raw bytes, answered with ``OK`` or ``ERR <code>``.
Pulls prefix the exchange with a one-line request.  Every daemon uses the
one codec below: :func:`send_frame` writes a header line and streams the
body from an open file, :func:`receive_body` streams a body into a file
with a running CRC.  Bodies move in ``CHUNK``-sized pieces, so no daemon
ever holds a whole file.  The CRC in a SEND header is the sender's
recorded checksum, not a fresh pass over the file; the receiver verifies
it once, as the bytes arrive.  Store and station handlers share one
request skeleton, :func:`serve_request`, and one staged, CRC-checked
upload, :func:`receive_verified`.
"""

from __future__ import annotations

import io
import logging
import os
import random
import socket
import threading
import zlib
from dataclasses import dataclass
from pathlib import Path

from .errors import (
    BadRequest,
    CrcMismatch,
    RemoteError,
    SamError,
    SourceUnavailable,
)
from .wire import parse_addr

log = logging.getLogger(__name__)

CHUNK = 64 * 1024


# -- checksums -------------------------------------------------------------

def crc32_stream(stream) -> int:
    """CRC-32 (reflected 0x04C11DB7 polynomial) of a byte stream, constant memory."""
    crc = 0
    while True:
        chunk = stream.read(CHUNK)
        if not chunk:
            return crc & 0xFFFFFFFF
        crc = zlib.crc32(chunk, crc)


def crc32_bytes(data: bytes) -> int:
    return zlib.crc32(data) & 0xFFFFFFFF


def crc32_file(path: str | Path) -> int:
    with open(path, "rb") as fh:
        return crc32_stream(fh)


# -- pulls ------------------------------------------------------------------

@dataclass
class TransferOutcome:
    bytes_moved: int
    computed_crc32: int


def transfer_with(addr, request_line: str, dest: str | Path,
                  faults: FaultInjector | None = None) -> TransferOutcome:
    """Pull one SEND frame from addr into dest; reports what landed there.

    dest's parent is created if missing.  faults, if given, may corrupt
    the landed file before its CRC is reported.
    """
    dest = Path(dest)
    dest.parent.mkdir(parents=True, exist_ok=True)
    size, crc = _pull_framed(addr, request_line, dest)
    if faults is not None:
        crc = faults.after_pull(dest, crc)
    return TransferOutcome(bytes_moved=size, computed_crc32=crc)


class FaultInjector:
    """Flip one byte of every n-th pulled file.

    The flipped position comes from a generator seeded once at
    construction, so a fixed (seed, call sequence) reproduces identical
    corruption across runs.  All other pulls pass through untouched.  A
    corrupted pull reports the CRC of the file as it is after the flip,
    so the station's verification sees the damage.
    """

    def __init__(self, seed: int, corrupt_every_nth: int):
        if corrupt_every_nth < 1:
            raise ValueError("corrupt_every_nth must be >= 1")
        self.corrupt_every_nth = corrupt_every_nth
        self._rng = random.Random(seed)
        self._lock = threading.Lock()  # concurrent pulls share the count and the generator
        self.calls = 0
        self.corrupted = 0

    def after_pull(self, dest: Path, crc: int) -> int:
        """Count one pull into dest; returns the CRC of dest as it now is."""
        with self._lock:
            self.calls += 1
            if self.calls % self.corrupt_every_nth == 0 and self._flip_one_byte(dest):
                self.corrupted += 1
                return crc32_file(dest)
        return crc

    def _flip_one_byte(self, dest: Path) -> bool:
        size = dest.stat().st_size
        if size == 0:
            return False  # nothing to corrupt in an empty file
        position = self._rng.randrange(size)
        with open(dest, "r+b") as fh:
            fh.seek(position)
            byte = fh.read(1)
            fh.seek(position)
            fh.write(bytes([byte[0] ^ 0xFF]))
        return True


# -- framed data plane -----------------------------------------------------

def send_header(file_name: str, size: int, crc: int) -> str:
    return f"SEND {file_name} {size} {crc:08x}\n"


def send_frame(sock: socket.socket, head: str, body, size: int) -> None:
    """Write the header line(s), then size bytes streamed from the start of body."""
    sock.sendall(head.encode())
    body.seek(0)
    sent = sock.sendfile(body, 0, size) if size else 0  # sendfile refuses a count of 0
    if sent != size:
        raise SourceUnavailable(f"body ended at {sent} of {size} bytes")


def receive_body(rfile, size: int, out) -> int:
    """Stream exactly size bytes from rfile into the open file out; returns their CRC-32."""
    crc = 0
    buf = memoryview(bytearray(CHUNK))
    left = size
    while left > 0:
        n = rfile.readinto(buf[:min(left, CHUNK)])
        if not n:
            raise SourceUnavailable(f"stream ended at {size - left} of {size} bytes")
        crc = zlib.crc32(buf[:n], crc)
        out.write(buf[:n])
        left -= n
    return crc & 0xFFFFFFFF


def discard_body(rfile, size: int) -> None:
    """Read and drop a body the receiver refused, so the sender sees the reply."""
    while size > 0:
        chunk = rfile.read(min(size, CHUNK))
        if not chunk:
            return
        size -= len(chunk)


def serve_frame(sock: socket.socket, rfile, file_name: str, body, size: int,
                crc: int) -> None:
    """Answer a FETCH: one SEND frame, then consume the puller's courtesy ack."""
    send_frame(sock, send_header(file_name, size, crc), body, size)
    try:  # so the peer's close is clean
        sock.settimeout(5)
        rfile.readline(1024)
    except OSError:
        pass


def read_line(rfile) -> str:
    line = rfile.readline(CHUNK)
    if not line:
        raise SourceUnavailable("connection closed before a full line arrived")
    return line.decode(errors="replace").rstrip("\n")


def parse_send_header(line: str) -> tuple[str, int, int]:
    parts = line.split()
    try:
        if len(parts) == 4 and parts[0] == "SEND" and int(parts[2]) >= 0:
            return parts[1], int(parts[2]), int(parts[3], 16)
    except ValueError:
        pass
    raise SourceUnavailable(f"bad frame header: {line!r}")


def read_send_header(rfile) -> tuple[str, int, int]:
    """The (name, size, crc) of the SEND frame that comes next; ERR lines raise."""
    header = read_line(rfile)
    if header.startswith("ERR"):
        raise SourceUnavailable(header)
    return parse_send_header(header)


def parse_put_args(args: str) -> tuple[str, str, int, int, int]:
    """(client, file_name, fileset, size, crc) from what follows ``PUT``."""
    parts = args.split()
    try:
        if len(parts) == 5:
            fileset, size, crc = int(parts[2]), int(parts[3]), int(parts[4], 16)
            if fileset >= 0 and size >= 0 and 0 <= crc <= 0xFFFFFFFF:
                return parts[0], parts[1], fileset, size, crc
    except ValueError:
        pass
    raise BadRequest(f"bad PUT request: {args!r}")


# -- serving the data plane ------------------------------------------------

def reply_err(wfile, code: str, msg: str) -> None:
    try:
        wfile.write(f"ERR {code} {msg}\n".encode())
    except OSError:
        pass


def serve_request(handler, actions: dict) -> None:
    """Read one request line and run ``actions[verb](rest of the line)``.

    A SamError is answered ``ERR <code> <msg>``, anything else
    ``ERR INTERNAL`` and logged, so no client can take the daemon down.
    """
    try:
        line = read_line(handler.rfile)
    except SamError:
        return
    verb, _, rest = line.partition(" ")
    rest = rest.strip()
    try:
        action = actions.get(verb)
        if action is None or not rest:
            raise BadRequest(f"unparseable request {line!r}")
        action(rest)
    except SamError as e:
        reply_err(handler.wfile, e.code, e.msg)
    except Exception as e:  # noqa: BLE001 - keep serving other clients
        log.exception("data-plane %s failed", verb)
        reply_err(handler.wfile, "INTERNAL", str(e))


def receive_verified(rfile, staged: Path, name: str, size: int, declared_crc: int, act):
    """Stream a body into staged, check its CRC, and return act(staged, crc).

    Raises CrcMismatch for a corrupt body.  Whatever act leaves of staged
    is removed before this returns, so no reply races the cleanup.
    """
    try:
        with open(staged, "wb") as out:
            crc = receive_body(rfile, size, out)
        if crc != declared_crc:
            raise CrcMismatch(f"{name} arrived corrupt")
        return act(staged, crc)
    finally:
        staged.unlink(missing_ok=True)


def _connect(addr) -> socket.socket:
    try:
        return socket.create_connection(parse_addr(addr), timeout=30)
    except OSError as e:
        raise SourceUnavailable(f"cannot reach {addr}: {e}") from e


def _pull_framed(addr, request_line: str, dest: Path) -> tuple[int, int]:
    """Send one request line, stream a SEND frame into dest, acknowledge.

    Returns the size and CRC of what was written to dest.
    """
    sock = _connect(addr)
    try:
        with sock, sock.makefile("rb") as rfile:
            sock.sendall(request_line.encode() + b"\n")
            _name, size, declared_crc = read_send_header(rfile)
            with open(dest, "wb") as out:
                crc = receive_body(rfile, size, out)
            # courtesy protocol ack; catalog-level verification is the caller's job
            verdict = b"OK\n" if crc == declared_crc else b"ERR CRC_MISMATCH\n"
            try:
                sock.sendall(verdict)
            except OSError:
                pass
            return size, crc
    except OSError as e:
        raise SourceUnavailable(f"transfer from {addr} failed: {e}") from e


def send_request(addr, head: str, body, size: int) -> str:
    """Push one framed body and return the receiver's OK payload.

    Raises RemoteError with the receiver's code when it answers ERR.
    """
    sock = _connect(addr)
    with sock, sock.makefile("rb") as rfile:
        try:
            send_frame(sock, head, body, size)
            reply = read_line(rfile)
        except OSError as e:
            raise SourceUnavailable(f"send to {addr} failed: {e}") from e
    if reply.startswith("OK"):
        return reply[2:].strip()
    parts = reply.split(None, 2)
    if parts and parts[0] == "ERR":
        code = parts[1] if len(parts) > 1 else "ERROR"
        msg = parts[2] if len(parts) > 2 else ""
        raise RemoteError(code, msg)
    raise SourceUnavailable(f"unparseable reply: {reply!r}")


def put_to_store(addr, client_name: str, file_name: str, fileset_number: int,
                 data, crc: int | None = None) -> str:
    """Write a file into a store volume; returns the assigned volume id.

    data is the file's bytes or an open binary file, streamed from its start.
    """
    body = data if hasattr(data, "read") else io.BytesIO(data)
    size = body.seek(0, os.SEEK_END)
    if crc is None:
        body.seek(0)
        crc = crc32_stream(body)
    head = f"PUT {client_name} {file_name} {fileset_number} {size} {crc:08x}\n"
    return send_request(addr, head, body, size)
