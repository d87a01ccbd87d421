"""Framed file transfers with CRC-32 checksumming and fault injection.

A pull, :func:`transfer_with`, sends one request line to a peer's data
port and streams the answering frame into a local file, reporting the
size and CRC of what it wrote, computed while the bytes stream in.
Deliberately, nothing here compares against the catalog checksum:
verification and retry belong to the station, which lets a
:class:`FaultInjector` corrupt data below the verification layer the way
a failing disk would.

The data plane has one body format, the SEND frame: a
``SEND <file_name> <size_bytes> <crc32-hex>`` header line followed by
exactly size_bytes raw bytes.  Every exchange is one request line, then
a SEND frame.  A pull sends the request line and gets the frame back,
or ``ERR <code> <msg>``; the puller acknowledges nothing.  A server
keeps the connection open after a pull answered in full, so a
:class:`PullPool` sends the next pull to the same peer on it, as
HTTP/1.1 persistent connections do (RFC 9112, section 9.3).  A push
sends the request line and the frame on a connection of its own and
gets ``OK <result>`` or ``ERR <code> <msg>``; the server then closes.
Every daemon uses the one codec below: :func:`send_frame` writes a
header line and streams the body from an open file,
:func:`receive_body` streams a body into a file with a running CRC.
Bodies move in ``CHUNK``-sized pieces, so no daemon ever holds a whole
file.  The CRC in a SEND header is the sender's recorded checksum, not
a fresh pass over the file; the receiver computes its own once, as the
bytes arrive.  Store and station handlers are :class:`DataHandler`
classes sharing one request skeleton, :func:`serve_request`, and one
push receiver, :func:`serve_push`; a request starting ``{`` is control.

Every push is sent by one :class:`Push`; :func:`send_request` and
:func:`put_to_store` send a whole body with it.  A receiver may forward
a body while it arrives: :func:`serve_push` hands each piece to the
Push its check opened, which sends all but the body's final byte, so
the next hop cannot finish the body and act on it before the forwarder
has verified the CRC and acted itself.  The forwarder then finishes the
push from its own copy, and sends the whole body again from there if
the stream broke off.
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
    TransferExhausted,
)
from .wire import TIMEOUT, ControlHandler, parse_addr

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


def transfer_with(addr, request_line: str, dest: str | Path, faults: FaultInjector | None,
                  pool: PullPool) -> TransferOutcome:
    """Pull one SEND frame from addr into dest; reports what landed there.

    The pull goes over one of pool's kept-open connections to addr, or a
    new one.  dest's parent is created if missing.  faults, if not None,
    may corrupt the landed file before its CRC is reported.
    """
    dest = Path(dest)
    dest.parent.mkdir(parents=True, exist_ok=True)
    try:
        size, crc = pool.pull(addr, request_line, dest)
    except OSError as e:
        raise SourceUnavailable(f"transfer from {addr} failed: {e}") from e
    if faults is not None:
        crc = faults.after_pull(dest, crc)
    return TransferOutcome(bytes_moved=size, computed_crc32=crc)


class PullPool:
    """Kept-open pull connections: a stack of idle ones per peer address.

    A connection goes back to the pool only once a whole frame has
    arrived; an ERR answer or a cut body closes it.  Only pulls running
    at once open connections, so a caller that bounds its pulls per peer,
    as a station's transfer slots do, bounds the idle ones too.
    """

    def __init__(self):
        self._idle: dict[str, list] = {}  # addr -> [(socket, its reader)]
        self._lock = threading.Lock()
        self._closed = False

    def pull(self, addr, request_line: str, dest: Path) -> tuple[int, int]:
        """Send request_line to addr and stream the answered frame into dest: (size, crc).

        A kept-open connection that answers no byte at all was closed by
        its peer while idle, or the peer restarted; the request is then
        sent once more, on a new connection.
        """
        line = request_line.encode() + b"\n"
        with self._lock:
            idle = self._idle.get(addr)
            conn = idle.pop() if idle else None
        try:
            try:
                header = _ask(conn, line) if conn else b""
            except ConnectionError:  # reset, or a broken pipe
                header = b""
            if not header:
                _close(conn)
                sock = _connect(addr)
                conn = (sock, sock.makefile("rb"))
                header = _ask(conn, line)
            header = header.decode(errors="replace").rstrip("\n")
            try:
                _name, size, _crc = parse_send_header(header)
            except BadRequest:  # ERR <code> <msg>, or no frame at all
                raise SourceUnavailable(header or "connection closed before an answer") from None
            with open(dest, "wb") as out:
                crc = receive_body(conn[1], size, out)
        except BaseException:
            _close(conn)
            raise
        with self._lock:
            if not self._closed:
                self._idle.setdefault(addr, []).append(conn)
                conn = None
        _close(conn)
        return size, crc

    def close(self) -> None:
        """Close every idle connection; a pull still running closes its own when done."""
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, {}
        for conns in idle.values():
            for conn in conns:
                _close(conn)


def _ask(conn, line: bytes) -> bytes:
    sock, rfile = conn
    sock.sendall(line)
    return rfile.readline(CHUNK)


def _close(conn) -> None:
    if conn is not None:
        conn[1].close()
        conn[0].close()


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


def send_frame(sock: socket.socket, head: str, body, size: int, start: int = 0) -> None:
    """Write the header line(s), then body's bytes from start up to size."""
    sock.sendall(head.encode())
    body.seek(start)
    left = size - start
    sent = sock.sendfile(body, start, left) if left else 0  # sendfile refuses a count of 0
    if sent != left:
        raise SourceUnavailable(f"body ended at {start + sent} of {size} bytes")


def receive_body(rfile, size: int, out, forward: Push | None = None) -> int:
    """Stream exactly size bytes from rfile into the open file out; returns their CRC-32.

    Each piece also goes to forward, if given, as it arrives.
    """
    crc = 0
    buf = memoryview(bytearray(CHUNK))
    left = size
    while left > 0:
        n = rfile.readinto(buf[:min(left, CHUNK)])
        if not n:
            raise SourceUnavailable(f"stream ended at {size - left} of {size} bytes")
        crc = zlib.crc32(buf[:n], crc)
        out.write(buf[:n])
        if forward is not None:
            forward.write(buf[:n])
        left -= n
    return crc & 0xFFFFFFFF


def discard_body(rfile, size: int) -> None:
    """Read and drop a body the receiver refused, so the sender sees the reply."""
    while size > 0:
        chunk = rfile.read(min(size, CHUNK))
        if not chunk:
            return
        size -= len(chunk)


def read_line(rfile) -> str:
    line = rfile.readline(CHUNK)
    if not line:
        raise SourceUnavailable("connection closed before a full line arrived")
    return line.decode(errors="replace").rstrip("\n")


def parse_send_header(line: str) -> tuple[str, int, int]:
    parts = line.split()
    try:
        if len(parts) == 4 and parts[0] == "SEND":
            size, crc = int(parts[2]), int(parts[3], 16)
            if size >= 0 and 0 <= crc <= 0xFFFFFFFF:
                return parts[1], size, crc
    except ValueError:
        pass
    raise BadRequest(f"bad SEND header: {line!r}")


# -- serving the data plane ------------------------------------------------

def reply_err(wfile, code: str, msg: str) -> None:
    try:
        wfile.write(f"ERR {code} {msg}\n".encode())
    except OSError:
        pass


class DataHandler(ControlHandler):
    """A store's or station's handler, one per request; a full FETCH answer keeps the connection."""

    # a frame is two writes, header then body: without this the body of a
    # kept-open connection waits out the puller's delayed ACK
    disable_nagle_algorithm = True
    keep_open = False


def serve_request(handler, actions: dict) -> None:
    """Read one request line and run ``actions[verb](rest of the line)``.

    A SamError is answered ``ERR <code> <msg>``, anything else
    ``ERR INTERNAL`` and logged, so no client can take the daemon down.
    A FETCH answered in full sets handler.keep_open.  A request starting
    ``{`` runs the control loop until the client closes, never idled out.
    """
    if handler.rfile.peek(1)[:1] == b"{":
        return ControlHandler.handle(handler)
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
        handler.keep_open = verb == "FETCH"
    except SamError as e:
        reply_err(handler.wfile, e.code, e.msg)
    except Exception as e:  # noqa: BLE001 - keep serving other clients
        log.exception("data-plane %s failed", verb)
        reply_err(handler.wfile, "INTERNAL", str(e))


def serve_push(handler, staged: Path, check, act) -> None:
    """Receive the SEND frame of a push and answer ``OK <act(name, staged, crc)>``.

    check(name, size, crc) raises a SamError to refuse the push; the body
    is then read and dropped, so the sender sees the ERR reply.  It may
    return a :class:`Push`, which is sent the body, all but its final
    byte, as it arrives; act finishes it.  The body streams into staged
    with a running CRC, and only a body matching its declared CRC
    reaches act.  Whatever act leaves of staged is removed, and a push
    act did not finish is cut short, before the reply, so no reply races
    the cleanup.
    """
    name, size, declared_crc = parse_send_header(read_line(handler.rfile))
    try:
        forward = check(name, size, declared_crc)
    except SamError:
        discard_body(handler.rfile, size)
        raise
    try:
        with open(staged, "wb") as out:
            crc = receive_body(handler.rfile, size, out, forward)
        if crc != declared_crc:
            raise CrcMismatch(f"{name} arrived corrupt")
        result = act(name, staged, crc)
    finally:
        staged.unlink(missing_ok=True)
        if forward is not None:
            forward.close()
    handler.wfile.write(f"OK {result}\n".encode())


# -- pushes -----------------------------------------------------------------

# refusals that a second try of the same push cannot change
FINAL_REFUSALS = ("ACCESS_DENIED", "STORE_FULL", "FILE_TOO_LARGE", "DUPLICATE_NAME")


def _connect(addr) -> socket.socket:
    try:
        return socket.create_connection(parse_addr(addr), timeout=TIMEOUT)
    except OSError as e:
        raise SourceUnavailable(f"cannot reach {addr}: {e}") from e


class Push:
    """One request head and framed body sent to addr, the body as it is produced.

    write() sends the body's next bytes, all but its final byte, so the
    receiver cannot finish the body, and so cannot act on it, before
    finish() sends the rest from a file and reads the reply.  The
    connection opens with the first byte to send and holds one slot of
    limiter, if given, until the reply or close().  An error while
    streaming is kept for finish() to raise, so the producer carries on.
    close() before finish() cuts the body short and waits until the
    receiver has answered, and so has dropped what it got.
    """

    def __init__(self, addr, head: str, size: int, limiter=None):
        self.addr, self.head, self.size, self.limiter = addr, head, size, limiter
        self.sent = 0  # body bytes on the wire
        self.error: SamError | None = None
        self._sock: socket.socket | None = None
        self._slot = False

    def _open(self) -> None:
        if self.limiter is not None:
            self.limiter.acquire()
            self._slot = True
        self._sock = _connect(self.addr)
        self._sock.sendall(self.head.encode())

    def write(self, data) -> None:
        data = data[:max(self.size - 1 - self.sent, 0)]
        if not data or self.error is not None:
            return
        try:
            if self._sock is None:
                self._open()
            self._sock.sendall(data)
            self.sent += len(data)
        except (OSError, SamError) as e:
            self.error = e if isinstance(e, SamError) else \
                SourceUnavailable(f"send to {self.addr} failed: {e}")
            self.close()

    def finish(self, body) -> str:
        """Send body's bytes from where the stream stopped; returns the receiver's OK payload.

        Raises RemoteError with the receiver's code when it answers ERR.
        """
        try:
            if self.error is not None:
                raise self.error
            try:
                if self._sock is None:
                    self._open()
                send_frame(self._sock, "", body, self.size, self.sent)
                self.sent = self.size
                with self._sock.makefile("rb") as rfile:
                    reply = read_line(rfile)
            except OSError as e:
                raise SourceUnavailable(f"send to {self.addr} failed: {e}") from e
        finally:
            self.close()
        if reply.startswith("OK"):
            return reply[2:].strip()
        parts = reply.split(None, 2)
        if parts and parts[0] == "ERR":
            code = parts[1] if len(parts) > 1 else "ERROR"
            msg = parts[2] if len(parts) > 2 else ""
            raise RemoteError(code, msg)
        raise SourceUnavailable(f"unparseable reply: {reply!r}")

    def deliver(self, body, attempts: int) -> str:
        """finish(); after a failure a new try may mend, send the whole body again.

        Makes at most attempts tries in all, the first one this push's own.
        """
        last = None
        for _ in range(attempts):
            try:
                return self.finish(body)
            except SamError as e:
                if isinstance(e, RemoteError) and e.code in FINAL_REFUSALS:
                    raise
                last = e
            self.sent, self.error = 0, None
        raise TransferExhausted(f"push to {self.addr} failed after {attempts} attempts ({last})")

    def close(self) -> None:
        sock, self._sock = self._sock, None
        if sock is not None:
            with sock:
                if self.sent < self.size:  # cut short: wait out the receiver's answer
                    try:
                        sock.shutdown(socket.SHUT_WR)
                        while sock.recv(CHUNK):
                            pass
                    except OSError:
                        pass
        if self._slot:
            self._slot = False
            self.limiter.release()


def send_request(addr, head: str, body, size: int) -> str:
    """Push one framed body, size bytes from the start of body; returns the OK payload.

    Raises RemoteError with the receiver's code when it answers ERR.
    """
    return Push(addr, head, size).finish(body)


def put_to_store(addr, client_name: str, file_name: str, fileset_number: int,
                 data, crc: int) -> str:
    """Write a file into a store volume; returns the assigned volume id.

    data is the file's bytes or an open binary file, streamed from its
    start; crc is its recorded CRC-32, which the store verifies.
    """
    body = data if hasattr(data, "read") else io.BytesIO(data)
    size = body.seek(0, os.SEEK_END)
    head = f"PUT {client_name} {fileset_number}\n" + send_header(file_name, size, crc)
    return send_request(addr, head, body, size)
