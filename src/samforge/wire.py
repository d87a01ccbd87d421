"""Line-delimited JSON control protocol shared by every daemon.

One request object per line, one response per line::

    {"id": 1, "op": "get_file", "args": {"name": "..."}}
    {"id": 1, "ok": true, "result": {...}}
    {"id": 1, "ok": false, "error": {"code": "NOT_FOUND", "msg": "..."}}

Servers dispatch to a service object exposing ``dispatch(op, args)``;
SamError subclasses become error responses with their code string,
anything else becomes INTERNAL.  Clients keep one connection and raise
RemoteError for error responses, ConnectFailed for transport trouble or
a reply that is not protocol JSON.  Every daemon port, control or data
plane, is a :class:`Server`; its ``close()`` returns at once.
"""

from __future__ import annotations

import json
import logging
import socket
import socketserver
import threading

from .errors import BadRequest, ConnectFailed, RemoteError, SamError

log = logging.getLogger(__name__)

MAX_LINE = 16 * 1024 * 1024


def parse_addr(addr) -> tuple[str, int]:
    """Accept (host, port) or 'host:port'."""
    if isinstance(addr, (tuple, list)):
        return addr[0], int(addr[1])
    host, _, port = addr.rpartition(":")
    if not host:
        raise ValueError(f"address {addr!r} is not host:port")
    return host, int(port)


def format_addr(addr: tuple[str, int]) -> str:
    return f"{addr[0]}:{addr[1]}"


class Client:
    """Blocking request/response client; one outstanding request at a time."""

    def __init__(self, addr, timeout: float = 30.0):
        self.addr = parse_addr(addr)
        self.timeout = timeout
        self._sock: socket.socket | None = None
        self._rfile = None
        self._next_id = 0
        self._lock = threading.Lock()

    def _connect(self) -> None:
        try:
            self._sock = socket.create_connection(self.addr, timeout=self.timeout)
        except OSError as e:
            self._sock = None
            raise ConnectFailed(f"cannot connect to {format_addr(self.addr)}: {e}") from e
        self._rfile = self._sock.makefile("rb")

    def call(self, op: str, **args):
        with self._lock:
            if self._sock is None:
                self._connect()
            self._next_id += 1
            request = {"id": self._next_id, "op": op, "args": args}
            try:
                self._sock.sendall(json.dumps(request).encode() + b"\n")
                line = self._rfile.readline(MAX_LINE)
            except OSError as e:
                self.close()
                raise ConnectFailed(f"connection to {format_addr(self.addr)} failed: {e}") from e
            if not line:
                self.close()
                raise ConnectFailed(f"connection to {format_addr(self.addr)} closed by peer")
            try:
                response = json.loads(line)
                ok = response.get("ok")
            except (ValueError, AttributeError):
                self.close()
                raise ConnectFailed(
                    f"{format_addr(self.addr)} answered {line[:80]!r}, not protocol JSON") from None
            if ok:
                return response.get("result")
            error = response.get("error") or {}
            raise RemoteError(error.get("code", "ERROR"), error.get("msg", ""))

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
        self._sock = None
        self._rfile = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class ControlHandler(socketserver.StreamRequestHandler):
    def handle(self):
        service = self.server.service
        while True:
            try:
                line = self.rfile.readline(MAX_LINE)
            except OSError:
                return
            if not line:
                return
            try:
                request = json.loads(line)
                req_id = request.get("id")
                op = request["op"]
                args = request.get("args") or {}
                if not isinstance(args, dict):
                    raise TypeError("args must be an object")
            except (ValueError, KeyError, TypeError) as e:
                self._respond(None, ok=False, code="BAD_REQUEST", msg=str(e))
                return  # framing is unreliable now, drop the connection
            try:
                result = service.dispatch(op, args)
            except SamError as e:
                self._respond(req_id, ok=False, code=e.code, msg=e.msg)
                continue
            except Exception as e:  # noqa: BLE001 - daemon must not die on a bad request
                log.exception("internal error handling op %s", op)
                self._respond(req_id, ok=False, code="INTERNAL", msg=str(e))
                continue
            self._respond(req_id, ok=True, result=result)

    def _respond(self, req_id, ok, result=None, code=None, msg=None):
        if ok:
            payload = {"id": req_id, "ok": True, "result": result}
        else:
            payload = {"id": req_id, "ok": False, "error": {"code": code, "msg": msg}}
        try:
            self.wfile.write(json.dumps(payload).encode() + b"\n")
        except OSError:
            pass


class Server(socketserver.ThreadingTCPServer):
    """One service behind one handler class; handlers reach it as server.service."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, handler, service, addr):
        super().__init__(parse_addr(addr), handler)  # binds and listens
        self.service = service
        self._serving = False

    @property
    def bound_addr(self) -> tuple[str, int]:
        return self.server_address[0], self.server_address[1]

    def start(self) -> "Server":
        """Serve from a daemon thread; returns self.

        Connections made after binding wait in the backlog until this call.
        """
        self._serving = True
        threading.Thread(target=self.serve_forever, daemon=True).start()
        return self

    def close(self) -> None:
        """Stop serving, if started, and release the port; returns at once."""
        try:
            self.socket.shutdown(socket.SHUT_RDWR)  # wakes serve_forever's selector
        except OSError:
            pass
        if self._serving:
            self.shutdown()
        self.server_close()


class UnknownOp(SamError):
    code = "UNKNOWN_OP"


class Dispatcher:
    """Maps op names onto methods via an explicit table."""

    ops: dict[str, str] = {}

    def dispatch(self, op: str, args: dict):
        method_name = self.ops.get(op)
        if method_name is None:
            raise UnknownOp(f"unknown operation {op!r}")
        try:
            return getattr(self, method_name)(**args)
        except TypeError as e:
            if e.__traceback__.tb_next is None:  # raised binding the call, not inside it
                raise BadRequest(f"bad arguments for {op}: {e}") from None
            raise
