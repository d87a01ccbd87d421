"""Line-delimited JSON control protocol shared by every daemon.

One request object per line, one response per line::

    {"id": 1, "op": "get_file", "args": {"name": "..."}}
    {"id": 1, "ok": true, "result": {...}}
    {"id": 1, "ok": false, "error": {"code": "NOT_FOUND", "msg": "..."}}

Servers dispatch to a service object exposing ``dispatch(op, args)``;
SamError subclasses become error responses with their code string,
anything else becomes INTERNAL.  A request whose op is not a string or
args not an object, or that names an argument its op's method does not
take or lacks one, is BAD_REQUEST; an argument whose JSON type is not
its annotation is VALIDATION naming it.  Clients keep one connection and raise
RemoteError for error responses, ConnectFailed for transport trouble or
a reply that is not protocol JSON.  A server never sends unasked, so a kept
connection that turned readable while idle was closed by its peer, and the
client connects again before it sends; it never sends a request twice.
Every daemon port is a :class:`Server`, a store's or station's taking data
requests too; its ``close()`` returns at once and cuts the connections it
accepted, so a client sees ConnectFailed, never a reply from a service
already closed.  A connection waits at most ``TIMEOUT`` seconds for a
connect, a reply, or, kept open, its next request.
"""

from __future__ import annotations

import inspect
import json
import logging
import select
import socket
import socketserver
import threading
import types

from .errors import BadRequest, ConnectFailed, RemoteError, SamError, ValidationError

log = logging.getLogger(__name__)

MAX_LINE = 16 * 1024 * 1024
TIMEOUT = 30.0  # seconds


def parse_addr(addr) -> tuple[str, int]:
    """Accept (host, port) or 'host:port'; a ValueError names a string that is neither."""
    if isinstance(addr, (tuple, list)):
        return addr[0], int(addr[1])
    host, _, port = addr.rpartition(":")
    if not host or not port.isdecimal() or int(port) > 65535:
        raise ValueError(f"address {addr!r} is not host:port")
    return host, int(port)


def format_addr(addr: tuple[str, int]) -> str:
    return f"{addr[0]}:{addr[1]}"


class Client:
    """Blocking request/response client; one outstanding request at a time."""

    def __init__(self, addr):
        self.addr = parse_addr(addr)
        self._sock: socket.socket | None = None
        self._rfile = None
        self._closed_by_peer = None  # polls the kept connection for its end
        self._next_id = 0
        self._lock = threading.Lock()

    def _connect(self) -> None:
        try:
            self._sock = socket.create_connection(self.addr, timeout=TIMEOUT)
        except OSError as e:
            self._sock = None
            raise ConnectFailed(f"cannot connect to {format_addr(self.addr)}: {e}") from e
        self._rfile = self._sock.makefile("rb")
        self._closed_by_peer = select.poll()  # select.select fails above descriptor 1023
        self._closed_by_peer.register(self._sock, select.POLLIN)

    def call(self, op: str, **args):
        with self._lock:
            if self._sock is not None and self._closed_by_peer.poll(0):
                self.close()  # nothing was sent on it, so nothing is sent twice
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
                op = request["op"]  # a TypeError for a request that is not an object
                req_id = request.get("id")
                args = request.get("args", {})
                if not isinstance(op, str) or not isinstance(args, dict):
                    raise TypeError("op must be a string and args an object")
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
    """One service behind one handler class; handlers reach it as server.service.

    Each connection gets its own thread and one handler instance per
    request.  A handler that sets ``keep_open`` leaves the connection open
    for a next request, which gets a new handler; the connection closes
    once a handler leaves it unset, or after ``TIMEOUT`` seconds with no
    request.  A client sends its next request only after the whole answer.
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, handler, service, addr):
        super().__init__(parse_addr(addr), handler)  # binds and listens
        self.service = service
        self._serving = False
        self._conns: set[socket.socket] = set()  # accepted and not yet shut down
        self._conns_lock = threading.Lock()

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

    def finish_request(self, request, client_address):
        idle = select.poll()
        idle.register(request, select.POLLIN)
        while getattr(self.RequestHandlerClass(request, client_address, self), "keep_open", False):
            if not idle.poll(TIMEOUT * 1000):
                return

    def process_request(self, request, client_address):
        with self._conns_lock:
            self._conns.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        with self._conns_lock:  # close() must not shut down a socket closed under it
            self._conns.discard(request)
            super().shutdown_request(request)

    def close(self) -> None:
        """Stop serving, if started, release the port and cut every open connection.

        Returns at once; a handler still running finds its connection at
        end of file and cannot answer.
        """
        try:
            self.socket.shutdown(socket.SHUT_RDWR)  # wakes serve_forever's selector
        except OSError:
            pass
        if self._serving:
            self.shutdown()  # no connection is accepted after this
        self.server_close()
        with self._conns_lock:
            for conn in self._conns:
                try:
                    conn.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass


class UnknownOp(SamError):
    code = "UNKNOWN_OP"


def _kind(annotation) -> tuple[frozenset, frozenset, str] | None:
    """The JSON types an annotation admits: (types, list item types, its text).

    None admits anything: no annotation, or a dict, which its own parser
    checks.  ``json.loads`` makes no subclasses, so a bool is no int here.
    """
    if annotation is inspect.Parameter.empty or annotation is dict:
        return None
    admitted, items = set(), set()
    for part in annotation.__args__ if isinstance(annotation, types.UnionType) else [annotation]:
        if isinstance(part, types.GenericAlias):  # list[X]
            admitted.add(part.__origin__)
            items.update(getattr(part.__args__[0], "__args__", part.__args__))
        else:
            admitted.add(part)
    text = annotation.__name__ if isinstance(annotation, type) else str(annotation)
    return frozenset(admitted), frozenset(items), text


class Dispatcher:
    """Maps op names onto methods via an explicit table; checks each argument's annotation."""

    ops: dict[str, str] = {}

    def __init_subclass__(cls):
        cls._table = {}
        for op, method_name in cls.ops.items():
            params = list(inspect.signature(getattr(cls, method_name),
                                            eval_str=True).parameters.values())[1:]  # not self
            cls._table[op] = (method_name, {p.name: _kind(p.annotation) for p in params},
                              frozenset(p.name for p in params if p.default is p.empty))

    def dispatch(self, op: str, args: dict):
        entry = self._table.get(op)
        if entry is None:
            raise UnknownOp(f"unknown operation {op!r}")
        method_name, kinds, required = entry
        if not (kinds.keys() >= args.keys() and args.keys() >= required):
            unexpected = sorted(args.keys() - kinds.keys())
            raise BadRequest(f"bad arguments for {op}: unexpected {unexpected}, "
                             f"missing {sorted(required.difference(args))}")
        for name, value in args.items():
            kind = kinds[name]
            if kind is not None and (type(value) not in kind[0] or type(value) is list
                                     and not all(type(item) in kind[1] for item in value)):
                raise ValidationError(f"{name} {value!r:.80} is not {kind[2]}")
        return getattr(self, method_name)(**args)
