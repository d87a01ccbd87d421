"""Control protocol: framing, dispatch, and error propagation."""

import threading
import time

import pytest

from samforge.errors import ConnectFailed, NotFound, RemoteError
from samforge.wire import (
    Client,
    ControlHandler,
    Dispatcher,
    Server,
    format_addr,
    parse_addr,
)


class EchoService(Dispatcher):
    ops = {"echo": "echo", "boom": "boom", "add": "add", "broken": "broken"}

    def echo(self, value):
        return value

    def add(self, a, b):
        return a + b

    def boom(self):
        raise NotFound("gone")

    def broken(self):
        return int([1])  # a TypeError from the op's own body, not from its arguments


@pytest.fixture
def server():
    server = Server(ControlHandler, EchoService(), ("127.0.0.1", 0)).start()
    yield server
    server.close()


def test_parse_addr_forms():
    assert parse_addr("127.0.0.1:4750") == ("127.0.0.1", 4750)
    assert parse_addr(("localhost", 99)) == ("localhost", 99)
    assert parse_addr(["localhost", "99"]) == ("localhost", 99)
    with pytest.raises(ValueError):
        parse_addr("4750")


def test_round_trip_preserves_json_values(server):
    with Client(format_addr(server.bound_addr)) as client:
        payload = {"nested": [1, 2, {"deep": None}], "s": "x"}
        assert client.call("echo", value=payload) == payload
        assert client.call("add", a=2, b=3) == 5


def test_remote_error_carries_wire_code(server):
    with Client(format_addr(server.bound_addr)) as client:
        with pytest.raises(RemoteError) as excinfo:
            client.call("boom")
        assert excinfo.value.code == "NOT_FOUND"
        assert excinfo.value.msg == "gone"
        # the connection survives an error response
        assert client.call("echo", value=1) == 1


def test_unknown_op_and_bad_args(server):
    with Client(format_addr(server.bound_addr)) as client:
        with pytest.raises(RemoteError) as excinfo:
            client.call("no_such_op")
        assert excinfo.value.code == "UNKNOWN_OP"
        with pytest.raises(RemoteError) as excinfo:
            client.call("add", a=1)  # missing argument
        assert excinfo.value.code == "BAD_REQUEST"
        with pytest.raises(RemoteError) as excinfo:
            client.call("add", a=1, b=2, c=3)  # unexpected argument
        assert excinfo.value.code == "BAD_REQUEST"
        with pytest.raises(RemoteError) as excinfo:
            client.call("broken")
        assert excinfo.value.code == "INTERNAL"


def test_connect_failed_has_conn_code():
    client = Client("127.0.0.1:1")  # nothing listens on port 1
    with pytest.raises(ConnectFailed) as excinfo:
        client.call("echo", value=1)
    assert excinfo.value.code == "CONN"


def test_concurrent_clients_get_matching_responses(server):
    addr = format_addr(server.bound_addr)
    results = {}

    def worker(i):
        with Client(addr) as client:
            results[i] = [client.call("add", a=i, b=n) for n in range(20)]

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert results == {i: [i + n for n in range(20)] for i in range(8)}


def test_server_close_is_immediate():
    server = Server(ControlHandler, EchoService(), ("127.0.0.1", 0)).start()
    addr = format_addr(server.bound_addr)
    with Client(addr) as client:
        assert client.call("echo", value=1) == 1
    time.sleep(0.05)  # let the serving thread go back to waiting for connections
    start = time.monotonic()
    server.close()
    assert time.monotonic() - start < 0.2
    with pytest.raises(ConnectFailed):
        Client(addr).call("echo", value=1)  # the port is released
