"""adaptor_run: line protocol in, project-server calls out."""

import gc
import io
import warnings

import pytest

from samforge.consumer import AdaptorConfig, adaptor_run
from samforge.errors import RemoteError
from samforge.project import ProjectServer
from samforge.query import Atom
from samforge.wire import ControlHandler, Server, format_addr


class StubServer:
    """Scripted project server; records every call it receives."""

    def __init__(self, next_results=(), errors=None):
        self.calls = []
        self.next_results = list(next_results)
        self.errors = errors or {}  # op -> exception to raise

    def call(self, op, **kwargs):
        self.calls.append((op, kwargs))
        if op in self.errors:
            raise self.errors[op]
        if op == "next":
            return self.next_results.pop(0)
        return {}

    def ops_seen(self):
        return [op for op, _ in self.calls]


def run(lines, stub=None, **config_overrides):
    config = AdaptorConfig(project_addr="127.0.0.1:1", station_addr="127.0.0.1:2",
                           project="proj", consumer_id="c-test")
    for key, value in config_overrides.items():
        setattr(config, key, value)
    stub = stub if stub is not None else StubServer()
    out = io.StringIO()
    status = adaptor_run(iter(lines), out, config, client_factory=lambda addr: stub)
    return status, out.getvalue().splitlines(), stub


def test_golden_session_transcript():
    stub = StubServer(next_results=[
        {"file_id": 9, "file_name": "a.raw", "path": "/cache/a.raw"},
        {"end": True},
    ])
    status, lines, stub = run(
        ["CONFIGURE\n", "GETFILE\n", "RELEASE\n", "GETFILE\n"], stub)
    assert status == 0
    assert lines == ["OK", "FILE /cache/a.raw", "OK", "END"]
    assert stub.calls == [
        ("status", {"project_name": "proj"}),
        ("next", {"project_name": "proj", "consumer_id": "c-test",
                  "station": "127.0.0.1:2"}),
        ("release", {"project_name": "proj", "consumer_id": "c-test",
                     "file_id": 9, "status": "consumed"}),
        ("next", {"project_name": "proj", "consumer_id": "c-test",
                  "station": "127.0.0.1:2"}),
    ]


def test_bye_acknowledged_and_clean_exit():
    status, lines, stub = run(["BYE\n"])
    assert (status, lines) == (0, ["OK"])
    assert stub.calls == []


def test_getfile_before_configure_is_a_state_error():
    status, lines, stub = run(["GETFILE\n"])
    assert status == 1
    assert lines == ["ERR E_STATE getfile before configure"]
    assert stub.calls == []


def test_explicit_project_argument_beats_config():
    status, lines, stub = run(["CONFIGURE other\n", "BYE\n"])
    assert status == 0
    assert stub.calls[0] == ("status", {"project_name": "other"})


def test_missing_project_everywhere_is_a_config_error(monkeypatch):
    monkeypatch.delenv("SAM_PROJECT", raising=False)
    status, lines, stub = run(["CONFIGURE\n"], project=None)
    assert status == 1
    assert lines == ["ERR E_CONFIG missing project name"]
    assert stub.calls == []


def test_project_name_falls_back_to_environment(monkeypatch):
    monkeypatch.setenv("SAM_PROJECT", "envproj")
    status, lines, stub = run(["CONFIGURE\n", "BYE\n"], project=None)
    assert status == 0
    assert stub.calls[0] == ("status", {"project_name": "envproj"})


def test_configure_with_dataset_starts_the_project():
    status, lines, stub = run(["CONFIGURE proj nightly\n", "BYE\n"])
    assert status == 0
    assert stub.calls[0] == ("start", {"project_name": "proj",
                                       "dataset_name": "nightly"})


def test_joining_a_live_project_tolerates_duplicate_start():
    stub = StubServer(errors={"start": RemoteError("DUPLICATE_PROJECT", "live")})
    status, lines, stub = run(["CONFIGURE proj nightly\n", "BYE\n"], stub)
    assert (status, lines) == (0, ["OK", "OK"])


def test_other_start_errors_are_fatal():
    stub = StubServer(errors={"start": RemoteError("NOT_FOUND", "no dataset")})
    status, lines, stub = run(["CONFIGURE proj nightly\n"], stub)
    assert status == 1
    assert lines == ["ERR E_NOT_FOUND no dataset"]


def test_server_error_on_getfile_is_reported_with_wire_code():
    stub = StubServer(errors={"next": RemoteError("PROJECT_ENDED",
                                                  "project 'proj' has ended")})
    status, lines, stub = run(["CONFIGURE\n", "GETFILE\n"], stub)
    assert status == 1
    assert lines == ["OK", "ERR E_PROJECT_ENDED project 'proj' has ended"]


def test_release_with_bad_status_never_reaches_the_server():
    stub = StubServer(next_results=[{"file_id": 9, "path": "/cache/a.raw"}])
    status, lines, stub = run(["CONFIGURE\n", "GETFILE\n", "RELEASE banana\n"], stub)
    assert status == 1
    assert lines[-1] == "ERR E_INPUT release status must be consumed or skipped"
    assert "release" not in stub.ops_seen()


def test_release_skipped_status_forwarded():
    stub = StubServer(next_results=[{"file_id": 9, "path": "/cache/a.raw"}])
    status, lines, stub = run(
        ["CONFIGURE\n", "GETFILE\n", "RELEASE skipped\n", "BYE\n"], stub)
    assert status == 0
    assert ("release", {"project_name": "proj", "consumer_id": "c-test",
                        "file_id": 9, "status": "skipped"}) in stub.calls


def test_eof_without_bye_is_an_input_error():
    status, lines, stub = run(["CONFIGURE\n"])
    assert status == 1
    assert lines == ["OK", "ERR E_INPUT input closed before BYE"]


def test_blank_lines_are_ignored():
    status, lines, stub = run(["\n", "   \n", "BYE\n"])
    assert (status, lines) == (0, ["OK"])


def test_default_consumer_id_names_host_and_pid():
    import os
    import socket

    config = AdaptorConfig(project_addr="a", station_addr="b")
    assert config.resolved_consumer_id() == f"{socket.gethostname()}-{os.getpid()}"
    assert AdaptorConfig(project_addr="a", station_addr="b",
                         consumer_id="me").resolved_consumer_id() == "me"


def test_the_client_made_without_a_factory_is_closed(rig):
    with rig.catalog_client() as catalog:
        catalog.define_dataset("none", Atom("event_type", "=", "nosuch"))
    project = ProjectServer(rig.root / "project.journal", rig.catalog_addr)
    server = Server(ControlHandler, project, ("127.0.0.1", 0)).start()
    config = AdaptorConfig(project_addr=format_addr(server.bound_addr),
                           station_addr="127.0.0.1:1", consumer_id="c-test")
    out = io.StringIO()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            status = adaptor_run(iter(["CONFIGURE p none\n", "GETFILE\n"]), out, config)
            gc.collect()
    finally:
        server.close()
        project.close()
    assert (status, out.getvalue().splitlines()) == (0, ["OK", "END"])
    assert [str(w.message) for w in caught if w.category is ResourceWarning] == []
