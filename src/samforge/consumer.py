"""Consumer-side protocol adaptor and its finite state machine.

Analysis frameworks speak a tiny line protocol on the adaptor's standard
input/output: CONFIGURE, GETFILE, RELEASE, BYE in; OK, FILE <path>, END,
ERR <code> <text> out.  The adaptor translates those into project-server
calls and never crashes on bad input: every (state, input) pair has a
defined transition, and anything illegal produces one ERR line and a
nonzero exit.

The FSM itself is pure (no sockets, no I/O) so the transition table can
be exercised exhaustively; adaptor_run wires it to real streams and a
real or injected project-server client.
"""

from __future__ import annotations

import os
import socket
from dataclasses import dataclass

from .errors import SamError
from .project import RELEASE_STATUSES
from .wire import Client

S_START = "Start"
S_CONFIGURED = "Configured"
S_AWAITING = "AwaitingFile"
S_HOLDING = "HoldingFile"
S_ENDED = "Ended"
S_ERROR = "Error"

STATES = (S_START, S_CONFIGURED, S_AWAITING, S_HOLDING, S_ENDED, S_ERROR)
COMMANDS = ("CONFIGURE", "GETFILE", "RELEASE", "BYE")

E_STATE = "E_STATE"
E_INPUT = "E_INPUT"
E_CONFIG = "E_CONFIG"

# Framework-input transition table: (state, command) -> action tag or
# (error code, diagnostic).  Total over STATES x COMMANDS; unknown verbs
# map to E_INPUT in every state.
TABLE: dict[tuple[str, str], object] = {
    (S_START, "CONFIGURE"): "configure",
    (S_START, "GETFILE"): (E_STATE, "getfile before configure"),
    (S_START, "RELEASE"): (E_STATE, "release before configure"),
    (S_START, "BYE"): "bye",
    (S_CONFIGURED, "CONFIGURE"): (E_STATE, "already configured"),
    (S_CONFIGURED, "GETFILE"): "getfile",
    (S_CONFIGURED, "RELEASE"): (E_STATE, "no file is held"),
    (S_CONFIGURED, "BYE"): "bye",
    (S_AWAITING, "CONFIGURE"): (E_STATE, "a getfile is outstanding"),
    (S_AWAITING, "GETFILE"): (E_STATE, "a getfile is outstanding"),
    (S_AWAITING, "RELEASE"): (E_STATE, "a getfile is outstanding"),
    (S_AWAITING, "BYE"): (E_STATE, "a getfile is outstanding"),
    (S_HOLDING, "CONFIGURE"): (E_STATE, "release the held file first"),
    (S_HOLDING, "GETFILE"): (E_STATE, "release the held file first"),
    (S_HOLDING, "RELEASE"): "release",
    (S_HOLDING, "BYE"): "bye",
    (S_ENDED, "CONFIGURE"): (E_STATE, "project has ended"),
    (S_ENDED, "GETFILE"): (E_STATE, "project has ended"),
    (S_ENDED, "RELEASE"): (E_STATE, "project has ended"),
    (S_ENDED, "BYE"): "bye",
    (S_ERROR, "CONFIGURE"): (E_STATE, "adaptor is in the error state"),
    (S_ERROR, "GETFILE"): (E_STATE, "adaptor is in the error state"),
    (S_ERROR, "RELEASE"): (E_STATE, "adaptor is in the error state"),
    (S_ERROR, "BYE"): (E_STATE, "adaptor is in the error state"),
}


class ConsumerFsm:
    """Pure state machine; callers perform the actions it names."""

    def __init__(self):
        self.state = S_START
        self.current_file: int | None = None
        self.diagnostic: str | None = None

    def command(self, verb: str, args: list[str]):
        """Framework input -> ('configure'|'getfile'|'release'|'bye', args)
        or ('error', code, text).  Illegal input lands in Error."""
        outcome = TABLE.get((self.state, verb))
        if outcome is None:
            return self._fail(E_INPUT, f"unknown command {verb!r}")
        if isinstance(outcome, tuple):
            code, text = outcome
            return self._fail(code, text)
        if outcome == "release":
            status = args[0] if args else "consumed"
            if status not in RELEASE_STATUSES:
                return self._fail(E_INPUT, "release status must be consumed or skipped")
            return ("release", status)
        if outcome == "getfile":
            self.state = S_AWAITING
        return (outcome, args)

    def _fail(self, code: str, text: str):
        self.state = S_ERROR
        self.diagnostic = f"{code} {text}"
        return ("error", code, text)

    # -- outcomes reported back by the adaptor ----------------------------

    def configured(self) -> None:
        self.state = S_CONFIGURED

    def server_file(self, file_id: int) -> None:
        self.state = S_HOLDING
        self.current_file = file_id

    def server_end(self) -> None:
        self.state = S_ENDED
        self.current_file = None

    def released(self) -> None:
        self.state = S_CONFIGURED
        self.current_file = None

    def server_error(self, code: str, text: str) -> None:
        self.state = S_ERROR
        self.diagnostic = f"{code} {text}"


@dataclass
class AdaptorConfig:
    project_addr: str
    station_addr: str
    project: str | None = None
    dataset: str | None = None
    consumer_id: str | None = None

    def resolved_consumer_id(self) -> str:
        if self.consumer_id:
            return self.consumer_id
        return f"{socket.gethostname()}-{os.getpid()}"


def adaptor_run(lines_in, out, config: AdaptorConfig, client_factory=None) -> int:
    """Drive the FSM from a line stream until END, BYE, or an error.

    Returns the process exit status: 0 after END or BYE, nonzero after
    any ERR.  client_factory(addr) may inject a client; its caller closes it.
    """
    if client_factory is not None:
        return _converse(lines_in, out, config, client_factory(config.project_addr))
    with Client(config.project_addr) as server:
        return _converse(lines_in, out, config, server)


def _converse(lines_in, out, config: AdaptorConfig, server) -> int:
    fsm = ConsumerFsm()
    consumer_id = config.resolved_consumer_id()
    project: str | None = None

    def emit(text: str) -> None:
        out.write(text + "\n")
        out.flush()

    def err(code: str, text: str) -> int:
        emit(f"ERR {code} {text}")
        return 1

    for raw in lines_in:
        line = raw.strip()
        if not line:
            continue
        verb, *args = line.split()
        action = fsm.command(verb, args)

        if action[0] == "error":
            return err(action[1], action[2])

        if action[0] == "bye":
            emit("OK")
            return 0

        if action[0] == "configure":
            project = (args[0] if args else None) or config.project or os.environ.get("SAM_PROJECT")
            dataset = (args[1] if len(args) > 1 else None) or config.dataset
            if not project:
                fsm.server_error(E_CONFIG, "missing project name")
                return err(E_CONFIG, "missing project name")
            try:
                if dataset:
                    try:
                        server.call("start", project_name=project, dataset_name=dataset)
                    except SamError as e:
                        if e.code != "DUPLICATE_PROJECT":  # already live: just join it
                            raise
                else:
                    server.call("status", project_name=project)
            except SamError as e:
                fsm.server_error(f"E_{e.code}", e.msg)
                return err(f"E_{e.code}", e.msg)
            fsm.configured()
            emit("OK")

        elif action[0] == "getfile":
            try:
                result = server.call("next", project_name=project, consumer_id=consumer_id,
                                     station=config.station_addr)
            except SamError as e:
                fsm.server_error(f"E_{e.code}", e.msg)
                return err(f"E_{e.code}", e.msg)
            if result.get("end"):
                fsm.server_end()
                emit("END")
                return 0
            fsm.server_file(result["file_id"])
            emit(f"FILE {result['path']}")

        elif action[0] == "release":
            try:
                server.call("release", project_name=project, consumer_id=consumer_id,
                            file_id=fsm.current_file, status=action[1])
            except SamError as e:
                fsm.server_error(f"E_{e.code}", e.msg)
                return err(f"E_{e.code}", e.msg)
            fsm.released()
            emit("OK")

    # input ran dry without BYE/END: an unfinished conversation is an error
    return err(E_INPUT, "input closed before BYE")
