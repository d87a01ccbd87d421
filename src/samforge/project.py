"""Project server: exactly-once, pull-based file delivery over a snapshot.

A project freezes a dataset into a snapshot, then consumers pull files
one at a time; the server always hands out the lowest undelivered
file id, so equal pull rates receive equal shares without any push-side
partitioning.  Every hand-out is journaled before the consumer's station
is told to fetch, which makes restarts safe: a consumer that lost the
reply simply asks again and receives the same file it already holds.
File names ride in the snapshot, so a hand-out makes no catalog call.
While all of a project's consumers use one station, the same fetch names
the next few files the project will hand out, so that station can
prefetch them before any consumer asks.

Delivery failures return the file to the undelivered pool (at most 3
redeliveries per file, then it is set aside and reported undelivered at
the end) and surface the station's error to the asking consumer only.
A failure names the journal sequence number of the hand-out it undoes,
and counts only while that hand-out is current: a stale fetch that fails
after its file was returned, released or handed out again changes nothing.
A consumer that restarts mid-fetch starts a second fetch of the same
hand-out; a failure undoes the hand-out only when it is the last fetch of
it still running and none of them has succeeded.  A consumer that resumes
at another station has that station journaled too, and the release unpins
the file at every station the hand-out was fetched at.

A project's state is what its journal entries fold to through one apply,
so a restarted server holds exactly what the old one did.  An ended project
keeps its summary and counters but drops its file names.
"""

from __future__ import annotations

import bisect
import operator
import threading
from dataclasses import dataclass

from .errors import (
    DuplicateProject,
    NotFound,
    NotHeld,
    ProjectEnded,
    SamError,
    ValidationError,
    require_type,
)
from .journal import Journal
from .wire import Client, Dispatcher, parse_addr

REDELIVERY_CAP = 3
PREFETCH_DEPTH = 2  # files after the one handed out that the station may prefetch

STATE_RUNNING = "running"
STATE_DRAINING = "draining"
STATE_ENDED = "ended"

RELEASE_STATUSES = ("consumed", "skipped")


@dataclass
class Handout:
    """A delivered file its consumer has not yet released."""

    consumer: str
    seq: int  # journal seq of its Deliver
    stations: list[str]  # each station it was fetched at, so each can be unpinned


class ProjectState:
    """A project as its journal entries fold to, plus its live station connections."""

    def __init__(self, project_name: str, snapshot: dict):
        self.project_name = project_name
        self.snapshot_id: int = snapshot["snapshot_id"]
        self.snapshot_files = len(snapshot["file_ids"])
        self.names: dict[int, str] = dict(zip(snapshot["file_ids"], snapshot["file_names"]))
        # ids neither handed out nor exhausted, highest first: the next hand-out is pool[-1]
        self.pool: list[int] = sorted(self.names, reverse=True)
        self.held: dict[int, Handout] = {}
        self.per_consumer_counts: dict[str, int] = {}  # files handed out and not failed
        self.stations: dict[str, str] = {}  # consumer -> station its last entry named
        self.attempts: dict[int, int] = {}  # redelivery attempts per file
        self.exhausted: set[int] = set()
        self.saw_end: set[str] = set()
        self.state = STATE_RUNNING
        self.summary: dict | None = None  # set when the project ends
        # live connections, not journaled: (consumer, station) -> client
        self.clients: dict[tuple[str, str], Client] = {}
        self.calls = 0  # station calls running on them

    def upcoming(self, n: int) -> list[int]:
        """The next n ids to hand out, lowest first."""
        return self.pool[:-n - 1:-1]

    def register(self, consumer_id: str, station: str) -> None:
        self.stations[consumer_id] = station
        self.per_consumer_counts.setdefault(consumer_id, 0)


class ProjectServer(Dispatcher):
    ops = {
        "start": "start_project",
        "next": "next_file",
        "release": "release_file",
        "stop": "stop_project",
        "status": "status",
    }

    def __init__(self, journal_path, catalog_addr):
        self._lock = threading.RLock()
        self.catalog = Client(catalog_addr)
        self.projects: dict[str, ProjectState] = {}
        # what is not journaled: each project's clients and calls, and _fetches;
        # never held across a station call or a journal commit
        self._live_lock = threading.Lock()
        # Deliver seq -> fetches of that hand-out running, while none has succeeded
        self._fetches: dict[int, int] = {}
        self._seq = 0  # sequence number of the journal entry being applied
        self.journal = Journal(journal_path, self._apply)

    # -- journal apply (replay and commit) ---------------------------------

    def _apply(self, kind: str, payload: dict) -> None:
        self._seq += 1  # the journal applies every entry once, in order, from 1
        if kind == "StartProject":
            name = payload["project_name"]
            self.projects[name] = ProjectState(name, payload["snapshot"])
            return
        project = self.projects.get(payload["project_name"])
        if project is None:
            return  # entry for a project whose start we never saw; impossible unless trimmed
        file_id, consumer = payload.get("file_id"), payload.get("consumer_id")
        if kind == "Deliver":
            lowest = project.pool.pop()
            assert lowest == file_id, "a Deliver hands out the lowest deliverable id"
            project.held[file_id] = Handout(consumer, self._seq, [payload["station"]])
            project.register(consumer, payload["station"])
            project.per_consumer_counts[consumer] += 1
        elif kind == "DeliveryFailed":
            handout = project.held.get(file_id)
            if handout is None or handout.seq != payload["deliver_seq"]:
                return  # a stale fetch: its hand-out was undone or released already
            del project.held[file_id]
            project.per_consumer_counts[consumer] -= 1
            attempts = project.attempts.get(file_id, 0) + 1
            project.attempts[file_id] = attempts
            if attempts >= REDELIVERY_CAP:
                project.exhausted.add(file_id)
            else:
                bisect.insort(project.pool, file_id, key=operator.neg)
        elif kind == "Resume":  # a held file fetched again, at another station
            project.held[file_id].stations.append(payload["station"])
            project.register(consumer, payload["station"])
        elif kind == "Release":
            del project.held[file_id]
        elif kind == "Drain":
            project.state = STATE_DRAINING
            project.register(consumer, payload["station"])
            project.saw_end.add(consumer)
        elif kind == "StopProject":
            project.state = STATE_ENDED
            project.summary = self._summarize(project)
            project.names = {}  # nothing is handed out any more
        else:
            raise ValueError(f"unknown journal kind {kind!r}")

    # -- operations --------------------------------------------------------

    def start_project(self, project_name: str, dataset_name: str) -> dict:
        require_type("project_name", project_name, str)
        if not project_name:
            raise ValidationError("project name must be non-empty")
        with self._lock:
            live = self.projects.get(project_name)
            if live is not None and live.state != STATE_ENDED:
                raise DuplicateProject(f"project {project_name!r} is live")
            self.journal.commit("StartProject", {
                "project_name": project_name,
                # NOT_FOUND propagates
                "snapshot": self.catalog.call("take_snapshot", dataset_name=dataset_name),
            })
            project = self.projects[project_name]
            return {
                "project_name": project_name,
                "snapshot_id": project.snapshot_id,
                "files": project.snapshot_files,
            }

    def next_file(self, project_name: str, consumer_id: str, station: str) -> dict:
        # refused before anything is journaled, so no hand-out names them
        require_type("consumer_id", consumer_id, str)
        try:
            parse_addr(station if isinstance(station, str) else "")
        except ValueError:
            raise ValidationError(f"station {station!r} is not HOST:PORT") from None
        with self._lock:
            project = self._live(project_name)
            held = [f for f, h in project.held.items() if h.consumer == consumer_id]
            if held:
                file_id = min(held)  # resume: redeliver what they already hold
                handout = project.held[file_id]
                deliver_seq = handout.seq
                prefetch = []
                if station not in handout.stations:
                    # not unpinned here: the fetch there may still be running
                    self.journal.commit("Resume", {
                        "project_name": project_name,
                        "file_id": file_id,
                        "consumer_id": consumer_id,
                        "station": station,
                    })
            else:
                upcoming = project.upcoming(1 + PREFETCH_DEPTH)
                if not upcoming:
                    self.journal.commit("Drain", {
                        "project_name": project_name,
                        "consumer_id": consumer_id,
                        "station": station,
                    })
                    self._maybe_finish(project)
                    self._close_if_ended(project)  # nothing is held, so no unpin is due
                    return {"end": True}
                file_id = upcoming[0]
                # prefetch only when every other consumer of the project uses this
                # station too: the next ids go to whichever consumer asks next
                one_station = all(s == station for c, s in project.stations.items()
                                  if c != consumer_id)
                prefetch = [project.names[i] for i in upcoming[1:]] if one_station else []
                deliver_seq = self.journal.commit("Deliver", {
                    "project_name": project_name,
                    "file_id": file_id,
                    "consumer_id": consumer_id,
                    "station": station,
                })
            file_name = project.names[file_id]
            with self._live_lock:
                self._fetches[deliver_seq] = self._fetches.get(deliver_seq, 0) + 1
        # the transfer happens outside the project lock: it may be slow
        try:
            path = self._call_station(project, consumer_id, station, "fetch",
                                      file_name=file_name, requesting_project=project_name,
                                      prefetch=prefetch)
        except SamError as e:
            with self._lock:  # no fetch of this hand-out can start meanwhile
                with self._live_lock:
                    running = self._fetches.pop(deliver_seq, 0) - 1  # -1: one succeeded
                    if running > 0:
                        self._fetches[deliver_seq] = running
                if running == 0:
                    self.journal.commit("DeliveryFailed", {
                        "project_name": project_name,
                        "file_id": file_id,
                        "consumer_id": consumer_id,
                        "deliver_seq": deliver_seq,
                        "reason": f"{e.code}: {e.msg}",
                    })
            raise
        with self._live_lock:
            self._fetches.pop(deliver_seq, None)  # the consumer has the file
        return {"file_id": file_id, "file_name": file_name, "path": path}

    def release_file(self, project_name: str, consumer_id: str, file_id: int,
                     status: str = "consumed") -> bool:
        if status not in RELEASE_STATUSES:
            raise ValidationError(f"release status must be one of {RELEASE_STATUSES}")
        require_type("file_id", file_id, int)
        with self._lock:
            project = self._project(project_name)
            handout = project.held.get(file_id)
            if handout is None or handout.consumer != consumer_id:
                raise NotHeld(f"consumer {consumer_id!r} does not hold file {file_id}")
            self.journal.commit("Release", {
                "project_name": project_name,
                "file_id": file_id,
                "consumer_id": consumer_id,
                "status": status,
            })
            self._maybe_finish(project)
        self._unpin_quietly(project, file_id, handout)
        return True

    def stop_project(self, project_name: str) -> dict:
        with self._lock:
            project = self._project(project_name)
            if project.state == STATE_ENDED:
                return project.summary
            outstanding = list(project.held.items())
            self.journal.commit("StopProject", {"project_name": project_name})
        for file_id, handout in outstanding:
            self._unpin_quietly(project, file_id, handout)
        self._close_if_ended(project)
        return project.summary

    def status(self, project_name: str | None = None) -> dict:
        with self._lock:
            if project_name is not None:
                return self._one_status(self._project(project_name))
            return {
                "projects": [self._one_status(p) for p in self.projects.values()],
                "journal_seq": self.journal.last_seq,
            }

    # -- helpers -----------------------------------------------------------

    def _project(self, project_name: str) -> ProjectState:
        require_type("project_name", project_name, str)
        project = self.projects.get(project_name)
        if project is None:
            raise NotFound(f"no project {project_name!r}")
        return project

    def _live(self, project_name: str) -> ProjectState:
        project = self._project(project_name)
        if project.state == STATE_ENDED:
            raise ProjectEnded(f"project {project_name!r} has ended")
        return project

    def _maybe_finish(self, project: ProjectState) -> None:
        """A drained project ends once every consumer saw END and nothing is held."""
        if (project.state == STATE_DRAINING
                and not project.held
                and not project.pool
                and project.saw_end >= set(project.per_consumer_counts)):
            self.journal.commit("StopProject", {"project_name": project.project_name})

    def _summarize(self, project: ProjectState) -> dict:
        return {
            "project_name": project.project_name,
            "delivered_counts": dict(project.per_consumer_counts),
            "delivered_total": sum(project.per_consumer_counts.values()),
            "undelivered": sorted([*project.pool, *project.exhausted]),
            "snapshot_files": project.snapshot_files,
        }

    def _one_status(self, project: ProjectState) -> dict:
        return {
            "project_name": project.project_name,
            "state": project.state,
            "snapshot_id": project.snapshot_id,
            "undelivered": len(project.pool) + len(project.exhausted),
            "delivered": sum(project.per_consumer_counts.values()),
            "held": len(project.held),
            "exhausted": sorted(project.exhausted),
            "per_consumer_counts": dict(project.per_consumer_counts),
        }

    def _call_station(self, project: ProjectState, consumer: str, addr: str, op: str, /, **args):
        """One call on the project's client for this consumer and station."""
        with self._live_lock:
            client = project.clients.get((consumer, addr))
            if client is None:
                client = project.clients[consumer, addr] = Client(addr)
            project.calls += 1
        try:
            return client.call(op, **args)
        finally:
            with self._live_lock:
                project.calls -= 1
            self._close_if_ended(project)

    def _close_if_ended(self, project: ProjectState) -> None:
        """Close an ended project's clients once none of its station calls is running."""
        with self._live_lock:
            if project.state != STATE_ENDED or project.calls:
                return
            clients, project.clients = project.clients, {}
        for client in clients.values():
            client.close()

    def _unpin_quietly(self, project: ProjectState, file_id: int, handout: Handout) -> None:
        """Unpin wherever it was fetched; a lost pin must not undo the bookkeeping.

        Each goes on the consumer's own client, after any fetch still running there.
        """
        for station_addr in handout.stations:
            try:
                self._call_station(project, handout.consumer, station_addr, "unpin",
                                   file_id=file_id, project=project.project_name)
            except SamError:
                pass

    def close(self) -> None:
        self.catalog.close()
        for project in self.projects.values():
            for client in project.clients.values():
                client.close()
        self.journal.close()
