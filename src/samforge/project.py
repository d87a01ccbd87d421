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
)
from .journal import Journal
from .records import DatasetSnapshot
from .wire import Client, Dispatcher

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
    def __init__(self, snapshot: DatasetSnapshot):
        self.project_name = None  # set by the server
        self.snapshot = snapshot
        self.names: dict[int, str] = dict(zip(snapshot.file_ids, snapshot.file_names))
        self.undelivered: set[int] = set(snapshot.file_ids)
        # undelivered ids not exhausted, highest first: the next hand-out is pool[-1]
        self.pool: list[int] = sorted(self.undelivered, reverse=True)
        self.delivered: dict[int, str] = {}
        self.held: dict[int, Handout] = {}
        self.per_consumer_counts: dict[str, int] = {}
        self.stations: dict[str, str] = {}  # consumer -> station control addr
        self.attempts: dict[int, int] = {}  # redelivery attempts per file
        self.exhausted: set[int] = set()
        self.saw_end: set[str] = set()
        self.state = STATE_RUNNING
        self.summary: dict | None = None
        # live connections, not journaled: (consumer, station) -> client
        self.clients: dict[tuple[str, str], Client] = {}
        self.calls = 0  # station calls running on them

    def upcoming(self, n: int) -> list[int]:
        """The next n ids to hand out, lowest first."""
        return self.pool[:-n - 1:-1]

    def register(self, consumer_id: str, station: str | None) -> None:
        if station:
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
        self._clients_lock = threading.Lock()  # each project's clients and calls
        # Deliver seq -> fetches of that hand-out running, while none has succeeded;
        # its own lock, so a fetch that succeeds does not wait out a journal fsync
        self._fetches: dict[int, int] = {}
        self._fetches_lock = threading.Lock()
        self._seq = 0  # sequence number of the journal entry being applied
        self.journal = Journal(journal_path, self._apply)

    # -- journal apply (replay and commit) ---------------------------------

    def _apply(self, kind: str, payload: dict) -> None:
        self._seq += 1  # the journal applies every entry once, in order, from 1
        if kind == "StartProject":
            state = ProjectState(DatasetSnapshot.from_wire(payload["snapshot"]))
            state.project_name = payload["project_name"]
            self.projects[state.project_name] = state
            return
        project = self.projects.get(payload["project_name"])
        if project is None:
            return  # entry for a project whose start we never saw; impossible unless trimmed
        if kind == "Deliver":
            file_id, consumer = payload["file_id"], payload["consumer_id"]
            project.undelivered.discard(file_id)
            lowest = project.pool.pop()
            assert lowest == file_id, "a Deliver hands out the lowest deliverable id"
            project.delivered[file_id] = consumer
            project.held[file_id] = Handout(consumer, self._seq, [payload["station"]])
            project.register(consumer, payload["station"])
            project.per_consumer_counts[consumer] = project.per_consumer_counts.get(consumer, 0) + 1
        elif kind == "DeliveryFailed":
            file_id, consumer = payload["file_id"], payload["consumer_id"]
            handout = project.held.get(file_id)
            if handout is None or handout.seq != payload["deliver_seq"]:
                return  # a stale fetch: its hand-out was undone or released already
            del project.held[file_id]
            project.delivered.pop(file_id, None)
            project.undelivered.add(file_id)
            project.per_consumer_counts[consumer] = project.per_consumer_counts.get(consumer, 1) - 1
            attempts = project.attempts.get(file_id, 0) + 1
            project.attempts[file_id] = attempts
            if attempts >= REDELIVERY_CAP:
                project.exhausted.add(file_id)
            else:
                bisect.insort(project.pool, file_id, key=operator.neg)
        elif kind == "Resume":  # a held file fetched again, at another station
            project.held[payload["file_id"]].stations.append(payload["station"])
            project.register(payload["consumer_id"], payload["station"])
        elif kind == "Release":
            project.held.pop(payload["file_id"], None)
        elif kind == "Drain":
            project.state = STATE_DRAINING
            project.register(payload["consumer_id"], None)
            project.saw_end.add(payload["consumer_id"])
        elif kind == "StopProject":
            project.state = STATE_ENDED
            project.summary = payload.get("summary")
        else:
            raise ValueError(f"unknown journal kind {kind!r}")

    # -- operations --------------------------------------------------------

    def start_project(self, project_name: str, dataset_name: str) -> dict:
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
                "snapshot_id": project.snapshot.snapshot_id,
                "files": len(project.undelivered),
            }

    def next_file(self, project_name: str, consumer_id: str,
                  station: str | None = None) -> dict:
        with self._lock:
            project = self._live(project_name)
            station_addr = station or project.stations.get(consumer_id)
            if station_addr is None:
                raise ValidationError(
                    f"consumer {consumer_id!r} never told the server its station")
            project.register(consumer_id, station_addr)
            held = [f for f, h in project.held.items() if h.consumer == consumer_id]
            if held:
                file_id = min(held)  # resume: redeliver what they already hold
                handout = project.held[file_id]
                deliver_seq = handout.seq
                prefetch = []
                if station_addr not in handout.stations:
                    # not unpinned here: the fetch there may still be running
                    self.journal.commit("Resume", {
                        "project_name": project_name,
                        "file_id": file_id,
                        "consumer_id": consumer_id,
                        "station": station_addr,
                    })
            else:
                upcoming = project.upcoming(1 + PREFETCH_DEPTH)
                if not upcoming:
                    self.journal.commit("Drain", {
                        "project_name": project_name,
                        "consumer_id": consumer_id,
                    })
                    self._maybe_finish(project)
                    self._close_if_ended(project)  # nothing is held, so no unpin is due
                    return {"end": True}
                file_id = upcoming[0]
                # prefetch only when every consumer of the project uses this
                # station: the next ids go to whichever consumer asks next
                one_station = all(s == station_addr for s in project.stations.values())
                prefetch = [project.names[i] for i in upcoming[1:]] if one_station else []
                deliver_seq = self.journal.commit("Deliver", {
                    "project_name": project_name,
                    "file_id": file_id,
                    "consumer_id": consumer_id,
                    "station": station_addr,
                })
            file_name = project.names[file_id]
            with self._fetches_lock:
                self._fetches[deliver_seq] = self._fetches.get(deliver_seq, 0) + 1
        # the transfer happens outside the project lock: it may be slow
        try:
            path = self._call_station(project, consumer_id, station_addr, "fetch",
                                      file_name=file_name, requesting_project=project_name,
                                      prefetch=prefetch)
        except SamError as e:
            with self._lock:  # no fetch of this hand-out can start meanwhile
                with self._fetches_lock:
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
        with self._fetches_lock:
            self._fetches.pop(deliver_seq, None)  # the consumer has the file
        return {"file_id": file_id, "file_name": file_name, "path": path}

    def release_file(self, project_name: str, consumer_id: str, file_id: int,
                     status: str = "consumed") -> bool:
        if status not in RELEASE_STATUSES:
            raise ValidationError(f"release status must be one of {RELEASE_STATUSES}")
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
            if project.state == STATE_ENDED and project.summary is not None:
                return project.summary
            summary = self._summarize(project)
            outstanding = list(project.held.items())
            self.journal.commit("StopProject", {
                "project_name": project_name,
                "summary": summary,
            })
        for file_id, handout in outstanding:
            self._unpin_quietly(project, file_id, handout)
        self._close_if_ended(project)
        return summary

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
            self.journal.commit("StopProject", {
                "project_name": project.project_name,
                "summary": self._summarize(project),
            })

    def _summarize(self, project: ProjectState) -> dict:
        return {
            "project_name": project.project_name,
            "delivered_counts": dict(project.per_consumer_counts),
            "delivered_total": len(project.delivered),
            "undelivered": sorted(project.undelivered),
            "snapshot_files": len(project.snapshot.file_ids),
        }

    def _one_status(self, project: ProjectState) -> dict:
        return {
            "project_name": project.project_name,
            "state": project.state,
            "snapshot_id": project.snapshot.snapshot_id,
            "undelivered": len(project.undelivered),
            "delivered": len(project.delivered),
            "held": len(project.held),
            "exhausted": sorted(project.exhausted),
            "per_consumer_counts": dict(project.per_consumer_counts),
        }

    def _call_station(self, project: ProjectState, consumer: str, addr: str, op: str, /, **args):
        """One call on the project's client for this consumer and station."""
        with self._clients_lock:
            client = project.clients.get((consumer, addr))
            if client is None:
                client = project.clients[consumer, addr] = Client(addr)
            project.calls += 1
        try:
            return client.call(op, **args)
        finally:
            with self._clients_lock:
                project.calls -= 1
            self._close_if_ended(project)

    def _close_if_ended(self, project: ProjectState) -> None:
        """Close an ended project's clients once none of its station calls is running."""
        with self._clients_lock:
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
