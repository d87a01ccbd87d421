"""Project server: exactly-once, pull-based file delivery over a snapshot.

A project freezes a dataset into a snapshot, then consumers pull files
one at a time; the server always hands out the lowest undelivered
file id, so equal pull rates receive equal shares without any push-side
partitioning.  Every hand-out is journaled before the consumer's station
is told to fetch, which makes restarts safe: a consumer that lost the
reply simply asks again and receives the same file it already holds.

Delivery failures return the file to the undelivered pool (at most 3
redeliveries per file, then it is set aside and reported undelivered at
the end) and surface the station's error to the asking consumer only.
"""

from __future__ import annotations

import threading

from .catalog import CatalogClient
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

STATE_RUNNING = "running"
STATE_DRAINING = "draining"
STATE_ENDED = "ended"

RELEASE_STATUSES = ("consumed", "skipped")


class ProjectState:
    def __init__(self, snapshot: DatasetSnapshot):
        self.project_name = None  # set by the server
        self.snapshot = snapshot
        self.undelivered: set[int] = set(snapshot.file_ids)
        self.delivered: dict[int, str] = {}
        self.held: dict[int, str] = {}  # delivered but not yet released
        self.per_consumer_counts: dict[str, int] = {}
        self.stations: dict[str, str] = {}  # consumer -> station control addr
        self.attempts: dict[int, int] = {}  # redelivery attempts per file
        self.exhausted: set[int] = set()
        self.saw_end: set[str] = set()
        self.state = STATE_RUNNING
        self.summary: dict | None = None

    def deliverable(self) -> list[int]:
        return sorted(self.undelivered - self.exhausted)

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
        self.catalog = CatalogClient(catalog_addr)
        self.projects: dict[str, ProjectState] = {}
        self._station_clients: dict[str, Client] = {}
        self.journal = Journal(journal_path, self._apply)

    # -- journal apply (replay and commit) ---------------------------------

    def _apply(self, kind: str, payload: dict) -> None:
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
            project.delivered[file_id] = consumer
            project.held[file_id] = consumer
            project.register(consumer, payload.get("station"))
            project.per_consumer_counts[consumer] = project.per_consumer_counts.get(consumer, 0) + 1
        elif kind == "DeliveryFailed":
            file_id, consumer = payload["file_id"], payload["consumer_id"]
            project.delivered.pop(file_id, None)
            project.held.pop(file_id, None)
            project.undelivered.add(file_id)
            project.per_consumer_counts[consumer] = project.per_consumer_counts.get(consumer, 1) - 1
            attempts = project.attempts.get(file_id, 0) + 1
            project.attempts[file_id] = attempts
            if attempts >= REDELIVERY_CAP:
                project.exhausted.add(file_id)
        elif kind == "Release":
            project.held.pop(payload["file_id"], None)
        elif kind == "Drain":
            project.state = STATE_DRAINING
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
            snapshot = self.catalog.take_snapshot(dataset_name)  # NOT_FOUND propagates
            self.journal.commit("StartProject", {
                "project_name": project_name,
                "snapshot": snapshot.to_wire(),
            })
            project = self.projects[project_name]
            return {
                "project_name": project_name,
                "snapshot_id": snapshot.snapshot_id,
                "files": len(project.undelivered),
            }

    def next_file(self, project_name: str, consumer_id: str,
                  station: str | None = None) -> dict:
        with self._lock:
            project = self._live(project_name)
            project.register(consumer_id, station)
            station_addr = project.stations.get(consumer_id)
            if station_addr is None:
                raise ValidationError(
                    f"consumer {consumer_id!r} never told the server its station")
            held = [f for f, c in project.held.items() if c == consumer_id]
            if held:
                file_id = min(held)  # resume: redeliver what they already hold
            else:
                pool = project.deliverable()
                if not pool:
                    self.journal.commit("Drain", {
                        "project_name": project_name,
                        "consumer_id": consumer_id,
                    })
                    self._maybe_finish(project)
                    return {"end": True}
                file_id = pool[0]
                self.journal.commit("Deliver", {
                    "project_name": project_name,
                    "file_id": file_id,
                    "consumer_id": consumer_id,
                    "station": station_addr,
                })
        # lookup and transfer happen outside the project lock: they may be slow
        try:
            file_name = self.catalog.get_file(file_id).file_name
            path = self._station(consumer_id, station_addr).call(
                "fetch", file_name=file_name, requesting_project=project_name)
        except SamError as e:
            with self._lock:
                self.journal.commit("DeliveryFailed", {
                    "project_name": project_name,
                    "file_id": file_id,
                    "consumer_id": consumer_id,
                    "reason": f"{e.code}: {e.msg}",
                })
            raise
        return {"file_id": file_id, "file_name": file_name, "path": path}

    def release_file(self, project_name: str, consumer_id: str, file_id: int,
                     status: str = "consumed") -> bool:
        if status not in RELEASE_STATUSES:
            raise ValidationError(f"release status must be one of {RELEASE_STATUSES}")
        with self._lock:
            project = self._project(project_name)
            if project.held.get(file_id) != consumer_id:
                raise NotHeld(f"consumer {consumer_id!r} does not hold file {file_id}")
            station_addr = project.stations.get(consumer_id)
            self.journal.commit("Release", {
                "project_name": project_name,
                "file_id": file_id,
                "consumer_id": consumer_id,
                "status": status,
            })
            self._maybe_finish(project)
        self._unpin_quietly(consumer_id, station_addr, file_id, project_name)
        return True

    def stop_project(self, project_name: str) -> dict:
        with self._lock:
            project = self._project(project_name)
            if project.state == STATE_ENDED and project.summary is not None:
                return project.summary
            summary = self._summarize(project)
            outstanding = [(f, c, project.stations.get(c)) for f, c in project.held.items()]
            self.journal.commit("StopProject", {
                "project_name": project_name,
                "summary": summary,
            })
        for file_id, consumer_id, station_addr in outstanding:
            self._unpin_quietly(consumer_id, station_addr, file_id, project_name)
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
                and not project.deliverable()
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

    def _station(self, consumer_id: str, addr: str) -> Client:
        with self._lock:
            key = f"{consumer_id}@{addr}"
            client = self._station_clients.get(key)
            if client is None:
                client = self._station_clients[key] = Client(addr)
            return client

    def _unpin_quietly(self, consumer_id: str, station_addr: str | None, file_id: int,
                       project_name: str) -> None:
        """Bookkeeping already released the file; a lost pin must not undo that."""
        if station_addr is None:
            return
        try:
            self._station(consumer_id, station_addr).call(
                "unpin", file_id=file_id, project=project_name)
        except SamError:
            pass

    def close(self) -> None:
        self.catalog.close()
        for client in self._station_clients.values():
            client.close()
        self.journal.close()
