"""Durable file-metadata catalog daemon.

Keeps every file record, dataset definition, snapshot and replica
location in memory, backed by an append-only journal replayed at
startup.  A dataset is kept as its query, a snapshot and a location in
the shape the catalog answers with, so each answer is a copy of what is
kept.  All mutations are validated, journaled (fsync before the
acknowledgment leaves the server), then applied, under one lock, so the
journal order IS the state order and a read issued after a mutating
acknowledgment observes it.
"""

from __future__ import annotations

import threading
import time

from .errors import (
    DuplicateLocation,
    DuplicateName,
    NotFound,
    UnknownEndpoint,
    ValidationError,
)
from .journal import Journal
from .query import Expr, eval_query, expr_from_wire, expr_to_wire
from .records import FileRecord, ReplicaLocation, validate_file_record
from .wire import Client, Dispatcher

OP_DECLARE_FILE = "DeclareFile"
OP_DEFINE_DATASET = "DefineDataset"
OP_TAKE_SNAPSHOT = "TakeSnapshot"
OP_ADD_LOCATION = "AddLocation"
OP_REMOVE_LOCATION = "RemoveLocation"


class CatalogState:
    """Pure in-memory state; every mutation arrives as a journal payload."""

    def __init__(self):
        self.files: dict[int, FileRecord] = {}
        self.by_name: dict[str, int] = {}
        self.datasets: dict[str, Expr] = {}
        self.snapshots: dict[int, dict] = {}  # id -> the answer of take_snapshot
        self.locations: dict[int, dict[str, str]] = {}  # file id -> endpoint -> path or volume
        self.next_file_id = 1
        self.next_snapshot_id = 1

    def apply(self, kind: str, payload: dict) -> None:
        if kind == OP_DECLARE_FILE:
            record = FileRecord.from_wire(payload)
            self.files[record.file_id] = record
            self.by_name[record.file_name] = record.file_id
            self.next_file_id = max(self.next_file_id, record.file_id + 1)
        elif kind == OP_DEFINE_DATASET:
            self.datasets[payload["name"]] = expr_from_wire(payload["expr"])
        elif kind == OP_TAKE_SNAPSHOT:
            # records never change after declare, so the journal keeps ids only
            snapshot = {**payload, "file_names": [self.files[i].file_name
                                                  for i in payload["file_ids"]]}
            self.snapshots[snapshot["snapshot_id"]] = snapshot
            self.next_snapshot_id = max(self.next_snapshot_id, snapshot["snapshot_id"] + 1)
        elif kind == OP_ADD_LOCATION:
            self.locations.setdefault(payload["file_id"], {})[payload["endpoint_name"]] = \
                payload["path_or_volume"]
        elif kind == OP_REMOVE_LOCATION:
            self.locations.get(payload["file_id"], {}).pop(payload["endpoint_name"], None)
        else:
            raise ValueError(f"unknown journal kind {kind!r}")


class CatalogService(Dispatcher):
    """The wire-facing catalog: validate, journal, apply, answer.

    known_endpoints limits where replica locations may point; None means
    any endpoint name is accepted (standalone/unit-test deployments).
    """

    ops = {
        "declare_file": "declare_file",
        "get_file": "get_file",
        "define_dataset": "define_dataset",
        "resolve_dataset": "resolve_dataset",
        "take_snapshot": "take_snapshot",
        "get_snapshot": "get_snapshot",
        "add_location": "add_location",
        "remove_location": "remove_location",
        "get_locations": "get_locations",
        "get_lineage": "get_lineage",
        "status": "status",
    }

    def __init__(self, journal_path, known_endpoints: set[str] | None = None):
        self._lock = threading.RLock()
        self.known_endpoints = set(known_endpoints) if known_endpoints is not None else None
        self.state = CatalogState()
        self.journal = Journal(journal_path, self.state.apply)

    # -- files -------------------------------------------------------------

    def declare_file(self, record: dict) -> int:
        rec = FileRecord.from_wire(record)
        with self._lock:
            if rec.file_name in self.state.by_name:
                raise DuplicateName(f"file {rec.file_name!r} already declared")
            problems = validate_file_record(rec, self.state.files)
            if problems:
                raise ValidationError(problems)
            rec.file_id = self.state.next_file_id
            if not rec.created_at:
                rec.created_at = time.time()
            self.journal.commit(OP_DECLARE_FILE, rec.to_wire())
            return rec.file_id

    def get_file(self, name_or_id: int | str) -> dict:
        with self._lock:
            # a name maps to its id; an id, never a key of by_name, maps to itself
            record = self.state.files.get(self.state.by_name.get(name_or_id, name_or_id))
            if record is None:
                raise NotFound(f"no file {name_or_id!r}")
            return record.to_wire()

    # -- datasets ----------------------------------------------------------

    def define_dataset(self, name: str, expr: dict) -> bool:
        if not name:
            raise ValidationError("name of a dataset must not be empty")
        parsed = expr_from_wire(expr)
        with self._lock:
            if name in self.state.datasets:
                raise DuplicateName(f"dataset {name!r} already defined")
            # replay ignores the created_at that older journals hold here
            self.journal.commit(OP_DEFINE_DATASET, {"name": name, "expr": expr_to_wire(parsed)})
        return True

    def resolve_dataset(self, name: str) -> dict:
        """The matching files now: parallel id and name lists, ascending id."""
        with self._lock:
            file_ids = self._matching(name)
            return {"file_ids": file_ids,
                    "file_names": [self.state.files[i].file_name for i in file_ids]}

    def _matching(self, name: str) -> list[int]:
        expr = self.state.datasets.get(name)
        if expr is None:
            raise NotFound(f"no dataset {name!r}")
        return [
            file_id
            for file_id in sorted(self.state.files)
            if eval_query(expr, self.state.files[file_id])
        ]

    def take_snapshot(self, dataset_name: str) -> dict:
        with self._lock:
            snapshot_id = self.state.next_snapshot_id
            self.journal.commit(OP_TAKE_SNAPSHOT, {
                "snapshot_id": snapshot_id,
                "dataset_name": dataset_name,
                "file_ids": self._matching(dataset_name),
                "created_at": time.time(),
            })
            return self.get_snapshot(snapshot_id)

    def get_snapshot(self, snapshot_id: int) -> dict:
        with self._lock:
            snapshot = self.state.snapshots.get(snapshot_id)
            if snapshot is None:
                raise NotFound(f"no snapshot {snapshot_id}")
            return {**snapshot, "file_ids": list(snapshot["file_ids"]),
                    "file_names": list(snapshot["file_names"])}

    # -- replica locations -------------------------------------------------

    def add_location(self, file_id: int, endpoint_name: str, path_or_volume: str) -> bool:
        with self._lock:
            self._require_file(file_id)
            if self.known_endpoints is not None and endpoint_name not in self.known_endpoints:
                raise UnknownEndpoint(f"endpoint {endpoint_name!r} not in topology")
            if endpoint_name in self.state.locations.get(file_id, {}):
                raise DuplicateLocation(f"file {file_id} already at {endpoint_name}")
            self.journal.commit(OP_ADD_LOCATION, {
                "file_id": file_id,
                "endpoint_name": endpoint_name,
                "path_or_volume": path_or_volume,
            })
        return True

    def remove_location(self, file_id: int, endpoint_name: str) -> bool:
        with self._lock:
            self._require_file(file_id)
            if endpoint_name not in self.state.locations.get(file_id, {}):
                raise NotFound(f"file {file_id} has no location at {endpoint_name!r}")
            self.journal.commit(OP_REMOVE_LOCATION, {
                "file_id": file_id,
                "endpoint_name": endpoint_name,
            })
        return True

    def get_locations(self, file_id: int) -> list[dict]:
        with self._lock:
            self._require_file(file_id)
            locations = self.state.locations.get(file_id, {})
            return [{"file_id": file_id, "endpoint_name": name, "path_or_volume": locations[name]}
                    for name in sorted(locations)]

    def _require_file(self, file_id: int) -> None:
        if file_id not in self.state.files:
            raise NotFound(f"no file with id {file_id}")

    # -- lineage -----------------------------------------------------------

    def get_lineage(self, file_id: int, depth: int) -> list[int]:
        """Distinct ancestor ids within `depth` hops, ascending."""
        with self._lock:
            self._require_file(file_id)
            seen: set[int] = set()
            frontier = [file_id]
            for _ in range(depth):
                parents = []
                for fid in frontier:
                    record = self.state.files.get(fid)
                    if record:
                        parents.extend(p for p in record.parents if p not in seen)
                if not parents:
                    break
                seen.update(parents)
                frontier = parents
            return sorted(seen)

    # -- monitoring --------------------------------------------------------

    def status(self) -> dict:
        with self._lock:
            return {
                "files": len(self.state.files),
                "datasets": len(self.state.datasets),
                "snapshots": len(self.state.snapshots),
                "locations": sum(len(v) for v in self.state.locations.values()),
                "journal_seq": self.journal.last_seq,
            }

    def close(self) -> None:
        self.journal.close()


class CatalogClient(Client):
    """The catalog's connection; these methods convert records, every other op is a call."""

    def declare_file(self, record: FileRecord) -> int:
        return self.call("declare_file", record=record.to_wire())

    def get_file(self, name_or_id) -> FileRecord:
        return FileRecord.from_wire(self.call("get_file", name_or_id=name_or_id))

    def define_dataset(self, name: str, expr) -> None:
        self.call("define_dataset", name=name, expr=expr_to_wire(expr))

    def get_locations(self, file_id: int) -> list[ReplicaLocation]:
        return [ReplicaLocation(**r) for r in self.call("get_locations", file_id=file_id)]

    # kept because bench/workloads.py passes the path positionally
    def add_location(self, file_id: int, endpoint_name: str, path_or_volume: str) -> None:
        self.call("add_location", file_id=file_id, endpoint_name=endpoint_name,
                  path_or_volume=path_or_volume)
