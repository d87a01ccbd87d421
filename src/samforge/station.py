"""Station daemon: disk cache, verified transfers, store routing, rate limits.

A station fronts analysis work with a bounded disk cache (LRU eviction,
pin exemption), fetches files from replicas with CRC verification and
bounded retry, and routes newly produced files toward the permanent
store.  The route target decides a station's part: a station routing to
a store is a router, which buffers an upload on a permanent area and
PUTs it to tape.  Any other station is an analysis station: it hands an
upload to its route target, a router, as a STORE frame, and refuses a
STORE frame itself (``ACCESS_DENIED``).  Either way the route target
must be ``read_write``.  A router refuses a STORE of a declared name
before its body, and forwards the body to the store while it arrives,
holding back the final byte, so the store commits only after the
router's CRC check and declare.

Replica selection prefers another station's cache (stn) over tape, with
lexicographic endpoint-name tie-breaks.  Each retry takes the next
candidate in that order, so a corrupt source is not retried while an
alternative is left; once every candidate has failed, the next retry
starts over from the first.  Every pull is one request line to the
endpoint's address: ``FETCH <file>`` for a station, ``FETCH <station>
<file>`` for a store, which checks the client's access.

Per-endpoint transfer slots are granted FIFO; a slot is held only while
bytes move, never while waiting on cache locks.

A fetch may name files to prefetch: the files its project will hand out
next.  Once the fetch itself is done they are queued for the station's
prefetch workers.  A fetch and a prefetch take one admission: a fetch
waits out a pull of its name in flight, while a prefetch skips a name
that is resident or in flight before any catalog call, and pins nothing.
Each worker has its own catalog connection, so the workers' lookups do
not queue behind one another or behind the consumers'.  A failed
prefetch is counted and logged as an event, never raised.

A peer's ``FETCH`` is served from the cache or the router's upload
buffer; a name that is no file name is answered ``NOT_FOUND`` before the
disk or the catalog is asked, so no answer tells which host paths exist.

The cache index is kept in least-recently-used order with a running
total of resident bytes, so a hit moves one entry and a victim choice
neither sums nor sorts the cache.
"""

from __future__ import annotations

import json
import logging
import os
import queue
import shutil
import threading
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from pathlib import Path

from .config import SCHEME_STATION, SCHEME_TAPE, EndpointSpec, StationConfig
from .errors import (
    AccessDenied,
    BadRequest,
    CacheFull,
    DuplicateName,
    NoReplica,
    NotFound,
    NotPinned,
    NotResident,
    RemoteError,
    SamError,
    TransferExhausted,
    ValidationError,
)
from .naming import parse_legacy_name
from .records import FileRecord, file_name_problem
from .sync import FairSemaphore
from .transfer import (
    DataHandler,
    FaultInjector,
    PullPool,
    Push,
    crc32_stream,
    send_frame,
    send_header,
    serve_push,
    serve_request,
    transfer_with,
)
from .wire import Client, Dispatcher

log = logging.getLogger(__name__)

MAX_TRANSFER_ATTEMPTS = 3
PREFETCH_QUEUE_LIMIT = 64  # names past this are dropped, not waited for
# one worker cannot pull as fast as the consumers of a tape-backed project read
PREFETCH_WORKERS = 2


@dataclass
class CacheEntry:
    file_id: int
    file_name: str  # its bytes are files_dir / file_name
    size_bytes: int
    crc32: int  # verified when the file was admitted; served as the SEND header CRC
    pins: set[str] = field(default_factory=set)  # projects holding it; a redelivery adds none


class StationService(Dispatcher):
    ops = {
        "fetch": "fetch_file",
        "store": "store_file",
        "unpin": "unpin_file",
        "status": "station_status",
    }

    def __init__(self, config: StationConfig, catalog_addr):
        self.config = config
        self.catalog = Client(catalog_addr)
        self.cache_dir = Path(config.cache_dir)
        self.files_dir = self.cache_dir / "files"
        self.incoming_dir = self.cache_dir / "incoming"
        self.buffer_dir = self.cache_dir / "permanent"
        for d in (self.files_dir, self.incoming_dir, self.buffer_dir):
            d.mkdir(parents=True, exist_ok=True)

        self._lock = threading.RLock()
        self._settled = threading.Condition(self._lock)  # notified when a miss ends
        self._entries: OrderedDict[int, CacheEntry] = OrderedDict()  # least recent first
        self._by_name: dict[str, int] = {}
        self._resident = 0  # bytes of every entry
        self._reserved = 0
        self._in_flight: set[str] = set()  # names whose miss is being fetched
        self._prefetching: set[str] = set()  # the in-flight names a prefetch worker pulls
        self._endpoints = {e.name: e for e in config.known_endpoints}
        self._limits = {
            e.name: FairSemaphore(e.max_concurrent_transfers)
            for e in config.known_endpoints
        }
        self._faults: dict[str, FaultInjector] = {}  # endpoint name -> injector
        self._pulls = PullPool()
        self.counters = {
            "transfers_ok": 0,
            "crc_mismatches": 0,
            "retries": 0,
            "evictions": 0,
            "cache_hits": 0,
            "stores_ok": 0,
            "prefetches": 0,
            "prefetch_failed": 0,
        }
        self.events: deque[dict] = deque(maxlen=10000)
        self._prefetch_queue: queue.Queue[str | None] = queue.Queue(PREFETCH_QUEUE_LIMIT)
        self._stopping = threading.Event()
        self._prefetchers = [
            threading.Thread(target=self._prefetch_loop, args=(catalog_addr,),
                             name=f"prefetch-{config.name}-{i}", daemon=True)
            for i in range(PREFETCH_WORKERS)
        ]
        for worker in self._prefetchers:
            worker.start()

    # -- fault injection ---------------------------------------------------

    def inject_faults(self, endpoint_name: str, seed: int,
                      corrupt_every_nth: int) -> FaultInjector:
        """Corrupt every n-th pull from one endpoint, deterministically."""
        if endpoint_name not in self._endpoints:
            raise KeyError(endpoint_name)
        injector = self._faults[endpoint_name] = FaultInjector(seed, corrupt_every_nth)
        return injector

    # -- fetch path --------------------------------------------------------

    def fetch_file(self, file_name: str, requesting_project: str | None = None,
                   prefetch: list[str] = ()) -> str:
        path = self._fetch(file_name, requesting_project, self.catalog)
        for name in prefetch:
            try:
                self._prefetch_queue.put_nowait(name)
            except queue.Full:
                break
        return path

    def _fetch(self, file_name: str, project: str | None, catalog: Client,
               prefetch: bool = False) -> str | None:
        """Serve a name from the cache or pull it in: the one admission of every pull.

        A fetch waits out a pull of its name already in flight, then is
        served a hit or pulls the miss.  A prefetch pins nothing, and
        returns None for a name that is resident or in flight before any
        catalog call.
        """
        with self._lock:
            if prefetch and (file_name in self._by_name or file_name in self._in_flight):
                return None
            while file_name in self._in_flight:
                self._settled.wait()
            file_id = self._by_name.get(file_name)
            if file_id is not None:  # a hit needs no catalog call
                entry = self._entries[file_id]
                self._entries.move_to_end(file_id)
                if project:
                    entry.pins.add(project)
                self.counters["cache_hits"] += 1
                return str(self.files_dir / file_name)
            self._in_flight.add(file_name)
            if prefetch:
                self._prefetching.add(file_name)
        try:
            record = _get_file(catalog, file_name)
            candidates = self._candidates(record.file_id, catalog)
            if not candidates:
                raise NoReplica(f"no reachable replica for {record.file_name}")
            victims = self._reserve(record.size_bytes, prefetch)
            try:
                self._forget_locations(victims, catalog)
                staging = self._attempt_loop(record, candidates)
            except BaseException:
                with self._lock:
                    self._reserved -= record.size_bytes
                raise
            return self._admit(record, staging, project, catalog)
        finally:
            with self._lock:
                self._in_flight.discard(file_name)
                self._prefetching.discard(file_name)
                self._settled.notify_all()

    def _prefetch_loop(self, catalog_addr) -> None:
        catalog = Client(catalog_addr)  # connects on first use
        try:
            while True:
                name = self._prefetch_queue.get()
                if name is None or self._stopping.is_set():
                    return
                try:
                    if self._fetch(name, None, catalog, prefetch=True) is not None:
                        with self._lock:
                            self.counters["prefetches"] += 1
                # a prefetch is advice; its failure is no one's error
                except Exception as e:  # noqa: BLE001
                    if not isinstance(e, SamError):
                        log.exception("prefetch of %s failed", name)
                    with self._lock:
                        self.counters["prefetch_failed"] += 1
                    self._event("prefetch_error", name, "", 0, f"{type(e).__name__}: {e}")
                self._prefetch_queue.task_done()
        finally:
            catalog.close()

    def _candidates(self, file_id: int, catalog: Client) -> list[EndpointSpec]:
        specs = []
        for location in catalog.call("get_locations", file_id=file_id):
            spec = self._endpoints.get(location["endpoint_name"])
            if spec is not None and spec.name != self.config.name:
                specs.append(spec)
        # another station's cache beats a tape mount; names break ties
        specs.sort(key=lambda s: (0 if s.scheme == SCHEME_STATION else 1, s.name))
        return specs

    def _attempt_loop(self, record: FileRecord, candidates: list[EndpointSpec]) -> Path:
        """Transfer until a copy verifies; returns its staging path."""
        last_error: SamError | None = None
        for attempt in range(1, MAX_TRANSFER_ATTEMPTS + 1):
            # each retry takes the next candidate, back to the first once all have failed
            choice = candidates[(attempt - 1) % len(candidates)]
            if attempt > 1:
                with self._lock:
                    self.counters["retries"] += 1
            staging = self.incoming_dir / f"{record.file_name}.{os.urandom(16).hex()}"
            client = f"{self.config.name} " if choice.scheme == SCHEME_TAPE else ""
            try:
                with self._limits[choice.name]:
                    outcome = transfer_with(choice.addr,
                                            f"FETCH {client}{record.file_name}",
                                            staging, self._faults.get(choice.name), self._pulls)
            except BaseException as e:
                staging.unlink(missing_ok=True)  # a stream cut off mid-body
                if not isinstance(e, SamError):
                    raise
                last_error = e
                self._event("transfer_error", record.file_name, choice.name, attempt, str(e))
                continue
            if outcome.computed_crc32 == record.crc32 and outcome.bytes_moved == record.size_bytes:
                return staging
            with self._lock:
                self.counters["crc_mismatches"] += 1
            self._event("crc_mismatch", record.file_name, choice.name, attempt,
                        f"got {outcome.computed_crc32:08x} want {record.crc32:08x}")
            log.warning("crc mismatch on %s from %s (attempt %d)",
                        record.file_name, choice.name, attempt)
            staging.unlink(missing_ok=True)
            last_error = TransferExhausted(
                f"{record.file_name}: checksum mismatch from {choice.name}")
        raise TransferExhausted(
            f"{record.file_name}: gave up after {MAX_TRANSFER_ATTEMPTS} attempts "
            f"({last_error.msg if last_error else 'no attempt ran'})")

    def _reserve(self, size: int, prefetch: bool = False) -> list[CacheEntry]:
        """Reserve room for an incoming file; returns the entries evicted for it.

        Victims are chosen, least recently used and unpinned first, before
        any is dropped, so a reservation that cannot succeed evicts nothing.
        A fetch short of room waits while any prefetch is in flight, since
        its file arrives unpinned and so can be evicted; a prefetch never
        waits.
        """
        with self._lock:
            while True:
                free = self.config.cache_capacity_bytes - self._reserved - self._resident
                victims = []
                for entry in self._entries.values():
                    if free >= size:
                        break
                    if not entry.pins:
                        victims.append(entry)
                        free += entry.size_bytes
                if free >= size:
                    break
                if prefetch or not self._prefetching:
                    raise CacheFull(f"cannot free {size} bytes on {self.config.name}: "
                                    f"{free} free or unpinned")
                self._settled.wait()
            for victim in victims:
                self._drop_entry(victim)
            self._reserved += size
        return victims

    def _drop_entry(self, entry: CacheEntry) -> None:
        del self._entries[entry.file_id]
        self._resident -= entry.size_bytes
        self._by_name.pop(entry.file_name, None)
        (self.files_dir / entry.file_name).unlink(missing_ok=True)
        self.counters["evictions"] += 1

    def _forget_locations(self, victims: list[CacheEntry], catalog: Client) -> None:
        for victim in victims:
            self._event("evict", victim.file_name, self.config.name, 0, "")
            try:
                catalog.call("remove_location", file_id=victim.file_id,
                             endpoint_name=self.config.name)
            except RemoteError as e:
                if e.code != "NOT_FOUND":
                    raise

    def _admit(self, record: FileRecord, staging: Path, project: str | None,
               catalog: Client) -> str:
        final = self.files_dir / record.file_name
        os.replace(staging, final)
        with self._lock:
            self._reserved -= record.size_bytes
            entry = CacheEntry(
                file_id=record.file_id,
                file_name=record.file_name,
                size_bytes=record.size_bytes,
                crc32=record.crc32,
            )
            if project:
                entry.pins.add(project)
            self._entries[record.file_id] = entry
            self._resident += record.size_bytes
            self._by_name[record.file_name] = record.file_id
            self.counters["transfers_ok"] += 1
        try:
            catalog.call("add_location", file_id=record.file_id,
                         endpoint_name=self.config.name, path_or_volume=str(final))
        except RemoteError as e:
            if e.code != "DUPLICATE_LOCATION":  # stale location from a prior life
                raise
        return str(final)

    # -- eviction / pinning ------------------------------------------------

    def unpin_file(self, file_id: int, project: str) -> bool:
        with self._lock:
            entry = self._entries.get(file_id)
            if entry is None:
                raise NotResident(f"file {file_id} not in cache on {self.config.name}")
            if project not in entry.pins:
                raise NotPinned(f"project {project!r} holds no pin on file {file_id}")
            entry.pins.remove(project)
        return True

    # -- store path --------------------------------------------------------

    def store_file(self, record: dict, local_path: str | None = None) -> int:
        if local_path is None or not Path(local_path).is_file():
            raise ValidationError(f"store needs local_path, a file; got {local_path!r}")
        with open(local_path, "rb") as body:
            rec = FileRecord.from_wire(record)
            rec.file_id = None
            rec.size_bytes = body.seek(0, os.SEEK_END)
            body.seek(0)
            rec.crc32 = crc32_stream(body)
            push = self.push_to_route(rec)
            if self.config.is_router:
                staged = self.incoming_dir / os.urandom(16).hex()
                try:
                    body.seek(0)
                    with open(staged, "wb") as out:
                        shutil.copyfileobj(body, out)
                    return self.store_local(rec, staged, push)
                finally:
                    staged.unlink(missing_ok=True)
            file_id = int(push.finish(body))  # an analysis station hands the file to its router
        with self._lock:
            self.counters["stores_ok"] += 1
        return file_id

    def store_local(self, rec: FileRecord, staged: Path, push: Push) -> int:
        """Router path: declare, buffer, then push finishes the file to the route target.

        staged holds the file's bytes, already checked against rec.crc32;
        it moves into the permanent buffer.  push may have sent all of it
        but its final byte while it arrived; it sends the rest from the
        buffer, so the route target commits only a declared file, and
        sends the whole file again from there if that try failed.
        """
        # DuplicateName/Validation stop us here; the catalog assigns the id
        file_id = self.catalog.call("declare_file", record=rec.to_wire())
        buffered = self.buffer_dir / rec.file_name
        os.replace(staged, buffered)
        self.catalog.call("add_location", file_id=file_id, endpoint_name=self.config.name,
                          path_or_volume=str(buffered))
        with open(buffered, "rb") as body:
            volume_id = push.deliver(body, MAX_TRANSFER_ATTEMPTS)
        self.catalog.call("add_location", file_id=file_id,
                          endpoint_name=self.config.route_target, path_or_volume=volume_id)
        # tape has it; release the buffer copy and its catalog location
        buffered.unlink(missing_ok=True)
        self.catalog.call("remove_location", file_id=file_id, endpoint_name=self.config.name)
        with self._lock:
            self.counters["stores_ok"] += 1
        return file_id

    def push_to_route(self, rec: FileRecord) -> Push:
        """rec's push to the route target: a PUT to a store, a STORE of rec to a station.

        The route target must be read_write; the push holds one of its
        transfer slots from its first byte to the answer.
        """
        route = self._endpoints.get(self.config.route_target)
        if route is None:
            raise AccessDenied(f"station {self.config.name} has no route target")
        if route.access != "read_write":
            raise AccessDenied(f"route target {route.name} is {route.access}")
        if route.scheme == SCHEME_TAPE:
            request = f"PUT {self.config.name} {_fileset_of(rec)}"
        else:
            request = "STORE " + json.dumps(rec.to_wire())
        return Push(route.addr,
                    f"{request}\n" + send_header(rec.file_name, rec.size_bytes, rec.crc32),
                    rec.size_bytes, self._limits[route.name])

    # -- serving the data plane -------------------------------------------

    def open_for_read(self, file_name: str):
        """Open a resident or buffered file to serve: (file, size, verified crc32)."""
        with self._lock:
            file_id = self._by_name.get(file_name)
            if file_id is not None:
                entry = self._entries[file_id]
                self._entries.move_to_end(file_id)
                return open(self.files_dir / file_name, "rb"), entry.size_bytes, entry.crc32
        buffered = self.buffer_dir / file_name
        # a name that is no file name could reach outside the buffer
        if file_name_problem(file_name) is None and buffered.is_file():
            # a router's upload waiting for tape: its CRC was verified at declare
            record = _get_file(self.catalog, file_name)
            return open(buffered, "rb"), record.size_bytes, record.crc32
        raise NotFound(f"{file_name} not resident on {self.config.name}")

    # -- monitoring --------------------------------------------------------

    def station_status(self) -> dict:
        with self._lock:
            entries = [  # least recently used first
                {
                    "file_id": e.file_id,
                    "file_name": e.file_name,
                    "size_bytes": e.size_bytes,
                    "pin_count": len(e.pins),
                }
                for e in self._entries.values()
            ]
            return {
                "name": self.config.name,
                "role": "router" if self.config.is_router else "analysis",
                "cache": {
                    "capacity_bytes": self.config.cache_capacity_bytes,
                    "resident_bytes": self._resident,
                    "entries": entries,
                },
                "rate_limits": {
                    name: {
                        "slots": sem.slots,
                        "in_flight": sem.in_flight,
                        "high_water": sem.high_water,
                    }
                    for name, sem in sorted(self._limits.items())
                },
                "in_flight_jobs": len(self._in_flight),
                "prefetch_queue": self._prefetch_queue.qsize(),
                "counters": dict(self.counters),
            }

    def _event(self, kind: str, file_name: str, endpoint: str, attempt: int, detail: str):
        self.events.append({
            "kind": kind,
            "file_name": file_name,
            "endpoint": endpoint,
            "attempt": attempt,
            "detail": detail,
        })

    def close(self) -> None:
        """Stop the prefetch workers after the files they are pulling, then drop the connections."""
        self._stopping.set()
        for _ in self._prefetchers:
            try:
                self._prefetch_queue.put_nowait(None)  # wakes an idle worker
            except queue.Full:
                break  # a queue this full wakes every worker, which then sees _stopping
        for worker in self._prefetchers:
            worker.join()
        self._pulls.close()
        self.catalog.close()


def _get_file(catalog: Client, file_name: str) -> FileRecord:
    return FileRecord.from_wire(catalog.call("get_file", name_or_id=file_name))


def _fileset_of(rec: FileRecord) -> int:
    raw = rec.parameters.get("legacy.fileset")
    if raw is not None and raw.isdigit():
        return int(raw)
    parts = parse_legacy_name(rec.file_name)
    if hasattr(parts, "fileset_number"):
        return parts.fileset_number
    return 0


class StationDataHandler(DataHandler):
    def handle(self):
        serve_request(self, {"FETCH": self._fetch, "STORE": self._store})

    def _fetch(self, file_name: str) -> None:
        body, size, crc = self.server.service.open_for_read(file_name)
        with body:
            send_frame(self.connection, send_header(file_name, size, crc), body, size)

    def _store(self, payload: str) -> None:
        service: StationService = self.server.service
        rec = push = None

        def check(name: str, size: int, crc: int) -> Push:
            nonlocal rec, push
            if not service.config.is_router:  # nothing would forward what it buffered
                raise AccessDenied(f"{service.config.name} is not a router")
            try:
                wire = json.loads(payload)
            except ValueError:
                raise BadRequest(f"STORE record is not JSON: {payload[:80]!r}") from None
            rec = FileRecord.from_wire(wire)
            rec.file_id, rec.size_bytes, rec.crc32 = None, size, crc
            push = service.push_to_route(rec)
            try:  # a declared name would push a doomed body to tape
                service.catalog.call("get_file", name_or_id=rec.file_name)
            except RemoteError as e:
                if e.code != "NOT_FOUND":
                    raise
            else:
                raise DuplicateName(f"{rec.file_name} is already declared")
            return push

        serve_push(self, service.incoming_dir / os.urandom(16).hex(), check,
                   lambda name, staged, crc: service.store_local(rec, staged, push))
