"""Project server: exactly-once delivery, fairness, failures, replay."""

import itertools
import json
import threading
import time

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from samforge.catalog import CatalogService
from samforge.errors import (
    BadRequest,
    DuplicateProject,
    NotHeld,
    ProjectEnded,
    RemoteError,
    SourceUnavailable,
    ValidationError,
)
from samforge.project import ProjectServer
from samforge.query import Atom
from samforge.records import FileRecord
from samforge.wire import ControlHandler, Dispatcher, Server, format_addr

from conftest import run_threads


class FakeStation(Dispatcher):
    """Answers the station ops a project server uses; can fail on demand."""

    ops = {"fetch": "fetch", "unpin": "unpin"}

    def __init__(self):
        self.fetches = []
        self.prefetches = []  # (file_name, prefetch list) per fetch
        self.unpins = []
        self.fail_names = {}  # file_name -> times to fail
        self._lock = threading.Lock()

    def fetch(self, file_name, requesting_project=None, prefetch=()):
        with self._lock:
            self.fetches.append(file_name)
            self.prefetches.append((file_name, list(prefetch)))
            remaining = self.fail_names.get(file_name, 0)
            if remaining:
                self.fail_names[file_name] = remaining - 1
                raise SourceUnavailable(f"injected failure for {file_name}")
        return f"/fake/{file_name}"

    def unpin(self, file_id, project):
        with self._lock:
            self.unpins.append((file_id, project))
        return True


@pytest.fixture
def project_rig(rig):
    station = FakeStation()
    server = Server(ControlHandler, station, ("127.0.0.1", 0)).start()
    project = ProjectServer(rig.root / "project.journal", rig.catalog_addr)
    yield rig, project, station, format_addr(server.bound_addr)
    project.close()
    server.close()


def holders(state):
    """Each held file id -> the consumer holding it."""
    return {file_id: handout.consumer for file_id, handout in state.held.items()}


def journaled(server):
    """Each project's state, without its live connections."""
    return {name: {k: v for k, v in vars(state).items() if k not in ("clients", "calls")}
            for name, state in server.projects.items()}


def assert_replays_to(server, journal, catalog_addr):
    """A server replayed from the journal holds and answers what the live one does."""
    reborn = ProjectServer(journal, catalog_addr)
    try:
        assert journaled(reborn) == journaled(server)
        assert json.dumps(reborn.status()) == json.dumps(server.status())
    finally:
        reborn.close()


def declare_files(rig, n, dataset="all"):
    with rig.catalog_client() as catalog:
        ids = []
        for i in range(n):
            ids.append(catalog.declare_file(FileRecord(
                file_name=f"file-{i:03d}.raw", size_bytes=1, crc32=0,
                data_tier="raw", event_type="phy", program_version=1,
                calibration_set=1)))
        catalog.define_dataset(dataset, Atom("event_type", "=", "phy"))
    return ids


def test_lockstep_consumers_split_evenly(project_rig):
    rig, project, station, station_addr = project_rig
    ids = declare_files(rig, 10)
    assert project.start_project("p", "all")["files"] == 10

    got = {"c1": [], "c2": []}
    for _ in range(5):
        for consumer in ("c1", "c2"):
            result = project.next_file("p", consumer, station=station_addr)
            got[consumer].append(result["file_id"])
            project.release_file("p", consumer, result["file_id"], "consumed")

    # strict alternation of the lowest undelivered id
    assert got["c1"] == [ids[0], ids[2], ids[4], ids[6], ids[8]]
    assert got["c2"] == [ids[1], ids[3], ids[5], ids[7], ids[9]]
    assert project.next_file("p", "c1", station=station_addr) == {"end": True}
    assert project.next_file("p", "c2", station=station_addr) == {"end": True}
    status = project.status("p")
    assert status["state"] == "ended"  # drained, all held released, all saw END
    assert status["per_consumer_counts"] == {"c1": 5, "c2": 5}


def test_empty_dataset_ends_immediately(project_rig):
    rig, project, station, station_addr = project_rig
    with rig.catalog_client() as catalog:
        catalog.define_dataset("none", Atom("event_type", "=", "nosuch"))
    project.start_project("p", "none")
    assert project.next_file("p", "c1", station=station_addr) == {"end": True}
    with pytest.raises(ProjectEnded):
        project.next_file("p", "c1", station=station_addr)


def test_start_rejects_live_duplicate_but_allows_after_end(project_rig):
    rig, project, station, station_addr = project_rig
    declare_files(rig, 2)
    project.start_project("p", "all")
    with pytest.raises(DuplicateProject):
        project.start_project("p", "all")
    project.stop_project("p")
    assert project.start_project("p", "all")["files"] == 2


def test_start_unknown_dataset_propagates_not_found(project_rig):
    rig, project, station, station_addr = project_rig
    with pytest.raises(RemoteError) as excinfo:
        project.start_project("p", "ghost")
    assert excinfo.value.code == "NOT_FOUND"
    assert project.status() == {"projects": [], "journal_seq": 0}


def test_release_requires_holding(project_rig):
    rig, project, station, station_addr = project_rig
    ids = declare_files(rig, 2)
    project.start_project("p", "all")
    result = project.next_file("p", "c1", station=station_addr)
    with pytest.raises(NotHeld):
        project.release_file("p", "c2", result["file_id"])  # someone else's file
    project.release_file("p", "c1", result["file_id"])
    with pytest.raises(NotHeld):
        project.release_file("p", "c1", result["file_id"])  # double release
    assert station.unpins == [(ids[0], "p")]


def test_release_unpins_at_the_consumers_station(project_rig):
    rig, project, station, station_addr = project_rig
    declare_files(rig, 1)
    project.start_project("p", "all")
    result = project.next_file("p", "c1", station=station_addr)
    project.release_file("p", "c1", result["file_id"], "skipped")
    assert station.unpins == [(result["file_id"], "p")]


@pytest.mark.parametrize("restart", [False, True])
def test_a_resume_at_another_station_is_unpinned_at_both(project_rig, restart):
    rig, project, station, station_addr = project_rig
    ids = declare_files(rig, 2)
    other = FakeStation()
    server = Server(ControlHandler, other, ("127.0.0.1", 0)).start()
    try:
        project.start_project("p", "all")
        first = project.next_file("p", "c1", station=station_addr)
        resumed = project.next_file("p", "c1", station=format_addr(server.bound_addr))
        assert resumed == first
        assert other.fetches == ["file-000.raw"]  # the file is pinned at both
        if restart:
            project.close()
            project = ProjectServer(rig.root / "project.journal", rig.catalog_addr)
        project.release_file("p", "c1", ids[0])
    finally:
        if restart:
            project.close()
        server.close()
    assert station.unpins == [(ids[0], "p")]
    assert other.unpins == [(ids[0], "p")]


def test_consumer_resume_redelivers_held_file(project_rig):
    rig, project, station, station_addr = project_rig
    declare_files(rig, 3)
    project.start_project("p", "all")
    first = project.next_file("p", "c1", station=station_addr)
    again = project.next_file("p", "c1", station=station_addr)  # crashed, re-asks
    assert again["file_id"] == first["file_id"]
    assert project.status("p")["delivered"] == 1  # still one delivery
    project.release_file("p", "c1", first["file_id"])
    following = project.next_file("p", "c1", station=station_addr)
    assert following["file_id"] != first["file_id"]


def test_station_failure_returns_file_to_pool(project_rig):
    rig, project, station, station_addr = project_rig
    ids = declare_files(rig, 2)
    project.start_project("p", "all")
    station.fail_names["file-000.raw"] = 1
    # the station's error crosses the wire; its code arrives verbatim
    with pytest.raises(RemoteError) as excinfo:
        project.next_file("p", "c1", station=station_addr)
    assert excinfo.value.code == SourceUnavailable.code
    status = project.status("p")
    assert status["delivered"] == 0
    assert status["held"] == 0
    # the same file is offered again and now succeeds
    result = project.next_file("p", "c1", station=station_addr)
    assert result["file_id"] == ids[0]


def test_repeated_failures_exhaust_a_file(project_rig):
    rig, project, station, station_addr = project_rig
    ids = declare_files(rig, 3)
    project.start_project("p", "all")
    station.fail_names["file-000.raw"] = 99
    delivered = []
    for _ in range(3):
        with pytest.raises(RemoteError):
            project.next_file("p", "c1", station=station_addr)
    # three strikes: the file is set aside, the rest still flows
    while True:
        result = project.next_file("p", "c1", station=station_addr)
        if result.get("end"):
            break
        delivered.append(result["file_id"])
        project.release_file("p", "c1", result["file_id"])
    assert delivered == [ids[1], ids[2]]
    summary = project.stop_project("p")
    assert summary["undelivered"] == [ids[0]]
    assert summary["delivered_total"] == 2
    assert project.status("p")["exhausted"] == [ids[0]]


def test_stop_is_idempotent_and_final(project_rig):
    rig, project, station, station_addr = project_rig
    ids = declare_files(rig, 2)
    project.start_project("p", "all")
    result = project.next_file("p", "c1", station=station_addr)
    summary = project.stop_project("p")
    assert summary == project.stop_project("p")
    assert summary["delivered_total"] == 1
    assert summary["undelivered"] == [ids[1]]
    # the held file was unpinned when the project stopped
    assert station.unpins == [(result["file_id"], "p")]
    with pytest.raises(ProjectEnded):
        project.next_file("p", "c1", station=station_addr)


def test_restart_replays_held_and_delivered_state(rig, monkeypatch):
    station = FakeStation()
    server = Server(ControlHandler, station, ("127.0.0.1", 0)).start()
    station_addr = format_addr(server.bound_addr)
    journal = rig.root / "project.journal"
    try:
        ids = declare_files(rig, 4)
        project = ProjectServer(journal, rig.catalog_addr)
        project.start_project("p", "all")
        done = project.next_file("p", "c1", station=station_addr)
        project.release_file("p", "c1", done["file_id"])
        held = project.next_file("p", "c1", station=station_addr)  # left unreleased
        before = project.status("p")
        project.close()

        def no_lookup(*_args, **_kwargs):
            raise AssertionError("a hand-out asked the catalog for a name")

        # the names were journaled with the snapshot
        monkeypatch.setattr(CatalogService, "get_file", no_lookup)
        reborn = ProjectServer(journal, rig.catalog_addr)
        assert reborn.status("p") == before
        resumed = reborn.next_file("p", "c1", station=station_addr)
        assert resumed == held  # not a second delivery
        reborn.release_file("p", "c1", resumed["file_id"])

        remaining = []
        while True:
            result = reborn.next_file("p", "c1", station=station_addr)
            if result.get("end"):
                break
            assert result["file_name"] == f"file-{ids.index(result['file_id']):03d}.raw"
            remaining.append(result["file_id"])
            reborn.release_file("p", "c1", result["file_id"])
        assert sorted([done["file_id"], held["file_id"]] + remaining) == ids
        assert reborn.status("p")["state"] == "ended"
        reborn.close()
    finally:
        server.close()


def test_ended_projects_leave_no_station_connection_open(project_rig):
    rig, project, station, station_addr = project_rig
    declare_files(rig, 2)
    threads = threading.active_count()
    for i in range(5):  # each ends when its only consumer sees END
        name, consumer = f"p{i}", f"c{i}"
        project.start_project(name, "all")
        while "end" not in (got := project.next_file(name, consumer, station=station_addr)):
            project.release_file(name, consumer, got["file_id"])
    # stopped while a consumer, named as one of an ended project, holds a file;
    # its release after the stop unpins on a client that closes again
    project.start_project("stopped", "all")
    held = project.next_file("stopped", "c0", station=station_addr)
    project.stop_project("stopped")
    project.release_file("stopped", "c0", held["file_id"])
    assert [p.state for p in project.projects.values()] == ["ended"] * 6
    assert project._fetches == {}
    project.catalog.close()  # the one connection every project shares
    deadline = time.monotonic() + 10
    while threading.active_count() > threads and time.monotonic() < deadline:
        time.sleep(0.01)
    assert threading.active_count() <= threads  # no station serving thread is left


def test_concurrent_consumers_receive_each_file_exactly_once(project_rig):
    rig, project, station, station_addr = project_rig
    n_files, n_consumers = 200, 8
    ids = declare_files(rig, n_files)
    project.start_project("p", "all")
    delivered_lock = threading.Lock()
    delivered = []

    def consume(i):
        consumer = f"c{i}"
        while True:
            result = project.next_file("p", consumer, station=station_addr)
            if result.get("end"):
                return
            with delivered_lock:
                delivered.append(result["file_id"])
            project.release_file("p", consumer, result["file_id"])

    run_threads(n_consumers, consume)
    assert sorted(delivered) == ids  # every file exactly once, none lost
    status = project.status("p")
    assert status["state"] == "ended"
    assert sum(status["per_consumer_counts"].values()) == n_files
    # the consumers' last calls raced the end; whichever came last closed every client
    assert (project.projects["p"].calls, project.projects["p"].clients) == (0, {})


def test_fetch_names_the_next_two_ids_in_hand_out_order(project_rig):
    rig, project, station, station_addr = project_rig
    ids = declare_files(rig, 4)
    project.start_project("p", "all")
    first = project.next_file("p", "c1", station=station_addr)
    project.next_file("p", "c1", station=station_addr)  # resume: prefetch nothing
    project.release_file("p", "c1", first["file_id"])
    for _ in range(3):
        result = project.next_file("p", "c1", station=station_addr)
        project.release_file("p", "c1", result["file_id"])
    assert project.next_file("p", "c1", station=station_addr) == {"end": True}
    assert station.prefetches == [
        ("file-000.raw", ["file-001.raw", "file-002.raw"]),
        ("file-000.raw", []),
        ("file-001.raw", ["file-002.raw", "file-003.raw"]),
        ("file-002.raw", ["file-003.raw"]),
        ("file-003.raw", []),
    ]


def test_no_prefetch_while_consumers_use_different_stations(project_rig):
    rig, project, station, station_addr = project_rig
    ids = declare_files(rig, 4)
    other = FakeStation()
    server = Server(ControlHandler, other, ("127.0.0.1", 0)).start()
    try:
        project.start_project("p", "all")
        first = project.next_file("p", "c1", station=station_addr)
        project.next_file("p", "c2", station=format_addr(server.bound_addr))
        project.release_file("p", "c1", first["file_id"])
        project.next_file("p", "c1", station=station_addr)
    finally:
        server.close()
    # only while c1 is the project's sole consumer may its station prefetch
    assert station.prefetches == [("file-000.raw", ["file-001.raw", "file-002.raw"]),
                                  ("file-002.raw", [])]
    assert other.prefetches == [("file-001.raw", [])]


def test_a_hand_out_failed_twice_returns_to_the_pool_once(project_rig):
    rig, project, station, station_addr = project_rig
    ids = declare_files(rig, 3)
    project.start_project("p", "all")
    state = project.projects["p"]

    def fail(file_id, consumer, times):  # a resumed fetch and the one it resumed both fail
        deliver_seq = state.held[file_id].seq
        for _ in range(times):
            with project._lock:
                project.journal.commit("DeliveryFailed", {
                    "project_name": "p", "file_id": file_id, "consumer_id": consumer,
                    "deliver_seq": deliver_seq, "reason": "SOURCE_UNAVAILABLE: injected"})

    assert project.next_file("p", "c1", station=station_addr)["file_id"] == ids[0]
    fail(ids[0], "c1", 2)
    assert state.pool == [ids[2], ids[1], ids[0]]
    assert project.next_file("p", "c1", station=station_addr)["file_id"] == ids[0]
    assert project.next_file("p", "c2", station=station_addr)["file_id"] == ids[1]
    fail(ids[1], "c2", 1)
    assert project.next_file("p", "c2", station=station_addr)["file_id"] == ids[1]
    fail(ids[1], "c2", 2)  # the second failure of one hand-out counts for nothing
    assert state.pool == [ids[2], ids[1]] and state.attempts[ids[1]] == 2
    assert project.next_file("p", "c2", station=station_addr)["file_id"] == ids[1]
    fail(ids[1], "c2", 1)  # its third failure: it leaves the pool
    assert state.pool == [ids[2]] and state.exhausted == {ids[1]}
    assert project.next_file("p", "c3", station=station_addr)["file_id"] == ids[2]
    assert project.next_file("p", "c4", station=station_addr) == {"end": True}
    assert holders(state) == {ids[0]: "c1", ids[2]: "c3"}
    project.close()

    reborn = ProjectServer(rig.root / "project.journal", rig.catalog_addr)
    try:
        again = reborn.projects["p"]
        assert (again.pool, again.exhausted, again.held) == ([], {ids[1]}, state.held)
    finally:
        reborn.close()


def test_pool_stays_lowest_first_across_failure_exhaustion_and_reopen(rig):
    station = FakeStation()
    server = Server(ControlHandler, station, ("127.0.0.1", 0)).start()
    station_addr = format_addr(server.bound_addr)
    journal = rig.root / "project.journal"
    try:
        ids = declare_files(rig, 6)
        project = ProjectServer(journal, rig.catalog_addr)
        project.start_project("p", "all")
        station.fail_names = {"file-001.raw": 3, "file-002.raw": 1}
        assert project.next_file("p", "c1", station=station_addr)["file_id"] == ids[0]
        for _ in range(3):  # a failed file goes back in place, ahead of the rest
            with pytest.raises(RemoteError):
                project.next_file("p", "c2", station=station_addr)
        with pytest.raises(RemoteError):
            project.next_file("p", "c2", station=station_addr)
        # ids[1] is exhausted: it is neither handed out nor prefetched
        assert project.next_file("p", "c2", station=station_addr)["file_id"] == ids[2]
        assert station.prefetches[-1] == ("file-002.raw", ["file-003.raw", "file-004.raw"])
        assert station.fetches[1:] == ["file-001.raw"] * 3 + ["file-002.raw"] * 2
        before = project.projects["p"].pool
        project.close()

        reborn = ProjectServer(journal, rig.catalog_addr)
        assert reborn.projects["p"].pool == before == [ids[5], ids[4], ids[3]]
        assert reborn.next_file("p", "c3", station=station_addr)["file_id"] == ids[3]
        assert station.prefetches[-1] == ("file-003.raw", ["file-004.raw", "file-005.raw"])
        reborn.close()
    finally:
        server.close()


def stall_two_fetches(station, second_fails):
    """The station's first two fetches stall until let go, then fail; the
    second succeeds instead unless second_fails.  Returns (stalled, go)."""
    stalled = [threading.Event(), threading.Event()]
    go = [threading.Event(), threading.Event()]
    calls = itertools.count()
    fetch = station.fetch

    def stall(file_name, **kwargs):
        n = next(calls)
        if n < 2:
            stalled[n].set()
            go[n].wait(10)
            if n == 0 or second_fails:
                raise SourceUnavailable(f"fetch {n} of {file_name} failed late")
        return fetch(file_name, **kwargs)

    station.fetch = stall
    return stalled, go


def next_in_thread(project, consumer, addr, outcomes):
    """Run consumer's next in a thread; its file id or error code goes to outcomes."""
    def run():
        try:
            outcomes.append(project.next_file("p", consumer, station=addr)["file_id"])
        except RemoteError as e:
            outcomes.append(e.code)

    thread = threading.Thread(target=run)
    thread.start()
    return thread


def restart_mid_fetch(project, station, station_addr, second_fails, meanwhile,
                      resumed_ends_first=False):
    """c1's fetch of its first file stalls; c1 restarts on another port of the
    station and its resumed fetch stalls too.  One of them ends (the first
    unless resumed_ends_first), meanwhile() runs, and then the other ends.
    Returns c1's two outcomes, the first fetch's first."""
    second = Server(ControlHandler, station, ("127.0.0.1", 0)).start()
    stalled, go = stall_two_fetches(station, second_fails)
    first_out, resumed_out = [], []
    try:
        first = next_in_thread(project, "c1", station_addr, first_out)
        assert stalled[0].wait(10)
        resumed = next_in_thread(project, "c1", format_addr(second.bound_addr), resumed_out)
        assert stalled[1].wait(10)
        ends = [(go[0], first), (go[1], resumed)]
        for n, (event, thread) in enumerate(ends[::-1] if resumed_ends_first else ends):
            if n:
                meanwhile()
            event.set()
            thread.join(10)
    finally:
        for event in go:
            event.set()
        second.close()
    assert not first.is_alive() and not resumed.is_alive()
    return first_out + resumed_out


def test_a_stale_failure_leaves_the_next_hand_out_alone(project_rig):
    # The first failure comes while the resumed fetch of the same hand-out
    # still runs, so it changes nothing and c2 gets the next file.  When the
    # resumed fetch fails too, file 0 goes back to the pool once.
    rig, project, station, station_addr = project_rig
    ids = declare_files(rig, 3)
    project.start_project("p", "all")

    def c2_asks():
        assert project.next_file("p", "c2", station=station_addr)["file_id"] == ids[1]

    outcomes = restart_mid_fetch(project, station, station_addr, True, c2_asks)
    assert outcomes == ["SOURCE_UNAVAILABLE"] * 2
    state = project.projects["p"]
    assert holders(state) == {ids[1]: "c2"} and state.attempts == {ids[0]: 1}
    assert project._fetches == {}  # every fetch that ended was forgotten
    assert project.next_file("p", "c3", station=station_addr)["file_id"] == ids[0]
    project.close()

    reborn = ProjectServer(rig.root / "project.journal", rig.catalog_addr)
    try:
        again = reborn.projects["p"]
        assert (again.pool, holders(again), again.attempts) == \
            ([ids[2]], {ids[1]: "c2", ids[0]: "c3"}, {ids[0]: 1})
    finally:
        reborn.close()


@pytest.mark.parametrize("resumed_ends_first", [False, True])
def test_a_failure_does_not_undo_a_hand_out_whose_resumed_fetch_succeeds(
        project_rig, resumed_ends_first):
    # The first fetch fails and the resumed one succeeds, in either order:
    # c1 has file 0, and no one else may be handed it.
    rig, project, station, station_addr = project_rig
    ids = declare_files(rig, 3)
    project.start_project("p", "all")
    got = []

    def c2_asks():
        got.append(project.next_file("p", "c2", station=station_addr)["file_id"])

    outcomes = restart_mid_fetch(project, station, station_addr, False, c2_asks,
                                 resumed_ends_first)
    assert outcomes == ["SOURCE_UNAVAILABLE", ids[0]]
    assert got == [ids[1]]
    state = project.projects["p"]
    assert holders(state) == {ids[0]: "c1", ids[1]: "c2"} and state.attempts == {}
    assert project._fetches == {}
    project.close()

    reborn = ProjectServer(rig.root / "project.journal", rig.catalog_addr)
    try:
        again = reborn.projects["p"]
        assert (again.pool, again.held, again.attempts) == ([ids[2]], state.held, {})
    finally:
        reborn.close()


def test_a_refused_next_registers_no_consumer(project_rig):
    rig, project, station, station_addr = project_rig
    ids = declare_files(rig, 1)
    project.start_project("p", "all")
    with pytest.raises(BadRequest):
        project.dispatch("next", {"project_name": "p", "consumer_id": "ghost"})  # no station
    for bad in (None, ["127.0.0.1", 1]):  # the wrong JSON type, refused at the wire boundary
        with pytest.raises(ValidationError):
            project.dispatch("next", {"project_name": "p", "consumer_id": "ghost", "station": bad})
    for bad in ("", "nohost", "h:port"):
        with pytest.raises(ValidationError):
            project.next_file("p", "ghost", station=bad)
    assert project.next_file("p", "c1", station=station_addr)["file_id"] == ids[0]
    assert project.next_file("p", "c2", station=station_addr) == {"end": True}
    project.release_file("p", "c1", ids[0])
    assert project.next_file("p", "c1", station=station_addr) == {"end": True}
    status = project.status("p")
    assert status["state"] == "ended"  # no consumer is left waiting for END
    assert status["per_consumer_counts"] == {"c1": 1, "c2": 0}
    project.close()

    reborn = ProjectServer(rig.root / "project.journal", rig.catalog_addr)
    try:
        assert reborn.status("p") == status  # replay registers whom live did
    finally:
        reborn.close()


@pytest.mark.parametrize("case", ["end_at_another_station", "back_at_the_first_station"])
def test_the_replayed_state_is_the_live_state(project_rig, case):
    rig, project, station, station_addr = project_rig
    other = Server(ControlHandler, FakeStation(), ("127.0.0.1", 0)).start()
    other_addr = format_addr(other.bound_addr)
    try:
        declare_files(rig, 1)
        project.start_project("p", "all")
        project.next_file("p", "c1", station=station_addr)  # c1 holds the only file
        if case == "end_at_another_station":
            assert project.next_file("p", "c2", station=other_addr) == {"end": True}
        else:
            project.next_file("p", "c1", station=other_addr)  # resumed at the other
            project.next_file("p", "c1", station=station_addr)  # and at the first again
        assert_replays_to(project, rig.root / "project.journal", rig.catalog_addr)
    finally:
        other.close()


def test_an_ended_project_keeps_its_answers_but_not_its_file_names(project_rig):
    rig, project, station, station_addr = project_rig
    ids = declare_files(rig, 3)
    project.start_project("drained", "all")
    while "end" not in (got := project.next_file("drained", "c1", station=station_addr)):
        project.release_file("drained", "c1", got["file_id"])
    project.start_project("stopped", "all")
    project.next_file("stopped", "c1", station=station_addr)  # held at the stop
    stops = json.dumps([project.stop_project(name) for name in ("drained", "stopped")])
    status = json.dumps(project.status())
    assert [p.names for p in project.projects.values()] == [{}, {}]
    assert project.projects["drained"].pool == []
    assert project.projects["stopped"].pool == [ids[2], ids[1]]
    project.close()

    reborn = ProjectServer(rig.root / "project.journal", rig.catalog_addr)
    try:
        assert [p.names for p in reborn.projects.values()] == [{}, {}]
        assert json.dumps(reborn.status()) == status
        assert json.dumps([reborn.stop_project(name) for name in ("drained", "stopped")]) == stops
    finally:
        reborn.close()


def test_every_step_replays_to_the_live_state(rig):
    """A model of one project's hand-outs, run against a live server and its replay."""
    ids = declare_files(rig, 3)
    consumers = ("c1", "c2")
    stations = [FakeStation(), FakeStation()]
    servers = [Server(ControlHandler, s, ("127.0.0.1", 0)).start() for s in stations]
    addrs = [format_addr(server.bound_addr) for server in servers]
    journals = (rig.root / f"machine-{n}.journal" for n in itertools.count())

    class ProjectMachine(RuleBasedStateMachine):
        def __init__(self):
            super().__init__()
            for station in stations:
                station.fail_names.clear()
            self.journal = next(journals)
            self.server = ProjectServer(self.journal, rig.catalog_addr)
            self.got = {}  # file id -> consumer, for each hand-out not undone
            self.released = set()

        @property
        def state(self):
            return self.server.projects["p"]

        @initialize()
        def first_start(self):
            self.start()

        @precondition(lambda self: self.state.state == "ended")
        @rule()
        def start(self):
            self.server.start_project("p", "all")
            self.got, self.released = {}, set()

        @rule(consumer=st.sampled_from(consumers), at=st.sampled_from([0, 1]))
        def next(self, consumer, at):
            mine = [f for f, c in self.got.items() if c == consumer]
            lowest = self.state.pool[-1] if self.state.pool else None
            try:
                result = self.server.next_file("p", consumer, station=addrs[at])
            except ProjectEnded:
                assert self.state.state == "ended"
                return
            except RemoteError:  # the fetch failed: what it was for is undone
                self.got = {f: c for f, c in self.got.items() if c != consumer}
                return
            if "end" in result:
                assert not mine and not self.state.pool
                return
            assert [result["file_id"]] == (mine or [lowest])  # a resume, or the lowest
            self.got[result["file_id"]] = consumer

        @rule(consumer=st.sampled_from(consumers))
        def release(self, consumer):
            mine = [f for f, c in self.got.items() if c == consumer]
            if not mine:
                with pytest.raises(NotHeld):
                    self.server.release_file("p", consumer, ids[0])
                return
            self.server.release_file("p", consumer, mine[0])
            del self.got[mine[0]]
            self.released.add(mine[0])

        @rule(at=st.sampled_from([0, 1]), index=st.integers(0, len(ids) - 1),
              times=st.integers(1, 3))
        def fail_next_fetches(self, at, index, times):
            name = f"file-{index:03d}.raw"
            stations[at].fail_names[name] = stations[at].fail_names.get(name, 0) + times

        @rule()
        def stop(self):
            assert self.server.stop_project("p") == self.server.stop_project("p")

        @rule()
        def restart(self):
            self.server.close()
            self.server = ProjectServer(self.journal, rig.catalog_addr)

        @invariant()
        def each_file_is_in_one_place_and_held_once(self):
            places = [set(self.state.pool), set(self.state.held), self.released,
                      self.state.exhausted]
            assert sum(map(len, places)) == len(ids)
            assert set().union(*places) == set(ids)
            assert holders(self.state) == self.got

        @invariant()
        def the_replay_is_the_live_state(self):
            assert_replays_to(self.server, self.journal, rig.catalog_addr)

        def teardown(self):
            self.server.close()

    try:
        run_state_machine_as_test(ProjectMachine, settings=settings(
            max_examples=80, stateful_step_count=40, derandomize=True, database=None,
            deadline=None))
    finally:
        for server in servers:
            server.close()
