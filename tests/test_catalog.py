"""Catalog daemon over the wire: records, datasets, locations, replay."""

import json
import random

import pytest

from samforge.catalog import CatalogClient, CatalogService
from samforge.errors import RemoteError
from samforge.query import And, Atom, Or, eval_query, expr_to_wire
from samforge.records import FileRecord
from samforge.wire import ControlHandler, Server, format_addr


@pytest.fixture
def catalog(rig):
    with rig.catalog_client() as client:
        yield client


def make_record(name="bphy0412_fs0007_0042.raw", **overrides) -> FileRecord:
    fields = dict(
        file_name=name,
        size_bytes=2048,
        crc32=7,
        data_tier="raw",
        event_type="phy",
        program_version=4,
        calibration_set=12,
    )
    fields.update(overrides)
    return FileRecord(**fields)


def test_declare_and_get_round_trip(catalog):
    file_id = catalog.declare_file(make_record(parameters={"skim": "gold"}))
    assert file_id == 1
    by_id = catalog.get_file(file_id)
    by_name = catalog.get_file("bphy0412_fs0007_0042.raw")
    assert by_id == by_name
    assert by_id.parameters == {"skim": "gold"}
    assert by_id.created_at > 0  # stamped by the server


def test_duplicate_name_rejected(catalog):
    catalog.declare_file(make_record())
    with pytest.raises(RemoteError) as excinfo:
        catalog.declare_file(make_record())
    assert excinfo.value.code == "DUPLICATE_NAME"


def test_validation_rejected_with_reasons(catalog):
    with pytest.raises(RemoteError) as excinfo:
        catalog.declare_file(make_record(size_bytes=-5, data_tier="nah"))
    assert excinfo.value.code == "VALIDATION"
    assert "size_bytes" in excinfo.value.msg


def test_dangling_parent_rejected(catalog):
    with pytest.raises(RemoteError) as excinfo:
        catalog.declare_file(make_record(parents=[42]))
    assert excinfo.value.code == "VALIDATION"


def test_get_missing_file(catalog):
    with pytest.raises(RemoteError) as excinfo:
        catalog.get_file("nope")
    assert excinfo.value.code == "NOT_FOUND"


def test_a_dataset_journaled_with_its_creation_time_replays_to_the_same_answers(tmp_path):
    # define_dataset no longer journals created_at; journals that hold it still replay
    service = CatalogService(tmp_path / "now.journal")
    for record in _random_records(20):
        service.declare_file({k: v for k, v in record.to_wire().items() if k != "file_id"})
    service.define_dataset("phys", expr_to_wire(Atom("event_type", "=", "phy")))
    service.take_snapshot("phys")
    service.close()
    entries = [json.loads(line) for line in (tmp_path / "now.journal").read_text().splitlines()]
    [defined] = [e["payload"] for e in entries if e["kind"] == "DefineDataset"]
    assert set(defined) == {"name", "expr"}
    defined["created_at"] = 1234.5  # as journals written before this change hold it
    (tmp_path / "before.journal").write_text("".join(json.dumps(e) + "\n" for e in entries))

    def answers(journal):
        service = CatalogService(journal)
        try:
            return json.dumps([service.resolve_dataset("phys"), service.get_snapshot(1),
                               service.status()])
        finally:
            service.close()

    assert answers(tmp_path / "before.journal") == answers(tmp_path / "now.journal")


# A DeclareFile entry in the key order journals were first written in: file_id first.
FILE_ID_FIRST_LINE = (
    '{"seq":1,"kind":"DeclareFile","payload":{"file_id":1,'
    '"file_name":"bphy0412_fs0007_0042.raw","size_bytes":2048,"crc32":3421780262,'
    '"data_tier":"raw","event_type":"phy","program_version":4,"calibration_set":12,'
    '"parents":[],"parameters":{"skim":"gold"},"legacy_hook":["dfc_files","rk000001"],'
    '"convention_violation":false,"created_at":1234.5},"at":1792545321.4643612}\n')


def test_a_declare_journaled_file_id_first_replays_to_the_same_answer(tmp_path):
    (tmp_path / "before.journal").write_text(FILE_ID_FIRST_LINE)
    now = CatalogService(tmp_path / "now.journal")
    now.declare_file(json.loads(FILE_ID_FIRST_LINE)["payload"])
    now.close()
    answers = []
    for journal in ("before.journal", "now.journal"):
        service = CatalogService(tmp_path / journal)
        answers.append(service.get_file("bphy0412_fs0007_0042.raw"))
        service.close()
    assert answers[0] == answers[1] == json.loads(FILE_ID_FIRST_LINE)["payload"]


def _random_records(n, seed=2024):
    rng = random.Random(seed)
    records = []
    for i in range(n):
        records.append(make_record(
            name=f"file-{i:04d}.raw",
            data_tier=rng.choice(["raw", "prd", "ntp"]),
            event_type=rng.choice(["phy", "min", "ele"]),
            program_version=rng.randrange(8),
            calibration_set=rng.randrange(8),
            parameters={"skim": rng.choice(["gold", "silver", "none"])},
        ))
    return records


def test_resolve_matches_brute_force_scan(catalog):
    records = _random_records(300)
    ids = {r.file_name: catalog.declare_file(r) for r in records}
    expr = Or((
        And((Atom("event_type", "=", "phy"), Atom("program_version", "<", 4))),
        And((Atom("data_tier", "in", ("prd", "ntp")),
             Atom("param.skim", "=", "gold"))),
    ))
    catalog.define_dataset("mixed", expr)
    resolved = catalog.call("resolve_dataset", name="mixed")
    expected = sorted(ids[r.file_name] for r in records if eval_query(expr, r))
    assert resolved["file_ids"] == expected
    names = {file_id: name for name, file_id in ids.items()}
    assert resolved["file_names"] == [names[i] for i in expected]
    assert expected  # the scan found something, so the comparison meant something


def test_dataset_duplicate_and_missing(catalog):
    catalog.define_dataset("d", Atom("event_type", "=", "phy"))
    with pytest.raises(RemoteError) as excinfo:
        catalog.define_dataset("d", Atom("event_type", "=", "min"))
    assert excinfo.value.code == "DUPLICATE_NAME"
    with pytest.raises(RemoteError) as excinfo:
        catalog.call("resolve_dataset", name="ghost")
    assert excinfo.value.code == "NOT_FOUND"


def test_malformed_expression_rejected_at_definition(catalog):
    with pytest.raises(RemoteError) as excinfo:
        catalog.define_dataset("bad", Atom("no_such_key", "=", "x"))
    assert excinfo.value.code == "MALFORMED_QUERY"


def test_snapshot_freezes_membership(catalog):
    catalog.declare_file(make_record("a.raw"))
    catalog.define_dataset("phys", Atom("event_type", "=", "phy"))
    snapshot = catalog.call("take_snapshot", dataset_name="phys")
    assert (snapshot["file_ids"], snapshot["file_names"]) == ([1], ["a.raw"])

    catalog.declare_file(make_record("b.raw"))
    # live resolve moved on
    assert catalog.call("resolve_dataset", name="phys")["file_ids"] == [1, 2]
    # snapshot did not
    assert catalog.call("get_snapshot", snapshot_id=snapshot["snapshot_id"]) == snapshot


def test_locations_lifecycle(catalog):
    file_id = catalog.declare_file(make_record())
    catalog.add_location(file_id, "stken-sim", "stken-sim-vol-0001")
    catalog.add_location(file_id, "cdfa-1", "/cache/files/a.raw")
    locations = catalog.get_locations(file_id)
    assert [loc.endpoint_name for loc in locations] == ["cdfa-1", "stken-sim"]

    with pytest.raises(RemoteError) as excinfo:
        catalog.add_location(file_id, "stken-sim", "elsewhere")
    assert excinfo.value.code == "DUPLICATE_LOCATION"

    catalog.call("remove_location", file_id=file_id, endpoint_name="cdfa-1")
    assert [loc.endpoint_name for loc in catalog.get_locations(file_id)] == ["stken-sim"]
    with pytest.raises(RemoteError) as excinfo:
        catalog.call("remove_location", file_id=file_id, endpoint_name="cdfa-1")
    assert excinfo.value.code == "NOT_FOUND"


def test_known_endpoints_restrict_locations(tmp_path):
    service = CatalogService(tmp_path / "j", known_endpoints={"stken-sim"})
    server = Server(ControlHandler, service, ("127.0.0.1", 0)).start()
    try:
        with CatalogClient(format_addr(server.bound_addr)) as catalog:
            file_id = catalog.declare_file(make_record())
            catalog.add_location(file_id, "stken-sim", "vol")
            with pytest.raises(RemoteError) as excinfo:
                catalog.add_location(file_id, "rogue", "vol")
            assert excinfo.value.code == "UNKNOWN_ENDPOINT"
    finally:
        server.close()
        service.close()


def test_lineage_walks_ancestors_to_depth(catalog):
    g1 = catalog.declare_file(make_record("g1.raw"))
    g2 = catalog.declare_file(make_record("g2.raw"))
    p1 = catalog.declare_file(make_record("p1.prd", data_tier="prd", parents=[g1, g2]))
    p2 = catalog.declare_file(make_record("p2.prd", data_tier="prd", parents=[g2]))
    child = catalog.declare_file(make_record("c.ntp", data_tier="ntp", parents=[p1, p2]))

    assert catalog.call("get_lineage", file_id=child, depth=1) == sorted([p1, p2])
    assert catalog.call("get_lineage", file_id=child, depth=2) == sorted([p1, p2, g1, g2])
    assert catalog.call("get_lineage", file_id=child, depth=9) == sorted([p1, p2, g1, g2])
    assert catalog.call("get_lineage", file_id=g1, depth=3) == []


def test_restart_replays_identical_state(tmp_path):
    journal = tmp_path / "catalog.journal"
    service = CatalogService(journal)
    server = Server(ControlHandler, service, ("127.0.0.1", 0)).start()
    with CatalogClient(format_addr(server.bound_addr)) as catalog:
        for record in _random_records(40):
            catalog.declare_file(record)
        catalog.define_dataset("phys", Atom("event_type", "=", "phy"))
        snapshot = catalog.call("take_snapshot", dataset_name="phys")
        assert snapshot["file_names"] == [catalog.get_file(i).file_name
                                          for i in snapshot["file_ids"]]
        catalog.add_location(1, "stken-sim", "vol-1")
        catalog.add_location(1, "cdfa-1", "/cache/files/one.raw")
        catalog.add_location(2, "stken-sim", "vol-1")
        catalog.call("remove_location", file_id=2, endpoint_name="stken-sim")
        before_resolve = catalog.call("resolve_dataset", name="phys")
        before_status = catalog.call("status")
        before_locations = [catalog.call("get_locations", file_id=i) for i in (1, 2)]
    assert before_locations == [
        [{"file_id": 1, "endpoint_name": "cdfa-1", "path_or_volume": "/cache/files/one.raw"},
         {"file_id": 1, "endpoint_name": "stken-sim", "path_or_volume": "vol-1"}],
        [],
    ]
    server.close()
    service.close()
    # the journal keeps ids only; names are filled from the records on replay
    [taken] = [entry["payload"] for entry in map(json.loads, journal.read_text().splitlines())
               if entry["kind"] == "TakeSnapshot"]
    assert "file_names" not in taken and taken["file_ids"] == snapshot["file_ids"]

    reborn = CatalogService(journal)
    server = Server(ControlHandler, reborn, ("127.0.0.1", 0)).start()
    try:
        with CatalogClient(format_addr(server.bound_addr)) as catalog:
            assert catalog.call("resolve_dataset", name="phys") == before_resolve
            assert catalog.call("status") == before_status
            assert catalog.call("get_snapshot", snapshot_id=snapshot["snapshot_id"]) == snapshot
            assert [catalog.call("get_locations", file_id=i) for i in (1, 2)] == \
                before_locations
            assert [(loc.file_id, loc.endpoint_name, loc.path_or_volume)
                    for loc in catalog.get_locations(1)] == \
                [(1, "cdfa-1", "/cache/files/one.raw"), (1, "stken-sim", "vol-1")]
            # new ids continue after the replayed ones, no reuse
            assert catalog.declare_file(make_record("after-restart.raw")) == 41
    finally:
        server.close()
        reborn.close()
