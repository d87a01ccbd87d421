"""File record wire forms and validation rules."""

import json

import pytest

from samforge.errors import ValidationError
from samforge.records import (
    FileRecord,
    ReplicaLocation,
    validate_file_record,
)


def make_record(**overrides) -> FileRecord:
    fields = dict(
        file_name="bphy0412_fs0007_0042.raw",
        size_bytes=2048,
        crc32=0xCBF43926,
        data_tier="raw",
        event_type="phy",
        program_version=4,
        calibration_set=12,
        parents=[1, 2],
        parameters={"skim": "gold"},
        legacy_hook=("dfc_files", "rk000001"),
        convention_violation=False,
        created_at=1234.5,
        file_id=9,
    )
    fields.update(overrides)
    return FileRecord(**fields)


def test_wire_round_trip():
    record = make_record()
    assert FileRecord.from_wire(record.to_wire()) == record


def test_wire_round_trip_without_optionals():
    record = make_record(parents=[], parameters={}, legacy_hook=None)
    wire = record.to_wire()
    assert wire["legacy_hook"] is None
    assert FileRecord.from_wire(wire) == record


def test_valid_record_has_no_problems():
    assert validate_file_record(make_record(), known_ids={1, 2}) == []


@pytest.mark.parametrize("overrides,needle", [
    (dict(file_name=""), "file_name"),
    (dict(file_name="has space.raw"), "whitespace"),
    (dict(file_name="has/slash.raw"), "whitespace"),
    (dict(size_bytes=-1), "size_bytes"),
    (dict(size_bytes="big"), "size_bytes"),
    (dict(crc32=-1), "crc32"),
    (dict(crc32=2**32), "crc32"),
    (dict(data_tier="root"), "data_tier"),
    (dict(event_type=""), "event_type"),
    (dict(program_version=-1), "program_version"),
    (dict(calibration_set=-1), "calibration_set"),
    (dict(parameters={"k": 3}), "parameter"),
    (dict(parameters={"": "v"}), "parameter"),
    # a bool is not an integer, though Python counts it one
    (dict(size_bytes=True), "size_bytes"),
    (dict(crc32=True), "crc32"),
    (dict(program_version=True), "program_version"),
    (dict(calibration_set=False), "calibration_set"),
])
def test_each_validation_rule(overrides, needle):
    problems = validate_file_record(make_record(**overrides), known_ids={1, 2})
    assert problems, f"expected a problem for {overrides}"
    assert any(needle in p for p in problems)


def test_dangling_parent_is_reported():
    problems = validate_file_record(make_record(parents=[1, 99]), known_ids={1, 2})
    assert problems == ["dangling parent 99"]


def test_multiple_problems_all_reported():
    problems = validate_file_record(
        make_record(file_name="", size_bytes=-1, data_tier="nah"), known_ids=set())
    assert len(problems) >= 3


def test_location_round_trip(rig):
    # CatalogClient hands back each entry of a get_locations answer as a ReplicaLocation
    with rig.catalog_client() as catalog:
        file_id = catalog.declare_file(make_record(parents=[], file_id=None))
        catalog.add_location(file_id, "stken-sim", "stken-sim-vol-0001")
        assert catalog.get_locations(file_id) == [
            ReplicaLocation(file_id, "stken-sim", "stken-sim-vol-0001")]


def test_wire_form_is_pinned():
    # the fields and values every journal and peer already holds; key order is free
    wire = {"file_id": 9, "file_name": "bphy0412_fs0007_0042.raw", "size_bytes": 2048,
            "crc32": 3421780262, "data_tier": "raw", "event_type": "phy",
            "program_version": 4, "calibration_set": 12, "parents": [1, 2],
            "parameters": {"skim": "gold"}, "legacy_hook": ["dfc_files", "rk000001"],
            "convention_violation": False, "created_at": 1234.5}
    assert json.loads(json.dumps(make_record().to_wire())) == wire


def test_to_wire_copies_the_mutable_fields():
    record = make_record()
    wire = record.to_wire()
    wire["parents"].append(3)
    wire["parameters"]["skim"] = "silver"
    assert record == make_record()


def test_from_wire_defaults_the_optional_fields_and_ignores_unknown_ones():
    wire = {k: v for k, v in make_record().to_wire().items()
            if k in ("file_name", "size_bytes", "crc32", "data_tier", "event_type",
                     "program_version", "calibration_set")}
    assert FileRecord.from_wire({**wire, "verified_at": None}) == make_record(
        parents=[], parameters={}, legacy_hook=None, created_at=0.0, file_id=None)
    for key in wire:
        with pytest.raises(ValidationError) as excinfo:
            FileRecord.from_wire({k: v for k, v in wire.items() if k != key})
        assert excinfo.value.problems == [f"{key} is missing"]
