"""Legacy CSV import: loading, mapping categories, idempotence, verify."""

import csv
import time

import pytest

from samforge.errors import MalformedRow, MissingTable
from samforge.migrate import (
    load_export,
    map_legacy_record,
    run_migration,
    verify_migration,
)


def write_export(directory, files, filesets=None, datasets=None):
    directory.mkdir(parents=True, exist_ok=True)
    tables = {
        "files.csv": (("file_name", "size_bytes", "fileset_id", "dataset_id",
                       "dfc_comment", "dfc_row_key"), files),
        "filesets.csv": (("fileset_id", "dataset_id", "tape_label"),
                         filesets if filesets is not None else
                         [("fs0007", "101", "tape-0007")]),
        "datasets.csv": (("dataset_id", "description"),
                         datasets if datasets is not None else
                         [("101", "golden"), ("102", "silver")]),
    }
    for name, (header, rows) in tables.items():
        with open(directory / name, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
    return directory


BASIC_FILES = [
    ("bphy0412_fs0007_0042.raw", "2048", "fs0007", "101", "run 1 golden", "rk000001"),
    ("bphy0412_fs0007_0043.raw", "1024", "fs0007", "101", "", "rk000002"),
    ("jmin0902_fs0008_0001.raw", "4096", "fs0008", "102", "", "rk000003"),
    ("NOT_A_VALID_NAME.raw", "512", "fs0007", "101", "", "rk000004"),
]


def test_load_export_reads_all_tables(tmp_path):
    export = load_export(write_export(tmp_path / "exp", BASIC_FILES))
    assert [r.file_name for r in export.files] == [f[0] for f in BASIC_FILES]
    assert export.files[0].size_bytes == 2048
    assert export.dataset_ids() == ["101", "102"]
    assert export.members_of("102") == ["jmin0902_fs0008_0001.raw"]


def test_missing_table_raises(tmp_path):
    directory = write_export(tmp_path / "exp", BASIC_FILES)
    (directory / "filesets.csv").unlink()
    with pytest.raises(MissingTable):
        load_export(directory)


def test_malformed_rows_raise_with_position(tmp_path):
    directory = write_export(tmp_path / "exp", BASIC_FILES)
    with open(directory / "files.csv", "a", newline="") as fh:
        fh.write("only,three,fields\n")
    with pytest.raises(MalformedRow) as excinfo:
        load_export(directory)
    assert excinfo.value.table == "files.csv"
    assert excinfo.value.line_number == 6


def test_non_integer_size_raises(tmp_path):
    files = [("a.raw", "big", "fs0007", "101", "", "rk1")]
    with pytest.raises(MalformedRow):
        load_export(write_export(tmp_path / "exp", files))


def test_wrong_header_raises(tmp_path):
    directory = write_export(tmp_path / "exp", BASIC_FILES)
    (directory / "datasets.csv").write_text("id,blurb\n101,x\n")
    with pytest.raises(MalformedRow) as excinfo:
        load_export(directory)
    assert excinfo.value.line_number == 1


def test_referential_problems_are_diagnostics_not_errors(tmp_path):
    files = [("a_fs0001_0001.raw", "1", "fs9999", "103", "", "rk1")]
    export = load_export(write_export(tmp_path / "exp", files))
    assert len(export.files) == 1  # row retained
    assert any("fs9999" in d for d in export.diagnostics)
    assert any("103" in d for d in export.diagnostics)


def test_mapping_well_formed_row(tmp_path):
    export = load_export(write_export(tmp_path / "exp", BASIC_FILES))
    record, notes = map_legacy_record(export.files[0], import_time=777.0)
    assert record.event_type == "phy"
    assert record.program_version == 4
    assert record.calibration_set == 12
    assert record.data_tier == "raw"
    assert record.size_bytes == 2048
    assert record.parameters["legacy.fileset"] == "7"
    assert record.parameters["legacy.sequence"] == "42"
    assert record.parameters["import.source"] == "dfc"
    assert record.parameters["legacy.dfc_comment"] == "run 1 golden"
    assert record.parameters["legacy.dataset_id"] == "101"
    assert record.legacy_hook == ("dfc_files", "rk000001")
    assert record.created_at == 777.0
    assert record.convention_violation is False
    assert notes == {"cat1_fields": 6, "cat2_defaults": 3, "cat3_params": 2,
                     "cat3_hooks": 1, "violation": None}


def test_mapping_violating_row_still_total(tmp_path):
    export = load_export(write_export(tmp_path / "exp", BASIC_FILES))
    record, notes = map_legacy_record(export.files[3], import_time=777.0)
    assert record.convention_violation is True
    assert record.event_type == "unk"
    assert record.program_version == 0
    assert record.calibration_set == 0
    assert record.data_tier == "raw"  # recovered from the extension
    assert "legacy.fileset" not in record.parameters
    assert record.parameters["legacy.dataset_id"] == "101"
    assert notes["cat1_fields"] == 0
    assert notes["violation"]


def test_mapping_reads_content_for_checksums(tmp_path):
    export = load_export(write_export(tmp_path / "exp", BASIC_FILES))
    content = tmp_path / "content"
    content.mkdir()
    (content / "bphy0412_fs0007_0042.raw").write_bytes(b"123456789")
    with_content, _ = map_legacy_record(export.files[0], 0.0, content_dir=content)
    without, _ = map_legacy_record(export.files[1], 0.0, content_dir=content)
    assert with_content.crc32 == 0xCBF43926
    assert without.crc32 == 0


def test_migration_end_to_end_counts_and_datasets(rig, tmp_path):
    export = load_export(write_export(tmp_path / "exp", BASIC_FILES))
    with rig.catalog_client() as catalog:
        report = run_migration(export, catalog, import_time=time.time())

        assert report.declared == 4
        assert report.duplicates == 0
        assert report.cat1_fields_mapped == 18  # 3 clean rows x 6
        assert report.cat2_defaults_applied == 12  # 4 rows x 3
        assert report.cat3_params_created == 5  # 1 comment + 4 dataset ids
        assert report.cat3_hooks_created == 4
        assert [v[0] for v in report.violations] == ["NOT_A_VALID_NAME.raw"]
        assert report.datasets_created == ["dfc-101", "dfc-102"]

        assert sorted(catalog.get_file(i).file_name
                      for i in catalog.resolve_dataset("dfc-101")) == sorted(
            ["bphy0412_fs0007_0042.raw", "bphy0412_fs0007_0043.raw",
             "NOT_A_VALID_NAME.raw"])
        violator = catalog.get_file("NOT_A_VALID_NAME.raw")
        assert violator.convention_violation is True


def test_migration_rerun_is_idempotent(rig, tmp_path):
    export = load_export(write_export(tmp_path / "exp", BASIC_FILES))
    with rig.catalog_client() as catalog:
        run_migration(export, catalog, import_time=time.time())
        before = catalog.status()
        report = run_migration(export, catalog, import_time=time.time())
        assert report.declared == 0
        assert report.duplicates == 4
        assert report.datasets_created == []
        assert catalog.status() == before
        assert verify_migration(export, catalog) == []


def test_duplicate_export_rows_declared_once(rig, tmp_path):
    files = BASIC_FILES + [BASIC_FILES[0]]
    export = load_export(write_export(tmp_path / "exp", files))
    with rig.catalog_client() as catalog:
        report = run_migration(export, catalog, import_time=time.time())
    assert report.declared == 4
    assert report.duplicates == 1
    assert ("bphy0412_fs0007_0042.raw", "duplicate row in export") in report.violations


def test_dry_run_touches_nothing(rig, tmp_path):
    export = load_export(write_export(tmp_path / "exp", BASIC_FILES))
    with rig.catalog_client() as catalog:
        report = run_migration(export, catalog, import_time=time.time(), dry_run=True)
        assert report.declared == 4
        assert catalog.status()["files"] == 0
        assert catalog.status()["datasets"] == 0


def test_verify_reports_divergence(rig, tmp_path):
    export = load_export(write_export(tmp_path / "exp", BASIC_FILES))
    with rig.catalog_client() as catalog:
        run_migration(export, catalog, import_time=time.time())
        assert verify_migration(export, catalog) == []

        # an interloper claiming membership of dataset 102 must be flagged
        from samforge.records import FileRecord
        catalog.declare_file(FileRecord(
            file_name="intruder.raw", size_bytes=1, crc32=0, data_tier="raw",
            event_type="unk", program_version=0, calibration_set=0,
            parameters={"legacy.dataset_id": "102"}))
        divergences = verify_migration(export, catalog)
        assert len(divergences) == 1
        assert divergences[0]["dataset"] == "dfc-102"
        assert divergences[0]["extra"] == ["intruder.raw"]
        assert divergences[0]["missing"] == []
