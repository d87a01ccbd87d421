"""Legacy catalog migration: CSV export in, declared files and datasets out.

The legacy catalog knew three kinds of information about a file, and each
kind maps differently:

1. What the filename itself encodes (event type, program version,
   calibration set, data tier, fileset and sequence numbers) is parsed
   out of the name and becomes first-class metadata.
2. What the new catalog requires but the old one never tracked gets a
   documented default (import timestamp, an `import.source` marker,
   empty lineage).
3. What only the old catalog knew survives as `legacy.*` parameters
   plus an unconditional hook naming the source table and row, so any
   record can be traced back.

Names violating the convention are still imported - flagged, defaulted,
and listed in the report - because a migration that drops rows is worse
than one that imports ugly ones.  Re-running is safe: every duplicate is
noticed and skipped.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

from .errors import MalformedRow, MissingTable, RemoteError
from .naming import ConventionViolation, name_dimensions, parse_legacy_name
from .query import Atom
from .records import FileRecord
from .transfer import crc32_file

HOOK_TABLE = "dfc_files"
DATASET_PREFIX = "dfc-"
DATASET_ID_PARAM = "legacy.dataset_id"


@dataclass
class FileRow:
    file_name: str
    size_bytes: int
    fileset_id: str
    dataset_id: str
    dfc_comment: str
    dfc_row_key: str


@dataclass
class FilesetRow:
    fileset_id: str
    dataset_id: str
    tape_label: str


@dataclass
class DatasetRow:
    dataset_id: str
    description: str


@dataclass
class LegacyExport:
    files: list[FileRow] = field(default_factory=list)
    filesets: list[FilesetRow] = field(default_factory=list)
    datasets: list[DatasetRow] = field(default_factory=list)
    diagnostics: list[str] = field(default_factory=list)

    def dataset_ids(self) -> list[str]:
        """Every dataset id mentioned anywhere, table order first."""
        seen = []
        for row in self.datasets:
            if row.dataset_id and row.dataset_id not in seen:
                seen.append(row.dataset_id)
        for row in self.files:
            if row.dataset_id and row.dataset_id not in seen:
                seen.append(row.dataset_id)
        return seen

    def members_of(self, dataset_id: str) -> list[str]:
        """File names belonging to a dataset, duplicates collapsed to first."""
        seen = set()
        names = []
        for row in self.files:
            if row.dataset_id == dataset_id and row.file_name not in seen:
                seen.add(row.file_name)
                names.append(row.file_name)
        return names


@dataclass
class MappingReport:
    cat1_fields_mapped: int = 0
    cat2_defaults_applied: int = 0
    cat3_params_created: int = 0
    cat3_hooks_created: int = 0
    declared: int = 0
    duplicates: int = 0
    violations: list[tuple[str, str]] = field(default_factory=list)
    datasets_created: list[str] = field(default_factory=list)

    def to_wire(self) -> dict:
        return {
            "cat1_fields_mapped": self.cat1_fields_mapped,
            "cat2_defaults_applied": self.cat2_defaults_applied,
            "cat3_params_created": self.cat3_params_created,
            "cat3_hooks_created": self.cat3_hooks_created,
            "declared": self.declared,
            "duplicates": self.duplicates,
            "violations": [list(v) for v in self.violations],
            "datasets_created": list(self.datasets_created),
        }


# -- export loading --------------------------------------------------------

_TABLES = {
    "files.csv": ("file_name", "size_bytes", "fileset_id", "dataset_id",
                  "dfc_comment", "dfc_row_key"),
    "filesets.csv": ("fileset_id", "dataset_id", "tape_label"),
    "datasets.csv": ("dataset_id", "description"),
}


def load_export(directory: str | Path) -> LegacyExport:
    directory = Path(directory)
    tables = {}
    for table, columns in _TABLES.items():
        path = directory / table
        if not path.is_file():
            raise MissingTable(f"{directory} has no {table}")
        tables[table] = _read_table(path, columns)
    export = LegacyExport(
        files=[FileRow(r["file_name"], int(r["size_bytes"]), r["fileset_id"],
                       r["dataset_id"], r["dfc_comment"], r["dfc_row_key"])
               for r in tables["files.csv"]],
        filesets=[FilesetRow(r["fileset_id"], r["dataset_id"], r["tape_label"])
                  for r in tables["filesets.csv"]],
        datasets=[DatasetRow(r["dataset_id"], r["description"])
                  for r in tables["datasets.csv"]],
    )
    _check_integrity(export)
    return export


def _read_table(path: Path, columns: tuple[str, ...]) -> list[dict]:
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MalformedRow(path.name, 1, "missing header row") from None
        missing = [c for c in columns if c not in header]
        if missing:
            raise MalformedRow(path.name, 1, f"missing columns {missing}")
        index = {c: header.index(c) for c in columns}
        for line_number, raw in enumerate(reader, start=2):
            if not raw:
                continue
            if len(raw) != len(header):
                raise MalformedRow(path.name, line_number,
                                   f"expected {len(header)} fields, found {len(raw)}")
            row = {c: raw[i] for c, i in index.items()}
            if "size_bytes" in row:
                try:
                    int(row["size_bytes"])
                except ValueError:
                    raise MalformedRow(path.name, line_number,
                                       f"size_bytes {row['size_bytes']!r} is not an integer"
                                       ) from None
            rows.append(row)
    return rows


def _check_integrity(export: LegacyExport) -> None:
    """Referential problems are diagnostics, never fatal: rows are retained."""
    known_filesets = {r.fileset_id for r in export.filesets}
    known_datasets = {r.dataset_id for r in export.datasets}
    for row in export.files:
        if row.fileset_id and row.fileset_id not in known_filesets:
            export.diagnostics.append(
                f"file {row.file_name}: unknown fileset_id {row.fileset_id}")
        if row.dataset_id and row.dataset_id not in known_datasets:
            export.diagnostics.append(
                f"file {row.file_name}: unknown dataset_id {row.dataset_id}")
    for row in export.filesets:
        if row.dataset_id and row.dataset_id not in known_datasets:
            export.diagnostics.append(
                f"fileset {row.fileset_id}: unknown dataset_id {row.dataset_id}")


# -- mapping ---------------------------------------------------------------

def map_legacy_record(row: FileRow, import_time: float,
                      content_dir: str | Path | None = None) -> tuple[FileRecord, dict]:
    """Total mapping of one export row; never refuses a row."""
    parts = parse_legacy_name(row.file_name)
    violation = isinstance(parts, ConventionViolation)
    parameters: dict[str, str] = {}
    notes = {
        "cat1_fields": 0,
        "cat2_defaults": 3,  # created_at, import.source, parents
        "cat3_params": 0,
        "cat3_hooks": 1,
        "violation": None,
    }
    if violation:
        notes["violation"] = f"{parts.token}: {parts.reason}"
    else:
        parameters["legacy.fileset"] = str(parts.fileset_number)
        parameters["legacy.sequence"] = str(parts.sequence)
        # four first-class fields plus the two retained parameters
        notes["cat1_fields"] = 6

    parameters["import.source"] = "dfc"
    if row.dfc_comment:
        parameters["legacy.dfc_comment"] = row.dfc_comment
        notes["cat3_params"] += 1
    if row.dataset_id:
        parameters[DATASET_ID_PARAM] = row.dataset_id
        notes["cat3_params"] += 1

    crc = 0
    if content_dir is not None:
        source = Path(content_dir) / row.file_name
        if source.is_file():
            crc = crc32_file(source)

    record = FileRecord(
        file_name=row.file_name,
        size_bytes=row.size_bytes,
        crc32=crc,
        **name_dimensions(parts),
        parents=[],
        parameters=parameters,
        legacy_hook=(HOOK_TABLE, row.dfc_row_key),
        convention_violation=violation,
        created_at=import_time,
    )
    return record, notes


def run_migration(export: LegacyExport, catalog, import_time: float,
                  content_dir: str | Path | None = None,
                  dry_run: bool = False) -> MappingReport:
    """Declare every export row once and define one dataset per legacy id."""
    report = MappingReport()
    seen_names: set[str] = set()
    for row in export.files:
        if row.file_name in seen_names:
            report.duplicates += 1
            report.violations.append((row.file_name, "duplicate row in export"))
            continue
        seen_names.add(row.file_name)
        record, notes = map_legacy_record(row, import_time, content_dir)
        if notes["violation"]:
            report.violations.append((row.file_name, notes["violation"]))
        if not dry_run:
            try:
                catalog.declare_file(record)
            except RemoteError as e:
                if e.code != "DUPLICATE_NAME":
                    raise
                report.duplicates += 1
                continue
        report.declared += 1
        report.cat1_fields_mapped += notes["cat1_fields"]
        report.cat2_defaults_applied += notes["cat2_defaults"]
        report.cat3_params_created += notes["cat3_params"]
        report.cat3_hooks_created += notes["cat3_hooks"]

    for dataset_id in export.dataset_ids():
        name = f"{DATASET_PREFIX}{dataset_id}"
        if dry_run:
            report.datasets_created.append(name)
            continue
        try:
            catalog.define_dataset(name, Atom(f"param.{DATASET_ID_PARAM}", "=", dataset_id))
        except RemoteError as e:
            if e.code != "DUPLICATE_NAME":
                raise
        else:
            report.datasets_created.append(name)
    return report


def verify_migration(export: LegacyExport, catalog) -> list[dict]:
    """Compare every dataset's catalog membership with a direct export scan."""
    divergences = []
    for dataset_id in export.dataset_ids():
        expected = set(export.members_of(dataset_id))
        try:
            file_ids = catalog.resolve_dataset(f"{DATASET_PREFIX}{dataset_id}")
        except RemoteError as e:
            if e.code != "NOT_FOUND":
                raise
            divergences.append({
                "dataset": f"{DATASET_PREFIX}{dataset_id}",
                "missing": sorted(expected),
                "extra": [],
            })
            continue
        actual = {catalog.get_file(file_id).file_name for file_id in file_ids}
        if actual != expected:
            divergences.append({
                "dataset": f"{DATASET_PREFIX}{dataset_id}",
                "missing": sorted(expected - actual),
                "extra": sorted(actual - expected),
            })
    return divergences
