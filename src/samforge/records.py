"""Catalog record types and validation.

FileRecord is the explicit per-file metadata view: what produced the file,
with which program version and calibration set, its checksum, lineage and
free-form parameters, plus an optional hook back to the legacy catalog row
it was migrated from.  ReplicaLocation is one answer of the catalog's
get_locations, as CatalogClient hands it back; the catalog itself keeps
datasets, snapshots and locations in the shape it answers with.
"""

from __future__ import annotations

import re
from collections.abc import Container
from dataclasses import dataclass, field

from .errors import ValidationError
from .naming import DATA_TIERS

_CRC32_MAX = 2**32 - 1
_NAME_FORBIDDEN = re.compile(r"[\s/]")
_REQUIRED = ("file_name", "size_bytes", "crc32", "data_tier", "event_type",
             "program_version", "calibration_set")


@dataclass
class FileRecord:
    file_name: str
    size_bytes: int
    crc32: int
    data_tier: str
    event_type: str
    program_version: int
    calibration_set: int
    parents: list[int] = field(default_factory=list)
    parameters: dict[str, str] = field(default_factory=dict)
    legacy_hook: tuple[str, str] | None = None
    convention_violation: bool = False
    created_at: float = 0.0
    file_id: int | None = None

    def to_wire(self) -> dict:
        return {
            "file_id": self.file_id,
            "file_name": self.file_name,
            "size_bytes": self.size_bytes,
            "crc32": self.crc32,
            "data_tier": self.data_tier,
            "event_type": self.event_type,
            "program_version": self.program_version,
            "calibration_set": self.calibration_set,
            "parents": list(self.parents),
            "parameters": dict(self.parameters),
            "legacy_hook": list(self.legacy_hook) if self.legacy_hook else None,
            "convention_violation": self.convention_violation,
            "created_at": self.created_at,
        }

    @classmethod
    def from_wire(cls, obj: dict) -> "FileRecord":
        """The record obj describes; ValidationError names each field that cannot be read.

        Values are checked by validate_file_record; this checks only shapes.
        """
        if not isinstance(obj, dict):
            raise ValidationError(f"a file record is an object, not {type(obj).__name__}")
        problems = [f"{key} is missing" for key in _REQUIRED if key not in obj]
        if not isinstance(obj.get("file_name", ""), str):
            problems.append(f"file_name {obj['file_name']!r} must be a string")
        parents = obj.get("parents") or []
        if not isinstance(parents, list) or not all(type(p) is int for p in parents):
            problems.append(f"parents {parents!r} must be a list of file ids")
        if not isinstance(obj.get("parameters") or {}, dict):
            problems.append(f"parameters {obj['parameters']!r} must be an object")
        hook = obj.get("legacy_hook")
        if hook and not (isinstance(hook, list) and len(hook) == 2
                         and all(isinstance(part, str) for part in hook)):
            problems.append(f"legacy_hook {hook!r} must be a [table, key] pair of strings")
        if not isinstance(obj.get("created_at") or 0.0, (int, float)):
            problems.append(f"created_at {obj['created_at']!r} must be a number")
        if problems:
            raise ValidationError(problems)
        return cls(
            file_name=obj["file_name"],
            size_bytes=obj["size_bytes"],
            crc32=obj["crc32"],
            data_tier=obj["data_tier"],
            event_type=obj["event_type"],
            program_version=obj["program_version"],
            calibration_set=obj["calibration_set"],
            parents=list(parents),
            parameters=dict(obj.get("parameters") or {}),
            legacy_hook=(hook[0], hook[1]) if hook else None,
            convention_violation=bool(obj.get("convention_violation", False)),
            created_at=float(obj.get("created_at") or 0.0),
            file_id=obj.get("file_id"),
        )


def file_name_problem(name: str) -> str | None:
    """Why name cannot name a file, or None.

    Names travel on space-delimited wire headers and become file names in
    cache and volume directories, so none may reach outside its directory.
    """
    if not name:
        return "file_name is empty"
    if _NAME_FORBIDDEN.search(name) or name in (".", ".."):
        return f"file_name {name!r} contains whitespace or '/', or is '.' or '..'"
    return None


def validate_file_record(record: FileRecord, known_ids: Container[int]) -> list[str]:
    """Collect every violation; an empty list means the record is valid."""
    problems = []
    if name_problem := file_name_problem(record.file_name):
        problems.append(name_problem)
    if type(record.size_bytes) is not int or record.size_bytes < 0:
        problems.append(f"size_bytes {record.size_bytes!r} must be a non-negative integer")
    if type(record.crc32) is not int or not 0 <= record.crc32 <= _CRC32_MAX:
        problems.append(f"crc32 {record.crc32!r} must be a 32-bit unsigned integer")
    if record.data_tier not in DATA_TIERS:
        problems.append(f"data_tier {record.data_tier!r} not one of {'/'.join(DATA_TIERS)}")
    if not record.event_type:
        problems.append("event_type is empty")
    if type(record.program_version) is not int or record.program_version < 0:
        problems.append(f"program_version {record.program_version!r} must be a non-negative integer")
    if type(record.calibration_set) is not int or record.calibration_set < 0:
        problems.append(f"calibration_set {record.calibration_set!r} must be a non-negative integer")
    for parent in record.parents:
        if parent not in known_ids:
            problems.append(f"dangling parent {parent}")
    for key, value in record.parameters.items():
        if not key or not isinstance(key, str):
            problems.append(f"parameter key {key!r} must be a non-empty string")
        if not isinstance(value, str):
            problems.append(f"parameter {key!r} value {value!r} must be a string")
    return problems


@dataclass
class ReplicaLocation:
    file_id: int
    endpoint_name: str
    path_or_volume: str

    @classmethod
    def from_wire(cls, obj: dict) -> "ReplicaLocation":
        return cls(
            file_id=obj["file_id"],
            endpoint_name=obj["endpoint_name"],
            path_or_volume=obj["path_or_volume"],
        )
