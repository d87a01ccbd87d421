"""Legacy file-naming convention: parsing, formatting, violation reporting.

The convention packs dataset identity and storage grouping into the file
name::

    <stream><event_type><pp><cc>_fs<dddd>_<dddd>.<tier>
    b      phy          04  12   _fs0007 _0042  .raw

The 8-character prefix ``<stream><event_type><pp><cc>`` is the dataset
identifier: one lowercase stream letter, a three-letter event type, a
two-digit program version and a two-digit calibration set.  ``_fs<dddd>``
carries the fileset number (the tape co-location unit) and the trailing
four digits the sequence within the fileset.

Real catalogs contain names that violate the convention; parsing therefore
never raises.  A failed parse yields a :class:`ConventionViolation` value
naming the first token that broke, so batch importers can report and keep
going.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import RangeError

DATA_TIERS = ("raw", "prd", "ntp")

_FS_MARKER = "_fs"


@dataclass(frozen=True)
class LegacyNameParts:
    stream: str
    event_type: str
    program_version: int
    calibration_set: int
    fileset_number: int
    sequence: int
    data_tier: str

    @property
    def dataset_id(self) -> str:
        """8-character dataset prefix encoding type, version and calibration."""
        return (
            f"{self.stream}{self.event_type}"
            f"{self.program_version:02d}{self.calibration_set:02d}"
        )


@dataclass(frozen=True)
class ConventionViolation:
    name: str
    token: str
    reason: str


def parse_legacy_name(name: str) -> LegacyNameParts | ConventionViolation:
    """Parse ``name`` against the convention, total over arbitrary strings.

    Returns the parts on a full match, otherwise a ConventionViolation
    describing the first failing token.  Never raises.
    """
    head, sep, tail = name.partition(_FS_MARKER)
    if not sep:
        return ConventionViolation(name, "fileset", "missing '_fs' fileset segment")

    # prefix: <stream 1 lower><event_type 3 lower><pv 2 digits><cc 2 digits>
    if len(head) < 1 or not _lower_alpha(head[0:1]):
        return ConventionViolation(name, "stream", "stream must be 1 lowercase letter")
    if len(head) < 4 or not _lower_alpha(head[1:4]):
        return ConventionViolation(name, "event_type", "event type must be 3 lowercase letters")
    if len(head) < 6 or not head[4:6].isdigit():
        return ConventionViolation(name, "program_version", "program version must be 2 digits")
    if len(head) < 8 or not head[6:8].isdigit():
        return ConventionViolation(name, "calibration_set", "calibration set must be 2 digits")
    if len(head) != 8:
        return ConventionViolation(name, "prefix", "dataset prefix must be exactly 8 characters")

    # tail: <dddd>_<dddd>.<tier>
    if len(tail) < 4 or not tail[0:4].isdigit():
        return ConventionViolation(name, "fileset", "fileset number must be 4 digits")
    if len(tail) < 5 or tail[4] != "_":
        return ConventionViolation(name, "sequence", "missing '_' sequence separator")
    if len(tail) < 9 or not tail[5:9].isdigit():
        return ConventionViolation(name, "sequence", "sequence must be 4 digits")
    if len(tail) < 10 or tail[9] != ".":
        return ConventionViolation(name, "data_tier", "missing '.' tier extension")
    tier = tail[10:]
    if tier not in DATA_TIERS:
        return ConventionViolation(
            name, "data_tier", f"tier must be one of {'/'.join(DATA_TIERS)}"
        )

    return LegacyNameParts(
        stream=head[0],
        event_type=head[1:4],
        program_version=int(head[4:6]),
        calibration_set=int(head[6:8]),
        fileset_number=int(tail[0:4]),
        sequence=int(tail[5:9]),
        data_tier=tier,
    )


def format_legacy_name(parts: LegacyNameParts) -> str:
    """Render parts canonically (zero-padded); inverse of parse.

    Raises RangeError when any field is outside the grammar's ranges.
    """
    if len(parts.stream) != 1 or not _lower_alpha(parts.stream):
        raise RangeError(f"stream {parts.stream!r} must be 1 lowercase letter")
    if len(parts.event_type) != 3 or not _lower_alpha(parts.event_type):
        raise RangeError(f"event_type {parts.event_type!r} must be 3 lowercase letters")
    if not 0 <= parts.program_version <= 99:
        raise RangeError(f"program_version {parts.program_version} outside 0..99")
    if not 0 <= parts.calibration_set <= 99:
        raise RangeError(f"calibration_set {parts.calibration_set} outside 0..99")
    if not 0 <= parts.fileset_number <= 9999:
        raise RangeError(f"fileset_number {parts.fileset_number} outside 0..9999")
    if not 0 <= parts.sequence <= 9999:
        raise RangeError(f"sequence {parts.sequence} outside 0..9999")
    if parts.data_tier not in DATA_TIERS:
        raise RangeError(f"data_tier {parts.data_tier!r} not one of {DATA_TIERS}")
    return (
        f"{parts.dataset_id}"
        f"{_FS_MARKER}{parts.fileset_number:04d}_{parts.sequence:04d}.{parts.data_tier}"
    )


def name_dimensions(parts: LegacyNameParts | ConventionViolation) -> dict[str, str | int]:
    """The catalog dimensions a parsed name sets; a name that breaks the
    convention sets ``unk``, 0 and 0, and its extension's tier or ``raw``."""
    if isinstance(parts, ConventionViolation):
        return {"event_type": "unk", "data_tier": tier_from_extension(parts.name) or "raw",
                "program_version": 0, "calibration_set": 0}
    return {"event_type": parts.event_type, "data_tier": parts.data_tier,
            "program_version": parts.program_version, "calibration_set": parts.calibration_set}


def tier_from_extension(name: str) -> str | None:
    """Recognize a trailing .raw/.prd/.ntp extension on an arbitrary name."""
    dot = name.rfind(".")
    if dot == -1:
        return None
    ext = name[dot + 1:]
    return ext if ext in DATA_TIERS else None


def _lower_alpha(s: str) -> bool:
    return bool(s) and all("a" <= c <= "z" for c in s)
