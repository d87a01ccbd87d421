"""Naming convention parser: canonical names, violations, round trips."""

import pytest
from hypothesis import given, strategies as st

from samforge.naming import (
    ConventionViolation,
    LegacyNameParts,
    parse_legacy_name,
    tier_from_extension,
)


def test_parses_canonical_name():
    parts = parse_legacy_name("bphy0412_fs0007_0042.raw")
    assert parts == LegacyNameParts(
        stream="b",
        event_type="phy",
        program_version=4,
        calibration_set=12,
        fileset_number=7,
        sequence=42,
        data_tier="raw",
    )


@pytest.mark.parametrize("name,token", [
    ("1phy0412_fs0007_0042.raw", "stream"),
    ("bPHY0412_fs0007_0042.raw", "event_type"),
    ("bphyxx12_fs0007_0042.raw", "program_version"),
    ("bphy04xx_fs0007_0042.raw", "calibration_set"),
    ("bphy04123_fs0007_0042.raw", "prefix"),
    ("bphy0412_fs07_0042.raw", "fileset"),
    ("bphy0412_0007_0042.raw", "fileset"),
    ("bphy0412_fs0007-0042.raw", "sequence"),
    ("bphy0412_fs0007_042.raw", "sequence"),
    ("bphy0412_fs0007_0042", "data_tier"),
    ("bphy0412_fs0007_0042.xyz", "data_tier"),
    ("oops.raw", "fileset"),
    ("", "fileset"),
])
def test_violations_name_the_failing_token(name, token):
    result = parse_legacy_name(name)
    assert isinstance(result, ConventionViolation)
    assert result.token == token
    assert result.name == name
    assert result.reason


def test_parse_never_raises_on_junk():
    for name in ("", " ", "_fs", "_fs____", "a_fs0000_0000.", "\x00\xff_fs"):
        parse_legacy_name(name)  # any return is fine; raising is not


parts_strategy = st.builds(
    LegacyNameParts,
    stream=st.text("abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=1),
    event_type=st.text("abcdefghijklmnopqrstuvwxyz", min_size=3, max_size=3),
    program_version=st.integers(0, 99),
    calibration_set=st.integers(0, 99),
    fileset_number=st.integers(0, 9999),
    sequence=st.integers(0, 9999),
    data_tier=st.sampled_from(["raw", "prd", "ntp"]),
)


def canonical(parts: LegacyNameParts) -> str:
    """The name the convention gives parts, zero-padded."""
    return (f"{parts.stream}{parts.event_type}{parts.program_version:02d}"
            f"{parts.calibration_set:02d}_fs{parts.fileset_number:04d}_{parts.sequence:04d}"
            f".{parts.data_tier}")


@given(parts_strategy)
def test_format_parse_round_trip(parts):
    assert parse_legacy_name(canonical(parts)) == parts


@given(st.text(max_size=40))
def test_parse_format_round_trip_on_arbitrary_text(name):
    parsed = parse_legacy_name(name)
    if isinstance(parsed, LegacyNameParts):
        assert canonical(parsed) == name


def test_tier_from_extension():
    assert tier_from_extension("whatever.raw") == "raw"
    assert tier_from_extension("a.b.ntp") == "ntp"
    assert tier_from_extension("noext") is None
    assert tier_from_extension("trailingdot.") is None
    assert tier_from_extension("wrong.root") is None
