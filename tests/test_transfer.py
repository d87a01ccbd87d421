"""Transfer plugins, the registry, and deterministic fault injection."""

import pytest

from samforge.errors import DuplicateScheme, NoPlugin, SourceUnavailable
from samforge.transfer import (
    FaultInjectingPlugin,
    LocalPlugin,
    Locator,
    PluginRegistry,
    crc32_bytes,
    crc32_file,
    transfer_file,
    with_fault_injection,
)


@pytest.fixture
def registry():
    registry = PluginRegistry()
    registry.register("local", LocalPlugin())
    return registry


def local_source(tmp_path, data=b"payload bytes"):
    src = tmp_path / "src" / "a.raw"
    src.parent.mkdir(exist_ok=True)
    src.write_bytes(data)
    return Locator("local", "here", str(src)), data


def test_registry_rejects_duplicate_scheme(registry):
    with pytest.raises(DuplicateScheme):
        registry.register("local", LocalPlugin())


def test_registry_unknown_scheme(registry):
    with pytest.raises(NoPlugin):
        registry.get("carrier-pigeon")


def test_local_transfer_copies_and_measures(registry, tmp_path):
    source, data = local_source(tmp_path)
    dest = tmp_path / "out" / "a.raw"  # parent does not exist yet
    outcome = transfer_file(registry, source, dest)
    assert dest.read_bytes() == data
    assert outcome.bytes_moved == len(data)
    assert outcome.computed_crc32 == crc32_bytes(data)
    assert outcome.duration_ms >= 0


def test_local_transfer_missing_source(registry, tmp_path):
    source = Locator("local", "here", str(tmp_path / "nope"))
    with pytest.raises(SourceUnavailable):
        transfer_file(registry, source, tmp_path / "out")


def test_fault_injection_every_call(tmp_path):
    plugin = with_fault_injection(LocalPlugin(), seed=1, corrupt_every_nth=1)
    source, data = local_source(tmp_path)
    for i in range(1, 4):
        dest = tmp_path / f"d{i}"
        plugin.fetch(source, dest)
        assert dest.read_bytes() != data
        assert len(dest.read_bytes()) == len(data)  # one byte flipped, none lost
    assert plugin.calls == 3
    assert plugin.corrupted == 3


def test_fault_injection_exact_indices(tmp_path):
    plugin = with_fault_injection(LocalPlugin(), seed=1, corrupt_every_nth=3)
    source, data = local_source(tmp_path)
    corrupted_calls = []
    for i in range(1, 10):
        dest = tmp_path / f"d{i}"
        plugin.fetch(source, dest)
        if dest.read_bytes() != data:
            corrupted_calls.append(i)
    assert corrupted_calls == [3, 6, 9]
    assert plugin.calls == 9
    assert plugin.corrupted == 3


def test_fault_injection_is_deterministic(tmp_path):
    source, data = local_source(tmp_path, data=bytes(range(256)))
    outputs = []
    for run in range(2):
        plugin = with_fault_injection(LocalPlugin(), seed=99, corrupt_every_nth=2)
        run_outputs = []
        for i in range(6):
            dest = tmp_path / f"run{run}-{i}"
            plugin.fetch(source, dest)
            run_outputs.append(dest.read_bytes())
        outputs.append(run_outputs)
    assert outputs[0] == outputs[1]


def test_fault_injection_flips_exactly_one_byte(tmp_path):
    source, data = local_source(tmp_path, data=bytes(range(256)))
    plugin = with_fault_injection(LocalPlugin(), seed=5, corrupt_every_nth=1)
    dest = tmp_path / "d"
    plugin.fetch(source, dest)
    got = dest.read_bytes()
    diffs = [i for i, (a, b) in enumerate(zip(data, got)) if a != b]
    assert len(diffs) == 1
    assert got[diffs[0]] == data[diffs[0]] ^ 0xFF


def test_fault_injection_skips_empty_files(tmp_path):
    source, _ = local_source(tmp_path, data=b"")
    plugin = with_fault_injection(LocalPlugin(), seed=1, corrupt_every_nth=1)
    dest = tmp_path / "d"
    plugin.fetch(source, dest)
    assert dest.read_bytes() == b""
    assert plugin.calls == 1
    assert plugin.corrupted == 0


def test_wrapper_passes_other_calls_through_untouched(tmp_path):
    plugin = with_fault_injection(LocalPlugin(), seed=1, corrupt_every_nth=1000)
    source, data = local_source(tmp_path)
    for i in range(5):
        dest = tmp_path / f"d{i}"
        plugin.fetch(source, dest)
        assert dest.read_bytes() == data
        assert crc32_file(dest) == crc32_bytes(data)
    assert plugin.corrupted == 0


def test_wrapper_validates_interval():
    with pytest.raises(ValueError):
        FaultInjectingPlugin(LocalPlugin(), seed=1, corrupt_every_nth=0)
