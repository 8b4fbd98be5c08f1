"""Tests for trace serialization."""

import json
import zipfile

import numpy as np
import pytest

from repro.trace import (
    TRACE_FORMAT_VERSION,
    DataType,
    gather_trace,
    load_trace,
    save_trace,
)


class TestRoundTrip:
    def test_arrays_preserved(self, tmp_path):
        t = gather_trace(100)
        path = tmp_path / "t.npz"
        save_trace(t, path)
        t2 = load_trace(path)
        assert np.array_equal(t2.addr, t.addr)
        assert np.array_equal(t2.kind, t.kind)
        assert np.array_equal(t2.is_load, t.is_load)
        assert np.array_equal(t2.dep, t.dep)
        assert np.array_equal(t2.gap, t.gap)

    def test_metadata_preserved(self, tmp_path):
        t = gather_trace(10, name="gather")
        path = tmp_path / "t.npz"
        save_trace(t, path)
        t2 = load_trace(path)
        assert t2.name == "gather"
        assert t2.core == 0

    def test_simulation_identical_after_roundtrip(self, tmp_path):
        from repro.system import Machine, SystemConfig

        t = gather_trace(2000)
        path = tmp_path / "t.npz"
        save_trace(t, path)
        a = Machine(SystemConfig.scaled_baseline()).run(t)
        b = Machine(SystemConfig.scaled_baseline()).run(load_trace(path))
        assert a.cycles == b.cycles

    def test_phase_markers_preserved(self, tmp_path):
        t = gather_trace(10)
        t.phases = [(0, "warm"), (4, "iteration:0"), (10, "tail")]
        path = tmp_path / "t.npz"
        save_trace(t, path)
        assert load_trace(path).phases == t.phases

    def test_empty_phases_round_trip(self, tmp_path):
        t = gather_trace(5)
        path = tmp_path / "t.npz"
        save_trace(t, path)
        assert load_trace(path).phases == []

    def test_suffix_appended_like_savez(self, tmp_path):
        t = gather_trace(10)
        save_trace(t, tmp_path / "t")
        assert not (tmp_path / "t").exists()
        assert np.array_equal(load_trace(tmp_path / "t.npz").addr, t.addr)

    def test_version_check(self, tmp_path):
        t = gather_trace(5)
        path = tmp_path / "t.npz"
        save_trace(t, path)
        data = dict(np.load(path))
        data["version"] = np.int64(999)
        np.savez(path, **data)
        with pytest.raises(ValueError):
            load_trace(path)


class TestByteIdentity:
    """save -> load -> save must reproduce the archive byte for byte.

    Byte identity is what lets the on-disk trace cache be content-hashed
    and shared between machines; it covers every field of format v2 —
    the five parallel arrays (including dependency edges), name, core,
    and the phase-marker pair.
    """

    def _rich_trace(self):
        from repro.trace import DataType, TraceBuffer

        rng = np.random.default_rng(23)
        tb = TraceBuffer(name="rich")
        tb.mark_phase("warmup")
        prev = -1
        for i in range(500):
            addr = int(rng.integers(0, 1 << 16)) * 4
            if i == 250:
                tb.mark_phase("iteration:0")
            if rng.random() < 0.25:
                tb.store(addr, DataType.PROPERTY, gap=1)
            else:
                dep = prev if prev >= 0 and rng.random() < 0.5 else -1
                prev = tb.load(addr, DataType.STRUCTURE, dep=dep, gap=2)
        return tb.finalize()

    def test_save_load_save_byte_identical(self, tmp_path):
        t = self._rich_trace()
        assert t.phases and (t.dep >= 0).any() and (~t.is_load).any()
        first = tmp_path / "first.npz"
        second = tmp_path / "second.npz"
        save_trace(t, first)
        save_trace(load_trace(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_repeated_saves_byte_identical(self, tmp_path):
        t = self._rich_trace()
        a, b = tmp_path / "a.npz", tmp_path / "b.npz"
        save_trace(t, a)
        save_trace(t, b)
        assert a.read_bytes() == b.read_bytes()


class TestDeflateLevels:
    """Archives are stored at deflate level 1; older cache entries were
    written by ``np.savez_compressed`` at zlib's default level 6."""

    def _savez_compressed(self, t, path):
        """The writer before level 1, verbatim."""
        np.savez_compressed(
            path,
            version=np.int64(TRACE_FORMAT_VERSION),
            addr=t.addr,
            kind=t.kind,
            is_load=t.is_load,
            dep=t.dep,
            gap=t.gap,
            name=np.bytes_(t.name.encode()),
            core=np.int64(t.core),
            phase_index=np.array([i for i, _ in t.phases], dtype=np.int64),
            phase_labels=np.bytes_(
                json.dumps([label for _, label in t.phases]).encode()
            ),
        )

    def test_savez_compressed_archive_loads_to_an_equal_trace(self, tmp_path):
        t = TestByteIdentity()._rich_trace()
        old, new = tmp_path / "old.npz", tmp_path / "new.npz"
        self._savez_compressed(t, old)
        save_trace(t, new)
        assert old.read_bytes() != new.read_bytes()
        a, b = load_trace(old), load_trace(new)
        for field in ("addr", "kind", "is_load", "dep", "gap"):
            assert np.array_equal(getattr(a, field), getattr(t, field))
            assert getattr(a, field).dtype == getattr(t, field).dtype
            assert np.array_equal(getattr(b, field), getattr(t, field))
        assert (a.name, a.core, a.phases) == (t.name, t.core, t.phases)
        assert (b.name, b.core, b.phases) == (t.name, t.core, t.phases)

    def test_same_members_in_the_same_order(self, tmp_path):
        t = TestByteIdentity()._rich_trace()
        old, new = tmp_path / "old.npz", tmp_path / "new.npz"
        self._savez_compressed(t, old)
        save_trace(t, new)
        with zipfile.ZipFile(old) as a, zipfile.ZipFile(new) as b:
            assert a.namelist() == b.namelist()
            assert {i.compress_type for i in b.infolist()} == {zipfile.ZIP_DEFLATED}
            for name in a.namelist():
                assert a.read(name) == b.read(name)


class TestCorruptArchives:
    def test_truncated_file_raises_value_error(self, tmp_path):
        t = gather_trace(200)
        path = tmp_path / "t.npz"
        save_trace(t, path)
        data = path.read_bytes()
        for cut in (len(data) // 2, 10, 1):
            trunc = tmp_path / ("trunc%d.npz" % cut)
            trunc.write_bytes(data[:cut])
            with pytest.raises(ValueError, match="truncated or corrupt"):
                load_trace(trunc)

    def test_garbage_bytes_raise_value_error(self, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"\x00" * 512)
        with pytest.raises(ValueError, match="truncated or corrupt"):
            load_trace(path)

    def test_missing_array_raises_value_error(self, tmp_path):
        t = gather_trace(20)
        path = tmp_path / "t.npz"
        save_trace(t, path)
        data = dict(np.load(path))
        del data["dep"]
        np.savez(path, **data)
        with pytest.raises(ValueError, match="truncated or corrupt"):
            load_trace(path)

    def test_missing_file_keeps_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_trace(tmp_path / "nope.npz")
