import json
import struct

import numpy as np
import pytest

from treequant import checkpoint
from treequant.checkpoint import (MAGIC, VERSION, load_checkpoint,
                                  save_checkpoint)
from treequant.errors import (BadMagicError, CorruptPayloadError,
                              UnsupportedVersionError)


def _tensors(seed=0):
    gen = np.random.default_rng(seed)
    return {
        "user_table": gen.normal(size=(5, 4)).astype(np.float32),
        "item_table": gen.normal(size=(7, 4)).astype(np.float32),
        "bias": gen.normal(size=(3,)).astype(np.float32),
    }


def _save(path, tensors, **kwargs):
    save_checkpoint(path, {"task": "cf"}, 3, {"seed": 42}, tensors, **kwargs)


class TestRoundTrip:
    def test_tensors_bit_exact(self, tmp_path):
        p = tmp_path / "m.ckpt"
        tensors = _tensors()
        _save(p, tensors)
        ckpt = load_checkpoint(p)
        assert set(ckpt.tensors) == set(tensors)
        for name, arr in tensors.items():
            assert ckpt.tensors[name].dtype == np.float32
            assert np.array_equal(ckpt.tensors[name], arr)

    def test_metadata_preserved(self, tmp_path):
        p = tmp_path / "m.ckpt"
        _save(p, _tensors())
        ckpt = load_checkpoint(p)
        assert ckpt.config == {"task": "cf"}
        assert ckpt.epoch == 3
        assert ckpt.seed_state == {"seed": 42}

    def test_vocab_round_trip(self, tmp_path):
        p = tmp_path / "m.ckpt"
        _save(p, _tensors(), vocab={"items": ["a", "b"]})
        assert load_checkpoint(p).vocab == {"items": ["a", "b"]}

    def test_same_inputs_bit_identical_files(self, tmp_path):
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        _save(a, _tensors(1))
        _save(b, _tensors(1))
        assert a.read_bytes() == b.read_bytes()

    def test_empty_shape_edge(self, tmp_path):
        p = tmp_path / "m.ckpt"
        _save(p, {"scalar": np.float32(2.5).reshape(())})
        assert load_checkpoint(p).tensors["scalar"][()] == np.float32(2.5)


class TestCorruption:
    def test_bad_magic(self, tmp_path):
        p = tmp_path / "m.ckpt"
        _save(p, _tensors())
        blob = bytearray(p.read_bytes())
        blob[:8] = b"NOTACKPT"
        p.write_bytes(bytes(blob))
        with pytest.raises(BadMagicError):
            load_checkpoint(p)

    def test_version_99(self, tmp_path):
        p = tmp_path / "m.ckpt"
        _save(p, _tensors())
        blob = bytearray(p.read_bytes())
        blob[8:12] = struct.pack("<I", 99)
        p.write_bytes(bytes(blob))
        with pytest.raises(UnsupportedVersionError):
            load_checkpoint(p)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "m.ckpt"
        _save(p, _tensors())
        blob = p.read_bytes()
        p.write_bytes(blob[:-10])
        with pytest.raises(CorruptPayloadError):
            load_checkpoint(p)

    def test_truncated_metadata(self, tmp_path):
        p = tmp_path / "m.ckpt"
        _save(p, _tensors())
        p.write_bytes(p.read_bytes()[:30])
        with pytest.raises(CorruptPayloadError):
            load_checkpoint(p)

    def test_not_even_a_header(self, tmp_path):
        p = tmp_path / "m.ckpt"
        p.write_bytes(b"hi")
        with pytest.raises(BadMagicError):
            load_checkpoint(p)


class TestDirectoryOrder:
    def _rewrite_with_permuted_directory(self, path):
        blob = path.read_bytes()
        (meta_len,) = struct.unpack_from("<Q", blob, 12)
        meta = json.loads(blob[20:20 + meta_len].decode("utf-8"))
        meta["tensors"] = list(reversed(meta["tensors"]))
        new_meta = json.dumps(meta, sort_keys=True).encode("utf-8")
        path.write_bytes(blob[:12] + struct.pack("<Q", len(new_meta)) + new_meta + blob[20 + meta_len:])

    def test_permuted_directory_still_loads(self, tmp_path):
        p = tmp_path / "m.ckpt"
        tensors = _tensors(5)
        _save(p, tensors)
        self._rewrite_with_permuted_directory(p)
        ckpt = load_checkpoint(p)
        for name, arr in tensors.items():
            assert np.array_equal(ckpt.tensors[name], arr)

    def test_overlapping_offsets_rejected(self, tmp_path):
        p = tmp_path / "m.ckpt"
        _save(p, _tensors())
        blob = p.read_bytes()
        (meta_len,) = struct.unpack_from("<Q", blob, 12)
        meta = json.loads(blob[20:20 + meta_len].decode("utf-8"))
        meta["tensors"][1]["offset"] = meta["tensors"][0]["offset"]
        new_meta = json.dumps(meta, sort_keys=True).encode("utf-8")
        p.write_bytes(blob[:12] + struct.pack("<Q", len(new_meta)) + new_meta + blob[20 + meta_len:])
        with pytest.raises(CorruptPayloadError):
            load_checkpoint(p)

    def test_offset_overflow_rejected(self, tmp_path):
        p = tmp_path / "m.ckpt"
        _save(p, _tensors())
        blob = p.read_bytes()
        (meta_len,) = struct.unpack_from("<Q", blob, 12)
        meta = json.loads(blob[20:20 + meta_len].decode("utf-8"))
        meta["tensors"][0]["offset"] = 10 ** 9
        new_meta = json.dumps(meta, sort_keys=True).encode("utf-8")
        p.write_bytes(blob[:12] + struct.pack("<Q", len(new_meta)) + new_meta + blob[20 + meta_len:])
        with pytest.raises(CorruptPayloadError):
            load_checkpoint(p)


def _rewrite_meta(path, edit):
    """Apply edit(meta) to a saved container's metadata, keeping the payload."""
    blob = path.read_bytes()
    (meta_len,) = struct.unpack_from("<Q", blob, 12)
    meta = json.loads(blob[20:20 + meta_len].decode("utf-8"))
    edit(meta)
    new_meta = json.dumps(meta, sort_keys=True).encode("utf-8")
    path.write_bytes(blob[:12] + struct.pack("<Q", len(new_meta)) + new_meta + blob[20 + meta_len:])


@pytest.mark.parametrize("vocab", [[1, 2], "items", {"items": 5}, {"items": [1, 2]},
                                   {"items": ["a"], "labels": ["x"]}])
def test_malformed_vocab_rejected(tmp_path, vocab):
    p = tmp_path / "m.ckpt"
    _save(p, _tensors(), vocab={"items": ["a", "b"]})
    _rewrite_meta(p, lambda meta: meta.update(vocab=vocab))
    with pytest.raises(CorruptPayloadError, match="vocab"):
        load_checkpoint(p)


def test_users_and_items_vocab_accepted(tmp_path):
    p = tmp_path / "m.ckpt"
    _save(p, _tensors(), vocab={"users": ["u"], "items": []})
    assert load_checkpoint(p).vocab == {"users": ["u"], "items": []}


class TestIncompleteMetadata:
    def test_duplicate_tensor_names_rejected(self, tmp_path):
        p = tmp_path / "m.ckpt"
        _save(p, _tensors())

        def rename(meta):
            meta["tensors"][1]["name"] = meta["tensors"][0]["name"]
        _rewrite_meta(p, rename)
        with pytest.raises(CorruptPayloadError, match="duplicate"):
            load_checkpoint(p)

    @pytest.mark.parametrize("key", ["config", "epoch"])
    def test_missing_top_level_key_rejected(self, tmp_path, key):
        p = tmp_path / "m.ckpt"
        _save(p, _tensors())
        _rewrite_meta(p, lambda meta: meta.pop(key))
        with pytest.raises(CorruptPayloadError, match=key):
            load_checkpoint(p)

    @pytest.mark.parametrize("key", ["name", "shape", "offset"])
    def test_directory_entry_missing_key_rejected(self, tmp_path, key):
        p = tmp_path / "m.ckpt"
        _save(p, _tensors())
        _rewrite_meta(p, lambda meta: meta["tensors"][1].pop(key))
        with pytest.raises(CorruptPayloadError, match=key):
            load_checkpoint(p)


class _FailingWriter:
    """A binary file whose fourth write fails, as on a full disk."""

    def __init__(self, fh):
        self.fh = fh
        self.writes = 0

    def write(self, data):
        self.writes += 1
        if self.writes > 3:
            raise OSError("no space left on device")
        return self.fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self.fh.__exit__(*exc)


class TestAtomicSave:
    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        p = tmp_path / "m.ckpt"
        _save(p, _tensors(1))
        before = p.read_bytes()

        def failing_open(path, mode="r", *args, **kwargs):
            fh = open(path, mode, *args, **kwargs)
            return _FailingWriter(fh) if "w" in mode else fh
        monkeypatch.setattr(checkpoint, "open", failing_open, raising=False)
        with pytest.raises(OSError, match="no space"):
            _save(p, _tensors(2))
        monkeypatch.undo()
        assert p.read_bytes() == before
        assert np.array_equal(load_checkpoint(p).tensors["bias"], _tensors(1)["bias"])
        assert [f.name for f in tmp_path.iterdir()] == ["m.ckpt"]

    def test_overwrite_gives_the_same_bytes_as_a_fresh_save(self, tmp_path):
        fresh, reused = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        _save(reused, _tensors(1))
        _save(reused, _tensors(2))
        _save(fresh, _tensors(2))
        assert reused.read_bytes() == fresh.read_bytes()
        assert sorted(f.name for f in tmp_path.iterdir()) == ["a.ckpt", "b.ckpt"]
