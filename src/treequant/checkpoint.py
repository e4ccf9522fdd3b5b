"""Binary checkpoint container, version 2.

Layout: 8 ASCII magic bytes "CAGECKPT", a 32-bit little-endian version (2),
a 64-bit little-endian metadata byte length, UTF-8 JSON metadata, then a
little-endian float32 payload.  The metadata holds the run's `config`, its
raw-id `vocab` (which id is which table row, per side) and `tensors`, a list
of {name, shape} in payload order: the tensors fill the payload exactly, one
after another.  A file of any other version, version 1 included, is refused.
"""

from __future__ import annotations

import json
import math
import os
import struct
import sys
from dataclasses import dataclass

import numpy as np

from .errors import BadMagicError, CorruptPayloadError, UnsupportedVersionError

MAGIC = b"CAGECKPT"
VERSION = 2


@dataclass
class Checkpoint:
    config: dict
    tensors: dict          # name -> float32 ndarray
    vocab: dict            # raw-id lists per side, e.g. {"items": [...], "users": [...]}


def save_checkpoint(path, config: dict, tensors: dict, vocab: dict) -> None:
    """Write the container; the payload holds the tensors in the directory's order."""
    arrays = {name: np.asarray(arr, dtype="<f4") for name, arr in tensors.items()}
    meta = {
        "config": config,
        "tensors": [{"name": name, "shape": list(arr.shape)} for name, arr in arrays.items()],
        "vocab": vocab,
    }
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    # write a sibling file, then rename it over the target: a crash never leaves a truncated checkpoint
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", VERSION))
            fh.write(struct.pack("<Q", len(meta_bytes)))
            fh.write(meta_bytes)
            for arr in arrays.values():
                fh.write(arr.tobytes())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # only when writing or renaming failed
            os.unlink(tmp)


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(MAGIC) + 12 or blob[: len(MAGIC)] != MAGIC:
        raise BadMagicError(f"{path}: not a checkpoint container")
    (version,) = struct.unpack_from("<I", blob, len(MAGIC))
    if version != VERSION:
        raise UnsupportedVersionError(f"{path}: unsupported container version {version}")
    (meta_len,) = struct.unpack_from("<Q", blob, len(MAGIC) + 4)
    header_end = len(MAGIC) + 12
    if header_end + meta_len > len(blob):
        raise CorruptPayloadError(f"{path}: metadata extends past end of file")
    try:
        meta = json.loads(blob[header_end:header_end + meta_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise CorruptPayloadError(f"{path}: bad metadata: {exc}") from exc

    try:
        config, vocab = meta["config"], meta["vocab"]
        directory = [(str(e["name"]), e["shape"]) for e in meta["tensors"]]
    except (KeyError, TypeError) as exc:
        raise CorruptPayloadError(f"{path}: incomplete metadata: {exc!r}") from exc
    if not _is_vocab(vocab):
        raise CorruptPayloadError(f"{path}: vocab must map 'users'/'items' to lists of distinct raw-id strings")
    names = [name for name, _ in directory]
    if len(set(names)) != len(names):
        raise CorruptPayloadError(f"{path}: duplicate tensor names in the directory")
    start = cursor = header_end + meta_len
    tensors = {}
    for name, shape in directory:
        # a JSON integer loads as int, never as float or bool: 1.5, 2.0, true and "12" are not integers;
        # Python ints never wrap; numpy describes no shape past 32 dimensions, nor one, even
        # with no elements, whose nonzero dimensions give more bytes than it can index
        if (type(shape) is not list or not all(type(s) is int for s in shape) or len(shape) > 32
                or min(shape, default=0) < 0 or 4 * math.prod(filter(None, shape)) > sys.maxsize):
            raise CorruptPayloadError(f"{path}: tensor '{name}' has an invalid shape {json.dumps(shape)}")
        count = math.prod(shape)
        if cursor + 4 * count > len(blob):
            raise CorruptPayloadError(f"{path}: tensor '{name}' overflows the payload")
        tensors[name] = np.frombuffer(blob, "<f4", count, cursor).reshape(shape).copy()
        cursor += 4 * count
    if cursor != len(blob):
        raise CorruptPayloadError(f"{path}: payload size {len(blob) - start} does not match directory "
                                  f"({cursor - start})")
    for name, arr in tensors.items():
        if not np.isfinite(arr).all():
            raise CorruptPayloadError(f"{path}: tensor '{name}' holds a non-finite value")
    return Checkpoint(config=config, tensors=tensors, vocab=vocab)


def _is_vocab(vocab) -> bool:
    return (isinstance(vocab, dict) and set(vocab) <= {"users", "items"}
            and all(isinstance(ids, list) and set(map(type, ids)) <= {str} and len(set(ids)) == len(ids)
                    for ids in vocab.values()))
