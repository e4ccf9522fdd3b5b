"""Binary checkpoint container.

Layout: 8 ASCII magic bytes "CAGECKPT", a 32-bit little-endian version (1),
a 64-bit little-endian metadata byte length, UTF-8 JSON metadata, then a
contiguous little-endian float32 payload.  The metadata's tensor directory
declares name/shape/byte-offset for every tensor; the declared extents must
tile the payload exactly.
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
VERSION = 1


@dataclass
class Checkpoint:
    config: dict
    epoch: int
    seed_state: dict
    tensors: dict          # name -> float32 ndarray
    vocab: dict = None     # optional raw-id lists, e.g. {"items": [...], "users": [...]}


def save_checkpoint(path, config: dict, epoch: int, seed_state: dict, tensors: dict,
                    vocab: dict | None = None) -> None:
    """Write the container; tensor order in the payload follows the directory."""
    directory = []
    offset = 0
    blobs = []
    for name in tensors:
        arr = np.ascontiguousarray(tensors[name], dtype=np.float32)
        raw = arr.astype("<f4", copy=False).tobytes()
        directory.append({"name": name, "shape": list(arr.shape), "offset": offset})
        offset += len(raw)
        blobs.append(raw)
    meta = {
        "config": config,
        "epoch": int(epoch),
        "seed_state": seed_state,
        "tensors": directory,
    }
    if vocab is not None:
        meta["vocab"] = vocab
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    # write a sibling file, then rename it over the target: a crash never leaves a truncated checkpoint
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", VERSION))
            fh.write(struct.pack("<Q", len(meta_bytes)))
            fh.write(meta_bytes)
            for raw in blobs:
                fh.write(raw)
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
    payload = blob[header_end + meta_len:]

    try:
        config, epoch = meta["config"], meta["epoch"]
        # the directory may appear in any order; offsets are authoritative
        directory = [(e["offset"], str(e["name"]), e["shape"]) for e in meta.get("tensors", [])]
    except (KeyError, TypeError) as exc:
        raise CorruptPayloadError(f"{path}: incomplete metadata: {exc!r}") from exc
    # a JSON integer loads as int, never as float or bool: 1.5, 2.0, true and "12" are not integers
    if type(epoch) is not int:
        raise CorruptPayloadError(f"{path}: epoch must be an integer, got {json.dumps(epoch)}")
    vocab = meta.get("vocab")
    if vocab is not None and not _is_vocab(vocab):
        raise CorruptPayloadError(f"{path}: vocab must map 'users'/'items' to lists of raw-id strings")
    names = [name for _, name, _ in directory]
    if len(set(names)) != len(names):
        raise CorruptPayloadError(f"{path}: duplicate tensor names in the directory")
    spans = []
    for off, name, shape in directory:
        # Python ints never wrap; numpy describes no shape past 32 dimensions, nor one, even
        # with no elements, whose nonzero dimensions give more bytes than it can index
        if (type(shape) is not list or not all(type(s) is int for s in shape) or len(shape) > 32
                or min(shape, default=0) < 0 or 4 * math.prod(filter(None, shape)) > sys.maxsize):
            raise CorruptPayloadError(f"{path}: tensor '{name}' has an invalid shape {json.dumps(shape)}")
        if type(off) is not int:
            raise CorruptPayloadError(f"{path}: tensor '{name}' has an invalid offset {json.dumps(off)}")
        nbytes = math.prod(shape) * 4
        if off < 0 or off + nbytes > len(payload):
            raise CorruptPayloadError(f"{path}: tensor '{name}' overflows the payload")
        spans.append((off, nbytes, name, shape))
    spans.sort()
    cursor = 0
    for off, nbytes, name, _ in spans:
        if off != cursor:
            raise CorruptPayloadError(f"{path}: payload gap/overlap at tensor '{name}'")
        cursor += nbytes
    if cursor != len(payload):
        raise CorruptPayloadError(f"{path}: payload size {len(payload)} does not match directory ({cursor})")

    tensors = {}
    for off, nbytes, name, shape in spans:
        tensors[name] = np.frombuffer(payload[off:off + nbytes], dtype="<f4").reshape(shape).copy()
        if not np.isfinite(tensors[name]).all():
            raise CorruptPayloadError(f"{path}: tensor '{name}' holds a non-finite value")
    return Checkpoint(
        config=config,
        epoch=epoch,
        seed_state=meta.get("seed_state", {}),
        tensors=tensors,
        vocab=vocab,
    )


def _is_vocab(vocab) -> bool:
    return (isinstance(vocab, dict) and set(vocab) <= {"users", "items"}
            and all(isinstance(ids, list) and set(map(type, ids)) <= {str} for ids in vocab.values()))
