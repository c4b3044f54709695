"""Binary container for grids, fields and kernel tables.

Layout (version 2): magic "RSOB", little-endian u32 version, u32 header
length, UTF-8 JSON header, the named float64 arrays in row-major order, and
a trailing little-endian u32 CRC-32 (zlib) of everything before it.  Files
are written to a temporary name beside the target and moved into place
(write_atomic, which the JSON and CSV outputs use too), so a reader never
sees a partial file.  Version 1 files (CRC-64 trailer) are rejected with
VersionMismatch.
"""

from __future__ import annotations

import json
import os
import struct
import zlib

import numpy as np

from .errors import ChecksumFailure, CorruptHeader, UnknownKind, VersionMismatch

MAGIC = b"RSOB"
VERSION = 2
_PREFIX = 12  # magic + version + header length
_CRC = 4


def write_container(path, header, arrays):
    """Write a dict header and an ordered {name: ndarray} mapping."""
    header = dict(header)
    header["arrays"] = [
        {"name": k, "shape": list(v.shape)} for k, v in arrays.items()
    ]
    hjson = json.dumps(header, sort_keys=True).encode("utf-8")
    blob = bytearray()
    blob += MAGIC
    blob += struct.pack("<II", VERSION, len(hjson))
    blob += hjson
    for v in arrays.values():
        blob += np.ascontiguousarray(v, dtype="<f8").tobytes()
    blob += struct.pack("<I", zlib.crc32(blob))
    write_atomic(path, blob)


def write_atomic(path, data):
    """Write bytes to a temporary name beside path and move it into place,
    so that a reader sees the old file or the new one, never a partial one."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def read_container(path, kind=None):
    """Return (header dict, {name: ndarray}) after checksum validation; with
    kind, a header of another kind raises UnknownKind."""
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < _PREFIX + _CRC or blob[:4] != MAGIC:
        raise CorruptHeader(f"{path}: missing container magic")
    version, hlen = struct.unpack_from("<II", blob, 4)
    if version != VERSION:
        raise VersionMismatch(f"{path}: container version {version}, expected {VERSION}")
    if len(blob) < _PREFIX + hlen + _CRC:
        raise ChecksumFailure(f"{path}: file truncated")
    (stored,) = struct.unpack_from("<I", blob, len(blob) - _CRC)
    if zlib.crc32(memoryview(blob)[:-_CRC]) != stored:
        raise ChecksumFailure(f"{path}: checksum mismatch")
    try:
        header = json.loads(blob[_PREFIX : _PREFIX + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CorruptHeader(f"{path}: bad header JSON ({e})")
    if kind is not None and header.get("kind") != kind:
        raise UnknownKind(
            f"{path}: file kind {header.get('kind')!r}, expected {kind!r}"
        )
    arrays = {}
    offset = _PREFIX + hlen
    for spec in header.get("arrays", []):
        shape = tuple(spec["shape"])
        count = int(np.prod(shape)) if shape else 1
        arr = np.frombuffer(blob, dtype="<f8", count=count, offset=offset)
        arrays[spec["name"]] = arr.reshape(shape).copy()
        offset += count * 8
    if offset != len(blob) - _CRC:
        raise CorruptHeader(f"{path}: payload size disagrees with header")
    return header, arrays
