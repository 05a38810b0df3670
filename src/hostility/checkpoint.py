"""Binary container for named float32 tensors plus text metadata.

Layout: magic "TAPTCKPT", version u32 LE, u32 byte length + UTF-8
metadata ("key=value" lines, keys sorted), then one record per tensor:
u32 name length, name bytes, u32 ndim (at most MAX_NDIM), u32 per
dimension, float32 LE payload in row-major order.
"""

from __future__ import annotations

import os
import struct
from contextlib import contextmanager
from typing import Callable, Iterator, Mapping

import numpy as np

from .errors import DataError, ShapeError

MAGIC = b"TAPTCKPT"
VERSION = 2
# The most dimensions a tensor record may declare: numpy's own limit.
MAX_NDIM = 64


def checkpoint_bytes(metadata: Mapping[str, str], tensors: Mapping[str, np.ndarray]) -> bytes:
    """The checkpoint blob. Tensor payloads are joined from buffer views
    of the arrays (a copy only where one is not C-ordered little-endian
    float32), so the blob is the one buffer as large as the model."""
    parts = [MAGIC, struct.pack("<I", VERSION)]
    lines = []
    for key in sorted(metadata):
        value = metadata[key]
        if "\n" in key or "\n" in value or "=" in key:
            raise ValueError(f"metadata entry {key!r} contains reserved characters")
        lines.append(f"{key}={value}")
    meta_blob = "\n".join(lines).encode("utf-8")
    parts.append(struct.pack("<I", len(meta_blob)))
    parts.append(meta_blob)
    for name, arr in tensors.items():
        name_blob = name.encode("utf-8")
        arr = np.asarray(arr, dtype="<f4")
        parts.append(struct.pack("<I", len(name_blob)))
        parts.append(name_blob)
        parts.append(struct.pack("<I", arr.ndim))
        for dim in arr.shape:
            parts.append(struct.pack("<I", dim))
        parts.append(np.ascontiguousarray(arr).reshape(-1).view(np.uint8))
    return b"".join(parts)


def _utf8(chunk, what: str) -> str:
    try:
        return str(chunk, "utf-8")
    except UnicodeDecodeError:
        raise DataError(f"checkpoint {what} is not valid UTF-8") from None


def _u32(take: Callable[[int], bytes]) -> int:
    return struct.unpack("<I", take(4))[0]


def _read_header(take: Callable[[int], bytes]) -> dict[str, str]:
    """Magic, version and metadata, read through take(n), which returns
    the next n bytes or raises DataError("truncated checkpoint")."""
    if take(len(MAGIC)) != MAGIC:
        raise DataError("not a checkpoint file (bad magic)")
    version = _u32(take)
    if version != VERSION:
        raise DataError(f"unsupported checkpoint version {version}")
    metadata: dict[str, str] = {}
    meta_text = _utf8(take(_u32(take)), "metadata")
    if meta_text:
        for ln, line in enumerate(meta_text.split("\n"), start=1):
            key, sep, value = line.partition("=")
            if not sep:
                raise DataError(f"metadata line {ln} has no '='")
            metadata[key] = value
    return metadata


def parse_checkpoint(blob: bytes) -> tuple[dict[str, str], dict[str, np.ndarray]]:
    """Metadata and tensors of a checkpoint blob. Each tensor is a
    read-only little-endian float32 view into blob, not a copy; callers
    that train or keep the values copy them (`params_from_arrays`). A
    tensor holding NaN or an infinity raises DataError."""
    view = memoryview(blob)
    offset = 0

    def take(n: int) -> memoryview:
        nonlocal offset
        if offset + n > len(blob):
            raise DataError("truncated checkpoint")
        chunk = view[offset : offset + n]
        offset += n
        return chunk

    metadata = _read_header(take)
    tensors: dict[str, np.ndarray] = {}
    while offset < len(blob):
        name = _utf8(take(_u32(take)), "tensor name")
        if name in tensors:
            raise DataError(f"duplicate tensor name {name!r}")
        ndim = _u32(take)
        if ndim > MAX_NDIM:
            raise DataError(f"tensor {name!r} has an unusable shape: ndim {ndim} > {MAX_NDIM}")
        shape = tuple(_u32(take) for _ in range(ndim))
        count = 1
        for dim in shape:
            count *= dim
        payload = take(4 * count)
        try:
            tensors[name] = np.frombuffer(payload, dtype="<f4").reshape(shape)
        except ValueError as exc:
            raise DataError(f"tensor {name!r} has an unusable shape: {exc}") from None
        if not np.isfinite(tensors[name]).all():
            raise DataError(f"tensor {name!r} holds a non-finite value")
    return metadata, tensors


@contextmanager
def naming_file(path) -> Iterator[None]:
    """Re-raise a DataError or ShapeError raised in the block, of the same
    type, with path before its message."""
    try:
        yield
    except (DataError, ShapeError) as exc:
        raise type(exc)(f"{path}: {exc}") from None


def read_metadata(path) -> dict[str, str]:
    """The metadata of a checkpoint file, read from its header alone; no
    tensor record is read or checked. Errors name the file."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def take(n: int) -> bytes:
            if fh.tell() + n > size:
                raise DataError("truncated checkpoint")
            return fh.read(n)

        with naming_file(path):
            return _read_header(take)


def read_checkpoint(path) -> tuple[dict[str, str], dict[str, np.ndarray]]:
    """parse_checkpoint of a checkpoint file. Errors name the file."""
    with open(path, "rb") as fh:
        blob = fh.read()
    with naming_file(path):
        return parse_checkpoint(blob)
