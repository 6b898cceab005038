"""Checkpoint container, and the file header that TGSL, TGKT and TGCK share.

Each format starts with a 4-byte magic, the format version u32 and its own
u32 header fields. A TGCK's one field is its record count; per record follow
(name length u32, name bytes, rank u32, extents u32 each, raw f64 payload).
Round trips are bit-exact.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

MAGIC = b"TGCK"
FORMAT_VERSION = 1


def write_header(fh, magic: bytes, *fields: int) -> None:
    """Write `magic`, FORMAT_VERSION and `fields` as little-endian u32s."""
    fh.write(magic + struct.pack(f"<{1 + len(fields)}I", FORMAT_VERSION, *fields))


def read_header(path, magic: bytes, n_fields: int, kind: str) -> tuple[tuple[int, ...], memoryview]:
    """Read `path` whole; check its magic, header length and version.

    Returns the `n_fields` u32 header fields after the version and the
    payload that follows them. Every error names the path.
    """
    raw = Path(path).read_bytes()
    if raw[:4] != magic:
        raise ValueError(f"{path}: bad {kind} magic {raw[:4]!r}")
    size = 8 + 4 * n_fields
    if len(raw) < size:
        raise ValueError(f"{path}: {kind} header is {len(raw)} bytes, expected {size}")
    version, *fields = struct.unpack_from(f"<{1 + n_fields}I", raw, 4)
    if version != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported {kind} version {version}")
    return tuple(fields), memoryview(raw)[size:]


def save_checkpoint(path, tensors: dict[str, np.ndarray]) -> None:
    with open(path, "wb") as fh:
        write_header(fh, MAGIC, len(tensors))
        for name in sorted(tensors):
            arr = np.asarray(tensors[name], dtype="<f8")
            nb = name.encode("utf-8")
            fh.write(struct.pack("<I", len(nb)))
            fh.write(nb)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.tobytes())


def load_checkpoint(path) -> dict[str, np.ndarray]:
    (count,), payload = read_header(path, MAGIC, 1, "checkpoint")
    off = 0
    out: dict[str, np.ndarray] = {}
    try:
        for _ in range(count):
            (nlen,) = struct.unpack_from("<I", payload, off)
            off += 4
            name = bytes(payload[off : off + nlen]).decode("utf-8")
            off += nlen
            (rank,) = struct.unpack_from("<I", payload, off)
            off += 4
            shape = struct.unpack_from(f"<{rank}I", payload, off)
            off += 4 * rank
            n = int(np.prod(shape)) if rank else 1
            arr = np.frombuffer(payload, dtype="<f8", count=n, offset=off).reshape(shape)
            off += 8 * n
            out[name] = arr.astype(np.float64)
    except (struct.error, ValueError) as exc:
        raise ValueError(f"{path}: truncated or corrupt checkpoint ({exc})") from exc
    if off != len(payload):
        raise ValueError(f"{path}: trailing bytes after last record")
    return out
