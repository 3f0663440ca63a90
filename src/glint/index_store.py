"""Persistent multi-vector index.

Binary layout (all integers little-endian):

    magic "LIGT" | u32 version | u32 d | u32 n_docs
    per document: u64 page_id | u32 n_patch_rows | patches (f64 row-major) | global (f64)
    trailing u32 CRC32 over everything before it

Vectors are stored as float64 so read(write(x)) == x bit-exactly. Every row is
required to be unit-norm (so finite) at write time; reads re-verify the
checksum and the exact byte length, and raise IntegrityError on any mismatch
or on a non-finite row.
"""

from __future__ import annotations

import mmap
import os
import struct
import zlib
from collections.abc import Sequence

import numpy as np

from .atomic import write_atomic
from .embeddings import DocumentEmbedding
from .errors import ConfigurationError, IntegrityError
from .scoring import DocumentIndex

INDEX_MAGIC = b"LIGT"
INDEX_VERSION = 1
_NORM_TOL = 1e-6


def _check_unit_rows(rows: np.ndarray, page_id: int) -> None:
    """Refuse a document's (patches + global, d) rows unless all are unit-norm."""
    norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))
    ok = np.abs(norms - 1.0) <= _NORM_TOL  # a NaN norm is not within tol either
    if not ok.all():
        n_bad = int(np.sum(~ok[:-1]))
        what = f"patches: {n_bad}" if n_bad else "global: 1"
        raise ValueError(f"page {page_id} {what} rows are not unit-norm")


def write_index(docs: Sequence[DocumentEmbedding], path) -> None:
    """Serialize document embeddings. The file is assembled in one buffer of
    its final size, the only copy of its bytes that writing holds, and each
    document's rows are checked once there, so no failure leaves a partial
    index behind."""
    d = docs[0].global_vec.shape[0] if docs else 0
    for doc in docs:
        if doc.global_vec.shape[0] != d or doc.patches.shape[1] != d:
            raise ValueError(f"page {doc.page_id}: dimension mismatch with index header d={d}")
    size = 16 + sum(12 + (doc.patches.shape[0] + 1) * d * 8 for doc in docs)
    blob = bytearray(size + 4)
    blob[:16] = INDEX_MAGIC + struct.pack("<III", INDEX_VERSION, d, len(docs))
    off = 16
    for doc in docs:
        n_rows = doc.patches.shape[0]
        struct.pack_into("<QI", blob, off, doc.page_id, n_rows)
        rows = np.frombuffer(blob, dtype="<f8", count=(n_rows + 1) * d, offset=off + 12).reshape(n_rows + 1, d)
        rows[:-1] = doc.patches
        rows[-1] = doc.global_vec
        _check_unit_rows(rows, doc.page_id)
        off += 12 + rows.nbytes
    struct.pack_into("<I", blob, size, zlib.crc32(memoryview(blob)[:size]))
    write_atomic(path, blob)


def read_index(path) -> DocumentIndex:
    """Load an index, verifying magic, version, checksum, and exact length.

    Each record is read as a view of the file mapped into memory, which the
    DocumentIndex copies once into its tiles. The mapping is released with
    the last view of it, when this returns, so the file's bytes never take
    heap memory. Writers replace an index by rename, so a mapped file does
    not change underneath.
    """
    try:
        with open(path, "rb") as fh:
            if os.fstat(fh.fileno()).st_size < 4 + 12 + 4:
                raise IntegrityError(f"{path}: too short to be an index file")
            blob = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    except FileNotFoundError as exc:
        raise ConfigurationError(f"index file not found: {path}") from exc
    if blob[:4] != INDEX_MAGIC:
        raise IntegrityError(f"{path}: bad magic {blob[:4]!r}")
    payload, (stored_crc,) = memoryview(blob)[:-4], struct.unpack("<I", blob[-4:])
    if zlib.crc32(payload) != stored_crc:
        raise IntegrityError(f"{path}: checksum mismatch; file is corrupted")
    version, d, n_docs = struct.unpack_from("<III", payload, 4)
    if version != INDEX_VERSION:
        raise IntegrityError(f"{path}: unsupported index version {version}")

    docs = []
    off = 16
    for _ in range(n_docs):
        if off + 12 > len(payload):
            raise IntegrityError(f"{path}: truncated document record")
        page_id, n_rows = struct.unpack_from("<QI", payload, off)
        if n_rows == 0:
            raise IntegrityError(f"{path}: page {page_id} has no patch rows")
        off += 12
        need = (n_rows + 1) * d * 8
        if off + need > len(payload):
            raise IntegrityError(f"{path}: truncated vectors for page {page_id}")
        rows = np.frombuffer(payload, dtype="<f8", count=(n_rows + 1) * d, offset=off).reshape(n_rows + 1, d)
        docs.append(DocumentEmbedding(patches=rows[:-1], global_vec=rows[-1], page_id=page_id))
        off += need
    if off != len(payload):
        raise IntegrityError(f"{path}: {len(payload) - off} trailing bytes after last record")
    try:
        return DocumentIndex(docs)
    except ValueError as exc:
        raise IntegrityError(f"{path}: {exc}") from exc
