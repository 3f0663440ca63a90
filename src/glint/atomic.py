"""Crash-safe artifact writes shared by every writer of a persisted file."""

from __future__ import annotations

import os
from pathlib import Path


def write_atomic(path, data: bytes | bytearray) -> None:
    """Replace `path` by `data` in one step: write a sibling temp file, then
    `os.replace` it over the target, so a process that dies or fails
    mid-write leaves the previous file's bytes intact. There is no fsync:
    this guards against a process crash, not against power loss."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
