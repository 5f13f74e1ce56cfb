"""Atomic file writes: temp sibling + ``os.replace``.

Every durable artifact of the repository goes through
:func:`atomic_write_bytes`: the schedule and trace containers of
:mod:`repro.trace.io`, and, through :func:`atomic_write_text` and
:func:`atomic_write_json`, the JSON artifacts (run reports, timelines,
bench payloads, store stats).  The caller serializes fully, the bytes go
to a same-directory temp file whose name holds ``.tmp``, and a rename
puts them over the destination.  A reader can never observe a torn
file, and a crash mid-write leaves the previous version intact; the lint
rule RPL101 (``repro.check.lint``) flags a raw write anywhere else.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Any


def atomic_write_bytes(path: str | os.PathLike, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically (temp sibling + ``os.replace``)."""
    dest = os.fspath(path)
    tmp = f"{dest}.{os.getpid()}.{threading.get_ident()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, dest)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def atomic_write_text(path: str | os.PathLike, text: str, *, encoding: str = "utf-8") -> None:
    """Write ``text`` to ``path`` atomically, encoded as ``encoding``."""
    atomic_write_bytes(path, text.encode(encoding))


def atomic_write_json(path: str | os.PathLike, payload: Any, *, indent: int | None = 2) -> None:
    """Serialize ``payload`` fully, then write it atomically.

    Serialization happens before any byte reaches disk, so a payload that
    does not serialize leaves the destination untouched too.
    """
    atomic_write_text(path, json.dumps(payload, indent=indent) + "\n")
