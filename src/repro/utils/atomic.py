"""Crash-safe whole-file rewrites."""

from __future__ import annotations

import contextlib
import os
from pathlib import Path
from typing import BinaryIO, Iterator


@contextlib.contextmanager
def atomic_rewrite(path: "str | os.PathLike[str]") -> Iterator[BinaryIO]:
    """Yield a binary handle whose contents replace ``path`` atomically.

    The bytes go to a ``<name>.tmp`` sibling, which is flushed, fsynced
    and renamed over ``path``; the directory is then fsynced (where the
    platform allows it) so the rename itself is durable. A crash at any
    point leaves either the old file or the new one, never a mix. If the
    body raises, ``path`` is left untouched.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        yield fh
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    with contextlib.suppress(OSError):
        dir_fd = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
