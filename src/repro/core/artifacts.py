"""Crash-safe artifact writes.

Every JSON/text artifact the repo produces — benchmark results,
golden-trace digests, experiment reports, lint reports, fault
plans — goes through one helper so an interrupted run (SIGKILL,
OOM, power loss) can never leave a half-written file behind.  The
recipe is the standard one: write to a temporary file *in the same
directory* (so the final rename stays on one filesystem), fsync, then
atomically ``os.replace`` over the destination.  Readers see either
the old contents or the new contents, never a torn write.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Union

PathLike = Union[str, "os.PathLike[str]"]


def atomic_write_text(path: PathLike, text: str,
                      encoding: str = "utf-8") -> None:
    """Atomically replace ``path`` with ``text`` (tempfile + fsync +
    rename).  Creates parent directories as needed."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(target.parent),
                               prefix=f".{target.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding=encoding) as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:  # pragma: no cover - best-effort cleanup
            pass
        raise


def atomic_write_json(path: PathLike, obj: Any, *, indent: int = 2,
                      sort_keys: bool = True) -> None:
    """Atomically write ``obj`` as JSON (trailing newline included, so
    repeated writes of identical data are byte-identical files)."""
    text = json.dumps(obj, indent=indent, sort_keys=sort_keys)
    atomic_write_text(path, text + "\n")
