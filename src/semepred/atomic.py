"""Artifact writes that replace their target only once complete."""

from __future__ import annotations

import os
import secrets
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, TextIO

from .errors import ConfigError


@contextmanager
def atomic_open(path: str | Path) -> Iterator[TextIO]:
    """A UTF-8 text handle on a new temp file beside ``path``, moved onto
    ``path`` with ``os.replace`` once the block completes.

    A block that raises leaves ``path`` as it was and removes the temp
    file; a process killed inside the block leaves ``path`` as it was and
    a hidden ``.<name>.<token>.tmp`` beside it.  Nothing is fsynced, so
    this guards against a dying process, not a dying machine.  An
    ``OSError`` on the way, such as ``path`` being a directory, is a
    :class:`ConfigError` naming ``path``.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(6)}.tmp")
    try:
        fh = open(tmp, "x", encoding="utf-8")
        try:
            with fh:
                yield fh
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc
