"""Exception hierarchy shared by all modules, and the guard that names the
first line of an input file that is not valid UTF-8."""

from __future__ import annotations

import re
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator


class SemepredError(Exception):
    """Base class for every error raised by this package."""


class ParseError(SemepredError):
    """An input file violates its format; message carries the line number."""


class ValidationError(SemepredError):
    """Data is well-formed but violates a structural invariant."""


class ConfigError(SemepredError):
    """A configuration value is unknown, malformed, or out of range."""


class ContractError(SemepredError):
    """A caller violated a documented precondition."""


class UnknownIdError(SemepredError, KeyError):
    """A node or relation id is absent from the queried structure."""

    # KeyError's own __str__ quotes the message as if it were a key.
    __str__ = Exception.__str__


class CoverageError(SemepredError):
    """A target synset is not covered by the model being asked to score it."""


class SamplingError(SemepredError):
    """Negative sampling exhausted its resample budget."""


class TrainingError(SemepredError):
    """Optimization diverged or otherwise failed at runtime."""


# What ``surrogateescape`` decodes each byte of invalid UTF-8 to.
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")


@contextmanager
def utf8_or_fail(path: str | Path, error: type[SemepredError] = ParseError) -> Iterator[None]:
    """Turn a decode error escaping a text-mode read of ``path`` into
    ``error`` naming the first line that is not valid UTF-8.  The file is
    reread with ``surrogateescape``, so its lines split as they did, and
    every byte strict decoding rejects comes back in U+DC80-U+DCFF."""
    try:
        yield
    except UnicodeDecodeError as exc:
        with open(path, encoding="utf-8", errors="surrogateescape") as fh:
            lineno = next(n for n, line in enumerate(fh, start=1) if _ESCAPED_BYTE.search(line))
        raise error(f"{path}:{lineno}: not valid UTF-8") from exc
