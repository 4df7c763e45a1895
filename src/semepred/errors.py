"""Exception hierarchy shared by all modules, and the one input-file
reader, which numbers lines and names ``path:line`` on every error."""

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
def numbered_lines(
    path: str | Path, error: type[SemepredError] = ParseError
) -> Iterator[Iterator[tuple[int, str]]]:
    """``(number, line)`` for each non-blank line of the UTF-8 file ``path``, newline dropped.
    A :class:`SemepredError` raised in the block comes back as the same type, prefixed
    ``path:<line read last>: `` (line 1 before any is read).  Text mode decodes ahead, so a
    decode error becomes ``error`` naming the first bad line a ``surrogateescape`` reread finds."""
    path, last = Path(path), 1

    def lines() -> Iterator[tuple[int, str]]:
        nonlocal last
        for number, raw in enumerate(fh, start=1):
            if raw.strip():
                last = number
                yield number, raw.rstrip("\n")

    with open(path, encoding="utf-8") as fh:
        try:
            yield lines()
        except UnicodeDecodeError as exc:
            with open(path, encoding="utf-8", errors="surrogateescape") as escaped:
                bad = next(n for n, line in enumerate(escaped, start=1) if _ESCAPED_BYTE.search(line))
            raise error(f"{path}:{bad}: not valid UTF-8") from exc
        except SemepredError as exc:
            raise type(exc)(f"{path}:{last}: {exc}") from exc
