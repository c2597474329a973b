"""Exception types shared across the package, and the text-file line reader."""

from collections.abc import Iterator
from pathlib import Path


class BackrankError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(BackrankError, ValueError):
    """Tensor shapes do not satisfy an operation's contract."""


class DomainError(BackrankError, ValueError):
    """An argument is outside an operation's documented domain."""


class ParseError(BackrankError, ValueError):
    """A data file is malformed.

    Carries the offending line number when one is known.
    """

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        self.path = path
        self.line = line
        prefix = ""
        if path is not None:
            prefix += str(path)
        if line is not None:
            prefix += f":{line}"
        super().__init__(f"{prefix}: {message}" if prefix else message)


def read_lines(path) -> Iterator[tuple[int, str]]:
    """(line number, line) pairs of a UTF-8 text file, split by str.splitlines.

    An unreadable file is a ParseError naming the path; a byte that is not
    UTF-8 is one naming the path and the byte's line.
    """
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ParseError(exc.strerror or str(exc), path=str(path)) from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # numbered as str.splitlines numbers the lines the parsers see
        line = len((data[:exc.start].decode("utf-8") + "x").splitlines())
        raise ParseError(f"byte 0x{data[exc.start]:02x} is not valid UTF-8", path=str(path),
                         line=line) from None
    return enumerate(text.splitlines(), 1)
