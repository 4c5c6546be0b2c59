"""Exception hierarchy shared by all corpusmine modules, and the input helpers
that raise its errors."""

from pathlib import Path


class ToolkitError(Exception):
    """Base class for all data/usage errors raised by corpusmine."""


class FormatError(ToolkitError):
    """Malformed or inconsistent input data (bad factor arity, line-count
    mismatch between parallel files, non-UTF-8 bytes, broken table rows)."""


class MissingFactorError(ToolkitError):
    """A factored view was requested on a corpus lacking the required factor."""


def parse_field(convert, text, what, path, lineno):
    """convert(text), or a FormatError naming the file, the line and the field."""
    try:
        return convert(text)
    except (ValueError, OverflowError):
        raise FormatError("%s line %d: bad %s %r" % (path, lineno, what, text)) from None


def read_text(path):
    """The text of a UTF-8 file, or a FormatError naming the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError("%s is not valid UTF-8: %s" % (path, exc)) from exc
