"""Exception hierarchy shared by all corpusmine modules, and the helpers that
every file reader and writer goes through."""

import math
import os
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


def finite(text):
    """float(text) for a numeric field, which may not be nan or +-inf."""
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(text)
    return x


def log10_prob(text):
    """finite(text) for a log10 probability, which may not be above 0 (p > 1)."""
    lp = finite(text)
    if lp > 0:
        raise ValueError(text)
    return lp


def read_text(path):
    """The text of a UTF-8 file, or a FormatError naming the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError("%s is not valid UTF-8: %s" % (path, exc)) from exc


def read_lines(path):
    """(line number, line) for each line of a UTF-8 file.  The call reads the
    whole file and splits it into a list of lines; the lines are not streamed.
    Lines end at \\n only: str.splitlines() would also end one at U+2028,
    U+0085, \\x0b, \\x0c or \\x1c-\\x1e, and so shift every later line number."""
    lines = read_text(path).split("\n")
    if lines[-1] == "":
        lines.pop()
    return enumerate(lines, 1)


def write_text(path, text):
    """Replace path with text, a string or an iterable of strings (UTF-8, \\n
    newlines), by way of `<path>.tmp`: a write that fails (or an iterable
    that raises) leaves the old file and no temp, a killed one no torn file."""
    if os.path.exists(path) and not os.path.isfile(path):
        # a rename would put a regular file in place of a device or pipe
        raise ToolkitError("%s is not a regular file" % path)
    path = os.path.realpath(path)  # through a symlink to its target, as open() goes
    tmp = "%s.tmp" % path
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as f:
            f.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise
