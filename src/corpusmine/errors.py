"""Exception hierarchy shared by all corpusmine modules, and the helpers that
every file reader and writer goes through."""

import codecs
import math
import os
import sys
from functools import partial
from itertools import chain
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


def non_negative(text):
    """finite(text) for a score, which may not be below 0."""
    x = finite(text)
    if x < 0:
        raise ValueError(text)
    return x


def backoff_weight(text):
    """finite(text) for a linear backoff weight, which lies in [0, 1]: every
    smoothing that writes one gives the unseen events a share of the mass."""
    x = finite(text)
    if not 0 <= x <= 1:
        raise ValueError(text)
    return x


def _split_lines(text):
    """text cut at each \\n, \\r\\n and lone \\r; the last piece follows the last break."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def read_lines(path):
    """(line number, line) for each line of a UTF-8 file, read once, 64 KiB
    at a time as they are iterated.  A line ends at \\n, \\r\\n or a lone \\r;
    not at U+2028, U+0085, \\x0b, \\x0c or \\x1c-\\x1e, as in str.splitlines(),
    which would shift every later line number."""
    decode = codecs.getincrementaldecoder("utf-8")().decode
    lineno, tail, cr = 1, [], ""  # tail: line lineno so far, in pieces; cr: a \r after it
    with open(path, "rb") as f:
        for block in chain(iter(partial(f.read1, 1 << 16), b""), [b""]):  # b"": the end
            try:
                text = cr + decode(block, not block)
            except UnicodeDecodeError as exc:
                # tail holds no line break, so the bad byte's line is lineno plus
                # the breaks in cr and exc.object before it
                before = cr + exc.object[:exc.start].decode("latin-1")
                raise FormatError("%s line %d: not valid UTF-8: byte 0x%02x, %s" % (
                    path, lineno + len(_split_lines(before)) - 1, exc.object[exc.start],
                    exc.reason)) from None
            cr = "\r" if block and text.endswith("\r") else ""  # it may be half a \r\n
            lines = _split_lines(text[:len(text) - len(cr)])
            rest = lines.pop()
            if lines:  # a line as long as many blocks is joined once
                lines[0] = "".join(tail) + lines[0]
                tail = []
            tail.append(rest)
            yield from enumerate(lines, lineno)
            lineno += len(lines)
    last = "".join(tail)
    if last:
        yield lineno, last


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


def write_headed(path, header, rows):
    """Write a `# key: value` line for each item of header, then each row as
    a line, to path by way of write_text, or to stdout when path is None."""
    text = chain(map("# %s: %s\n".__mod__, header.items()), map("%s\n".__mod__, rows))
    if path is None:
        sys.stdout.writelines(text)
    else:
        write_text(path, text)
