"""Shared file helpers: the one JSON-lines codec, JSON-object reading,
splitting a file into ranges of whole lines, and atomic writes.

Each record kind declares its keys and their exact JSON types once, as
:class:`Fields`, which reads a decoded row strictly and writes the rows of
its kind; a bad line or field raises the caller's error naming the line, and
nothing is coerced.  Each line is decoded by one scanner call; only a line
the scanner cannot take whole (blank, padded, a BOM, extra data, invalid or
too deep) goes through ``json.loads``, the slow path, which writes every
decode error.  Each row is written as one formatted line with the same bytes
as ``json.dumps(..., ensure_ascii=False)``."""

from __future__ import annotations

import json
import operator
import os
import stat
import sys
from collections.abc import Iterable, Iterator
from itertools import islice
from json.encoder import encode_basestring
from pathlib import Path
from typing import NamedTuple

# json.dumps builds a new encoder for each call that passes any argument
_ENCODER = json.JSONEncoder(ensure_ascii=False)
# the scanner behind json.loads, without its BOM check and whitespace matches
_decode = json.JSONDecoder().raw_decode
_JSON_SPACE = " \t\n\r"


def decode_utf8(data: bytes, lineno: int, error: type[Exception]) -> str:
    """``data``, which starts at line ``lineno``, as UTF-8; else ``error`` naming the bad line."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        bad = lineno + data.count(b"\n", 0, exc.start)
        raise error(f"line {bad}: not valid UTF-8 ({exc.reason})") from exc


class LineRange(NamedTuple):
    """Lines ``first`` to ``last`` (1-based) of a file, whose first byte is at offset ``start``."""

    start: int
    first: int
    last: int


def line_ranges(path: str | Path, parts: int) -> list[LineRange]:
    """Split ``path`` into at most ``parts`` contiguous, non-empty ranges of
    whole lines, in file order, each cut at the first line start at or after
    a ``1/parts`` share of the bytes: none for an empty file or one that is
    not regular (a pipe, told by a stat, since opening a named pipe waits
    for its writer), fewer when a line spans a cut.  The file is read once,
    line by line."""
    info = os.stat(path)
    if not stat.S_ISREG(info.st_mode):
        return []
    size = info.st_size
    # the shares not yet passed, the next one last, above one no offset reaches
    shares = [float("inf"), *(size * k // parts for k in range(parts - 1, 0, -1))]
    ranges, start, first, offset = [], 0, 1, 0
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if offset >= shares[-1]:
                while offset >= shares[-1]:  # this line start is the cut of every share it passed
                    shares.pop()
                if offset:  # a share of 0 cuts nothing off
                    ranges.append(LineRange(start, first, lineno - 1))
                    start, first = offset, lineno
            offset += len(line)
    if offset:
        ranges.append(LineRange(start, first, lineno))
    return ranges


def iter_jsonl(path: str | Path, error: type[Exception],
               lines: LineRange | None = None) -> Iterator[tuple[int, object]]:
    """Yield (1-based line number, decoded value) per non-blank line of the
    file, or of its range ``lines``; the first line in file order that is not
    UTF-8, not JSON, or has a string with a lone UTF-16 surrogate raises ``error``."""
    with open(path, "rb") as fh:
        lineno, rows = 0, fh
        if lines is not None:
            fh.seek(lines.start)
            lineno, rows = lines.first - 1, islice(fh, lines.last - lines.first + 1)
        for line in rows:  # not enumerate, whose cached tuple would keep the raw bytes alive
            lineno += 1
            line = decode_utf8(line, lineno, error)
            try:
                obj, end = _decode(line)
            except (ValueError, RecursionError):
                end = -1
            # a value followed by JSON whitespace only is what json.loads
            # returns; any other line takes the slow path, which skips a blank
            # line and raises every error, so each message is json.loads's own
            if end < 0 or line[end:].strip(_JSON_SPACE):
                if not line.strip():
                    continue
                try:
                    obj = json.loads(line)
                except (ValueError, RecursionError) as exc:
                    raise error(f"line {lineno}: invalid JSON record ({_refusal(exc)})") from exc
            # a strict UTF-8 line can carry a surrogate only as a \ud800-\udfff
            # escape; the one-character test is a memchr that clears most lines
            if "\\" in line and ("\\ud" in line or "\\uD" in line):
                _reject_lone_surrogates(obj, lineno, error)
            yield lineno, obj


def _reject_lone_surrogates(obj: object, lineno: int, error: type[Exception]) -> None:
    """``error`` naming line ``lineno`` when a string in ``obj`` holds an
    unpaired surrogate, which no UTF-8 output could write; an escaped pair
    decodes to one character and passes."""
    try:
        _ENCODER.encode(obj).encode("utf-8")
    except RecursionError as exc:  # the encoder's frames sit a little deeper than the decoder's
        raise error(f"line {lineno}: invalid JSON record ({_refusal(exc)})") from exc
    except UnicodeEncodeError as exc:
        surrogate = ord(exc.object[exc.start])
        raise error(f"line {lineno}: lone UTF-16 surrogate \\u{surrogate:04x} in a string "
                    "(not valid Unicode)") from exc


def _refusal(exc: Exception) -> str:
    """Why ``json.loads`` refused a text: a syntax error's own message and
    where it is (its line only past the first; the end of a text is the end
    of its last line, not past its newline), or the limit it hit; for a
    ``str`` it raises no other ``ValueError``."""
    if isinstance(exc, json.JSONDecodeError):
        pos = min(exc.pos, len(exc.doc.rstrip("\n")))
        lineno, colno = exc.doc.count("\n", 0, pos) + 1, pos - exc.doc.rfind("\n", 0, pos)
        return f"{exc.msg}: line {lineno} column {colno}" if lineno > 1 else f"{exc.msg}: column {colno}"
    if isinstance(exc, RecursionError):
        return "nested too deeply"
    return f"an integer has more than {sys.get_int_max_str_digits()} digits"


def read_json_object(path: str | Path, error: type[Exception], name: str) -> dict:
    """The JSON object that the UTF-8 file ``path`` holds; else ``error``
    with a message that starts with ``name``."""
    try:
        obj = json.loads(Path(path).read_bytes().decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise error(f"{name}: not valid UTF-8 ({exc.reason})") from exc
    except (ValueError, RecursionError) as exc:
        raise error(f"{name}: invalid JSON ({_refusal(exc)})") from exc
    if type(obj) is not dict:
        raise error(f"{name}: expected a JSON object, got {type(obj).__name__}")
    return obj


_KIND_NAMES = {str: "a string", int: "an integer", list: "a list"}
# what json.dumps(..., ensure_ascii=False) writes for a value of each kind
_WRITERS = {str: encode_basestring, int: int.__repr__}


class Fields:
    """The required keys of one record kind (two or more) and the exact JSON
    type of each: ``str``, ``int`` or ``list``, where a bool or a float is not an ``int``."""

    def __init__(self, **kinds: type) -> None:
        self.keys = tuple(kinds)
        self._kinds = tuple(kinds.values())
        self._get = operator.itemgetter(*kinds)
        # one row's line, each value's JSON text a %s
        self._line = "{" + ", ".join(encode_basestring(k).replace("%", "%%") + ": %s" for k in kinds) + "}\n"

    def read(self, obj, lineno: int, error: type[Exception]) -> tuple:
        """The values of the declared keys in declaration order; else ``error``
        naming the line and the first bad key, or that ``obj`` is not a JSON object."""
        try:
            values = self._get(obj)
            if tuple(map(type, values)) == self._kinds:
                return values
        except (KeyError, TypeError):
            pass
        if type(obj) is not dict:
            raise error(f"line {lineno}: expected a JSON object, got {type(obj).__name__}")
        # a missing key reads as None, which is no declared kind
        key, kind = next((k, t) for k, t in zip(self.keys, self._kinds) if type(obj.get(k)) is not t)
        if key not in obj:
            raise error(f"line {lineno}: missing field {key!r}")
        raise error(f"line {lineno}: field {key!r} must be {_KIND_NAMES[kind]}, got {obj[key]!r}")

    def dumps(self, rows: Iterable[tuple]) -> str:
        """One ``json.dumps(dict(zip(keys, row)), ensure_ascii=False)`` line per
        row, for kinds ``str`` and ``int`` only and values of exactly those
        kinds.  Each column goes through the function that encoder uses,
        ``encode_basestring`` or ``int.__repr__``, and each row fills one line."""
        columns = list(zip(*rows, strict=True))  # none when there is no row
        if columns and len(columns) != len(self.keys):
            raise ValueError(f"rows of {len(columns)} values for the {len(self.keys)} keys {self.keys}")
        texts = [map(_WRITERS[kind], column) for kind, column in zip(self._kinds, columns)]
        return "".join(map(self._line.__mod__, zip(*texts)))


def atomic_write_text(path: str | Path, content: str) -> None:
    """Write ``content`` to ``path`` as UTF-8, as :func:`atomic_write_bytes` does."""
    atomic_write_bytes(path, [content.encode("utf-8")])


def atomic_write_bytes(path: str | Path, parts: Iterable[bytes]) -> None:
    """Write ``parts``, in order, to ``path`` via a temp file and atomic rename.

    An interrupted run, or an error while ``parts`` is iterated, never leaves a
    truncated file at the destination, nor the temp file.  The file written
    has mode 0o666 less the umask, as one ``open(path, "w")`` creates.
    """
    path = Path(path)
    tmp_name = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    # O_EXCL fails on a name already taken rather than write into that file
    fd = os.open(tmp_name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(parts)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
