"""Shared file helpers: JSON-lines and JSON-object reading, splitting a file
into ranges of whole lines, and atomic writes.  Each record
kind declares its keys and their exact JSON types once, as :class:`Fields`;
a bad line or field raises the caller's error naming the line; nothing is coerced."""

from __future__ import annotations

import json
import operator
import os
import stat
import tempfile
from collections.abc import Iterable, Iterator
from itertools import islice
from pathlib import Path
from typing import NamedTuple

# json.dumps builds a new encoder for each call that passes any argument
_ENCODER = json.JSONEncoder(ensure_ascii=False)


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


def line_ranges(path: str | Path, parts: int) -> list[LineRange | None]:
    """Split ``path`` into at most ``parts`` contiguous, non-empty ranges of
    whole lines, in file order, each cut at the first line start at or after
    a ``1/parts`` share of the bytes: none for an empty file, fewer when a
    line spans a cut.  A file that is not a regular file (a pipe) cannot be
    split and is ``[None]``, one part that reads it to its end."""
    with open(path, "rb") as fh:
        info = os.fstat(fh.fileno())
        if not stat.S_ISREG(info.st_mode):
            return [None]
        size = info.st_size
        cuts = [0]
        for k in range(1, parts):
            cut = size * k // parts
            if cut > cuts[-1]:
                fh.seek(cut - 1)
                fh.readline()
                cuts.append(fh.tell())
        cuts.append(size)
        ranges, first = [], 1
        for start, end in zip(cuts, cuts[1:]):
            if start < end:
                fh.seek(start)
                count = _count_lines(fh, end - start)
                ranges.append(LineRange(start, first, first + count - 1))
                first += count
    return ranges


def _count_lines(fh, size: int) -> int:
    """Lines in the next ``size`` bytes of ``fh``, the last one with or without its newline."""
    count, last = 0, b"\n"
    while size > 0:
        chunk = fh.read(min(size, 1 << 20))
        if not chunk:
            break
        count += chunk.count(b"\n")
        size -= len(chunk)
        last = chunk[-1:]
    return count + (last != b"\n")


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
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise error(f"line {lineno}: invalid JSON record ({exc.msg})") from exc
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
    except UnicodeEncodeError as exc:
        surrogate = ord(exc.object[exc.start])
        raise error(f"line {lineno}: lone UTF-16 surrogate \\u{surrogate:04x} in a string "
                    "(not valid Unicode)") from exc


def read_json_object(path: str | Path, error: type[Exception], name: str) -> dict:
    """The JSON object that the UTF-8 file ``path`` holds; else ``error``
    with a message that starts with ``name``."""
    try:
        obj = json.loads(Path(path).read_bytes().decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise error(f"{name}: not valid UTF-8 ({exc.reason})") from exc
    except json.JSONDecodeError as exc:
        raise error(f"{name}: invalid JSON ({exc.msg})") from exc
    if type(obj) is not dict:
        raise error(f"{name}: expected a JSON object, got {type(obj).__name__}")
    return obj


_KIND_NAMES = {str: "a string", int: "an integer", list: "a list"}


class Fields:
    """The required keys of one record kind (two or more) and the exact JSON
    type of each: ``str``, ``int`` or ``list``, where a bool or a float is not an ``int``."""

    def __init__(self, **kinds: type) -> None:
        self._keys = tuple(kinds)
        self._kinds = tuple(kinds.values())
        self._get = operator.itemgetter(*kinds)

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
        key, kind = next((k, t) for k, t in zip(self._keys, self._kinds) if type(obj.get(k)) is not t)
        if key not in obj:
            raise error(f"line {lineno}: missing field {key!r}")
        raise error(f"line {lineno}: field {key!r} must be {_KIND_NAMES[kind]}, got {obj[key]!r}")

    def dump(self, values: Iterable) -> dict:
        """The record with ``values`` under the declared keys, in declaration order."""
        return dict(zip(self._keys, values, strict=True))


def jsonl_dumps(objects: Iterable[dict]) -> str:
    """One ``json.dumps(obj, ensure_ascii=False)`` line per object."""
    encode = _ENCODER.encode
    return "".join(encode(obj) + "\n" for obj in objects)


def atomic_write_text(path: str | Path, content: str) -> None:
    """Write ``content`` to ``path`` via a temp file and atomic rename.

    An interrupted run never leaves a truncated file at the destination.
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent or Path("."), prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(content)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
