"""Shared file helpers: JSON-lines reading and atomic writes.  A malformed
line or field raises the caller's error class, naming the line; nothing is coerced."""

from __future__ import annotations

import json
import os
import tempfile
from collections.abc import Iterable, Iterator
from pathlib import Path


def iter_jsonl(path: str | Path, error: type[Exception]) -> Iterator[tuple[int, dict]]:
    """Yield (1-based line number, object) per non-blank line; a non-object line raises ``error``."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise error(f"line {lineno}: invalid JSON record ({exc.msg})") from exc
            if not isinstance(obj, dict):
                raise error(f"line {lineno}: expected a JSON object, got {type(obj).__name__}")
            yield lineno, obj


def require(obj: dict, key: str, lineno: int, error: type[Exception], kind: type = str):
    """``obj[key]`` when it is present and exactly of type ``kind`` (``str``
    or ``list``); otherwise ``error`` naming the line and the key."""
    if key not in obj:
        raise error(f"line {lineno}: missing field {key!r}")
    value = obj[key]
    if type(value) is not kind:
        expected = "a string" if kind is str else "a list"
        raise error(f"line {lineno}: field {key!r} must be {expected}, got {value!r}")
    return value


def jsonl_dumps(objects: Iterable[dict]) -> str:
    return "".join(json.dumps(obj, ensure_ascii=False) + "\n" for obj in objects)


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
