"""Relation records and their flat string serialization.

A record ties a company to one extracted variable: ``company, variable_name,
variable_value, variable_date``.  A paragraph's full output is the records
rendered in that order and joined with a ``|`` separator, e.g.::

    Jumia, revenue, €41 million, Q4 2020| Jumia, revenue, €33.7 million, Q3 2020|

Dates may contain commas ("March 3, 2021"); parsing therefore splits each
record on its first three commas only.  Company and value fields must not
contain commas or pipes, which is enforced at construction time so a record
can never serialize into something that parses differently.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass

from ._fileio import Fields, atomic_write_text, iter_jsonl

VARIABLE_NAMES = ("founder", "country", "revenue", "customers/users", "investment")

UNKNOWN_DATE = "unknown-date"

RECORD_SEPARATOR = "|"
FIELD_SEPARATOR = ","


class RecordError(ValueError):
    """Raised for invalid record fields or unparsable record strings."""


_PREDICTION = Fields(id=str, predicted_text=str)


def _check_field(name: str, value: str, allow_comma: bool = False) -> None:
    if not isinstance(value, str) or not value:
        raise RecordError(f"{name} must be a non-empty string, got {value!r}")
    if value != value.strip():
        raise RecordError(f"{name} must not have leading/trailing whitespace: {value!r}")
    if RECORD_SEPARATOR in value:
        raise RecordError(f"{name} must not contain {RECORD_SEPARATOR!r}: {value!r}")
    if not allow_comma and FIELD_SEPARATOR in value:
        raise RecordError(f"{name} must not contain commas: {value!r}")


@dataclass(frozen=True)
class RelationRecord:
    """One extracted fact: a company plus a named variable, value, and date."""

    company: str
    variable_name: str
    variable_value: str
    variable_date: str = UNKNOWN_DATE

    def __post_init__(self) -> None:
        _check_field("company", self.company)
        if self.variable_name not in VARIABLE_NAMES:
            raise RecordError(
                f"variable_name must be one of {VARIABLE_NAMES}, got {self.variable_name!r}"
            )
        _check_field("variable_value", self.variable_value)
        _check_field("variable_date", self.variable_date, allow_comma=True)


def _fields(record: RelationRecord) -> tuple[str, str, str, str]:
    return (record.company, record.variable_name, record.variable_value, record.variable_date)


def serialize(records: list[RelationRecord]) -> str:
    """Render records as the pipe-separated target string.

    Each record becomes ``company, name, value, date`` and is terminated by
    ``|``; consecutive records are separated by a single space after the pipe.
    An empty list renders as the empty string.  A missing date is rendered as
    the literal ``unknown-date`` so every record keeps four positional fields.
    """
    return " ".join([f"{FIELD_SEPARATOR} ".join(_fields(r)) + RECORD_SEPARATOR for r in records])


def is_informative(target_text: str) -> bool:
    """Whether a target holds a record: some ``|`` segment is not blank."""
    return any(segment.strip() for segment in target_text.split(RECORD_SEPARATOR))


def _split_records(s: str) -> Iterator[list[str]]:
    """The four stripped fields of each non-blank ``|`` segment of ``s``, the
    segment split on its first three commas; a segment with fewer than three
    commas raises :class:`RecordError`."""
    for segment in s.split(RECORD_SEPARATOR):
        segment = segment.strip()
        if not segment:
            continue
        parts = segment.split(FIELD_SEPARATOR, 3)
        if len(parts) < 4:
            raise RecordError(f"record {segment!r} has fewer than four comma-separated fields")
        yield [p.strip() for p in parts]


def parse(s: str) -> list[RelationRecord]:
    """Parse a serialized target string back into records, one per segment
    that :func:`_split_records` reads, so a target that is not informative
    parses to an empty list.  Raises :class:`RecordError` for a segment with
    fewer than three commas, an empty field, or a variable name outside the
    known inventory.  :func:`validate` accepts and rejects the same strings
    without building the records."""
    return [RelationRecord(*fields) for fields in _split_records(s)]


def validate(s: str) -> None:
    """Raise what :func:`parse` raises for ``s``, without building records.

    After the split the fields are stripped and hold no ``|``, and the first
    three hold no ``,``, so of a record's checks only an empty field and an
    unknown variable name can fail.  Those two are tested directly; only a
    failing record is built, so that the error is the one :func:`parse`
    raises.
    """
    for fields in _split_records(s):
        if not all(fields) or fields[1] not in VARIABLE_NAMES:
            RelationRecord(*fields)  # raises parse's RecordError


def record_multiset(s: str) -> Counter[tuple[str, str, str, str]]:
    """The records of target ``s`` (:func:`parse`) as a multiset of their
    fields, each case-folded and its whitespace collapsed."""
    return Counter(tuple(" ".join(f.casefold().split()) for f in _fields(r)) for r in parse(s))


def load_predictions(path) -> dict[str, str]:
    """Load a prediction file: one ``{id, predicted_text}`` object of strings
    per line, ids unique; a malformed line raises :class:`RecordError`."""
    predictions: dict[str, str] = {}
    for lineno, obj in iter_jsonl(path, RecordError):
        pred_id, predicted_text = _PREDICTION.read(obj, lineno, RecordError)
        if pred_id in predictions:
            raise RecordError(f"line {lineno}: duplicate prediction id {pred_id!r}")
        predictions[pred_id] = predicted_text
    return predictions


def save_predictions(pairs: list[tuple[str, str]], path) -> None:
    """Write (id, predicted_text) pairs as a prediction file, atomically."""
    atomic_write_text(path, _PREDICTION.dumps(pairs))
