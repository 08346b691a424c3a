"""Static word embeddings and the phrase-similarity classifiers.

Money phrases ("a net income", "$10 million") are labeled revenue vs.
investment by comparing the phrase's mean word vector against two small
lexicons and taking the single most similar word; person mentions get the
same treatment against a founder lexicon.  A classification only sticks when
the winning similarity strictly exceeds the configured threshold.

An :class:`EmbeddingTable` is one read-only float64 matrix, ``vectors``,
over one flat ``array('d')`` or a read-only map of a cache entry, and the
``index`` of each case-folded word's row: a dict after a parse, a mapping
over the same map after a cache hit.  A :class:`Classifier` holds the
lexicon rows of one table and lexicon, with their norms, and the verdict of
each phrase it has classified; each table builds it at its first
classification with that lexicon and keeps it for the rest of the run, so a
run classifies each distinct phrase once.  Phrase
means, norms and dot products are worked out in Python floats, each sum
added left to right, so a similarity, and so a verdict, is the same on every
machine and Python version.

:func:`load_embeddings` caches the parse of each regular table file on
disk, one entry per table path under the user's cache directory: a later
load of the same bytes maps the entry's words and matrix instead of parsing
the text, so it builds no object per word, and only the pages of the words
and rows it looks up are read.
"""

from __future__ import annotations

import codecs
import contextlib
import functools
import logging
import math
import mmap
import operator
import os
import stat
import sys
import zlib
from array import array
from bisect import bisect_left
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, field, fields
from itertools import accumulate, islice
from pathlib import Path

from ._fileio import atomic_write_bytes, decode_utf8, read_json_object

logger = logging.getLogger(__name__)

REVENUE = "revenue"
INVESTMENT = "investment"
UNKNOWN = "unknown"
FOUNDER = "founder"
OTHER = "other"

DEFAULT_REVENUE_WORDS = ("revenue", "income", "earnings", "proceeds", "returns", "made")
DEFAULT_INVESTMENT_WORDS = ("raised", "investment", "received", "equity")
DEFAULT_FOUNDER_WORDS = ("founder", "co-founder", "cofounder", "founded", "started", "created")

# Lines read and decoded at a time by ``load_embeddings``: large enough to
# amortise the decode, small enough that the split strings of one chunk stay
# a few hundred kilobytes.
CHUNK_LINES = 1024


class EmbeddingFormatError(ValueError):
    """Raised for malformed embedding or lexicon files."""


@dataclass(frozen=True, eq=False)
class EmbeddingTable:
    """Case-folded word -> row ``index`` into ``vectors``, a (V, D) float64
    matrix: a read-only ``memoryview`` cast over one flat ``array('d')``
    (a parse) or over a read-only map of the cache entry's matrix (a hit).
    ``index`` is a ``Mapping``: a dict after a parse, and after a hit one
    that binary-searches the entry's mapped words, iterating in row order
    either way.

    A table compares by identity.  ``lookup`` returns a row as a 1-D slice
    of that same buffer.  The table keeps the :class:`Classifier` of each
    lexicon it classifies with, built at the first classification; the
    lexicon rows it holds are such slices, so the matrix must not change
    after the table's first classification.
    """

    index: Mapping[str, int]
    vectors: memoryview
    _classifiers: dict[LexiconConfig, Classifier] = field(default_factory=dict, init=False, repr=False)
    _flat: memoryview = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_flat", self.vectors.cast("B").cast("d"))

    def lookup(self, word: str) -> memoryview | None:
        row = self.index.get(word.casefold())
        if row is None:
            return None
        dim = self.vectors.shape[1]
        return self._flat[row * dim:(row + 1) * dim]

    def classifier(self, lex: LexiconConfig) -> Classifier:
        """The classifier of ``lex`` over this table, built at its first use."""
        clf = self._classifiers.get(lex)
        if clf is None:
            clf = self._classifiers[lex] = Classifier(self, lex)
        return clf


@dataclass(frozen=True)
class LexiconConfig:
    revenue_words: tuple[str, ...] = DEFAULT_REVENUE_WORDS
    investment_words: tuple[str, ...] = DEFAULT_INVESTMENT_WORDS
    founder_words: tuple[str, ...] = DEFAULT_FOUNDER_WORDS
    threshold: float = 0.5

    def __post_init__(self) -> None:
        if not self.revenue_words or not self.investment_words or not self.founder_words:
            raise ValueError("lexicon word lists must be non-empty")
        for name in ("revenue_words", "investment_words", "founder_words"):
            for word in getattr(self, name):
                # table words come from ``str.split``, so no other word can match
                if word.split() != [word]:
                    raise ValueError(f"{name}: {word!r} is empty or holds whitespace, so it never matches")
        overlap = set(w.casefold() for w in self.revenue_words) & set(
            w.casefold() for w in self.investment_words
        )
        if overlap:
            raise ValueError(f"revenue and investment word lists overlap: {sorted(overlap)}")
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError(f"threshold must be in [0, 1], got {self.threshold}")


def load_embeddings(path: str | Path) -> EmbeddingTable:
    """Load a plain-text embedding file: one ``word v1 ... vD`` entry per line.

    An optional header of two integers (vocabulary size and dimension) on
    the first non-blank line is tolerated and skipped.  The dimension is
    fixed by the first entry; duplicate words (after case folding) keep
    their first vector with a warning.  Every malformed line (no vector, an
    unparsable or non-finite component, another width) is an
    :class:`EmbeddingFormatError` naming the line, as is a UTF-8 byte-order
    mark at the start of the file.

    The file is read ``CHUNK_LINES`` lines at a time; each chunk is decoded
    once (bytes that are not UTF-8 are an error naming their line), and each
    line's components are read with ``float`` and appended to one flat
    ``array('d')`` of ``8 * V * D`` bytes, which ``vectors`` views.

    The parse of a regular file is cached in one entry file per table path,
    under ``$XDG_CACHE_HOME/finrelex`` (``~/.cache/finrelex`` when that is
    unset, empty or relative).  A later load maps the entry's words and
    matrix read-only instead of parsing, and returns an equal table, only
    when the entry's copy of the table is byte for byte the file and the
    entry's word index matches its CRC; otherwise it parses and overwrites
    the entry, which takes about twice the table on disk; only the four most
    recently written entries are kept.  An entry is only ever replaced by a
    rename or deleted, which leaves a table mapped from it intact; an entry
    truncated in place while a run maps it kills that run with ``SIGBUS``.  A table whose
    parse logged a warning or raised is never cached, nor is a pipe, which
    is parsed as it streams.  A cache that cannot be read or
    written is a miss, logged at DEBUG.
    """
    with open(path, "rb") as fh:
        if not stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            return _parse(fh, path)[0]
        entry = None
        try:
            entry = _entry_path(path)
            return _read_entry(entry, fh)
        except (OSError, RuntimeError, ValueError) as exc:
            logger.debug("embedding cache miss for %s: %s", path, exc)
        fh.seek(0)
        table, warned, crc = _parse(fh, path)
        if entry is not None and not warned:
            try:
                _write_entry(entry, fh, crc, table)
            except (OSError, ValueError) as exc:
                logger.debug("embedding cache not updated for %s: %s", path, exc)
    return table


def _parse(fh, path: str | Path) -> tuple[EmbeddingTable, bool, int]:
    """The table the lines of ``fh`` hold, whether a duplicate was warned
    about, and the CRC-32 of the bytes parsed.  Raises at the first
    malformed line, warns on each duplicate word and keeps its first vector."""
    index: dict[str, int] = {}
    flat = array("d")
    dimension: int | None = None
    may_be_header = True
    warned = False
    crc = 0
    first = 1
    while raw := list(islice(fh, CHUNK_LINES)):
        if first == 1 and raw[0].startswith(codecs.BOM_UTF8):
            raise EmbeddingFormatError("line 1: unexpected UTF-8 byte-order mark")
        chunk = b"".join(raw)
        crc = zlib.crc32(chunk, crc)
        for lineno, line in enumerate(decode_utf8(chunk, first, EmbeddingFormatError).split("\n"), start=first):
            parts = line.split()
            if not parts:
                continue
            if may_be_header:
                may_be_header = False
                if len(parts) == 2:
                    try:
                        int(parts[0]), int(parts[1])
                    except ValueError:
                        pass
                    else:
                        continue
            word = parts[0].casefold()
            try:
                vec = list(map(float, parts[1:]))
            except ValueError as exc:
                raise EmbeddingFormatError(f"line {lineno}: unparsable vector component ({exc})") from exc
            if not vec:
                raise EmbeddingFormatError(f"line {lineno}: entry {word!r} has no vector components")
            if not all(map(math.isfinite, vec)):
                raise EmbeddingFormatError(f"line {lineno}: non-finite vector component")
            if dimension is None:
                dimension = len(vec)
            elif len(vec) != dimension:
                raise EmbeddingFormatError(f"line {lineno}: expected {dimension} components, found {len(vec)}")
            if word in index:
                logger.warning("duplicate embedding for %r at line %d; keeping first", word, lineno)
                warned = True
                continue
            index[word] = len(index)
            flat.fromlist(vec)
        first += len(raw)
    if dimension is None:
        raise EmbeddingFormatError(f"{path}: no embedding entries, dimension undeterminable")
    return EmbeddingTable(index, _matrix(flat, dimension)), warned, crc


def _matrix(buffer: array | memoryview, dim: int) -> memoryview:
    """The read-only (V, D) float64 matrix view of ``buffer``, V rows of ``dim`` components."""
    view = memoryview(buffer).cast("B").toreadonly()
    return view.cast("d", (len(view) // (8 * dim), dim))


# An entry of the parse cache is one file: a header line, the table's bytes,
# its matrix in native float64, its word index in three sections, and a
# trailer.  The header is the stamp, which names the layout, the interpreter
# and the source of this module and ``_fileio`` (whose rules made the words
# and the matrix), then the table's size in bytes and the matrix's rows and
# columns.  The sections are the UTF-8 length of the words of all rows
# before each row, and of all rows (rows + 1 native uint64s); the rows in the
# UTF-8 byte order of their words (rows native uint64s); and the words in row
# order, each ended by "\n", in UTF-8.  The trailer is two native uint64s:
# the words section's length and the CRC-32 of the three sections, which the
# writer knows only once it has streamed them.  The entry is named from the
# table's real path, so a table has one entry, which a changed table or
# another stamp replaces by a rename; it is read only after its copy of the
# table has compared equal to the file being loaded and its sections match
# their CRC, and then its matrix and index are mapped, not read: no padding
# aligns them, since a memoryview reads each element with memcpy.  Writing an
# entry deletes all but the ``_KEPT_ENTRIES`` most recently written, so tables
# at passing paths (a temporary directory per run) do not pile up.
_ENTRY_VERSION = b"finrelex-embeddings 4"
_KEPT_ENTRIES = 4
_READ_BYTES = 1 << 16
_WORDS_PER_WRITE = 1 << 12
_TRAILER_BYTES = 16


@functools.cache
def _entry_stamp() -> bytes:
    here = Path(__file__)
    sources = zlib.crc32(here.with_name("_fileio.py").read_bytes(), zlib.crc32(here.read_bytes()))
    return b"%s %s %s src-%08x" % (
        _ENTRY_VERSION, str(sys.implementation.cache_tag).encode(), sys.byteorder.encode(), sources,
    )


def _entry_path(path: str | Path) -> Path:
    """Where the cache entry of the table at ``path`` lives, named from the
    CRC-32 of its real path: under ``$XDG_CACHE_HOME/finrelex`` when that is
    an absolute path, else under ``~/.cache/finrelex``."""
    home = os.environ.get("XDG_CACHE_HOME", "")
    base = Path(home) if os.path.isabs(home) else Path.home() / ".cache"
    return base / "finrelex" / f"embeddings-{zlib.crc32(os.fsencode(os.path.realpath(path))):08x}"


class _MappedIndex(Mapping):
    """Word -> row of a table read back from a cache entry, answered from the
    entry's mapped index sections, with no object per word: ``lengths``, the
    UTF-8 length of the words of all rows before each row, and ``order``, the
    rows in the UTF-8 byte order of their words, over the words section at
    ``base`` in ``mapped``, where each word is ended by a newline.  A word is
    found by a binary search of ``order``; iteration yields the words in row
    order."""

    def __init__(self, mapped: mmap.mmap, base: int, lengths: memoryview, order: memoryview) -> None:
        self._mapped = mapped
        self._base = base
        self._lengths = lengths
        self._order = order

    def __getitem__(self, word: str) -> int:
        try:
            key = word.encode("utf-8")
        except UnicodeEncodeError:  # a lone surrogate, which no decoded table word holds
            raise KeyError(word) from None
        at = bisect_left(self._order, key, key=self._word)
        if at == len(self._order) or self._word(self._order[at]) != key:
            raise KeyError(word)
        return self._order[at]

    def __iter__(self) -> Iterator[str]:
        words = self._mapped[self._base:self._base + self._lengths[-1] + len(self._order)]
        return iter(words.decode("utf-8").split("\n")[:-1])

    def __len__(self) -> int:
        return len(self._order)

    def _word(self, row: int) -> bytes:
        """The UTF-8 bytes of row ``row``'s word, the key of the search: the
        rows before it each add their word's length and a newline."""
        start = self._base + self._lengths[row] + row
        return self._mapped[start:start + self._lengths[row + 1] - self._lengths[row]]


def _read_entry(entry: Path, fh) -> EmbeddingTable:
    """The table ``entry`` holds, its matrix and its word index read-only
    maps of the entry, read only when its copy of the table is byte for byte
    the regular file ``fh`` and its index sections match their CRC; else an
    ``OSError`` or a ``ValueError`` that says why not."""
    stamp = _entry_stamp()
    with open(entry, "rb") as src:
        header = src.readline(len(stamp) + 100)
        fields = header.rsplit(b" ", 3)
        if len(fields) != 4 or fields[0] != stamp or not header.endswith(b"\n"):
            raise ValueError("the entry's header is not this version's")
        size, rows, dim = sizes = list(map(int, fields[1:]))
        mapped = mmap.mmap(src.fileno(), 0, access=mmap.ACCESS_READ)
        view = memoryview(mapped)
        matrix = slice(len(header) + size, len(header) + size + 8 * rows * dim)
        order = slice(matrix.stop + 8 * (rows + 1), matrix.stop + 16 * rows + 8)
        if min(sizes) < 1 or len(mapped) < order.stop + _TRAILER_BYTES:
            raise ValueError("the entry's size does not match its header")
        words_size, index_crc = view[-_TRAILER_BYTES:].cast("Q")
        sections = slice(matrix.stop, order.stop + words_size)
        if len(mapped) != sections.stop + _TRAILER_BYTES:
            raise ValueError("the entry's size does not match its header")
        fh.seek(0)
        for start in range(0, size, _READ_BYTES):
            stored = src.read(min(_READ_BYTES, size - start))
            if fh.read(len(stored)) != stored:
                raise ValueError("the entry holds another table")
        if fh.read(1):
            raise ValueError("the entry holds another table")
        # read, not touched through the map, so only the pages that lookups read stay resident
        src.seek(sections.start)
        crc = 0
        for start in range(sections.start, sections.stop, _READ_BYTES):
            crc = zlib.crc32(src.read(min(_READ_BYTES, sections.stop - start)), crc)
    if crc != index_crc:
        raise ValueError("the entry's index does not match its CRC")
    index = _MappedIndex(mapped, order.stop, view[matrix.stop:order.start].cast("Q"), view[order].cast("Q"))
    return EmbeddingTable(index, _matrix(view[matrix], dim))


def _write_entry(entry: Path, fh, crc: int, table: EmbeddingTable) -> None:
    """Cache ``table``, the parse of the regular file ``fh`` up to where it
    stands, whose bytes had CRC-32 ``crc``, as ``entry`` with one atomic
    rename.  The bytes are copied from ``fh`` a chunk at a time and checked
    against ``crc``, so a table rewritten during its parse is not cached."""
    size = fh.tell()
    rows, dim = table.vectors.shape
    index = table.index

    def parts():
        yield b"%s %d %d %d\n" % (_entry_stamp(), size, rows, dim)
        fh.seek(0)
        copied = 0
        for _ in range(0, size, _READ_BYTES):
            chunk = fh.read(_READ_BYTES)
            copied = zlib.crc32(chunk, copied)
            yield chunk
        if copied != crc or fh.tell() != size or fh.read(1):
            raise ValueError("the table changed while it was parsed")
        yield table.vectors.cast("B")
        order = array("Q", map(index.__getitem__, sorted(index)))  # code point order is UTF-8 byte order
        lengths = array("Q", accumulate(map(len, map(str.encode, index)), initial=0))
        sections = zlib.crc32(order, zlib.crc32(lengths))
        yield lengths
        yield order
        words = iter(index)
        while batch := list(islice(words, _WORDS_PER_WRITE)):
            chunk = ("\n".join(batch) + "\n").encode("utf-8")
            sections = zlib.crc32(chunk, sections)
            yield chunk
        yield array("Q", [lengths[-1] + rows, sections])

    os.makedirs(entry.parent, mode=0o700, exist_ok=True)
    atomic_write_bytes(entry, parts())
    written = []
    for other in entry.parent.glob("embeddings-*"):
        with contextlib.suppress(FileNotFoundError):  # another run deleted it
            written.append((other.stat().st_mtime_ns, other))
    for _, other in sorted(written, reverse=True)[_KEPT_ENTRIES:]:
        other.unlink(missing_ok=True)


def load_lexicon(path: str | Path) -> LexiconConfig:
    """Load a JSON lexicon override; missing fields fall back to defaults and
    a key that names no :class:`LexiconConfig` field is an error."""
    obj = read_json_object(path, EmbeddingFormatError, str(path))
    known = {f.name for f in fields(LexiconConfig)}
    for key in obj:
        if key not in known:
            raise EmbeddingFormatError(f"{path}: {key!r} is not a lexicon field")
    kwargs = {}
    for key in ("revenue_words", "investment_words", "founder_words"):
        if key in obj:
            words = obj[key]
            if not isinstance(words, list) or not all(isinstance(w, str) for w in words):
                raise EmbeddingFormatError(f"{path}: {key!r} must be a list of strings, got {words!r}")
            kwargs[key] = tuple(words)
    if "threshold" in obj:
        threshold = obj["threshold"]
        if type(threshold) not in (int, float):
            raise EmbeddingFormatError(f"{path}: 'threshold' must be a number, got {threshold!r}")
        kwargs["threshold"] = float(threshold)
    try:
        return LexiconConfig(**kwargs)
    except ValueError as exc:
        raise EmbeddingFormatError(f"{path}: {exc}") from exc


def phrase_vector(table: EmbeddingTable, phrase: str) -> list[float] | None:
    """Mean vector of the phrase's in-vocabulary tokens, or ``None`` if all
    tokens are out of vocabulary.  The token vectors are added one after
    another, left to right, and the sum divided by their count."""
    found = [v for v in map(table.lookup, phrase.split()) if v is not None]
    if not found:
        return None
    total = found[0].tolist()
    for vec in found[1:]:
        total = list(map(operator.add, total, vec))
    return [x / len(found) for x in total]


def _dot(u: Sequence[float], v: Sequence[float]) -> float:
    """The sum of the products of ``u`` and ``v``, added left to right.

    Not ``sum``, which compensates from Python 3.12 on, so its result
    depends on the Python version; nor ``math.fsum``, which raises on a
    product that overflows, as a finite table's can.
    """
    return functools.reduce(operator.add, map(operator.mul, u, v))


def _norm(v: Sequence[float]) -> float:
    return math.sqrt(_dot(v, v))


class Classifier:
    """The money and founder classifiers of one table and lexicon.

    Each lexicon word is looked up, and its vector's norm computed, once,
    when the classifier is built; an out-of-vocabulary word is left out of
    its group.  Each phrase then costs one phrase vector and norm, and one
    ``dot / (nu * nv)`` per lexicon row, the first time it is classified:
    the money verdict of each phrase, and the founder verdict of each
    (person, context) pair, is kept and returned again on a later call.  A
    zero vector on either side gives similarity 0.0, with a warning: once
    per lexicon word at build time, and once per distinct phrase classified
    (a money phrase and a person pooled with its context apart).
    """

    def __init__(self, table: EmbeddingTable, lex: LexiconConfig) -> None:
        self.table = table
        self.threshold = lex.threshold
        self.groups = {
            group: _lexicon_rows(table, group, words)
            for group, words in (
                (REVENUE, lex.revenue_words),
                (INVESTMENT, lex.investment_words),
                (FOUNDER, lex.founder_words),
            )
        }
        self._money: dict[str, str] = {}
        self._person: dict[tuple[str, str], str] = {}

    def best_similarities(self, phrase: str, *groups: str) -> tuple[float, ...] | None:
        """For each of ``groups``, the highest similarity of the phrase
        vector to one of its words, or -2.0 (below any threshold) when the
        group has no in-vocabulary word; ``None`` for a fully
        out-of-vocabulary phrase.  The strict ``>`` means a NaN similarity
        never wins."""
        vec = phrase_vector(self.table, phrase)
        if vec is None:
            return None
        nu = _norm(vec)
        if nu == 0.0:
            logger.warning("phrase %r has a zero vector; its similarity to every lexicon word is 0.0", phrase)
        best_sims = []
        for group in groups:
            best_sim = -2.0
            for row, nv in self.groups[group]:
                sim = 0.0 if nu == 0.0 or nv == 0.0 else _dot(vec, row) / (nu * nv)
                if sim > best_sim:
                    best_sim = sim
            best_sims.append(best_sim)
        return tuple(best_sims)

    def money(self, phrase: str) -> str:
        """See :func:`classify_money_phrase`."""
        verdict = self._money.get(phrase)
        if verdict is None:
            verdict = self._money[phrase] = self._classify_money(phrase)
        return verdict

    def _classify_money(self, phrase: str) -> str:
        sims = self.best_similarities(phrase, REVENUE, INVESTMENT)
        if sims is None:
            return UNKNOWN
        rev_sim, inv_sim = sims
        if max(rev_sim, inv_sim) <= self.threshold or rev_sim == inv_sim:
            return UNKNOWN
        return REVENUE if rev_sim > inv_sim else INVESTMENT

    def person(self, phrase: str, context: str) -> str:
        """See :func:`classify_person_phrase`."""
        verdict = self._person.get((phrase, context))
        if verdict is None:
            verdict = self._person[phrase, context] = self._classify_person(phrase, context)
        return verdict

    def _classify_person(self, phrase: str, context: str) -> str:
        sims = self.best_similarities(f"{phrase} {context}".strip(), FOUNDER)
        if sims is None or sims[0] <= self.threshold:
            return OTHER
        return FOUNDER


def _lexicon_rows(
    table: EmbeddingTable, group: str, words: tuple[str, ...]
) -> tuple[tuple[memoryview, float], ...]:
    """``(vector, norm)`` of each in-vocabulary word of ``group``, in lexicon order."""
    rows = []
    for word in words:
        vec = table.lookup(word)
        if vec is None:
            continue
        norm = _norm(vec)
        if norm == 0.0:
            logger.warning("%s lexicon word %r has a zero vector; its similarity to every phrase is 0.0", group, word)
        rows.append((vec, norm))
    return tuple(rows)


def classify_money_phrase(table: EmbeddingTable, lex: LexiconConfig, phrase: str) -> str:
    """Label a money-describing phrase ``revenue``, ``investment``, or ``unknown``.

    The single lexicon word most similar to the phrase vector decides the
    group, provided its similarity strictly exceeds the threshold.  A fully
    out-of-vocabulary phrase, a sub-threshold winner, and an exact similarity
    tie between the two groups all yield ``unknown``.
    """
    return table.classifier(lex).money(phrase)


def classify_person_phrase(
    table: EmbeddingTable, lex: LexiconConfig, phrase: str, context: str
) -> str:
    """Label a person mention ``founder`` or ``other``.

    The mention and its governing noun-phrase context are pooled into one
    phrase vector and compared against the founder lexicon.
    """
    return table.classifier(lex).person(phrase, context)
