"""Annotated-document data model, file loaders, and dataset preparation.

Documents arrive pre-annotated: one JSON object per line carrying the
paragraph text, its tokens (with dependency heads), entity spans, and noun
chunks.  This module validates the annotation layers (head bounds, one root
per sentence, acyclicity, span bounds, non-overlap) and offers the two
corpus-preparation steps used before training/evaluation runs: an
information-deduplicated train/test split and a class-balanced subset.

Everything loaded here is immutable and built once; all operations are pure
given their inputs and a seed.  Tokens, entity spans, noun chunks and gold
examples are ``NamedTuple`` rows of strings and integers, and each token's
text, lemma, POS tag and dependency label, like each entity label, is passed
through :func:`sys.intern` as its row is read, so a loaded corpus holds each
distinct string once.

A record type of the package is a ``NamedTuple`` unless it needs what only a
dataclass gives: validation at construction of values from outside the
program (``RelationRecord``, ``LexiconConfig``, ``EvalConfig``), or an
equality that is not field by field (``EvalReport``, ``EmbeddingTable``).
"""

from __future__ import annotations

import logging
import random
from collections import Counter
from collections.abc import Iterator
from pathlib import Path
from sys import intern
from typing import NamedTuple

from . import records as records_mod
from ._fileio import Fields, LineRange, atomic_write_text, iter_jsonl

logger = logging.getLogger(__name__)

POS_TAGS = frozenset(
    {
        "NOUN", "PROPN", "VERB", "ADJ", "ADV", "ADP", "DET", "NUM", "SYM",
        "PUNCT", "PRON", "AUX", "CCONJ", "SCONJ", "PART", "INTJ", "X",
    }
)

ENTITY_LABELS = frozenset({"ORG", "PERSON", "GPE", "MONEY", "DATE"})

ROOT_DEP = "ROOT"


class CorpusFormatError(ValueError):
    """Raised for malformed document or gold files (names the line number)."""


class DocumentValidationError(ValueError):
    """Raised when a document violates an annotation invariant (names the id)."""


class SplitInfeasibleError(RuntimeError):
    """Raised when the dedup constraint leaves no admissible test example."""


class Token(NamedTuple):
    """One token with its dependency attachment.

    ``head`` is the index of the governing token; a sentence root points at
    itself and carries the dependency label ``ROOT``.
    """

    index: int
    text: str
    lemma: str
    pos: str
    dep: str
    head: int
    sentence: int


class EntitySpan(NamedTuple):
    """A labeled token range, end-exclusive; ``text`` is the surface form."""

    start: int
    end: int
    label: str
    text: str


class NounChunk(NamedTuple):
    """A base noun phrase span with its syntactic head token; ``text`` is the
    surface form."""

    start: int
    end: int
    root: int
    text: str


class AnnotatedDocument(NamedTuple):
    id: str
    text: str
    tokens: tuple[Token, ...]
    entities: tuple[EntitySpan, ...]
    noun_chunks: tuple[NounChunk, ...]


class GoldExample(NamedTuple):
    """A manually labeled paragraph: input text plus serialized target records.

    A ``target_text`` without records (``""``, ``"|"``; see
    :func:`records.is_informative`) means the paragraph carries no relevant
    information.
    """

    id: str
    input_text: str
    target_text: str


def _validate_document(doc_id: str, tokens: list[Token], entities: list[tuple[int, int, str]],
                       chunks: list[tuple[int, int, int]]) -> None:
    n = len(tokens)

    def fail(msg: str) -> None:
        raise DocumentValidationError(f"document {doc_id!r}: {msg}")

    for pos_expected, tok in enumerate(tokens):
        if tok.index != pos_expected:
            fail(f"token index {tok.index} out of order (expected {pos_expected})")
        if tok.pos not in POS_TAGS:
            fail(f"token {tok.index}: unknown POS tag {tok.pos!r}")
        if not 0 <= tok.head < n:
            fail(f"token {tok.index}: head {tok.head} out of range for {n} tokens")
        if (tok.dep == ROOT_DEP) != (tok.head == tok.index):
            fail(f"token {tok.index}: dep {tok.dep!r} inconsistent with head {tok.head}")
        if tokens[tok.head].sentence != tok.sentence:
            fail(f"token {tok.index}: head crosses sentence boundary")
        if tok.sentence < 0:
            fail(f"token {tok.index}: negative sentence id")

    roots: Counter[int] = Counter()
    prev_sent = -1
    for tok in tokens:
        if tok.sentence not in (prev_sent, prev_sent + 1):
            fail(f"token {tok.index}: non-contiguous sentence id {tok.sentence}")
        prev_sent = tok.sentence
        if tok.head == tok.index:
            roots[prev_sent] += 1

    # One memoised head walk in token (so sentence) order, checking a sentence's
    # root count at its first token: 0 = unseen, 1 = on the current walk, 2 =
    # reaches the root.  A walk that meets a token of its own has a cycle; the
    # error names the first token, in document order, whose head chain does.
    state = [0] * n
    prev_sent = -1
    for tok in tokens:
        if tok.sentence != prev_sent:
            prev_sent = tok.sentence
            if roots[prev_sent] != 1:
                fail(f"sentence {prev_sent}: expected exactly one root, found {roots[prev_sent]}")
        walk = []
        t = tok.index
        while not state[t] and tokens[t].head != t:
            state[t] = 1
            walk.append(t)
            t = tokens[t].head
        if state[t] == 1:
            fail(f"token {tok.index}: cyclic head chain")
        for t in walk:
            state[t] = 2

    spans = sorted(entities)
    for start, end, label in spans:
        if label not in ENTITY_LABELS:
            fail(f"entity [{start},{end}): unknown label {label!r}")
        if not 0 <= start < end <= n:
            fail(f"entity [{start},{end}): out of bounds for {n} tokens")
        if tokens[start].sentence != tokens[end - 1].sentence:
            fail(f"entity [{start},{end}): crosses a sentence boundary")
    for (s1, e1, l1), (s2, e2, l2) in zip(spans, spans[1:]):
        if s2 < e1:
            fail(f"entities [{s1},{e1}) {l1} and [{s2},{e2}) {l2} overlap")

    ordered = sorted(chunks, key=lambda c: c[0])
    for start, end, root in ordered:
        if not (0 <= start <= root < end <= n):
            fail(f"noun chunk [{start},{end}) root {root} out of bounds")
    for (s1, e1, _), (s2, e2, _) in zip(ordered, ordered[1:]):
        if s2 < e1:
            fail(f"noun chunks [{s1},{e1}) and [{s2},{e2}) overlap")


_DOCUMENT = Fields(id=str, text=str, tokens=list, entities=list, noun_chunks=list)
_TOKEN = Fields(i=int, text=str, lemma=str, pos=str, dep=str, head=int, sent=int)
_ENTITY = Fields(start=int, end=int, label=str)
_CHUNK = Fields(start=int, end=int, root=int)
_GOLD = Fields(id=str, input_text=str, target_text=str)


def _surface_texts(text: str, tokens: list[Token], ranges: list[tuple[int, int]]) -> list[str]:
    """Surface text of each non-empty token range [start, end): ``text`` from
    the first token's start to the last token's end, with token offsets found
    in one left-to-right scan.  When the tokens cannot be found left to right
    in ``text``, each range's token texts joined by spaces."""
    starts, ends, cursor = [], [], 0
    for tok in tokens:
        pos = text.find(tok.text, cursor)
        if pos < 0:
            return [" ".join(t.text for t in tokens[start:end]) for start, end in ranges]
        cursor = pos + len(tok.text)
        starts.append(pos)
        ends.append(cursor)
    return [text[starts[start] : ends[end - 1]] for start, end in ranges]


def _document_from_dict(obj: object, lineno: int) -> AnnotatedDocument:
    """Read, validate and build one document row; every span's text is cut here."""
    doc_id, text, token_rows, entity_rows, chunk_rows = _DOCUMENT.read(obj, lineno, CorpusFormatError)
    tokens = []
    for row in token_rows:
        index, word, lemma, pos, dep, head, sentence = _TOKEN.read(row, lineno, CorpusFormatError)
        tokens.append(Token(index, intern(word), intern(lemma), intern(pos), intern(dep), head, sentence))
    entities = []
    for row in entity_rows:
        start, end, label = _ENTITY.read(row, lineno, CorpusFormatError)
        entities.append((start, end, intern(label)))
    chunks = [_CHUNK.read(c, lineno, CorpusFormatError) for c in chunk_rows]
    _validate_document(doc_id, tokens, entities, chunks)
    texts = _surface_texts(text, tokens, [(start, end) for start, end, _ in entities + chunks])
    return AnnotatedDocument(
        doc_id, text, tuple(tokens),
        tuple(EntitySpan(*entity, cut) for entity, cut in zip(entities, texts)),
        tuple(NounChunk(*chunk, cut) for chunk, cut in zip(chunks, texts[len(entities):])),
    )


def iter_documents(path: str | Path, lines: LineRange | None = None) -> Iterator[tuple[int, AnnotatedDocument]]:
    """Yield (line number, document) per row of a document file, or of its range of
    lines ``lines``, in file order, read, validated and built one at a time; ids must be unique."""
    ids: set[str] = set()
    for lineno, obj in iter_jsonl(path, CorpusFormatError, lines):
        doc = _document_from_dict(obj, lineno)
        add_id(ids, doc.id, lineno)
        yield lineno, doc


def load_documents(path: str | Path) -> list[AnnotatedDocument]:
    """Every document of a document file, in file order (:func:`iter_documents`)."""
    return [doc for _, doc in iter_documents(path)]


def add_id(ids: set[str], doc_id: str, lineno: int) -> None:
    """Add the id of the document on line ``lineno`` to ``ids``, the ids of
    the documents before it; a ``CorpusFormatError`` naming the line when
    it is there already."""
    if doc_id in ids:
        raise CorpusFormatError(f"line {lineno}: duplicate document id {doc_id!r}")
    ids.add(doc_id)


def load_gold(path: str | Path) -> list[GoldExample]:
    """Load gold (id, input_text, target_text) examples.

    All three fields are strings and ids are unique.  Informative targets
    must parse under the record grammar; any other target is legal and marks
    a no-information paragraph.  Targets are checked with
    :func:`records.validate`, which rejects what :func:`records.parse` rejects
    with the same message but builds no records.
    """
    examples: dict[str, GoldExample] = {}
    for lineno, obj in iter_jsonl(path, CorpusFormatError):
        example = GoldExample(*_GOLD.read(obj, lineno, CorpusFormatError))
        if example.id in examples:
            raise CorpusFormatError(f"line {lineno}: duplicate gold id {example.id!r}")
        # a target that is not informative has no record to reject
        try:
            records_mod.validate(example.target_text)
        except records_mod.RecordError as exc:
            raise CorpusFormatError(f"line {lineno}: bad target_text ({exc})") from exc
        examples[example.id] = example
    return list(examples.values())


def save_gold(examples: list[GoldExample], path: str | Path) -> None:
    atomic_write_text(path, _GOLD.dumps(examples))


def _info_content(example: GoldExample) -> Counter:
    if not records_mod.is_informative(example.target_text):
        return Counter()
    return records_mod.record_multiset(example.target_text)


def _contained(inner: Counter, outer: Counter) -> bool:
    return all(outer[key] >= count for key, count in inner.items())


def split_train_test(
    gold: list[GoldExample], test_fraction: float, seed: int
) -> tuple[list[GoldExample], list[GoldExample]]:
    """Seeded train/test split that never leaks information into the test set.

    Candidates are drawn from a uniform seeded shuffle (no stratification).
    A candidate joins the test set only if its parsed record multiset is
    neither equal to nor contained in the record multiset of any example left
    in the training side.  Rejected candidates stay in training and the draw
    continues until the requested size is met or candidates run out; running
    out yields a smaller test set plus a warning.  A fraction that rounds to
    an empty test set, or to every example, is rejected, so some example
    always stays in training; a no-information candidate is contained in it,
    and so never joins the test set.

    A multiset can only be contained in an example that holds its rarest
    record, so each informative candidate is compared only with the examples
    listed under that record in a record → examples index.  The bound is one
    ``_contained`` call per entry of each candidate's rarest-record list:
    linear when most records are rare, quadratic in the number of examples
    when every record is common to a fixed share of them.
    """
    if not gold:
        raise ValueError("gold corpus is empty")
    if not 0 < test_fraction < 1:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    target = round(test_fraction * len(gold))
    if target == 0:
        raise ValueError(
            f"test_fraction {test_fraction} of {len(gold)} examples rounds to an empty test set"
        )
    if target == len(gold):
        raise ValueError(
            f"test_fraction {test_fraction} of {len(gold)} examples rounds to every example, "
            "leaving an empty training set"
        )

    info = [_info_content(ex) for ex in gold]
    postings: dict[tuple[str, str, str, str], list[int]] = {}
    for i, records in enumerate(info):
        for key in records:
            postings.setdefault(key, []).append(i)
    order = list(range(len(gold)))
    random.Random(seed).shuffle(order)

    picked: set[int] = set()
    for idx in order:
        if len(picked) >= target:
            break
        records = info[idx]
        if not records:
            continue  # contained in every other unpicked example, and target < len(gold) leaves one
        rarest = min(records, key=lambda key: len(postings[key]))
        if not any(other != idx and other not in picked and _contained(records, info[other])
                   for other in postings[rarest]):
            picked.add(idx)

    if not picked:
        raise SplitInfeasibleError(
            "every candidate shares its information with a remaining training example; "
            "no test set satisfies the dedup constraint"
        )
    if len(picked) < target:
        logger.warning(
            "dedup constraint shrank the test set to %d examples (requested %d)",
            len(picked),
            target,
        )

    train = [ex for i, ex in enumerate(gold) if i not in picked]
    test = [ex for i, ex in enumerate(gold) if i in picked]
    return train, test


def balanced_subset(train: list[GoldExample], seed: int) -> list[GoldExample]:
    """All informative examples plus an equal seeded sample of empty ones.

    When fewer empty examples exist than informative ones, every empty example
    is kept and the shortfall is logged.
    """
    informative = [i for i, ex in enumerate(train) if records_mod.is_informative(ex.target_text)]
    empty = [i for i, ex in enumerate(train) if not records_mod.is_informative(ex.target_text)]
    if not informative:
        raise ValueError("training set has no informative examples to balance against")

    if len(empty) < len(informative):
        logger.warning(
            "only %d empty examples available for %d informative ones",
            len(empty),
            len(informative),
        )
    chosen = random.Random(seed).sample(empty, min(len(empty), len(informative)))

    keep = set(informative) | set(chosen)
    return [ex for i, ex in enumerate(train) if i in keep]
