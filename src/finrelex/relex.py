"""Pairwise relation heuristics over dependency trees, and their integration.

The extractors walk a paragraph's dependency trees to decide which detected
entities belong together:

* money-company: a money token that is an attribute/direct object is tied to
  a subject found among its left ancestors (strategy a) or, when no subject
  exists, to an organization among its verb's children (strategy b); a money
  token that is a prepositional object takes the preposition head's noun
  chunk as its monetary variable and ties to an organization among the
  children of that head's governing verb (strategy c).
* company-date: prepositions around the company token are checked for date
  children (a); a direct-object company checks its verb's children (b); a
  prepositional-object company checks the descendants of a proper-noun
  preposition head and of the preposition's ancestral verb (c); each
  org-date pair is emitted once, under the first path that reaches it
  (a, then b, then c).
* the remaining pairs (company-country, company-person, money-date,
  person-country) use a shared-governor rule: two entity roots relate when
  they share their nearest governing verb or one lies in the other's
  subtree, nearest pair winning ties.

All heuristics are tree-local, so related entities always share a sentence.
Each :class:`PairwiseRelation` names the heuristic that built it in ``path``
(``"a"``/``"b"``/``"c"`` above, else ``"shared-governor"``); :func:`describe`
renders it as the line ``finrelex inspect`` prints.
``extract`` integrates the pairwise relations into ordered
:class:`~finrelex.records.RelationRecord` lists, classifying money bridges
as revenue/investment and person mentions as founders.  It is two steps:
:func:`relate`, which needs no table, so that extract's forked parts never
load one, turns a paragraph into :class:`Candidate` records in record order;
:func:`finish` classifies them with the table and keeps or drops each.
"""

from __future__ import annotations

import logging
from typing import TYPE_CHECKING, NamedTuple

from . import deptree as dt
from .corpus import EntitySpan, NounChunk
from .records import UNKNOWN_DATE, RecordError, RelationRecord

if TYPE_CHECKING:
    from .semvec import EmbeddingTable, LexiconConfig

logger = logging.getLogger(__name__)

COMPANY_MONEY = "company-money"
COMPANY_DATE = "company-date"
COMPANY_COUNTRY = "company-country"
COMPANY_PERSON = "company-person"
MONEY_DATE = "money-date"
PERSON_COUNTRY = "person-country"

KIND_LABELS = {
    COMPANY_MONEY: ("ORG", "MONEY"),
    COMPANY_DATE: ("ORG", "DATE"),
    COMPANY_COUNTRY: ("ORG", "GPE"),
    COMPANY_PERSON: ("ORG", "PERSON"),
    MONEY_DATE: ("MONEY", "DATE"),
    PERSON_COUNTRY: ("PERSON", "GPE"),
}

LINK_DEPS = frozenset({"appos", "conj"})
SUBJECT_DEPS = frozenset({"nsubj", "nsubjpass"})
DIRECT_OBJECT_DEPS = frozenset({"dobj", "obj"})
SHARED_GOVERNOR = "shared-governor"


class PairwiseRelation(NamedTuple):
    """Two related entity spans.  The spans carry ``KIND_LABELS[kind]``'s
    labels because each pass picks them by label."""

    kind: str
    left: EntitySpan
    right: EntitySpan
    bridge_phrase: str | None = None
    path: str = SHARED_GOVERNOR  # the heuristic that built the relation


def _spans(view: dt.TreeView, label: str) -> list[EntitySpan]:
    return [e for e in view.document.entities if e.label == label]


def _chunk_text(chunk: NounChunk | None) -> str | None:
    return None if chunk is None else chunk.text


def _anchor(view: dt.TreeView, t: int) -> int:
    """Follow an appositive/conjunct edge one hop up, so modifiers attached
    to the apposition count as the entity's own context."""
    if view.document.tokens[t].dep in LINK_DEPS:
        return view.document.tokens[t].head
    return t


def _span_at(view: dt.TreeView, t: int, label: str) -> EntitySpan | None:
    """The entity span at token ``t`` if it has ``label``."""
    span = dt.entity_at(view, t)
    return span if span is not None and span.label == label else None


def _org_span_at(view: dt.TreeView, t: int) -> EntitySpan | None:
    """Organization span at ``t``, else at the first of its appos/conj
    children, else at its head when ``t`` hangs off one by such an edge."""
    tokens = view.document.tokens
    hops = [child for child in view.children_index[t] if tokens[child].dep in LINK_DEPS]
    if tokens[t].dep in LINK_DEPS:
        hops.append(tokens[t].head)
    for u in (t, *hops):
        span = _span_at(view, u, "ORG")
        if span is not None:
            return span
    return None


def _is_prep_token(view: dt.TreeView, t: int) -> bool:
    tok = view.document.tokens[t]
    return tok.dep == "prep" or tok.pos == "ADP"


def _find_left_subject(view: dt.TreeView, t: int) -> int | None:
    """First subject token preceding ``t`` among its left ancestors and
    their children, nearest ancestor first."""
    tokens = view.document.tokens
    for a in dt.ancestors(view, t):
        if a >= t:
            continue
        if tokens[a].dep in SUBJECT_DEPS:
            return a
        for child in view.children_index[a]:
            if child < t and tokens[child].dep in SUBJECT_DEPS:
                return child
    return None


def _nearest_org_child(view: dt.TreeView, verb: int | None, t: int) -> EntitySpan | None:
    """Organization span among the verb's children nearest to token ``t``
    (leftmost child on ties); ``None`` when there is no verb."""
    if verb is None:
        return None
    found = [(child, span) for child in view.children_index[verb]
             if (span := _org_span_at(view, child)) is not None]
    return min(found, key=lambda c: (abs(c[0] - t), c[0]), default=(None, None))[1]


def describe(rel: PairwiseRelation) -> str:
    """One line naming the relation's kind, heuristic path and entities, and
    for company-money its bridge phrase."""
    how = rel.path if rel.path == SHARED_GOVERNOR else f"path ({rel.path})"
    bridge = f" via bridge {rel.bridge_phrase!r}" if rel.kind == COMPANY_MONEY else ""
    return f"{rel.kind} {how}: {rel.left.text} -> {rel.right.text}{bridge}"


def relate_money_company(view: dt.TreeView) -> list[PairwiseRelation]:
    """Tie each money entity to at most one organization."""
    tokens = view.document.tokens
    relations = []
    for money in _spans(view, "MONEY"):
        t = dt.entity_root(view, money)
        org: EntitySpan | None = None
        bridge = t  # the token whose noun chunk is the bridge phrase
        dep = tokens[t].dep
        if dep == "attr" or dep in DIRECT_OBJECT_DEPS:
            subject = _find_left_subject(view, t)
            if subject is not None:
                org, path = _org_span_at(view, subject), "a"
            else:
                org, path = _nearest_org_child(view, dt.governing_verb(view, t), t), "b"
        elif dep == "pobj":
            bridge = tokens[tokens[t].head].head  # the preposition's head
            org, path = _nearest_org_child(view, dt.governing_verb(view, bridge), t), "c"
        if org is not None:
            phrase = _chunk_text(dt.noun_chunk_of(view, bridge))
            relations.append(PairwiseRelation(COMPANY_MONEY, org, money, phrase, path))
    return relations


def relate_company_date(view: dt.TreeView) -> list[PairwiseRelation]:
    """Tie organizations to dates: each org-date pair is emitted once, under
    the first path that reaches it (a, then b, then c)."""
    tokens = view.document.tokens
    relations = []
    for org in _spans(view, "ORG"):
        c = _anchor(view, dt.entity_root(view, org))
        prepositions = {p for p in dt.subtree(view, c) if _is_prep_token(view, p)}
        prepositions.update(p for p in view.children_index[tokens[c].head] if _is_prep_token(view, p))
        reached = [(view.children_index[prep], "a") for prep in sorted(prepositions)]
        if tokens[c].dep in DIRECT_OBJECT_DEPS:
            verb = dt.governing_verb(view, c)
            if verb is not None:
                reached.append((view.children_index[verb], "b"))
        if tokens[c].dep == "pobj":
            prep = tokens[c].head
            prep_head = tokens[prep].head
            if tokens[prep_head].pos == "PROPN":
                reached.append((dt.subtree(view, prep_head), "c"))
            verb = dt.governing_verb(view, prep)
            if verb is not None:
                reached.append((dt.subtree(view, verb), "c"))
        dates: set[int] = set()  # start tokens of the dates already tied to org
        for candidates, path in reached:
            for t in candidates:
                date = _span_at(view, t, "DATE")
                if date is not None and date.start not in dates:
                    dates.add(date.start)
                    relations.append(PairwiseRelation(COMPANY_DATE, org, date, path=path))
    return relations


def _related(view: dt.TreeView, left_root: int, right_root: int) -> bool:
    """Shared nearest governing verb, or one root in the other's subtree.

    Both tests follow head chains, which never leave a sentence, so roots in
    different sentences are never related.
    """
    left_verb = dt.governing_verb(view, left_root)
    if left_verb is not None and left_verb == dt.governing_verb(view, right_root):
        return True
    return left_root in dt.ancestors(view, right_root) or right_root in dt.ancestors(view, left_root)


def relate_other_pairs(view: dt.TreeView) -> list[PairwiseRelation]:
    """Shared-governor pairing for the four remaining relation kinds.

    Each right-hand entity pairs with its nearest related left-hand entity
    (token distance between roots, leftmost on ties).  Related entities share
    a sentence, so each right-hand entity only scans the left-hand entities
    of its own sentence.
    """
    tokens = view.document.tokens
    relations = []
    for kind in (COMPANY_COUNTRY, COMPANY_PERSON, MONEY_DATE, PERSON_COUNTRY):
        left_label, right_label = KIND_LABELS[kind]
        lefts_by_sentence: dict[int, list[tuple[int, int, EntitySpan]]] = {}
        for left in _spans(view, left_label):
            left_root = dt.entity_root(view, left)
            anchored = _anchor(view, left_root) if left_label == "ORG" else left_root
            sentence = tokens[left_root].sentence
            lefts_by_sentence.setdefault(sentence, []).append((left_root, anchored, left))
        if not lefts_by_sentence:
            continue
        for right in _spans(view, right_label):
            right_root = dt.entity_root(view, right)
            related = [(left_root, left)
                       for left_root, anchored, left in lefts_by_sentence.get(tokens[right_root].sentence, ())
                       if _related(view, anchored, right_root)]
            if related:
                left = min(related, key=lambda r: (abs(r[0] - right_root), r[0]))[1]
                relations.append(PairwiseRelation(kind, left, right))
    return relations


def _person_context(view: dt.TreeView, person: EntitySpan) -> str:
    """Noun-phrase context governing a person mention, used for the founder
    classifier: the chunk (or text) of the mention's governor plus the chunks
    of any appositions hanging off the mention."""
    tokens = view.document.tokens
    p = dt.entity_root(view, person)
    if tokens[p].dep == "pobj":
        governor = tokens[tokens[p].head].head
    else:
        governor = tokens[p].head
    parts = [_chunk_text(dt.noun_chunk_of(view, governor)) or tokens[governor].text]
    for child in view.children_index[p]:
        if tokens[child].dep == "appos":
            parts.append(_chunk_text(dt.noun_chunk_of(view, child)) or tokens[child].text)
    return " ".join(parts)


class Candidate(NamedTuple):
    """One record of a paragraph before classification.

    A country candidate is its record as written; :func:`finish` names a
    money candidate from its bridge ``phrase`` and keeps a person candidate
    only when the person, pooled with its context ``phrase``, is a founder.
    """

    kind: str  # COMPANY_MONEY, COMPANY_PERSON or COMPANY_COUNTRY
    company: str
    value: str
    date: str
    phrase: str


def relate(view: dt.TreeView) -> list[Candidate]:
    """The table-free step of :func:`extract`: the candidate of each money,
    person and country relation of a paragraph, in record order, by the
    company's root token, then by the value span's start.

    A money candidate's date is its nearest related date (a money-date
    relation of the money entity, or a company-date relation of its
    organization), else ``unknown-date``.
    """
    money_rels = relate_money_company(view)
    date_rels = relate_company_date(view)
    other_rels = relate_other_pairs(view)
    dates_of: dict[EntitySpan, list[EntitySpan]] = {}  # money or organization -> its related dates
    for r in (*date_rels, *other_rels):
        if r.kind in (COMPANY_DATE, MONEY_DATE):
            dates_of.setdefault(r.left, []).append(r.right)

    rels = money_rels + [r for r in other_rels if r.kind in (COMPANY_PERSON, COMPANY_COUNTRY)]
    rels.sort(key=lambda r: (dt.entity_root(view, r.left), r.right.start))
    candidates = []
    for rel in rels:
        date, phrase = UNKNOWN_DATE, ""
        if rel.kind == COMPANY_MONEY:
            money_root = dt.entity_root(view, rel.right)
            nearest = min(dates_of.get(rel.right, []) + dates_of.get(rel.left, []),
                          key=lambda d: (abs(dt.entity_root(view, d) - money_root), d.start), default=None)
            date = nearest.text if nearest else UNKNOWN_DATE
            phrase = rel.bridge_phrase or ""
        elif rel.kind == COMPANY_PERSON:
            phrase = _person_context(view, rel.right)
        candidates.append(Candidate(rel.kind, rel.left.text, rel.right.text, date, phrase))
    return candidates


def finish(
    doc_id: str,
    candidates: list[Candidate],
    table: EmbeddingTable,
    lex: LexiconConfig,
) -> list[RelationRecord]:
    """The classifying step of :func:`extract`: the records of document
    ``doc_id``'s candidates, in their order.

    A money candidate becomes a revenue/investment record by its bridge
    phrase's verdict, and is dropped on ``unknown``; a person candidate
    becomes a founder record only on a founder verdict.  A value that cannot
    form a well-formed record (embedded separator characters) is dropped
    with a warning.
    """
    from . import semvec  # only this step needs the table; the forked parts never load it

    records = []
    for c in candidates:
        if c.kind == COMPANY_MONEY:
            name = semvec.classify_money_phrase(table, lex, c.phrase)
            if name == semvec.UNKNOWN:
                continue
        elif c.kind == COMPANY_PERSON:
            if semvec.classify_person_phrase(table, lex, c.value, c.phrase) != semvec.FOUNDER:
                continue
            name = "founder"
        else:
            name = "country"
        try:
            records.append(RelationRecord(c.company, name, c.value, c.date))
        except RecordError as exc:
            logger.warning("dropping unserializable record from document %s: %s", doc_id, exc)
    return records


def extract(
    view: dt.TreeView,
    table: EmbeddingTable,
    lex: LexiconConfig,
) -> list[RelationRecord]:
    """Integrate all pairwise relations of a paragraph into ordered records:
    :func:`finish` of :func:`relate`."""
    return finish(view.document.id, relate(view), table, lex)
