import os
import subprocess
import sys
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from finrelex import corpus
from finrelex import deptree as dt
from finrelex import records as records_mod
from finrelex import relex, semvec
from finrelex.corpus import AnnotatedDocument
from finrelex.deptree import TreeView
from finrelex.records import RelationRecord
from finrelex.relex import (
    KIND_LABELS,
    PairwiseRelation,
    extract,
    relate_company_date,
    relate_money_company,
    relate_other_pairs,
)
from tests.conftest import FIXTURE_CORPUS, TOY_EMBEDDINGS


def view_of(doc_by_id, doc_id):
    return TreeView.build(doc_by_id[doc_id])


def _relations(view: TreeView) -> list[PairwiseRelation]:
    """The relations of all three passes, in pass order."""
    return relate_money_company(view) + relate_company_date(view) + relate_other_pairs(view)


class TestRelateMoneyCompany:
    def test_apple_prepositional_path(self, apple_view):
        relations = relate_money_company(apple_view)
        assert len(relations) == 1
        rel = relations[0]
        assert rel.left.text == "Apple"
        assert rel.right.text == "$9.4 million"
        assert rel.bridge_phrase == "a net income"

    def test_direct_object_subject_path(self, doc_by_id):
        relations = relate_money_company(view_of(doc_by_id, "konga-raise"))
        assert [(r.left.text, r.right.text) for r in relations] == [("Konga", "$10 million")]
        assert [r.path for r in relations] == ["a"]

    def test_verb_children_path_without_subject(self, doc_by_id):
        relations = relate_money_company(view_of(doc_by_id, "stripe-paystack"))
        assert [(r.left.text, r.right.text) for r in relations] == [("Paystack", "$5 million")]
        assert [r.path for r in relations] == ["b"]

    def test_verb_children_path_picks_nearest_org(self):
        # no subject, so strategy (b) scans the verb's children: the nearer
        # organization wins, and the left one on a distance tie
        nearer = _sentence_row(
            "nearer",
            [("Acme", "PROPN", "dep", 2), ("Beta", "PROPN", "dep", 2), ("raised", "VERB", "ROOT", 2),
             ("$5", "NUM", "dobj", 2)],
            [(0, 1, "ORG"), (1, 2, "ORG"), (3, 4, "MONEY")],
        )
        tie = _sentence_row(
            "tie",
            [("raised", "VERB", "ROOT", 0), ("Acme", "PROPN", "dep", 0), ("$5", "NUM", "dobj", 0),
             ("Beta", "PROPN", "dep", 0)],
            [(1, 2, "ORG"), (2, 3, "MONEY"), (3, 4, "ORG")],
        )
        for row, org in ((nearer, "Beta"), (tie, "Acme")):
            relations = relate_money_company(TreeView.build(_document(row)))
            assert [(r.left.text, r.right.text, r.path) for r in relations] == [(org, "$5", "b")]

    def test_subject_ancestor_path(self):
        # "$5" is the dobj of "worth", an amod of the subject "Acme": the
        # subject is itself a left ancestor of the money, not a child of one
        row = _row(
            "subject-ancestor",
            _word_rows([("Acme", "PROPN", "nsubj", 4), (",", "PUNCT", "punct", 0), ("worth", "ADJ", "amod", 0),
                        ("$5", "NUM", "dobj", 2), ("closed", "VERB", "ROOT", 4)], 0, 0),
            [_dump(corpus._ENTITY, e) for e in ((0, 1, "ORG"), (3, 4, "MONEY"))],
            [_dump(corpus._CHUNK, (3, 4, 3))],
        )
        relations = relate_money_company(TreeView.build(_document(row)))
        assert [relex.describe(r) for r in relations] == ["company-money path (a): Acme -> $5 via bridge '$5'"]

    def test_money_without_org_yields_nothing(self, doc_by_id):
        assert relate_money_company(view_of(doc_by_id, "startup-unnamed")) == []

    def test_non_org_subject_blocks_verb_scan(self, doc_by_id):
        # strategy (b) only runs when no subject was found at all
        assert relate_money_company(view_of(doc_by_id, "seriesb-size")) == []

    def test_appositive_hop_reaches_org(self, doc_by_id):
        relations = relate_money_company(view_of(doc_by_id, "chipper-round"))
        assert [(r.left.text, r.right.text) for r in relations] == [("Chipper Cash", "$100 million")]

    def test_one_relation_per_money_entity(self, doc_by_id):
        relations = relate_money_company(view_of(doc_by_id, "jumia-konga-report"))
        assert [(r.left.text, r.right.text) for r in relations] == [("Jumia", "€2 million")]


class TestRelateCompanyDate:
    def test_passive_with_verb_preposition(self, doc_by_id):
        relations = relate_company_date(view_of(doc_by_id, "paystack-acquired"))
        assert [(r.left.text, r.right.text) for r in relations] == [("Paystack", "October 2020")]
        assert [r.path for r in relations] == ["a"]

    def test_sentence_initial_date_preposition(self, documents, doc_by_id):
        # hand-built variant: "In Q3 2020, Jumia reported revenue"
        doc = _build_initial_pp_doc()
        relations = relate_company_date(TreeView.build(doc))
        assert [(r.left.text, r.right.text) for r in relations] == [("Jumia", "Q3 2020")]

    def test_direct_object_company_verb_children(self, doc_by_id):
        relations = relate_company_date(view_of(doc_by_id, "mtn-bankly"))
        assert [(r.left.text, r.right.text) for r in relations] == [("Bankly", "last year")]
        assert [r.path for r in relations] == ["b"]

    def test_prepositional_object_company_ancestral_verb(self, doc_by_id):
        relations = relate_company_date(view_of(doc_by_id, "paystack-stripe-deal"))
        paths = {(r.left.text, r.right.text, r.path) for r in relations}
        assert paths == {("Paystack", "October 2020", "a"), ("Stripe", "October 2020", "c")}

    def test_org_without_date_yields_nothing(self, doc_by_id):
        assert relate_company_date(view_of(doc_by_id, "andela-hiring")) == []

    def test_duplicates_emitted_once(self, doc_by_id):
        relations = relate_company_date(view_of(doc_by_id, "chipper-round"))
        assert len(relations) == 1


class TestRelateOtherPairs:
    def test_flutterwave_pairs(self, doc_by_id):
        relations = relate_other_pairs(view_of(doc_by_id, "flutterwave-founder"))
        pairs = {(r.kind, r.left.text, r.right.text) for r in relations}
        assert pairs == {
            ("company-country", "Flutterwave", "Nigeria"),
            ("company-person", "Flutterwave", "Olugbenga Agboola"),
            ("person-country", "Olugbenga Agboola", "Nigeria"),
        }

    def test_person_and_country_under_same_verb(self, doc_by_id):
        relations = relate_other_pairs(view_of(doc_by_id, "dangote-home"))
        assert [(r.kind, r.left.text, r.right.text) for r in relations] == [
            ("person-country", "Aliko Dangote", "Nigeria")
        ]

    def test_money_date_shared_governor(self, doc_by_id):
        relations = relate_other_pairs(view_of(doc_by_id, "mtn-bankly-deal"))
        money_dates = [r for r in relations if r.kind == "money-date"]
        assert [(r.left.text, r.right.text) for r in money_dates] == [("$15 million", "last year")]

    def test_cross_sentence_entities_unrelated(self, doc_by_id):
        # the two sentences of jumia-quarters each keep their own date
        relations = relate_other_pairs(view_of(doc_by_id, "jumia-quarters"))
        money_dates = {(r.left.text, r.right.text) for r in relations if r.kind == "money-date"}
        assert money_dates == {("€41 million", "Q4 2020"), ("€33.7 million", "Q3 2020")}


def _subtree_related(view: TreeView, left_root: int, right_root: int) -> bool:
    """The shared-governor test phrased with ``subtree()`` rebuilds: the
    reference for ``relex._related``."""
    tokens = view.document.tokens
    if tokens[left_root].sentence != tokens[right_root].sentence:
        return False
    left_verb = dt.governing_verb(view, left_root)
    right_verb = dt.governing_verb(view, right_root)
    if left_verb is not None and left_verb == right_verb:
        return True
    return right_root in dt.subtree(view, left_root) or left_root in dt.subtree(view, right_root)


def _tree_heads(draw, size: int) -> list[int]:
    """Heads of a random tree over ``size`` tokens: in a random order, each
    token attaches to one already placed, and the first is the root."""
    order = draw(st.permutations(range(size)))
    heads = [0] * size
    heads[order[0]] = order[0]
    for k in range(1, size):
        heads[order[k]] = order[draw(st.integers(0, k - 1))]
    return heads


def _dump(fields, values) -> dict:
    """The file row of ``values`` under the keys of ``fields``, in declaration order."""
    return dict(zip(fields.keys, values, strict=True))


def _row(doc_id: str, tokens: list[dict], entities: list[dict], chunks: list[dict], text=None) -> dict:
    """A document file row; ``text`` defaults to the token texts joined by spaces."""
    if text is None:
        text = " ".join(t["text"] for t in tokens)
    return _dump(corpus._DOCUMENT, (doc_id, text, tokens, entities, chunks))


def _document(row: dict) -> AnnotatedDocument:
    """The document the loader builds from ``row``: validated, with span texts."""
    return corpus._document_from_dict(row, 1)


@st.composite
def _forests(draw) -> AnnotatedDocument:
    """A document of one to three sentences, each a random dependency tree
    with a random mix of verb and non-verb tokens."""
    tokens: list[dict] = []
    for sent in range(draw(st.integers(1, 3))):
        size = draw(st.integers(1, 9))
        heads = _tree_heads(draw, size)
        off = len(tokens)
        for i, head in enumerate(heads):
            pos = draw(st.sampled_from(["VERB", "AUX", "NOUN", "PROPN", "ADP"]))
            dep = "ROOT" if head == i else "dep"
            tokens.append(_dump(corpus._TOKEN, (off + i, "w", "w", pos, dep, off + head, sent)))
    return _document(_row("generated", tokens, [], []))


class TestRelated:
    @given(_forests())
    def test_matches_subtree_reference(self, doc):
        view = TreeView.build(doc)
        n = len(doc.tokens)
        for a in range(n):
            for b in range(n):
                assert (a in dt.ancestors(view, b)) == (b in dt.subtree(view, a))
                assert relex._related(view, a, b) == _subtree_related(view, a, b)


# The dependency labels the heuristics key on, and words that reach the
# classifier's lexicons, the record separators and plain text.
_HEURISTIC_DEPS = ("nsubj", "dobj", "attr", "pobj", "prep", "appos", "conj")
_WORDS = ("Acme", "raised", "revenue", "income", "founder", "founded", "the", "of",
          "$5", "million", "2020", "Nigeria", ",", "a|b")
_PATHS = {
    "company-money": {"a", "b", "c"},
    "company-date": {"a", "b", "c"},
    "company-country": {"shared-governor"},
    "company-person": {"shared-governor"},
    "money-date": {"shared-governor"},
    "person-country": {"shared-governor"},
}


def _spans(draw, n: int) -> list[tuple[int, int]]:
    """Non-overlapping [start, end) token ranges of length one to three."""
    spans, start = [], 0
    while start < n:
        if draw(st.booleans()):
            end = draw(st.integers(start + 1, min(start + 3, n)))
            spans.append((start, end))
            start = end
        else:
            start += 1
    return spans


def _sentence(draw, off: int, sent: int) -> list[dict]:
    """Token rows of one random tree with the heuristics' dependency labels
    and words, numbered from ``off``."""
    tokens = []
    for i, head in enumerate(_tree_heads(draw, draw(st.integers(1, 8)))):
        dep = "ROOT" if head == i else draw(st.sampled_from(_HEURISTIC_DEPS))
        pos = draw(st.sampled_from(["VERB", "AUX", "NOUN", "PROPN", "ADP", "NUM"]))
        text = draw(st.sampled_from(_WORDS))
        tokens.append(_dump(corpus._TOKEN, (off + i, text, text.lower(), pos, dep, off + head, sent)))
    return tokens


def _chunks(draw, off: int, n: int) -> list[dict]:
    """Noun chunk rows over tokens [off, off + n), each with a root inside."""
    return [_dump(corpus._CHUNK, (off + start, off + end, draw(st.integers(off + start, off + end - 1))))
            for start, end in _spans(draw, n)]


@st.composite
def _valid_rows(draw) -> dict:
    """A document row that passes validation: one random tree per sentence,
    entity spans inside each sentence labelled in pairs, each pair the two
    labels of one relation kind in either order, and noun chunks that may
    cross a sentence boundary, as validation allows."""
    tokens: list[dict] = []
    entities: list[dict] = []
    for sent in range(draw(st.integers(1, 3))):
        off = len(tokens)
        tokens += _sentence(draw, off, sent)
        spans = _spans(draw, len(tokens) - off)
        labels: list[str] = []
        while len(labels) < len(spans):
            labels += draw(st.permutations(KIND_LABELS[draw(st.sampled_from(sorted(KIND_LABELS)))]))
        entities += [_dump(corpus._ENTITY, (off + start, off + end, label))
                     for (start, end), label in zip(spans, labels)]
    return _row("generated", tokens, entities, _chunks(draw, 0, len(tokens)))


def _repeated(row: dict, times: int) -> dict:
    """One document row holding ``row``'s sentences ``times`` over."""
    n, sentences = len(row["tokens"]), row["tokens"][-1]["sent"] + 1
    tokens, entities, chunks = [], [], []
    for k in range(times):
        off = k * n
        tokens += [dict(t, i=t["i"] + off, head=t["head"] + off, sent=t["sent"] + k * sentences)
                   for t in row["tokens"]]
        entities += [dict(e, start=e["start"] + off, end=e["end"] + off) for e in row["entities"]]
        chunks += [dict(c, start=c["start"] + off, end=c["end"] + off, root=c["root"] + off)
                   for c in row["noun_chunks"]]
    return _row(row["id"], tokens, entities, chunks)


def _all_pairs_other_relations(view: TreeView) -> list[PairwiseRelation]:
    """``relate_other_pairs`` without sentence buckets: the reference for it.

    Each right-hand entity is tested against every left-hand entity of the
    document with ``_subtree_related``, from an organization's appos/conj
    head, and the related left nearest by (root distance, left root) wins.
    """
    tokens = view.document.tokens
    relations = []
    for kind in (relex.COMPANY_COUNTRY, relex.COMPANY_PERSON, relex.MONEY_DATE, relex.PERSON_COUNTRY):
        left_label, right_label = KIND_LABELS[kind]
        for right in [e for e in view.document.entities if e.label == right_label]:
            right_root = dt.entity_root(view, right)
            best = None
            for left in [e for e in view.document.entities if e.label == left_label]:
                left_root = dt.entity_root(view, left)
                anchored = left_root
                if left_label == "ORG" and tokens[left_root].dep in relex.LINK_DEPS:
                    anchored = tokens[left_root].head
                key = (abs(left_root - right_root), left_root)
                if _subtree_related(view, anchored, right_root) and (best is None or key < best[0]):
                    best = (key, left)
            if best is not None:
                relations.append(PairwiseRelation(kind, best[1], right))
    return relations


def _reference_money_company(view: TreeView) -> list[PairwiseRelation]:
    """``relate_money_company`` with each path's own guards and append:
    the reference for it."""
    relations = []
    for money in relex._spans(view, "MONEY"):
        t = dt.entity_root(view, money)
        org = None
        bridge = None
        path = None
        dep = view.document.tokens[t].dep
        if dep == "attr" or dep in relex.DIRECT_OBJECT_DEPS:
            subject = relex._find_left_subject(view, t)
            if subject is not None:
                candidate = relex._org_span_at(view, subject)
                if candidate is not None:
                    org, path = candidate, "a"
                    bridge = relex._chunk_text(dt.noun_chunk_of(view, t))
            else:
                verb = dt.governing_verb(view, t)
                if verb is not None:
                    candidate = relex._nearest_org_child(view, verb, t)
                    if candidate is not None:
                        org, path = candidate, "b"
                        bridge = relex._chunk_text(dt.noun_chunk_of(view, t))
        elif dep == "pobj":
            prep = view.document.tokens[t].head
            prep_head = view.document.tokens[prep].head
            verb = dt.governing_verb(view, prep_head)
            if verb is not None:
                candidate = relex._nearest_org_child(view, verb, t)
                if candidate is not None:
                    org, path = candidate, "c"
                    bridge = relex._chunk_text(dt.noun_chunk_of(view, prep_head))
        if org is not None:
            relations.append(PairwiseRelation(relex.COMPANY_MONEY, org, money, bridge, path))
    return relations


def _reference_company_date(view: TreeView) -> list[PairwiseRelation]:
    """``relate_company_date`` with one DATE loop per path, each emitting
    through a shared seen-set: the reference for it."""
    relations = []
    seen = set()

    def emit(org, date, path):
        key = (org.start, org.end, date.start, date.end)
        if key in seen:
            return
        seen.add(key)
        relations.append(PairwiseRelation(relex.COMPANY_DATE, org, date, path=path))

    for org in relex._spans(view, "ORG"):
        c = relex._anchor(view, dt.entity_root(view, org))
        head = view.document.tokens[c].head

        prepositions = {p for p in dt.subtree(view, c) if relex._is_prep_token(view, p)}
        prepositions.update(p for p in view.children_index[head] if relex._is_prep_token(view, p))
        for prep in sorted(prepositions):
            for child in view.children_index[prep]:
                date = relex._span_at(view, child, "DATE")
                if date is not None:
                    emit(org, date, "a")

        if view.document.tokens[c].dep in relex.DIRECT_OBJECT_DEPS:
            verb = dt.governing_verb(view, c)
            if verb is not None:
                for child in view.children_index[verb]:
                    date = relex._span_at(view, child, "DATE")
                    if date is not None:
                        emit(org, date, "b")

        if view.document.tokens[c].dep == "pobj":
            prep = view.document.tokens[c].head
            prep_head = view.document.tokens[prep].head
            if view.document.tokens[prep_head].pos == "PROPN":
                for desc in dt.subtree(view, prep_head):
                    date = relex._span_at(view, desc, "DATE")
                    if date is not None:
                        emit(org, date, "c")
            verb = dt.governing_verb(view, prep)
            if verb is not None:
                for desc in dt.subtree(view, verb):
                    date = relex._span_at(view, desc, "DATE")
                    if date is not None:
                        emit(org, date, "c")
    return relations


def _word_rows(words: list[tuple], off: int, sent: int) -> list[dict]:
    """Token rows of sentence ``sent`` from (text, pos, dep, head) tuples,
    numbered and headed from ``off``."""
    return [_dump(corpus._TOKEN, (off + i, text, text.lower(), pos, dep, off + head, sent))
            for i, (text, pos, dep, head) in enumerate(words)]


def _sentence_row(doc_id: str, words: list[tuple], entities: list[tuple]) -> dict:
    """A one-sentence document row from (text, pos, dep, head) and (start, end, label) tuples."""
    return _row(doc_id, _word_rows(words, 0, 0), [_dump(corpus._ENTITY, e) for e in entities], [])


# Two organizations under one verb with a person: the nearer one wins, not the leftmost.
_NEARER_ROW = _sentence_row(
    "nearer",
    [("Acme", "PROPN", "nsubj", 1), ("founded", "VERB", "ROOT", 1), ("Beta", "PROPN", "dobj", 1),
     ("Ade", "PROPN", "npadvmod", 1)],
    [(0, 1, "ORG"), (2, 3, "ORG"), (3, 4, "PERSON")],
)
# Two organizations two tokens either side of a person, all under one verb:
# the leftmost wins the tie.
_TIE_ROW = _sentence_row(
    "tie",
    [("Acme", "PROPN", "nsubj", 1), ("founded", "VERB", "ROOT", 1), ("Ade", "PROPN", "dobj", 1),
     ("with", "ADP", "prep", 1), ("Beta", "PROPN", "pobj", 3)],
    [(0, 1, "ORG"), (2, 3, "PERSON"), (4, 5, "ORG")],
)
# No verb, and the country is not in the organization's subtree: only the
# organization's conj head relates them.
_ANCHOR_ROW = _sentence_row(
    "anchor",
    [("Acme", "PROPN", "ROOT", 0), ("Beta", "PROPN", "conj", 0), ("Nigeria", "PROPN", "nmod", 0)],
    [(1, 2, "ORG"), (2, 3, "GPE")],
)
# A country record in the first sentence and a money record in the second:
# the money-company pass finds its relation before the other pairs' pass,
# but the records come in company token order, country first.
_COUNTRY_BEFORE_MONEY_ROW = _row(
    "country-before-money",
    _word_rows([("Acme", "PROPN", "nsubj", 1), ("entered", "VERB", "ROOT", 1), ("Nigeria", "PROPN", "dobj", 1)], 0, 0)
    + _word_rows([("Beta", "PROPN", "nsubj", 1), ("raised", "VERB", "ROOT", 1), ("million", "NUM", "dobj", 1)], 3, 1),
    [_dump(corpus._ENTITY, e) for e in ((0, 1, "ORG"), (2, 3, "GPE"), (3, 4, "ORG"), (5, 6, "MONEY"))],
    [_dump(corpus._CHUNK, (5, 6, 5))],
)


def _keeps_relate_order(view: TreeView, table, lex) -> bool:
    """Whether ``extract``'s (company, value) pairs are an ordered
    subsequence of ``relate``'s candidates."""
    candidates = iter((c.company, c.value) for c in relex.relate(view))
    return all((r.company, r.variable_value) in candidates for r in extract(view, table, lex))


# One sentence per (kind, path), as (text, pos, dep, head) words and
# (start, end, label) entities; on its own each builds one relation, of its
# own kind and path.  Random draws rarely build the path-based ones.
_PATH_SHAPES = {
    # "Acme raised $5": the subject left of a direct-object money
    ("company-money", "a"): (
        [("Acme", "PROPN", "nsubj", 1), ("raised", "VERB", "ROOT", 1), ("$5", "NUM", "dobj", 1)],
        [(0, 1, "ORG"), (2, 3, "MONEY")]),
    # "raised Acme $5": no subject, so the verb's organization child
    ("company-money", "b"): (
        [("raised", "VERB", "ROOT", 0), ("Acme", "PROPN", "dep", 0), ("$5", "NUM", "dobj", 0)],
        [(1, 2, "ORG"), (2, 3, "MONEY")]),
    # "Acme made income of $5": a prepositional-object money
    ("company-money", "c"): (
        [("Acme", "PROPN", "nsubj", 1), ("made", "VERB", "ROOT", 1), ("income", "NOUN", "dobj", 1),
         ("of", "ADP", "prep", 2), ("$5", "NUM", "pobj", 3)],
        [(0, 1, "ORG"), (4, 5, "MONEY")]),
    # "Acme grew in 2020": a preposition under the organization's head
    ("company-date", "a"): (
        [("Acme", "PROPN", "nsubj", 1), ("grew", "VERB", "ROOT", 1), ("in", "ADP", "prep", 1),
         ("2020", "NUM", "pobj", 2)],
        [(0, 1, "ORG"), (3, 4, "DATE")]),
    # "bought Acme 2020": a direct-object organization and a date child of its verb
    ("company-date", "b"): (
        [("bought", "VERB", "ROOT", 0), ("Acme", "PROPN", "dobj", 0), ("2020", "NUM", "npadvmod", 0)],
        [(1, 2, "ORG"), (2, 3, "DATE")]),
    # "stake in Acme rose 2020": a prepositional-object organization and a
    # date under the preposition's verb
    ("company-date", "c"): (
        [("stake", "NOUN", "nsubj", 3), ("in", "ADP", "prep", 0), ("Acme", "PROPN", "pobj", 1),
         ("rose", "VERB", "ROOT", 3), ("2020", "NUM", "npadvmod", 3)],
        [(2, 3, "ORG"), (4, 5, "DATE")]),
    # the shared-governor kinds: two entities under one verb
    ("company-country", "shared-governor"): (
        [("Acme", "PROPN", "nsubj", 1), ("entered", "VERB", "ROOT", 1), ("Nigeria", "PROPN", "dobj", 1)],
        [(0, 1, "ORG"), (2, 3, "GPE")]),
    ("company-person", "shared-governor"): (
        [("Ade", "PROPN", "nsubj", 1), ("founded", "VERB", "ROOT", 1), ("Acme", "PROPN", "dobj", 1)],
        [(0, 1, "PERSON"), (2, 3, "ORG")]),
    ("money-date", "shared-governor"): (
        [("$5", "NUM", "nsubj", 1), ("came", "VERB", "ROOT", 1), ("2020", "NUM", "npadvmod", 1)],
        [(0, 1, "MONEY"), (2, 3, "DATE")]),
    ("person-country", "shared-governor"): (
        [("Ade", "PROPN", "nsubj", 1), ("left", "VERB", "ROOT", 1), ("Nigeria", "PROPN", "dobj", 1)],
        [(0, 1, "PERSON"), (2, 3, "GPE")]),
}


def _grafted(row: dict, shape: tuple[str, str], chunks: list[dict]) -> dict:
    """``row`` with the path shape ``shape`` appended as its last sentence,
    plus ``chunks``, noun chunk rows over the shape's tokens."""
    words, spans = _PATH_SHAPES[shape]
    off, sent = len(row["tokens"]), row["tokens"][-1]["sent"] + 1
    entities = [_dump(corpus._ENTITY, (off + start, off + end, label)) for start, end, label in spans]
    return _row(row["id"], row["tokens"] + _word_rows(words, off, sent), row["entities"] + entities,
                row["noun_chunks"] + chunks)


@st.composite
def _shaped_rows(draw) -> dict:
    """A ``_valid_rows`` document with one path shape grafted on, under
    random noun chunks."""
    row = draw(_valid_rows())
    shape = draw(st.sampled_from(sorted(_PATH_SHAPES)))
    return _grafted(row, shape, _chunks(draw, len(row["tokens"]), len(_PATH_SHAPES[shape][0])))


class TestPathReferences:
    """The path-based passes against their path-by-path references:
    kind, spans, bridge, path and order."""

    def test_fixture_documents(self, documents):
        for doc in documents:
            view = TreeView.build(doc)
            assert relate_money_company(view) == _reference_money_company(view)
            assert relate_company_date(view) == _reference_company_date(view)
            for rel in _relations(view):
                assert (rel.left.label, rel.right.label) == KIND_LABELS[rel.kind]

    @pytest.mark.parametrize("kind,path", sorted(_PATH_SHAPES))
    def test_each_shape_fires_its_path(self, kind, path):
        view = TreeView.build(_document(_sentence_row("shape", *_PATH_SHAPES[kind, path])))
        assert [(r.kind, r.path) for r in _relations(view)] == [(kind, path)]
        assert relate_money_company(view) == _reference_money_company(view)
        assert relate_company_date(view) == _reference_company_date(view)

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(_valid_rows(), _shaped_rows()))
    def test_generated_documents(self, row):
        view = TreeView.build(_document(row))
        assert relate_money_company(view) == _reference_money_company(view)
        assert relate_company_date(view) == _reference_company_date(view)


class TestPathCoverage:
    def test_every_kind_and_path_fires(self):
        # a fixed set of documents: derandomized draws, the same on every
        # run, each with every shape grafted on in turn
        fired = Counter()

        @settings(max_examples=20, derandomize=True, database=None, deadline=None)
        @given(_valid_rows())
        def collect(row):
            for shape in _PATH_SHAPES:
                view = TreeView.build(_document(_grafted(row, shape, [])))
                fired.update((r.kind, r.path) for r in _relations(view))

        collect()
        every_pair = {(kind, path) for kind, paths in _PATHS.items() for path in paths}
        assert set(fired) == every_pair == set(_PATH_SHAPES)


class TestAllPairsReference:
    def test_fixture_documents(self, documents):
        for doc in documents:
            view = TreeView.build(doc)
            assert relate_other_pairs(view) == _all_pairs_other_relations(view)

    @settings(max_examples=40, deadline=None)
    @given(_valid_rows())
    @example(_NEARER_ROW)
    @example(_TIE_ROW)
    @example(_ANCHOR_ROW)
    def test_generated_documents(self, row):
        view = TreeView.build(_document(row))
        assert relate_other_pairs(view) == _all_pairs_other_relations(view)


class TestGeneratedDocuments:
    @settings(max_examples=120, deadline=None)
    @given(_valid_rows())
    @example(_COUNTRY_BEFORE_MONEY_ROW)
    def test_heuristics_hold_on_valid_documents(self, toy_table, lexicon, row):
        doc = _document(row)
        view = TreeView.build(doc)
        got = extract(view, toy_table, lexicon)
        assert records_mod.parse(records_mod.serialize(got)) == got
        assert _keeps_relate_order(view, toy_table, lexicon)
        tokens = doc.tokens
        for rel in _relations(view):
            assert (rel.left.label, rel.right.label) == KIND_LABELS[rel.kind]
            assert rel.path in _PATHS[rel.kind]
            left, right = dt.entity_root(view, rel.left), dt.entity_root(view, rel.right)
            assert tokens[left].sentence == tokens[right].sentence

    @settings(max_examples=40, deadline=None)
    @given(_valid_rows(), st.data())
    def test_output_ignores_id_and_entity_free_sentence(self, toy_table, lexicon, row, data):
        # the relations are compared too: far more documents have one than a record
        def output(row):
            view = TreeView.build(_document(row))
            return extract(view, toy_table, lexicon), [relex.describe(r) for r in _relations(view)]

        base = output(row)
        assert output({**row, "id": "renamed"}) == base
        tokens = row["tokens"]
        off = len(tokens)
        extra = _sentence(data.draw, off, tokens[-1]["sent"] + 1)
        chunks = row["noun_chunks"] + _chunks(data.draw, off, len(extra))
        assert output(_row(row["id"], tokens + extra, row["entities"], chunks)) == base

    @settings(max_examples=40, deadline=None)
    @given(_valid_rows())
    def test_extract_work_grows_linearly(self, toy_table, lexicon, row):
        counts = [_work(_repeated(row, times), relex, "_related", _once,
                        lambda view: extract(view, toy_table, lexicon)) for times in (1, 4)]
        # four times the sentences may cost at most about four times the
        # tests; pairing across the whole document would cost sixteen times
        assert counts[1] <= 4.5 * counts[0]


def _once(_result) -> int:
    return 1


def _work(row: dict, module, name: str, size, run) -> int:
    """The work ``run`` does on ``row``'s document: the sum of ``size`` over
    the results of its calls to ``module.name``."""
    view = TreeView.build(_document(row))
    original = getattr(module, name)
    work = []

    def counting(*args):
        result = original(*args)
        work.append(size(result))
        return result

    with mock.patch.object(module, name, counting):
        run(view)
    return sum(work)


def _verb_with_objects(k: int, left_label: str, right_label: str) -> dict:
    """A subject-less root verb with k ``left_label`` then k ``right_label``
    one-token direct objects."""
    words = [("did", "VERB", "ROOT", 0)] + [(f"w{i}", "PROPN", "dobj", 0) for i in range(2 * k)]
    entities = [(1 + i, 2 + i, left_label if i < k else right_label) for i in range(2 * k)]
    return _sentence_row("objects", words, entities)


def _money_chain(k: int) -> dict:
    """An organization subject, a root verb, then k one-token money entities,
    each the direct object of the one before."""
    words = [("Acme", "PROPN", "nsubj", 1), ("raised", "VERB", "ROOT", 1)]
    words += [(f"${i}", "NUM", "dobj", 1 + i) for i in range(k)]
    entities = [(0, 1, "ORG")] + [(2 + i, 3 + i, "MONEY") for i in range(k)]
    return _sentence_row("chain", words, entities)


def _conj_chain(k: int) -> dict:
    """A root verb whose organization subject heads a chain of k - 1
    organizations, each the conjunct of the one before."""
    words = [("sold", "VERB", "ROOT", 0), ("Acme", "PROPN", "nsubj", 0)]
    words += [(f"Org{i}", "PROPN", "conj", i) for i in range(1, k)]
    entities = [(1 + i, 2 + i, "ORG") for i in range(k)]
    return _sentence_row("conj-chain", words, entities)


def _prep_objects(k: int) -> dict:
    """A root verb with one date, then k prepositions, each with an
    organization as its object."""
    words = [("met", "VERB", "ROOT", 0), ("Monday", "PROPN", "npadvmod", 0)]
    for i in range(k):
        words += [("with", "ADP", "prep", 0), (f"Org{i}", "PROPN", "pobj", 2 + 2 * i)]
    entities = [(1, 2, "DATE")] + [(3 + 2 * i, 4 + 2 * i, "ORG") for i in range(k)]
    return _sentence_row("prep-objects", words, entities)


def _calls(module, name: str, size, run):
    """The work of :func:`_work` as a function of the row alone."""
    return lambda row: _work(row, module, name, size, run)


def _subject_tests(row: dict) -> int:
    """The membership tests against ``relex.SUBJECT_DEPS`` that
    ``relate_money_company`` makes on ``row``'s document."""
    tests = []

    class Counting(frozenset):
        def __contains__(self, dep):
            tests.append(dep)
            return super().__contains__(dep)

    view = TreeView.build(_document(row))
    with mock.patch.object(relex, "SUBJECT_DEPS", Counting(relex.SUBJECT_DEPS)):
        relate_money_company(view)
    return len(tests)


_ITEM_1 = pytest.mark.xfail(strict=True, reason="ROADMAP item 1")


@pytest.mark.parametrize("shape,work", [
    pytest.param(lambda k: _verb_with_objects(k, "ORG", "MONEY"),
                 _calls(relex, "_org_span_at", _once, relate_money_company),
                 id="money-company-verb-children", marks=_ITEM_1),
    pytest.param(lambda k: _verb_with_objects(k, "ORG", "GPE"),
                 _calls(relex, "_related", _once, relate_other_pairs), id="other-pairs", marks=_ITEM_1),
    pytest.param(_money_chain, _calls(dt, "ancestors", len, relate_money_company),
                 id="money-company-subject-chain", marks=_ITEM_1),
    # 1a's guard gap: the subject search reads every child of the verb once per money entity
    pytest.param(lambda k: _verb_with_objects(k, "ORG", "MONEY"), _subject_tests,
                 id="money-company-subject-children", marks=_ITEM_1),
    # 1c: path a sorts each conjunct's anchor subtree, path b scans the verb's
    # children and path c the verb's subtree, once per organization
    pytest.param(_conj_chain, _calls(dt, "subtree", len, relate_company_date),
                 id="company-date-conj-chain", marks=_ITEM_1),
    pytest.param(lambda k: _verb_with_objects(k, "ORG", "DATE"),
                 _calls(relex, "_span_at", _once, relate_company_date),
                 id="company-date-verb-children", marks=_ITEM_1),
    pytest.param(_prep_objects, _calls(dt, "subtree", len, relate_company_date),
                 id="company-date-prep-objects", marks=_ITEM_1),
])
def test_work_grows_linearly_in_sentence_length(shape, work):
    # within one sentence, four times the entities may cost at most about
    # four times the work; these shapes still cost sixteen times
    counts = [work(shape(k)) for k in (20, 80)]
    assert counts[1] <= 4.5 * counts[0]


class TestExtract:
    def test_every_fixture_matches_registered_gold(self, documents, gold_by_id, toy_table, lexicon):
        for doc in documents:
            expected = records_mod.parse(gold_by_id[doc.id].target_text)
            got = extract(TreeView.build(doc), toy_table, lexicon)
            assert got == expected, f"document {doc.id}"

    def test_apple_single_record(self, apple_view, toy_table, lexicon):
        assert extract(apple_view, toy_table, lexicon) == [
            RelationRecord("Apple", "revenue", "$9.4 million", "unknown-date")
        ]

    def test_document_without_entities_yields_nothing(self, doc_by_id, toy_table, lexicon):
        assert extract(view_of(doc_by_id, "market-close"), toy_table, lexicon) == []

    def test_flutterwave_records_ordered_by_value_start(self, doc_by_id, toy_table, lexicon):
        got = extract(view_of(doc_by_id, "flutterwave-founder"), toy_table, lexicon)
        assert got == [
            RelationRecord("Flutterwave", "country", "Nigeria", "unknown-date"),
            RelationRecord("Flutterwave", "founder", "Olugbenga Agboola", "unknown-date"),
        ]

    def test_records_keep_relate_order(self, documents, toy_table, lexicon):
        views = [TreeView.build(doc) for doc in (*documents, _document(_COUNTRY_BEFORE_MONEY_ROW))]
        for view in views:
            assert _keeps_relate_order(view, toy_table, lexicon), view.document.id
        assert extract(views[-1], toy_table, lexicon) == [
            RelationRecord("Acme", "country", "Nigeria", "unknown-date"),
            RelationRecord("Beta", "investment", "million", "unknown-date"),
        ]

    def test_deterministic(self, documents, toy_table, lexicon):
        for doc in documents:
            first = extract(TreeView.build(doc), toy_table, lexicon)
            second = extract(TreeView.build(doc), toy_table, lexicon)
            assert first == second

    def test_removing_money_spans_preserves_other_records(self, documents, toy_table, lexicon):
        for doc in documents:
            stripped = doc._replace(entities=tuple(e for e in doc.entities if e.label != "MONEY"))
            base = extract(TreeView.build(doc), toy_table, lexicon)
            reduced = extract(TreeView.build(stripped), toy_table, lexicon)
            assert [r for r in reduced if r.variable_name in ("revenue", "investment")] == []
            assert [r for r in reduced if r.variable_name in ("founder", "country")] == [
                r for r in base if r.variable_name in ("founder", "country")
            ]

    def test_record_count_bounded_by_relations(self, documents, toy_table, lexicon):
        for doc in documents:
            view = TreeView.build(doc)
            n_relations = len(relate_money_company(view)) + sum(
                1 for r in relate_other_pairs(view) if r.kind in ("company-person", "company-country")
            )
            assert len(extract(view, toy_table, lexicon)) <= n_relations

    def test_same_sentence_invariant(self, documents):
        for doc in documents:
            view = TreeView.build(doc)
            for rel in _relations(view):
                left_sent = doc.tokens[rel.left.start].sentence
                right_sent = doc.tokens[rel.right.start].sentence
                assert left_sent == right_sent

    def test_classifier_classifies_each_distinct_phrase_once(self, documents, lexicon):
        # a fresh table, so its classifier has kept no verdict yet
        table = semvec.load_embeddings(TOY_EMBEDDINGS)
        money_calls = mock.Mock(wraps=semvec.classify_money_phrase)
        person_calls = mock.Mock(wraps=semvec.classify_person_phrase)
        money_work = mock.Mock(side_effect=semvec.Classifier._classify_money)
        person_work = mock.Mock(side_effect=semvec.Classifier._classify_person)
        with mock.patch.object(semvec, "classify_money_phrase", money_calls), \
                mock.patch.object(semvec, "classify_person_phrase", person_calls), \
                mock.patch.object(semvec.Classifier, "_classify_money", lambda *a: money_work(*a)), \
                mock.patch.object(semvec.Classifier, "_classify_person", lambda *a: person_work(*a)):
            first, again = ([extract(TreeView.build(doc), table, lexicon) for doc in documents] for _ in range(2))
        assert first == again == [extract(TreeView.build(doc), table, lexicon) for doc in documents]
        candidates = [c for doc in documents for c in relex.relate(TreeView.build(doc))]
        money_phrases = [c.phrase for c in candidates if c.kind == relex.COMPANY_MONEY]
        person_keys = [(c.value, c.phrase) for c in candidates if c.kind == relex.COMPANY_PERSON]
        assert len(money_phrases) > len(set(money_phrases)) and person_keys
        # one classifier call per relation, but each distinct phrase is worked out once
        assert [c.args[2] for c in money_calls.call_args_list] == money_phrases * 2
        assert [c.args[2:] for c in person_calls.call_args_list] == person_keys * 2
        assert [c.args[1] for c in money_work.call_args_list] == list(dict.fromkeys(money_phrases))
        assert [c.args[1:] for c in person_work.call_args_list] == list(dict.fromkeys(person_keys))

def test_relate_imports_no_numpy():
    # a fresh interpreter, which holds only the modules relate imports
    script = (
        "import sys\n"
        "from finrelex import corpus, relex\n"
        "from finrelex.deptree import TreeView\n"
        "assert any(relex.relate(TreeView.build(doc)) for doc in corpus.load_documents(sys.argv[1]))\n"
        "assert 'numpy' not in sys.modules, 'relex or relate imported numpy'\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", script, str(FIXTURE_CORPUS)], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0, proc.stderr


def _build_initial_pp_doc() -> AnnotatedDocument:
    tokens = [
        _dump(corpus._TOKEN, values)
        for values in (
            (0, "In", "in", "ADP", "prep", 5, 0),
            (1, "Q3", "q3", "PROPN", "compound", 2, 0),
            (2, "2020", "2020", "NUM", "pobj", 0, 0),
            (3, ",", ",", "PUNCT", "punct", 5, 0),
            (4, "Jumia", "jumia", "PROPN", "nsubj", 5, 0),
            (5, "reported", "report", "VERB", "ROOT", 5, 0),
            (6, "revenue", "revenue", "NOUN", "dobj", 5, 0),
        )
    ]
    entities = [_dump(corpus._ENTITY, values) for values in ((1, 3, "DATE"), (4, 5, "ORG"))]
    chunks = [_dump(corpus._CHUNK, values) for values in ((1, 3, 2), (4, 5, 4), (6, 7, 6))]
    return _document(_row("initial-pp", tokens, entities, chunks, text="In Q3 2020, Jumia reported revenue"))
