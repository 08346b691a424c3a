import codecs
import json
import logging
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from finrelex import corpus
from finrelex.corpus import (
    CorpusFormatError,
    DocumentValidationError,
    GoldExample,
    SplitInfeasibleError,
    Token,
    balanced_subset,
    load_documents,
    load_gold,
    split_train_test,
)
from finrelex.records import (
    FIELD_SEPARATOR,
    RECORD_SEPARATOR,
    RecordError,
    RelationRecord,
    is_informative,
    load_predictions,
    parse,
)
from tests.conftest import FIXTURE_CORPUS, FIXTURE_GOLD


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


@pytest.fixture(scope="session")
def raw_lines():
    """Each fixture document's JSON line as stored, keyed by id."""
    lines = FIXTURE_CORPUS.read_text(encoding="utf-8").splitlines()
    return {json.loads(line)["id"]: line for line in lines}


@pytest.fixture(scope="session")
def apple_line(raw_lines):
    return raw_lines["apple-income"]


class TestLoadDocuments:
    def test_apple_fixture_counts(self, tmp_path, apple_line):
        path = tmp_path / "docs.jsonl"
        write_lines(path, [apple_line])
        docs = load_documents(path)
        assert len(docs) == 1
        doc = docs[0]
        assert len(doc.tokens) == 9
        assert len(doc.entities) == 2
        assert len(doc.noun_chunks) == 2

    def test_empty_file(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        path.write_text("", encoding="utf-8")
        assert load_documents(path) == []

    def test_iter_documents_yields_each_row_before_a_later_bad_row_raises(self, tmp_path, raw_lines):
        first, second = list(raw_lines)[:2]
        path = tmp_path / "docs.jsonl"
        write_lines(path, [raw_lines[first], "", raw_lines[second], "{not json"])
        rows = corpus.iter_documents(path)
        assert [(lineno, doc.id) for lineno, doc in (next(rows), next(rows))] == [(1, first), (3, second)]
        with pytest.raises(CorpusFormatError, match="^line 4: invalid JSON record"):
            next(rows)

    def test_head_out_of_range_names_document(self, tmp_path, apple_line):
        obj = json.loads(apple_line)
        obj["tokens"][3]["head"] = 99
        path = tmp_path / "docs.jsonl"
        write_lines(path, [json.dumps(obj)])
        with pytest.raises(DocumentValidationError, match="apple-income"):
            load_documents(path)

    def test_cyclic_heads_rejected(self, tmp_path, apple_line):
        obj = json.loads(apple_line)
        # 2 -> 3 -> 2 cycle
        obj["tokens"][2]["head"] = 3
        obj["tokens"][3]["head"] = 2
        path = tmp_path / "docs.jsonl"
        write_lines(path, [json.dumps(obj)])
        with pytest.raises(DocumentValidationError, match="apple-income"):
            load_documents(path)

    def test_malformed_line_names_line_number(self, tmp_path, apple_line):
        path = tmp_path / "docs.jsonl"
        write_lines(path, [apple_line, "{not json"])
        with pytest.raises(CorpusFormatError, match="line 2"):
            load_documents(path)
        # a non-list "tokens", "entities" or "noun_chunks" field is a format
        # error naming the line and the key, not a bare TypeError
        for key in ("tokens", "entities", "noun_chunks"):
            for bad in (None, 7):
                obj = json.loads(apple_line)
                obj[key] = bad
                write_lines(path, [apple_line, json.dumps(obj)])
                with pytest.raises(CorpusFormatError, match=f"^line 2: field '{key}' must be a list"):
                    load_documents(path)

    @pytest.mark.parametrize(
        "where,updates",
        [
            (("tokens", 3), {"head": 1.7}),
            (("tokens", 0), {"i": False}),
            (("entities", 0), {"start": True, "end": 2}),
            ((), {"id": None}),
            ((), {"text": None}),
        ],
        ids=["head-float", "index-false", "entity-start-true", "id-null", "text-null"],
    )
    def test_wrong_scalar_type_names_line(self, tmp_path, apple_line, where, updates):
        # int() and str() would accept each of these as 1, 0, 1 or "None"
        obj = json.loads(apple_line)
        target = obj
        for step in where:
            target = target[step]
        target.update(updates)
        path = tmp_path / "docs.jsonl"
        write_lines(path, [apple_line, json.dumps(obj)])
        key = next(iter(updates))
        with pytest.raises(CorpusFormatError, match=f"line 2: .*'{key}'"):
            load_documents(path)

    @pytest.mark.parametrize(
        "layer,row,message",
        [
            ("tokens", 7, "expected a JSON object, got int"),
            ("entities", [0, 1, "ORG"], "expected a JSON object, got list"),
            ("noun_chunks", {"start": 0, "end": 1}, "missing field 'root'"),
            ("tokens", dict(i=0, text="Apple", lemma="apple", pos="PROPN", dep="nsubj", head="1", sent=0),
             "field 'head' must be an integer, got '1'"),
        ],
        ids=["token-int", "entity-list", "chunk-missing-key", "token-head-string"],
    )
    def test_bad_row_names_line_and_key(self, tmp_path, apple_line, layer, row, message):
        obj = json.loads(apple_line)
        obj[layer][0] = row
        path = tmp_path / "docs.jsonl"
        write_lines(path, [apple_line, json.dumps(obj)])
        with pytest.raises(CorpusFormatError) as info:
            load_documents(path)
        assert str(info.value) == f"line 2: {message}"

    def test_duplicate_id_names_line(self, tmp_path, apple_line):
        path = tmp_path / "docs.jsonl"
        write_lines(path, [apple_line, apple_line])
        with pytest.raises(CorpusFormatError, match="line 2: duplicate document id 'apple-income'"):
            load_documents(path)

    def test_overlapping_entities_rejected(self, tmp_path, apple_line):
        obj = json.loads(apple_line)
        obj["entities"].append({"start": 0, "end": 2, "label": "PERSON"})
        path = tmp_path / "docs.jsonl"
        write_lines(path, [json.dumps(obj)])
        with pytest.raises(DocumentValidationError, match="overlap"):
            load_documents(path)

    @pytest.mark.parametrize(
        "layer,index,row,message",
        [
            ("entities", 0, {"start": 0, "end": 1, "label": "COMPANY"}, "entity [0,1): unknown label 'COMPANY'"),
            ("entities", 1, {"start": 6, "end": 10, "label": "MONEY"}, "entity [6,10): out of bounds for 9 tokens"),
            ("noun_chunks", 1, {"start": 2, "end": 5, "root": 5}, "noun chunk [2,5) root 5 out of bounds"),
            ("noun_chunks", 0, {"start": 0, "end": 3, "root": 0}, "noun chunks [0,3) and [2,5) overlap"),
        ],
        ids=["entity-label", "entity-bounds", "chunk-root-outside", "chunks-overlap"],
    )
    def test_bad_span_names_document(self, tmp_path, apple_line, layer, index, row, message):
        obj = json.loads(apple_line)
        obj[layer][index] = row
        path = tmp_path / "docs.jsonl"
        write_lines(path, [json.dumps(obj)])
        with pytest.raises(DocumentValidationError) as info:
            load_documents(path)
        assert str(info.value) == f"document 'apple-income': {message}"

    def test_entity_across_sentences_rejected(self, tmp_path, apple_line):
        # an entity lives in one sentence; the heuristics reach a span through
        # any of its tokens, so one crossing a boundary would relate across it
        obj = json.loads(apple_line)
        obj["tokens"][0].update(dep="ROOT", head=0)  # "Apple" becomes a sentence of its own
        for tok in obj["tokens"][1:]:
            tok["sent"] = 1
        obj["entities"] = [{"start": 0, "end": 2, "label": "ORG"}]
        path = tmp_path / "docs.jsonl"
        write_lines(path, [json.dumps(obj)])
        with pytest.raises(DocumentValidationError, match=r"entity \[0,2\): crosses a sentence boundary"):
            load_documents(path)

    def test_entity_text_uses_raw_text_spacing(self, apple_doc):
        assert [e.text for e in apple_doc.entities] == ["Apple", "$9.4 million"]

    def test_unlocatable_tokens_fall_back_to_joined_texts(self, tmp_path, apple_line):
        # "of" is not in the text after "income", so no span is cut from the
        # text, not even one whose tokens were all found first
        obj = json.loads(apple_line)
        obj["text"] = "Apple had a  net income: $9.4 million"
        path = tmp_path / "docs.jsonl"
        write_lines(path, [json.dumps(obj)])
        [doc] = load_documents(path)
        assert [e.text for e in doc.entities] == ["Apple", "$ 9.4 million"]
        assert [c.text for c in doc.noun_chunks] == ["Apple", "a net income"]


class TestLoadedTokens:
    def test_token_fields(self):
        assert Token._fields == ("index", "text", "lemma", "pos", "dep", "head", "sentence")

    def test_token_is_immutable(self, apple_doc):
        with pytest.raises(AttributeError):
            apple_doc.tokens[0].head = 0

    def test_tokens_equal_their_rows(self, documents, raw_lines):
        for doc in documents:
            rows = json.loads(raw_lines[doc.id])["tokens"]
            assert [tok._asdict() for tok in doc.tokens] == [
                dict(index=r["i"], text=r["text"], lemma=r["lemma"], pos=r["pos"], dep=r["dep"],
                     head=r["head"], sentence=r["sent"])
                for r in rows
            ]

    @pytest.mark.parametrize("field", ["pos", "dep", "text", "lemma"])
    def test_corpus_shares_each_token_string(self, documents, field):
        values = [getattr(tok, field) for doc in documents for tok in doc.tokens]
        assert len({id(v) for v in values}) == len(set(values))

    def test_corpus_shares_each_entity_label(self, documents):
        labels = [e.label for doc in documents for e in doc.entities]
        assert len({id(v) for v in labels}) == len(set(labels))


_BAD_VALUES = (None, True, False, 1.5, "x", [], {})
_NON_OBJECTS = (None, True, 1.5, "x", [], 7)


class TestMutatedDocuments:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_single_field_mutation_raises_only_documented_errors(self, data, documents, raw_lines,
                                                                  tmp_path_factory):
        # Drop a key, give a value another JSON type, or replace a token,
        # entity or chunk row with a non-object: a CorpusFormatError naming
        # the line.  A value of the same JSON type may only fail validation.
        doc = data.draw(st.sampled_from(documents))
        obj = json.loads(raw_lines[doc.id])
        layer = data.draw(st.sampled_from([None] + [k for k in ("tokens", "entities", "noun_chunks") if obj[k]]))
        record = obj
        if layer is not None:
            rows = obj[layer]
            i = data.draw(st.integers(0, len(rows) - 1))
            record = rows[i]
            if data.draw(st.booleans()):
                rows[i] = record = data.draw(st.sampled_from(_NON_OBJECTS))
        retyped = True
        if isinstance(record, dict):
            key = data.draw(st.sampled_from(sorted(record)))
            if data.draw(st.booleans()):
                del record[key]
            else:
                value = data.draw(st.sampled_from(_BAD_VALUES))
                retyped = type(value) is not type(record[key])
                record[key] = value
        valid = next(d for d in documents if d.id != doc.id)
        path = tmp_path_factory.getbasetemp() / "mutated-docs.jsonl"
        write_lines(path, [raw_lines[valid.id], json.dumps(obj)])
        if retyped:
            with pytest.raises(CorpusFormatError, match="^line 2: "):
                load_documents(path)
        else:
            try:
                load_documents(path)
            except DocumentValidationError as exc:
                assert str(exc).startswith("document ")


_GOLD_BYTES = FIXTURE_GOLD.read_bytes()
# a prediction file of the fixture gold's targets
_PREDICTION_BYTES = b"".join(
    json.dumps({"id": ex["id"], "predicted_text": ex["target_text"]}, ensure_ascii=False).encode() + b"\n"
    for ex in map(json.loads, _GOLD_BYTES.splitlines()))
_MUTATIONS = ("flip", "cut", "drop", "retype", "repeat", "bom", "surrogate", "separator")


class TestMutatedGoldSide:
    @pytest.mark.parametrize("reader, error, original", [
        (load_gold, CorpusFormatError, _GOLD_BYTES),
        (load_predictions, RecordError, _PREDICTION_BYTES),
    ], ids=["gold", "predictions"])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_one_mutation_raises_only_the_documented_error(self, reader, error, original, data,
                                                           tmp_path_factory):
        # One mutation of one line: the reader returns, or raises its documented
        # error naming a line of the file.  A mutation that breaks the line's
        # record always raises, naming that line (a repeat, the copy).
        lines = original.splitlines(keepends=True)
        i = data.draw(st.integers(0, len(lines) - 1), label="line")
        kind = data.draw(st.sampled_from(_MUTATIONS), label="mutation")
        fails_at = i + 1
        if kind == "flip":
            line = bytearray(lines[i])
            line[data.draw(st.integers(0, len(line) - 1))] ^= data.draw(st.integers(1, 255))
            lines[i] = bytes(line)
            fails_at = None
        elif kind == "cut":
            cut = data.draw(st.integers(0, len(lines[i]) - 2))  # the closing brace goes
            lines[i] = lines[i][:cut] + b"\n"
            if not cut:
                fails_at = None  # a blank line is skipped
        elif kind == "repeat":
            lines.insert(i + 1, lines[i])
            fails_at = i + 2
        elif kind == "bom":
            lines[i] = codecs.BOM_UTF8 + lines[i]
        elif kind == "separator":  # one gone from the target, which may still parse
            obj = json.loads(lines[i])
            key = "target_text" if reader is load_gold else "predicted_text"
            text = obj[key]
            cuts = [j for j, ch in enumerate(text) if ch in (RECORD_SEPARATOR, FIELD_SEPARATOR)]
            if cuts:
                j = data.draw(st.sampled_from(cuts))
                obj[key] = text[:j] + text[j + 1:]
            lines[i] = json.dumps(obj).encode() + b"\n"
            fails_at = None
        else:
            obj = json.loads(lines[i])
            key = data.draw(st.sampled_from(sorted(obj)), label="key")
            if kind == "drop":
                del obj[key]
            elif kind == "retype":
                obj[key] = data.draw(st.sampled_from([None, True, 1, 1.5, [], {}]))
            else:
                obj[key] += "\ud800"  # json.dumps writes it as the escape \ud800
            lines[i] = json.dumps(obj).encode() + b"\n"
        mutated = b"".join(lines)
        path = tmp_path_factory.getbasetemp() / f"mutated-{reader.__name__}.jsonl"
        path.write_bytes(mutated)
        try:
            reader(path)
        except error as exc:
            named = re.match(r"line (\d+): ", str(exc))
            assert named and 1 <= int(named[1]) <= len(mutated.rstrip(b"\n").split(b"\n")), str(exc)
            assert fails_at in (None, int(named[1])), str(exc)
        else:
            assert fails_at is None, kind


def _iter_all_documents(path):
    return list(corpus.iter_documents(path))


_REPEATED_KEY = pytest.mark.xfail(strict=True, reason="repeated JSON key: ROADMAP item 9")


@pytest.mark.parametrize("reader, error, original", [
    pytest.param(load_gold, CorpusFormatError, _GOLD_BYTES, marks=_REPEATED_KEY, id="gold"),
    pytest.param(load_predictions, RecordError, _PREDICTION_BYTES, marks=_REPEATED_KEY, id="predictions"),
    pytest.param(_iter_all_documents, CorpusFormatError, FIXTURE_CORPUS.read_bytes(), marks=_REPEATED_KEY,
                 id="documents"),
])
def test_repeated_key_names_its_line(tmp_path, reader, error, original):
    # the decoder keeps a repeated key's last value, so line 2 loads with its own id
    first, second = original.splitlines(keepends=True)[:2]
    path = tmp_path / "repeated.jsonl"
    path.write_bytes(first + b'{"id": "x", ' + second[1:])
    with pytest.raises(error, match=r"^line 2: "):
        reader(path)


def _quadratic_tree_check(tokens: list[Token]) -> str | None:
    """Root-count and cycle checks that walk every token's full head chain,
    O(n * depth): the reference for the validator's single memoised walk."""
    sentences: dict[int, list[Token]] = {}
    for tok in tokens:
        sentences.setdefault(tok.sentence, []).append(tok)
    for sent_id, sent_tokens in sentences.items():
        roots = [t for t in sent_tokens if t.head == t.index]
        if len(roots) != 1:
            return f"sentence {sent_id}: expected exactly one root, found {len(roots)}"
        for tok in sent_tokens:
            seen = {tok.index}
            cur = tok
            while cur.head != cur.index:
                cur = tokens[cur.head]
                if cur.index in seen:
                    return f"token {tok.index}: cyclic head chain"
                seen.add(cur.index)
    return None


@st.composite
def _head_graphs(draw, max_size: int = 8) -> list[Token]:
    """Sentences whose heads stay inside the sentence: random trees, trees
    with one head redirected, and arbitrary head maps (zero or many roots,
    cycles)."""
    tokens: list[Token] = []
    for sent in range(draw(st.integers(1, 4))):
        size = draw(st.integers(1, max_size))
        kind = draw(st.sampled_from(["tree", "mutated", "any"]))
        if kind == "any":
            heads = [draw(st.integers(0, size - 1)) for _ in range(size)]
        else:
            order = draw(st.permutations(range(size)))
            heads = [0] * size
            heads[order[0]] = order[0]
            for k in range(1, size):
                heads[order[k]] = order[draw(st.integers(0, k - 1))]
            if kind == "mutated":
                heads[draw(st.integers(0, size - 1))] = draw(st.integers(0, size - 1))
        off = len(tokens)
        for i, head in enumerate(heads):
            dep = "ROOT" if head == i else "dep"
            tokens.append(Token(off + i, "w", "w", "NOUN", dep, off + head, sent))
    return tokens


def _reference_validate(doc_id: str, tokens: list[Token], entities: list[tuple[int, int, str]],
                        chunks: list[tuple[int, int, int]]) -> None:
    """The validator with four token passes (per-token checks, contiguity,
    grouping by sentence, then a walk from each pre-marked root): the
    reference for the first error that the single walk reports."""
    n = len(tokens)

    def fail(msg: str) -> None:
        raise DocumentValidationError(f"document {doc_id!r}: {msg}")

    for pos_expected, tok in enumerate(tokens):
        if tok.index != pos_expected:
            fail(f"token index {tok.index} out of order (expected {pos_expected})")
        if tok.pos not in corpus.POS_TAGS:
            fail(f"token {tok.index}: unknown POS tag {tok.pos!r}")
        if not 0 <= tok.head < n:
            fail(f"token {tok.index}: head {tok.head} out of range for {n} tokens")
        if (tok.dep == corpus.ROOT_DEP) != (tok.head == tok.index):
            fail(f"token {tok.index}: dep {tok.dep!r} inconsistent with head {tok.head}")
        if tokens[tok.head].sentence != tok.sentence:
            fail(f"token {tok.index}: head crosses sentence boundary")
        if tok.sentence < 0:
            fail(f"token {tok.index}: negative sentence id")

    prev_sent = -1
    for tok in tokens:
        if tok.sentence not in (prev_sent, prev_sent + 1):
            fail(f"token {tok.index}: non-contiguous sentence id {tok.sentence}")
        prev_sent = tok.sentence

    sentences: dict[int, list[Token]] = {}
    for tok in tokens:
        sentences.setdefault(tok.sentence, []).append(tok)
    state = [0] * n
    for sent_id, sent_tokens in sentences.items():
        roots = [t for t in sent_tokens if t.head == t.index]
        if len(roots) != 1:
            fail(f"sentence {sent_id}: expected exactly one root, found {len(roots)}")
        state[roots[0].index] = 2
        for tok in sent_tokens:
            walk = []
            t = tok.index
            while state[t] == 0:
                state[t] = 1
                walk.append(t)
                t = tokens[t].head
            if state[t] == 1:
                fail(f"token {tok.index}: cyclic head chain")
            for t in walk:
                state[t] = 2

    spans = sorted(entities)
    for start, end, label in spans:
        if label not in corpus.ENTITY_LABELS:
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


_TOKEN_DEFECTS = ("index", "pos", "head", "root-flag", "negative-sentence", "skipped-sentence")


@st.composite
def _defective_documents(draw) -> list[Token]:
    """Head graphs of 1-4 sentences of 1-7 tokens (see ``_head_graphs``)
    with up to four token defects: an index off by one, an unknown POS, a
    head out of range or anywhere in the document, a flipped ROOT flag, a
    negative sentence id, or sentence ids that skip one from a token's
    sentence on."""
    tokens = draw(_head_graphs(max_size=7))
    n = len(tokens)
    for t, defect in draw(st.lists(st.tuples(st.integers(0, n - 1), st.sampled_from(_TOKEN_DEFECTS)),
                                   max_size=4)):
        tok = tokens[t]
        if defect == "index":
            tokens[t] = tok._replace(index=tok.index + draw(st.sampled_from([-1, 1])))
        elif defect == "pos":
            tokens[t] = tok._replace(pos="XX")
        elif defect == "head":
            tokens[t] = tok._replace(head=draw(st.integers(-1, n)))
        elif defect == "root-flag":
            tokens[t] = tok._replace(dep="dep" if tok.dep == "ROOT" else "ROOT")
        elif defect == "negative-sentence":
            tokens[t] = tok._replace(sentence=-1)
        else:
            while t and tokens[t - 1].sentence == tok.sentence:
                t -= 1
            tokens[t:] = [u._replace(sentence=u.sentence + 1) for u in tokens[t:]]
    return tokens


class TestTreeValidation:
    @given(_head_graphs())
    def test_linear_check_matches_quadratic_reference(self, tokens):
        expected = _quadratic_tree_check(tokens)
        if expected is None:
            corpus._validate_document("gen", tokens, [], [])
        else:
            with pytest.raises(DocumentValidationError) as info:
                corpus._validate_document("gen", tokens, [], [])
            assert str(info.value) == f"document 'gen': {expected}"

    # two roots in sentence 0, then a skipped sentence id: contiguity is checked first
    @example([Token(0, "w", "w", "NOUN", "ROOT", 0, 0), Token(1, "w", "w", "NOUN", "ROOT", 1, 0),
              Token(2, "w", "w", "NOUN", "ROOT", 2, 2)])
    # a cycle in sentence 0 and no root in sentence 1: the cycle comes first
    @example([Token(0, "w", "w", "NOUN", "ROOT", 0, 0), Token(1, "w", "w", "NOUN", "dep", 2, 0),
              Token(2, "w", "w", "NOUN", "dep", 1, 0), Token(3, "w", "w", "NOUN", "dep", 4, 1),
              Token(4, "w", "w", "NOUN", "dep", 3, 1)])
    @settings(max_examples=100, deadline=None)
    @given(_defective_documents())
    def test_first_error_matches_four_pass_reference(self, tokens):
        # several defects in one document: the same one is reported first
        try:
            _reference_validate("gen", tokens, [], [])
        except DocumentValidationError as exc:
            with pytest.raises(DocumentValidationError) as info:
                corpus._validate_document("gen", tokens, [], [])
            assert str(info.value) == str(exc)
        else:
            corpus._validate_document("gen", tokens, [], [])


class TestLoadGold:
    def test_sample_target(self, tmp_path):
        target = "Jumia, revenue, €41 million, Q4 2020| Jumia, revenue, €33.7 million, Q3 2020|"
        path = tmp_path / "gold.jsonl"
        write_lines(path, [json.dumps({"id": "1", "input_text": "t", "target_text": target})])
        examples = load_gold(path)
        assert examples == [GoldExample("1", "t", target)]

    def test_empty_target_is_legal(self, tmp_path):
        path = tmp_path / "gold.jsonl"
        write_lines(path, [json.dumps({"id": "1", "input_text": "t", "target_text": ""})])
        assert load_gold(path)[0].target_text == ""

    def test_missing_field_names_line(self, tmp_path):
        path = tmp_path / "gold.jsonl"
        write_lines(path, [json.dumps({"id": "1", "input_text": "t"})])
        with pytest.raises(CorpusFormatError, match="line 1"):
            load_gold(path)

    @pytest.mark.parametrize(
        "key,value", [("id", None), ("id", 5), ("input_text", 3), ("target_text", None)],
        ids=["id-null", "id-int", "input_text-int", "target_text-null"],
    )
    def test_non_string_field_names_line(self, tmp_path, key, value):
        # str() would load these as "None", "5", "3" and "None"
        row = dict({"id": "1", "input_text": "t", "target_text": ""}, **{key: value})
        path = tmp_path / "gold.jsonl"
        write_lines(path, [json.dumps({"id": "0", "input_text": "t", "target_text": ""}), json.dumps(row)])
        with pytest.raises(CorpusFormatError, match=f"line 2: field '{key}' must be a string"):
            load_gold(path)

    def test_malformed_line_names_line(self, tmp_path):
        path = tmp_path / "gold.jsonl"
        for bad in ("{not json", "[1, 2]"):
            write_lines(path, [json.dumps({"id": "1", "input_text": "t", "target_text": ""}), bad])
            with pytest.raises(CorpusFormatError, match="line 2"):
                load_gold(path)

    def test_duplicate_id_names_line(self, tmp_path):
        line = json.dumps({"id": "a", "input_text": "t", "target_text": ""})
        path = tmp_path / "gold.jsonl"
        write_lines(path, [line, line])
        with pytest.raises(CorpusFormatError, match="line 2: duplicate gold id 'a'"):
            load_gold(path)

    def test_unparsable_target_rejected(self, tmp_path):
        path = tmp_path / "gold.jsonl"
        write_lines(path, [json.dumps({"id": "1", "input_text": "t", "target_text": "a, b"})])
        with pytest.raises(CorpusFormatError, match="target_text"):
            load_gold(path)

    @pytest.mark.parametrize("target, message", [
        ("a, b", "record 'a, b' has fewer than four comma-separated fields"),
        ("Acme, revenu, $1, d|", "variable_name must be one of ('founder', 'country', 'revenue', "
         "'customers/users', 'investment'), got 'revenu'"),
        (" , revenue, $1, d", "company must be a non-empty string, got ''"),
        ("Acme, revenue, , d", "variable_value must be a non-empty string, got ''"),
        ("Acme, revenue, $1, ", "variable_date must be a non-empty string, got ''"),
        ("Acme, revenue, $1, d| x", "record 'x' has fewer than four comma-separated fields"),
        ("Acme, revenue, $1, March 3, 2021|Acme,,",
         "record 'Acme,,' has fewer than four comma-separated fields"),
        ("|| Acme ,  Founder , Jane, unknown-date ||", "variable_name must be one of ('founder', "
         "'country', 'revenue', 'customers/users', 'investment'), got 'Founder'"),
    ])
    def test_bad_target_message(self, tmp_path, target, message):
        path = tmp_path / "gold.jsonl"
        write_lines(path, [json.dumps({"id": "0", "input_text": "t", "target_text": ""}),
                           json.dumps({"id": "1", "input_text": "t", "target_text": target})])
        with pytest.raises(CorpusFormatError) as info:
            load_gold(path)
        assert str(info.value) == f"line 2: bad target_text ({message})"

    def test_valid_gold_builds_no_records(self, monkeypatch, tmp_path, gold_examples):
        built = []
        check = RelationRecord.__post_init__
        monkeypatch.setattr(RelationRecord, "__post_init__", lambda r: built.append(r) or check(r))
        path = tmp_path / "gold.jsonl"
        corpus.save_gold(gold_examples, path)
        assert len(load_gold(path)) == len(gold_examples)
        assert built == []
        parse(gold_examples[0].target_text)
        assert built  # the count sees the records parse builds

    def test_gold_round_trip(self, tmp_path, gold_examples):
        path = tmp_path / "gold.jsonl"
        corpus.save_gold(gold_examples, path)
        assert load_gold(path) == gold_examples


def _gold(i, target):
    return GoldExample(str(i), f"paragraph {i}", target)


def distinct_gold(n):
    return [_gold(i, f"Company{i}, revenue, ${i} million, unknown-date|") for i in range(n)]


@pytest.mark.parametrize(
    "target,informative",
    [("", False), ("  ", False), ("|", False), (" | ", False), ("| |", False),
     ("Acme, revenue, $1, unknown-date|", True), ("| Acme, revenue, $1, unknown-date", True)],
)
def test_is_informative(target, informative):
    assert is_informative(target) is informative
    assert bool(parse(target)) is informative


def _assert_no_leak(train, test):
    """No test example's record multiset is contained in a training example's."""
    for t in test:
        t_info = corpus._info_content(t)
        for r in train:
            assert not corpus._contained(t_info, corpus._info_content(r))


class TestSplitTrainTest:
    def test_ten_distinct_examples(self):
        gold = distinct_gold(10)
        train, test = split_train_test(gold, 0.2, seed=7)
        assert len(test) == 2
        assert len(train) == 8
        train_ids = {g.id for g in train}
        test_ids = {g.id for g in test}
        assert train_ids.isdisjoint(test_ids)
        assert train_ids | test_ids == {g.id for g in gold}
        _assert_no_leak(train, test)

    def test_identical_pair_is_infeasible(self):
        target = "Acme, revenue, $1 million, unknown-date|"
        gold = [_gold(0, target), _gold(1, target)]
        with pytest.raises(SplitInfeasibleError):
            split_train_test(gold, 0.5, seed=1)

    def test_contained_information_blocked_from_test(self):
        inner = "Acme, revenue, $1 million, unknown-date|"
        outer = inner + " Acme, country, Kenya, unknown-date|"
        gold = [_gold(0, inner), _gold(1, outer), _gold(2, "Beta, founder, Ada, unknown-date|")]
        for seed in range(20):
            _, test = split_train_test(gold, 0.34, seed=seed)
            # the inner example may never leave training while the outer one stays
            assert [g.id for g in test] != ["0"]

    def test_deterministic_for_fixed_seed(self):
        gold = distinct_gold(30)
        assert split_train_test(gold, 0.2, seed=3) == split_train_test(gold, 0.2, seed=3)

    def test_fraction_bounds(self):
        gold = distinct_gold(4)
        for bad in (0.0, 1.0, -0.1, 2.0):
            with pytest.raises(ValueError):
                split_train_test(gold, bad, seed=1)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            split_train_test([], 0.2, seed=1)

    def test_dedup_holds_over_random_corpora(self):
        rng = random.Random(99)
        for trial in range(30):
            size = rng.randint(4, 12)
            gold = distinct_gold(size)
            # inject duplicate-information examples: a case variant of one fact
            # and an inner-whitespace variant of another
            gold.append(_gold(size, gold[0].target_text.replace("Company", "COMPANY")))
            gold.append(_gold(size + 1, gold[1].target_text.replace(" million", "  million")))
            train, test = split_train_test(gold, 0.25, seed=trial)
            assert {g.id for g in train} | {g.id for g in test} == {g.id for g in gold}
            assert not {"0", "1", str(size), str(size + 1)} & {g.id for g in test}
            _assert_no_leak(train, test)

    def test_fraction_rounding_to_empty_test_set_rejected(self):
        # 20% of two examples rounds to zero: an empty test set is refused, not written
        with pytest.raises(ValueError, match=r"test_fraction 0\.2 of 2 examples"):
            split_train_test(distinct_gold(2), 0.2, seed=1)

    def test_fraction_rounding_to_every_example_rejected(self):
        # 96% of ten examples rounds to ten: an empty training side is refused too
        with pytest.raises(ValueError, match=r"test_fraction 0\.96 of 10 examples rounds to every example"):
            split_train_test(distinct_gold(10), 0.96, seed=1)


def _reference_split(gold, test_fraction, seed):
    """The all-pairs split: every candidate is compared with every example."""
    target = round(test_fraction * len(gold))
    info = [corpus._info_content(ex) for ex in gold]
    order = list(range(len(gold)))
    random.Random(seed).shuffle(order)
    picked = set()
    for idx in order:
        if len(picked) >= target:
            break
        if not any(other != idx and other not in picked and corpus._contained(info[idx], info[other])
                   for other in range(len(gold))):
            picked.add(idx)
    if not picked:
        raise SplitInfeasibleError("no test set satisfies the dedup constraint")
    return ([ex for i, ex in enumerate(gold) if i not in picked],
            [ex for i, ex in enumerate(gold) if i in picked])


# Few distinct records, each in spellings that normalise alike, so that
# drawn multisets are often equal, contained or respelled.
_SPELLINGS = [
    "Acme Corp, revenue, $1 million, unknown-date",
    "ACME CORP,  revenue, $1 MILLION, unknown-date",
    "acme  corp,revenue,$1   million , Unknown-Date",
    "Acme Corp, country, Kenya, Q1 2020",
    "acme corp, country,  KENYA, q1  2020",
    "Beta, founder, Ada Lovelace, March 3, 2021",
    "BETA, founder, ada  lovelace, march 3,  2021",
]
_TARGETS = st.one_of(
    st.sampled_from(["", "|", " | "]),
    st.lists(st.sampled_from(_SPELLINGS), min_size=1, max_size=3).map(lambda rs: "| ".join(rs) + "|"),
)
_GOLD_LISTS = st.lists(_TARGETS, min_size=1, max_size=9).map(
    lambda targets: [_gold(i, t) for i, t in enumerate(targets)])


@settings(max_examples=150, deadline=None)
@example([_gold(0, "|")], 0.9, 0)  # a fraction that rounds to the one example, an empty candidate
@given(_GOLD_LISTS, st.floats(0.05, 0.95), st.integers(0, 2**16))
def test_split_matches_all_pairs_reference(gold, fraction, seed):
    if round(fraction * len(gold)) in (0, len(gold)):
        with pytest.raises(ValueError, match="rounds to (an empty test set|every example)"):
            split_train_test(gold, fraction, seed)
        return
    try:
        want = _reference_split(gold, fraction, seed)
    except SplitInfeasibleError:
        with pytest.raises(SplitInfeasibleError):
            split_train_test(gold, fraction, seed)
        return
    assert split_train_test(gold, fraction, seed) == want


def _generated_gold(rng, n):
    """Half empty targets; 30% of the informative ones repeat an earlier
    example's records, some respelled, mostly plus one more record."""
    companies = [f"Company{k}" for k in range(max(8, n // 10))]

    def record():
        return f"{rng.choice(companies)}, revenue, ${rng.randint(1, 999)} million, Q{rng.randint(1, 4)} 2020"

    gold, informative = [], []
    for k in range(n):
        if rng.random() < 0.5:
            records = []
        elif informative and rng.random() < 0.3:
            records = [r.replace("Company", "COMPANY") if rng.random() < 0.3 else r
                       for r in rng.choice(informative)]
            if rng.random() < 0.8:
                records.insert(rng.randrange(len(records) + 1), record())
        else:
            records = [record() for _ in range(rng.randint(1, 3))]
        if records:
            informative.append(records)
        gold.append(_gold(k, "| ".join(records) + "|" if records else ""))
    return gold


def test_split_work_grows_linearly(monkeypatch):
    calls = []

    def counting(inner, outer):
        calls.append(1)
        return contained(inner, outer)

    contained = corpus._contained
    monkeypatch.setattr(corpus, "_contained", counting)
    counts = {}
    for n in (300, 1200):
        gold = _generated_gold(random.Random(5), n)
        calls.clear()
        split_train_test(gold, 0.2, seed=5)
        counts[n] = len(calls)
    # four times the examples may cost about four times the containment
    # tests; comparing every candidate with every example costs sixteen times
    assert 0 < counts[1200] <= 6 * counts[300]


class TestBalancedSubset:
    def test_equal_counts(self):
        informative = [_gold(i, f"C{i}, revenue, ${i}, unknown-date|") for i in range(100)]
        empty = [_gold(100 + i, "") for i in range(900)]
        subset = balanced_subset(informative + empty, seed=4)
        assert len(subset) == 200
        assert sum(1 for g in subset if g.target_text) == 100

    def test_shortfall_keeps_all_empties(self, caplog):
        informative = [_gold(i, f"C{i}, revenue, ${i}, unknown-date|") for i in range(5)]
        empty = [_gold(10 + i, "") for i in range(2)]
        with caplog.at_level(logging.WARNING, logger="finrelex.corpus"):
            subset = balanced_subset(informative + empty, seed=4)
        assert len(subset) == 7
        assert any("empty examples" in record.message for record in caplog.records)

    def test_no_informative_examples_rejected(self):
        with pytest.raises(ValueError):
            balanced_subset([_gold(0, ""), _gold(1, "")], seed=1)

    def test_separator_only_targets_count_as_empty(self):
        # "|" and " | " parse to no record, as the split and the scorer see them
        train = [_gold(0, "C0, revenue, $0, unknown-date|"), _gold(1, "|"), _gold(2, " | "), _gold(3, "")]
        subset = balanced_subset(train, seed=1)
        assert len(subset) == 2
        assert subset[0].id == "0"
        with pytest.raises(ValueError, match="no informative examples"):
            balanced_subset([_gold(0, "|"), _gold(1, " | ")], seed=1)

    def test_every_informative_example_kept_once(self):
        informative = [_gold(i, f"C{i}, revenue, ${i}, unknown-date|") for i in range(7)]
        empty = [_gold(100 + i, "") for i in range(50)]
        subset = balanced_subset(informative + empty, seed=8)
        kept = [g.id for g in subset if g.target_text]
        assert kept == [g.id for g in informative]

    def test_deterministic_sampling(self):
        train = [_gold(i, f"C{i}, revenue, ${i}, unknown-date|") for i in range(3)]
        train += [_gold(50 + i, "") for i in range(20)]
        assert balanced_subset(train, seed=2) == balanced_subset(train, seed=2)
        assert balanced_subset(train, seed=2) != balanced_subset(train, seed=3)
