import codecs
import logging
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from finrelex import semvec
from finrelex.semvec import (
    EmbeddingFormatError,
    EmbeddingTable,
    LexiconConfig,
    classify_money_phrase,
    classify_person_phrase,
    cosine,
    load_embeddings,
    load_lexicon,
    phrase_vector,
)


@pytest.fixture()
def tiny_table(tmp_path):
    path = tmp_path / "vectors.txt"
    path.write_text("income 1 0\nrevenue 1 0\nraised 0 1\n", encoding="utf-8")
    return load_embeddings(path)


class TestLoadEmbeddings:
    def test_three_word_table(self, tiny_table):
        assert tiny_table.dimension == 2
        assert sorted(tiny_table.vectors) == ["income", "raised", "revenue"]

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("", encoding="utf-8")
        with pytest.raises(EmbeddingFormatError, match="dimension"):
            load_embeddings(path)

    def test_inconsistent_dimension_names_line(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("a 1 0\nb 1 0\nc 1 0 0\n", encoding="utf-8")
        with pytest.raises(EmbeddingFormatError, match="line 3"):
            load_embeddings(path)

    def test_unparsable_value_rejected(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("a 1 zero\n", encoding="utf-8")
        with pytest.raises(EmbeddingFormatError, match="line 1"):
            load_embeddings(path)

    @pytest.mark.parametrize("text", ["revenue 1 0\nincome 0 1\n", "2 2\nrevenue 1 0\nincome 0 1\n"],
                             ids=["entries", "header"])
    def test_byte_order_mark_names_line_one(self, tmp_path, text):
        # read as a word, the mark would hide "revenue" or make the header an entry
        path = tmp_path / "vectors.txt"
        path.write_bytes(codecs.BOM_UTF8 + text.encode("utf-8"))
        with pytest.raises(EmbeddingFormatError, match="^line 1: unexpected UTF-8 byte-order mark$"):
            load_embeddings(path)

    def test_header_line_tolerated(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("2 3\na 1 0 0\nb 0 1 0\n", encoding="utf-8")
        table = load_embeddings(path)
        assert table.dimension == 3
        assert len(table.vectors) == 2

    def test_header_after_blank_lines_tolerated(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("\n  \n2 3\nfoo 1 2 3\nbar 0 1 0\n", encoding="utf-8")
        table = load_embeddings(path)
        assert table.dimension == 3
        assert sorted(table.vectors) == ["bar", "foo"]

    def test_only_first_non_blank_line_can_be_header(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("a 1\n2 3\n", encoding="utf-8")
        table = load_embeddings(path)
        assert sorted(table.vectors) == ["2", "a"]

    def test_duplicate_word_keeps_first(self, tmp_path, caplog):
        path = tmp_path / "vectors.txt"
        path.write_text("a 1 0\na 0 1\n", encoding="utf-8")
        with caplog.at_level(logging.WARNING, logger="finrelex.semvec"):
            table = load_embeddings(path)
        assert list(table.vectors["a"]) == [1.0, 0.0]
        assert any("duplicate" in r.message for r in caplog.records)

    def test_lookup_is_case_folded(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("Income 1 0\n", encoding="utf-8")
        table = load_embeddings(path)
        assert table.lookup("INCOME") is not None


def _reference_load(path):
    """The per-line loader: one float list and one array per entry."""
    vectors = {}
    dimension = None
    may_be_header = True
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            first, may_be_header = may_be_header, False
            if first and len(parts) == 2:
                try:
                    int(parts[0]), int(parts[1])
                except ValueError:
                    pass
                else:
                    continue
            word, values = parts[0].casefold(), parts[1:]
            if not values:
                raise EmbeddingFormatError(f"line {lineno}: entry {word!r} has no vector components")
            try:
                vec = np.array([float(v) for v in values], dtype=np.float64)
            except ValueError as exc:
                raise EmbeddingFormatError(f"line {lineno}: unparsable vector component ({exc})") from exc
            if not np.all(np.isfinite(vec)):
                raise EmbeddingFormatError(f"line {lineno}: non-finite vector component")
            if dimension is None:
                dimension = len(vec)
            elif len(vec) != dimension:
                raise EmbeddingFormatError(
                    f"line {lineno}: expected {dimension} components, found {len(vec)}"
                )
            if word in vectors:
                semvec.logger.warning("duplicate embedding for %r at line %d; keeping first", word, lineno)
                continue
            vectors[word] = vec
    if dimension is None:
        raise EmbeddingFormatError(f"{path}: no embedding entries, dimension undeterminable")
    return EmbeddingTable(dimension=dimension, vectors=vectors)


# Case variants that fold alike ("ß" and "SS" both fold to "ss"), and a
# numeric word that can pass for a header field.
_WORDS = ["a", "A", "b", "ss", "SS", "ß", "Straße", "STRASSE", "7"]
_GOOD = ["0", "1", "-2.5", ".5", "5.", "+3", "-0", "1e-320", "1_0", "١٢"]
_UNPARSABLE = ["1__0", "0x10", "abc"]
_NON_FINITE = ["nan", "-inf", "1e400"]
_HEADERS = ["4 {d}", "3 {d}", "2 x", "1_0 {d}", "١ {d}", "4", "4 {d} 1"]


@st.composite
def _embedding_files(draw):
    """Lines of an embedding file of width ``d``: mostly good entries, with
    headers, blank lines, duplicates, ragged and word-only rows, and
    unparsable and non-finite components mixed in."""
    d = draw(st.integers(1, 3))
    lines = []
    if draw(st.booleans()):
        lines.append(draw(st.sampled_from(["", "  "])))
    if draw(st.booleans()):
        lines.append(draw(st.sampled_from(_HEADERS)).format(d=d))
    for i in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["good"] * 6 + ["blank", "width", "bad"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", " \t "])))
            continue
        width = draw(st.sampled_from([0, d - 1, d + 1])) if kind == "width" else d
        values = draw(st.lists(st.sampled_from(_GOOD), min_size=width, max_size=width))
        if kind == "bad" and values:
            values[draw(st.integers(0, width - 1))] = draw(st.sampled_from(_UNPARSABLE + _NON_FINITE))
        word = draw(st.sampled_from(_WORDS)) if draw(st.booleans()) else f"w{i}"
        lines.append(" ".join([word, *values]))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


class _Messages(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages = []

    def emit(self, record):
        self.messages.append((record.levelname, record.getMessage()))


@contextmanager
def _warnings_of_semvec():
    handler = _Messages()
    level = semvec.logger.level
    semvec.logger.addHandler(handler)
    semvec.logger.setLevel(logging.WARNING)
    try:
        yield handler.messages
    finally:
        semvec.logger.removeHandler(handler)
        semvec.logger.setLevel(level)


def _outcome(load, path):
    with _warnings_of_semvec() as messages:
        try:
            table = load(path)
        except EmbeddingFormatError as exc:
            return ("error", str(exc)), messages
    return (table.dimension, [(w, v.tobytes()) for w, v in table.vectors.items()]), messages


@settings(max_examples=100, deadline=None)
@given(_embedding_files(), st.integers(1, 3))
# a word-only row right after the header, before any width is fixed
@example("4 2\na\nb 1 2\n", 1)
# a repeat inside one chunk; a non-finite and an unparsable row past the first chunk
@example("a 1\nx 1\nb 1\nB 2\n", 2)
@example("a 1\nb 1\nc nan\n", 1)
@example("a 1\nb 1\nc 1\nd x\n", 2)
def test_loader_matches_per_line_reference(tmp_path_factory, text, chunk_lines):
    path = tmp_path_factory.getbasetemp() / "differential-vectors.txt"
    path.write_text(text, encoding="utf-8")
    want = _outcome(_reference_load, path)
    with mock.patch.object(semvec, "CHUNK_LINES", chunk_lines):
        assert _outcome(load_embeddings, path) == want


def test_table_rows_share_one_matrix(tmp_path):
    path = tmp_path / "vectors.txt"
    path.write_text("a 1 0\nb 0 1\n", encoding="utf-8")
    table = load_embeddings(path)
    assert len(table.vectors) == 2 and "a" in table.vectors and "c" not in table.vectors
    assert table.lookup("B").base is table.lookup("a").base is not None
    assert table.vectors.get("c") is None
    with pytest.raises(TypeError):
        table.vectors["c"] = np.zeros(2)


class TestPhraseVector:
    def test_single_word(self, tiny_table):
        vec = phrase_vector(tiny_table, "income")
        assert list(vec) == [1.0, 0.0]

    def test_mean_of_two_words(self, tiny_table):
        vec = phrase_vector(tiny_table, "income raised")
        assert list(vec) == [0.5, 0.5]

    def test_fully_oov_phrase(self, tiny_table):
        assert phrase_vector(tiny_table, "zzz qqq") is None

    def test_oov_tokens_skipped(self, tiny_table):
        vec = phrase_vector(tiny_table, "a net income")
        assert list(vec) == [1.0, 0.0]


class TestCosine:
    def test_identical(self):
        assert cosine(np.array([1.0, 0.0]), np.array([1.0, 0.0])) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(0.0)

    def test_forty_five_degrees(self):
        value = cosine(np.array([1.0, 1.0]), np.array([1.0, 0.0]))
        assert value == pytest.approx(2 ** -0.5, abs=1e-6)
        assert value == pytest.approx(0.7071, abs=1e-4)

    def test_zero_vector_warns_and_returns_zero(self, caplog):
        with caplog.at_level(logging.WARNING, logger="finrelex.semvec"):
            value = cosine(np.zeros(2), np.array([1.0, 0.0]))
        assert value == 0.0
        assert any("zero vector" in r.message for r in caplog.records)

    def test_symmetry(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            u, v = rng.normal(size=3), rng.normal(size=3)
            assert cosine(u, v) == pytest.approx(cosine(v, u))


class TestClassifyMoneyPhrase:
    def test_lexicon_word_classifies_itself(self, tiny_table, lexicon):
        assert classify_money_phrase(tiny_table, lexicon, "income") == "revenue"

    def test_investment_word(self, tiny_table, lexicon):
        assert classify_money_phrase(tiny_table, lexicon, "raised") == "investment"

    def test_oov_phrase_is_unknown(self, tiny_table, lexicon):
        assert classify_money_phrase(tiny_table, lexicon, "zzz") == "unknown"

    def test_net_income_phrase_is_revenue(self, toy_table, lexicon):
        assert classify_money_phrase(toy_table, lexicon, "a net income") == "revenue"

    def test_equidistant_tie_is_unknown(self, tmp_path, lexicon):
        path = tmp_path / "vectors.txt"
        path.write_text("income 1 0\nraised 0 1\nmid 1 1\n", encoding="utf-8")
        table = load_embeddings(path)
        assert classify_money_phrase(table, lexicon, "mid") == "unknown"

    def test_below_threshold_is_unknown(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("income 1 0\nraised 0 1\nfar 1 1\n", encoding="utf-8")
        table = load_embeddings(path)
        lex = LexiconConfig(threshold=0.9)
        # cosine(far, income) ~ 0.707 < 0.9
        assert classify_money_phrase(table, lex, "far") == "unknown"

    def test_threshold_is_strict(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("income 1 0\nraised 0 1\nhalf 1 0\n", encoding="utf-8")
        table = load_embeddings(path)
        lex = LexiconConfig(threshold=1.0)
        # similarity exactly 1.0 does not exceed a threshold of 1.0
        assert classify_money_phrase(table, lex, "half") == "unknown"

    def test_fully_oov_group_never_wins_at_threshold_zero(self, tmp_path):
        # an out-of-vocabulary group scores below every similarity, so the
        # other group's best word alone decides against the threshold
        path = tmp_path / "vectors.txt"
        path.write_text("income 1 0\nraised 0 1\nboth 1 1\ndown -1 -1\n", encoding="utf-8")
        table = load_embeddings(path)
        no_investment = LexiconConfig(investment_words=("zzz",), threshold=0.0)
        no_revenue = LexiconConfig(revenue_words=("zzz",), threshold=0.0)
        assert classify_money_phrase(table, no_investment, "both") == "revenue"
        assert classify_money_phrase(table, no_revenue, "both") == "investment"
        # similarity 0.0 to the only in-vocabulary word does not exceed 0.0
        assert classify_money_phrase(table, no_investment, "raised") == "unknown"
        assert classify_money_phrase(table, no_revenue, "down") == "unknown"

    def test_scale_invariance(self, toy_table, lexicon):
        phrases = ["a net income", "raised", "$10 million", "the founder of", "zzz"]
        scaled = EmbeddingTable(
            dimension=toy_table.dimension,
            vectors={w: 3.7 * v for w, v in toy_table.vectors.items()},
        )
        for phrase in phrases:
            assert classify_money_phrase(toy_table, lexicon, phrase) == classify_money_phrase(
                scaled, lexicon, phrase
            )


class TestClassifyPersonPhrase:
    def test_founder_context(self, toy_table, lexicon):
        verdict = classify_person_phrase(toy_table, lexicon, "Olu Agboola", "the founder of")
        assert verdict == "founder"

    def test_oov_name_without_context(self, toy_table, lexicon):
        assert classify_person_phrase(toy_table, lexicon, "Xqz Bvk", "") == "other"

    def test_fully_oov_founder_lexicon_at_threshold_zero(self, toy_table):
        lex = LexiconConfig(founder_words=("zzz",), threshold=0.0)
        assert classify_person_phrase(toy_table, lex, "Olu Agboola", "the founder of") == "other"

    def test_unrelated_context(self, toy_table, lexicon):
        verdict = classify_person_phrase(toy_table, lexicon, "Xqz Bvk", "the driver of")
        assert verdict == "other"


class TestLexiconConfig:
    def test_defaults_match_standard_word_lists(self, lexicon):
        assert lexicon.revenue_words == ("revenue", "income", "earnings", "proceeds", "returns", "made")
        assert lexicon.investment_words == ("raised", "investment", "received", "equity")
        assert lexicon.threshold == 0.5

    def test_overlapping_lists_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            LexiconConfig(revenue_words=("income",), investment_words=("income", "raised"))

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            LexiconConfig(revenue_words=())

    def test_load_lexicon_overrides(self, tmp_path):
        path = tmp_path / "lexicon.json"
        path.write_text(
            '{"revenue_words": ["sales"], "threshold": 0.7}', encoding="utf-8"
        )
        lex = load_lexicon(path)
        assert lex.revenue_words == ("sales",)
        assert lex.threshold == 0.7
        assert lex.investment_words == ("raised", "investment", "received", "equity")

    @pytest.mark.parametrize("value", ['"revenue"', '["sales", 3]', "null"])
    def test_load_lexicon_rejects_non_list_words(self, tmp_path, value):
        path = tmp_path / "lexicon.json"
        path.write_text(f'{{"revenue_words": {value}}}', encoding="utf-8")
        with pytest.raises(EmbeddingFormatError, match="'revenue_words' must be a list of strings"):
            load_lexicon(path)

    @pytest.mark.parametrize("value", ['"0.7"', "true", "null", "[1]"])
    def test_load_lexicon_rejects_non_number_threshold(self, tmp_path, value):
        # float() would load "0.7" as 0.7 and true as 1.0, and raise a bare
        # TypeError for null and [1]
        path = tmp_path / "lexicon.json"
        path.write_text(f'{{"threshold": {value}}}', encoding="utf-8")
        with pytest.raises(EmbeddingFormatError, match="'threshold' must be a number"):
            load_lexicon(path)

    def test_load_lexicon_rejects_unknown_key(self, tmp_path):
        # a misspelt key used to load silently with the default threshold
        path = tmp_path / "lexicon.json"
        path.write_text('{"treshold": 0.99}', encoding="utf-8")
        with pytest.raises(EmbeddingFormatError, match="'treshold' is not a lexicon field"):
            load_lexicon(path)

    def test_load_lexicon_integer_threshold(self, tmp_path):
        path = tmp_path / "lexicon.json"
        path.write_text('{"threshold": 1}', encoding="utf-8")
        assert load_lexicon(path).threshold == 1.0

    def test_load_lexicon_rejects_non_object(self, tmp_path):
        path = tmp_path / "lexicon.json"
        path.write_text("[]", encoding="utf-8")
        with pytest.raises(EmbeddingFormatError) as info:
            load_lexicon(path)
        assert str(info.value) == f"{path}: expected a JSON object, got list"

    def test_load_lexicon_rejects_bad_json(self, tmp_path):
        path = tmp_path / "lexicon.json"
        path.write_text("not json", encoding="utf-8")
        with pytest.raises(EmbeddingFormatError):
            load_lexicon(path)


class TestCommittedToyTable:
    def test_money_chunk_classifies_investment(self, toy_table, lexicon):
        # "$10 million" reduces to the "million" vector, which sits in the
        # investment cluster like it does in financial news embeddings
        assert classify_money_phrase(toy_table, lexicon, "$10 million") == "investment"

    def test_revenue_chunk(self, toy_table, lexicon):
        assert classify_money_phrase(toy_table, lexicon, "a revenue") == "revenue"

    def test_lexicon_words_classify_as_their_own_group(self, toy_table, lexicon):
        for word in lexicon.revenue_words:
            if toy_table.lookup(word) is not None:
                assert classify_money_phrase(toy_table, lexicon, word) == "revenue", word
        for word in lexicon.investment_words:
            if toy_table.lookup(word) is not None:
                assert classify_money_phrase(toy_table, lexicon, word) == "investment", word

    def test_no_nan_or_inf(self, toy_table):
        for vec in toy_table.vectors.values():
            assert np.all(np.isfinite(vec))
            assert len(vec) == toy_table.dimension
