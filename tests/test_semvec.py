import codecs
import logging
import math
import os
import random
import tempfile
import threading
import tracemalloc
import warnings
import zlib
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from finrelex import corpus, relex, semvec
from finrelex.deptree import TreeView
from finrelex.semvec import (
    EmbeddingFormatError,
    EmbeddingTable,
    LexiconConfig,
    classify_money_phrase,
    classify_person_phrase,
    load_embeddings,
    load_lexicon,
    phrase_vector,
)

from tests.conftest import FIXTURE_CORPUS, TOY_EMBEDDINGS, table_of


@pytest.fixture()
def tiny_table(tmp_path):
    path = tmp_path / "vectors.txt"
    path.write_text("income 1 0\nrevenue 1 0\nraised 0 1\n", encoding="utf-8")
    return load_embeddings(path)


class TestLoadEmbeddings:
    def test_three_word_table(self, tiny_table):
        assert tiny_table.vectors.shape[1] == 2
        assert sorted(tiny_table.index) == ["income", "raised", "revenue"]

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
        assert table.vectors.shape[1] == 3
        assert len(table.vectors) == 2

    def test_header_after_blank_lines_tolerated(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("\n  \n2 3\nfoo 1 2 3\nbar 0 1 0\n", encoding="utf-8")
        table = load_embeddings(path)
        assert table.vectors.shape[1] == 3
        assert sorted(table.index) == ["bar", "foo"]

    def test_only_first_non_blank_line_can_be_header(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("a 1\n2 3\n", encoding="utf-8")
        table = load_embeddings(path)
        assert sorted(table.index) == ["2", "a"]

    def test_duplicate_word_keeps_first(self, tmp_path, caplog):
        path = tmp_path / "vectors.txt"
        path.write_text("a 1 0\na 0 1\n", encoding="utf-8")
        with caplog.at_level(logging.WARNING, logger="finrelex.semvec"):
            table = load_embeddings(path)
        assert list(table.lookup("a")) == [1.0, 0.0]
        assert any("duplicate" in r.message for r in caplog.records)

    def test_lookup_is_case_folded(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("Income 1 0\n", encoding="utf-8")
        table = load_embeddings(path)
        assert table.lookup("INCOME") is not None


def _reference_load(path):
    """The per-line loader: one float list per entry."""
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
                vec = [float(v) for v in values]
            except ValueError as exc:
                raise EmbeddingFormatError(f"line {lineno}: unparsable vector component ({exc})") from exc
            if not all(math.isfinite(x) for x in vec):
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
    return table_of(vectors)


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
    return (table.vectors.shape, list(table.index.items()), table.vectors.tobytes()), messages


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
    # a cache home of this example's own: Hypothesis replays and shrinks
    # reuse texts, and the first load must parse at this chunk size
    with tempfile.TemporaryDirectory(dir=tmp_path_factory.getbasetemp()) as home, \
            mock.patch.dict(os.environ, XDG_CACHE_HOME=home), \
            mock.patch.object(semvec, "CHUNK_LINES", chunk_lines):
        assert _outcome(load_embeddings, path) == want
        # only a table that loaded without a warning is cached; its second load reads the entry back
        cached = want[0][0] != "error" and not want[1]
        assert len(list(Path(home).glob("finrelex/*"))) == int(cached)
        assert _outcome(load_embeddings, path) == want


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    """An empty cache home; returns the directory that holds the entries."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    return tmp_path / "cache" / "finrelex"


def _entries(cache_dir):
    return sorted(cache_dir.iterdir()) if cache_dir.exists() else []


def test_table_rows_share_one_matrix(tmp_path, cache_dir):
    path = tmp_path / "vectors.txt"
    path.write_text("a 1 0\nb 0 1\n", encoding="utf-8")
    for _ in range(2):  # the parse, then the cache entry read back
        table = load_embeddings(path)
        assert table.lookup("B").obj is table.lookup("a").obj is table.vectors.obj
        assert table.lookup("B").tolist() == [0.0, 1.0]
        assert table.lookup("c") is None
        assert sorted(table.index.values()) == list(range(len(table.vectors)))
    assert len(_entries(cache_dir)) == 1


def _without_columns(entry):
    """``entry``, of a 2 x 2 table, with its header saying 0 columns and its matrix left out."""
    header, rest = entry.split(b"\n", 1)
    size = int(header.split()[-3])
    return header[:-len(b" 2 2")] + b" 2 0\n" + rest[:size] + rest[size + 32:]


def _flipped(section):
    """A damage that flips one bit of ``section`` (the first byte of the
    word lengths or the order array, or the last of the trailer's CRC) of an
    entry of a 2 x 2 table."""

    def damage(entry):
        header = entry.index(b"\n") + 1
        lengths = header + int(entry[:header].split()[-3]) + 32
        at = {"lengths": lengths, "order": lengths + 24, "crc": len(entry) - 1}[section]
        return entry[:at] + bytes([entry[at] ^ 1]) + entry[at + 1:]

    return damage


class TestEmbeddingCache:
    def test_hit_equals_the_parse(self, tmp_path, cache_dir):
        path = tmp_path / "vectors.txt"
        path.write_bytes(b"2 4\n" + TOY_EMBEDDINGS.read_bytes() + b"\nStra\xc3\x9fe -0 1e-320 2.5 3\n")
        parsed = load_embeddings(path)
        [entry] = _entries(cache_dir)
        with mock.patch.object(semvec, "_parse", side_effect=AssertionError("parsed again")):
            hit = load_embeddings(path)
        assert list(hit.index.items()) == list(parsed.index.items())
        assert hit.vectors.tolist() == parsed.vectors.tolist()
        assert hit.vectors.tobytes() == parsed.vectors.tobytes()  # -0.0 stays -0.0
        assert hit.vectors.format == "d" and hit.vectors.shape == parsed.vectors.shape == (18, 4)
        assert hit.vectors.c_contiguous
        assert hit.lookup("strasse") is not None
        assert _entries(cache_dir) == [entry]

    @pytest.mark.parametrize("edited", ["a 1.6 0\nb 0 1\n", "a 1.5 0\nb 0 1\nc 1 1\n"], ids=["digit", "appended"])
    def test_edited_table_misses(self, tmp_path, cache_dir, edited):
        path = tmp_path / "vectors.txt"
        path.write_text("a 1.5 0\nb 0 1\n", encoding="utf-8")
        load_embeddings(path)
        [entry] = _entries(cache_dir)
        old = entry.read_bytes()
        path.write_text(edited, encoding="utf-8")
        assert list(load_embeddings(path).lookup("a")) == [float(edited.split()[1]), 0.0]
        # the edited table's entry takes the old one's place
        assert _entries(cache_dir) == [entry]
        rewritten = entry.read_bytes()
        assert rewritten != old
        # the old table's entry put back is a miss again, and is rewritten
        entry.write_bytes(old)
        table = load_embeddings(path)
        assert list(table.index) == [line.split()[0] for line in edited.splitlines()]
        assert list(table.lookup("a")) == [float(edited.split()[1]), 0.0]
        assert entry.read_bytes() == rewritten

    def test_duplicate_word_warns_on_each_load_and_is_not_cached(self, tmp_path, cache_dir, caplog):
        path = tmp_path / "vectors.txt"
        path.write_text("a 1 0\na 0 1\n", encoding="utf-8")
        for _ in range(2):
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="finrelex.semvec"):
                assert list(load_embeddings(path).lookup("a")) == [1.0, 0.0]
            assert [r.getMessage() for r in caplog.records] == [
                "duplicate embedding for 'a' at line 2; keeping first"]
        assert _entries(cache_dir) == []

    @pytest.mark.parametrize("data", [b"a 1 0\nb 1\n", b"a 1\nb x\n", b"", codecs.BOM_UTF8 + b"a 1\n",
                                      b"a \xff\n"], ids=["width", "unparsable", "empty", "bom", "not-utf8"])
    def test_malformed_table_raises_the_same_error_again(self, tmp_path, cache_dir, data):
        path = tmp_path / "vectors.txt"
        path.write_bytes(data)
        messages = []
        for _ in range(2):
            with pytest.raises(EmbeddingFormatError) as raised:
                load_embeddings(path)
            messages.append(str(raised.value))
        assert messages[0] == messages[1]
        assert _entries(cache_dir) == []

    @pytest.mark.parametrize("damage", [
        lambda b: b[:-1], lambda b: b[: len(b) // 2], lambda b: b"garbage\n", lambda b: b"",
        lambda b: b.replace(semvec._ENTRY_VERSION, b"finrelex-embeddings 0"),
        # a header whose sizes do not add up is refused before any allocation
        lambda b: b.replace(b" 2 2\n", b" 2 %d\n" % 2**57, 1),
        # a matrix of no columns, its words right after the table's bytes
        _without_columns,
        # a word cut, repeated or added changes the entry's size or the CRC of its index sections
        lambda b: b[: b.rindex(b"b\n")], lambda b: b.replace(b"\nb\n", b"\na\n"), lambda b: b + b"c\n",
        # a flipped bit in the word index, or in the CRC the trailer holds for it, fails the CRC check
        _flipped("lengths"), _flipped("order"), _flipped("crc"),
    ], ids=["last-byte-cut", "halved", "garbage", "empty", "other-version", "huge-width", "no-width",
            "missing-word", "repeated-word", "extra-word", "flipped-length", "flipped-order", "wrong-crc"])
    def test_damaged_entry_is_a_miss_that_is_rewritten(self, tmp_path, cache_dir, damage):
        path = tmp_path / "vectors.txt"
        path.write_text("a 1 0\nb 0 1\n", encoding="utf-8")
        parsed = load_embeddings(path)
        [entry] = _entries(cache_dir)
        good = entry.read_bytes()
        entry.write_bytes(damage(good))
        again = load_embeddings(path)
        assert list(again.index.items()) == list(parsed.index.items())
        assert again.vectors.tobytes() == parsed.vectors.tobytes()
        assert entry.read_bytes() == good

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
    def test_unusable_cache_home_logs_nothing_above_debug(self, tmp_path, monkeypatch, caplog, under):
        home = tmp_path / "file"
        home.write_text("kept\n", encoding="utf-8")
        monkeypatch.setenv("XDG_CACHE_HOME", str(home / "x" if under else home))
        path = tmp_path / "vectors.txt"
        path.write_text("a 1 0\nb 0 1\n", encoding="utf-8")
        with caplog.at_level(logging.DEBUG, logger="finrelex.semvec"):
            for _ in range(2):
                assert list(load_embeddings(path).lookup("b")) == [0.0, 1.0]
        assert caplog.records and {r.levelno for r in caplog.records} == {logging.DEBUG}
        assert home.read_text(encoding="utf-8") == "kept\n"

    @pytest.mark.parametrize("value", ["", "relative/cache"], ids=["empty", "relative"])
    def test_cache_home_must_be_absolute(self, tmp_path, monkeypatch, value):
        # the XDG rule: an empty or relative XDG_CACHE_HOME is ignored for ~/.cache
        monkeypatch.setenv("XDG_CACHE_HOME", value)
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "vectors.txt"
        path.write_text("a 1 0\n", encoding="utf-8")
        load_embeddings(path)
        assert len(_entries(tmp_path / "home" / ".cache" / "finrelex")) == 1
        assert not (tmp_path / "relative").exists()

    def test_fifo_table_is_read_once_and_not_cached(self, tmp_path, cache_dir):
        fifo = tmp_path / "vectors.fifo"
        os.mkfifo(fifo)

        def feed():
            with open(fifo, "wb") as fh:
                fh.write(b"a 1 0\nb 0 1\n")

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        table = load_embeddings(fifo)
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert list(table.index.items()) == [("a", 0), ("b", 1)]
        assert table.vectors.tolist() == [[1.0, 0.0], [0.0, 1.0]]
        assert _entries(cache_dir) == []

    def test_one_entry_per_table_path(self, tmp_path, cache_dir):
        path, link, copy = tmp_path / "vectors.txt", tmp_path / "link.txt", tmp_path / "copy.txt"
        path.write_bytes(b"a 1 0\nb 0 1\n")
        link.symlink_to(path)
        copy.write_bytes(path.read_bytes())
        load_embeddings(path)
        [entry] = _entries(cache_dir)
        assert entry.name == f"embeddings-{zlib.crc32(os.fsencode(path.resolve())):08x}"
        with mock.patch.object(semvec, "_parse", side_effect=AssertionError("parsed again")):
            load_embeddings(link)  # a symlink reads its target's entry
        load_embeddings(copy)
        assert len(_entries(cache_dir)) == 2

    def test_only_the_newest_entries_are_kept(self, tmp_path, cache_dir):
        written = []
        for i in range(semvec._KEPT_ENTRIES + 1):
            path = tmp_path / f"vectors-{i}.txt"
            path.write_text(f"a {i} 1\n", encoding="utf-8")
            load_embeddings(path)
            entry = semvec._entry_path(path)
            os.utime(entry, ns=(i * 10**9, i * 10**9))  # an older entry for each earlier table
            written.append(entry)
        # writing the last entry deleted the oldest one
        assert _entries(cache_dir) == sorted(written[1:])

    def test_table_rewritten_during_its_parse_is_not_cached(self, tmp_path, cache_dir, caplog):
        path = tmp_path / "vectors.txt"
        path.write_text("a 1 0\nb 0 1\n", encoding="utf-8")
        parse = semvec._parse

        def parse_then_rewrite(fh, name):
            parsed = parse(fh, name)
            path.write_text("a 7 0\nb 0 7\n", encoding="utf-8")  # same size, other bytes
            return parsed

        with mock.patch.object(semvec, "_parse", parse_then_rewrite), \
                caplog.at_level(logging.DEBUG, logger="finrelex.semvec"):
            assert list(load_embeddings(path).lookup("a")) == [1.0, 0.0]
        assert _entries(cache_dir) == []
        assert "the table changed while it was parsed" in caplog.text
        assert list(load_embeddings(path).lookup("a")) == [7.0, 0.0]
        assert len(_entries(cache_dir)) == 1

    def test_hit_makes_no_copy_of_the_matrix(self, tmp_path, cache_dir):
        rng = random.Random(5)
        path = tmp_path / "vectors.txt"
        path.write_text("".join(f"w{i} " + " ".join(repr(rng.uniform(-1, 1)) for _ in range(64)) + "\n"
                                for i in range(2000)), encoding="utf-8")
        parsed = load_embeddings(path)
        assert parsed.vectors.nbytes == 1_024_000
        with mock.patch.object(semvec, "_parse", side_effect=AssertionError("parsed again")):
            tracemalloc.start()
            try:
                hit = load_embeddings(path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert hit.vectors.tobytes() == parsed.vectors.tobytes()
        assert peak < parsed.vectors.nbytes // 2

    def test_hit_builds_no_per_word_objects(self, tmp_path, cache_dir):
        words = 20_000
        path = tmp_path / "vectors.txt"
        path.write_text("".join(f"w{i} {i} -{i}\n" for i in range(words)), encoding="utf-8")
        parsed = load_embeddings(path)
        with mock.patch.object(semvec, "_parse", side_effect=AssertionError("parsed again")):
            tracemalloc.start()
            try:
                hit = load_embeddings(path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # under 16 bytes a word, where a str alone takes more than 40
        assert peak < words * 16
        assert not isinstance(hit.index, dict) and len(hit.index) == words
        assert hit.lookup("W19999").tolist() == parsed.lookup("w19999").tolist() == [19999.0, -19999.0]

    def test_mapped_table_outlives_its_entry(self, tmp_path, cache_dir, lexicon):
        path = tmp_path / "vectors.txt"
        path.write_bytes(TOY_EMBEDDINGS.read_bytes())
        parsed = load_embeddings(path)
        with mock.patch.object(semvec, "_parse", side_effect=AssertionError("parsed again")):
            hit = load_embeddings(path)
        assert parsed.vectors.readonly and hit.vectors.readonly
        money, person = _classified_phrases(parsed, lexicon)

        def rows_and_verdicts(table):
            clf = semvec.Classifier(table, lexicon)  # a new one, so every verdict is worked out again
            rows = {word: table.lookup(word).tolist() for word in table.index}
            return rows, [clf.money(p) for p in money], [clf.person(p, c) for p, c in person]

        before = rows_and_verdicts(hit)
        assert before == rows_and_verdicts(parsed)
        [entry] = _entries(cache_dir)
        mapped = entry.stat().st_ino
        # an edited table misses, and its entry replaces the mapped one by rename
        path.write_bytes(TOY_EMBEDDINGS.read_bytes() + b"extra 1 0 0 0\n")
        assert load_embeddings(path).lookup("extra").tolist() == [1.0, 0.0, 0.0, 0.0]
        assert _entries(cache_dir) == [entry] and entry.stat().st_ino != mapped
        # newer entries evict it
        os.utime(entry, ns=(0, 0))
        for i in range(semvec._KEPT_ENTRIES):
            other = tmp_path / f"other-{i}.txt"
            other.write_text(f"a {i} 1\n", encoding="utf-8")
            load_embeddings(other)
        assert entry not in _entries(cache_dir)
        assert rows_and_verdicts(hit) == before

    def test_stamp_covers_both_parsing_modules(self):
        src = Path(semvec.__file__)
        crc = zlib.crc32(src.with_name("_fileio.py").read_bytes(), zlib.crc32(src.read_bytes()))
        assert semvec._entry_stamp().endswith(b" src-%08x" % crc)


# Words that sort between others, one a prefix of another, and non-ASCII
# ones, which sort after every ASCII word; "Straße" folds to "strasse".  The
# example adds absent words between present ones and a miss asked for twice.
_VOCABULARY = ["a", "ab", "abc", "b", "c", "z", "é", "éa", "ß", "Straße", "strass", "ω", "日本"]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(_VOCABULARY), min_size=1, unique_by=str.casefold),
       st.lists(st.sampled_from(_VOCABULARY) | st.text("abzéß", min_size=1, max_size=3)))
# a lone surrogate, which no UTF-8 table holds and no UTF-8 key can stand for
@example(["a", "ab", "c", "é", "Straße"],
         ["b", "b", "aa", "a", "ab", "abc", "é", "straße", "strasse", "zz", "\ud800"])
def test_mapped_lookups_equal_dict_lookups(tmp_path_factory, vocabulary, probes):
    path = tmp_path_factory.getbasetemp() / "mapped-vectors.txt"
    path.write_text("".join(f"{word} {row} 1\n" for row, word in enumerate(vocabulary)), encoding="utf-8")
    words = [*vocabulary, *probes, *(word.casefold() for word in vocabulary)]
    # a cache home of this example's own, so its first load parses
    with tempfile.TemporaryDirectory(dir=tmp_path_factory.getbasetemp()) as home, \
            mock.patch.dict(os.environ, XDG_CACHE_HOME=home):
        parsed = load_embeddings(path)
        with mock.patch.object(semvec, "_parse", side_effect=AssertionError("parsed again")):
            hit = load_embeddings(path)
        with mock.patch.object(semvec._MappedIndex, "_word", autospec=True,
                               side_effect=semvec._MappedIndex._word) as key:
            for word in words:
                before = key.call_count
                assert hit.index.get(word) == parsed.index.get(word)
                # a binary search, then one compare
                assert key.call_count - before <= len(vocabulary).bit_length() + 1
        assert list(hit.index.items()) == list(parsed.index.items())
        assert all(hit.lookup(word) == parsed.lookup(word) for word in words)


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

    def test_components_are_added_left_to_right(self, tmp_path):
        # (1e16 + 1.0) rounds to 1e16, so the 1.0 is lost; a compensated sum keeps it
        path = tmp_path / "vectors.txt"
        path.write_text("big 1e16 1\none 1.0 1\nminus -1e16 1\n", encoding="utf-8")
        assert list(phrase_vector(load_embeddings(path), "big one minus")) == [0.0, 1.0]


# The classifier path before the table built one classifier per lexicon:
# every classification looked up each lexicon word again and computed both
# norms once per word.  ``Classifier`` must give the same similarities and
# verdicts, bit for bit.  Every sum below adds its terms one at a time, left
# to right, as the classifier's do.


def _left_to_right_sum(terms):
    total = terms[0]
    for term in terms[1:]:
        total += term
    return total


def _reference_phrase_vector(table, phrase):
    found = [table.lookup(word) for word in phrase.split()]
    found = [v for v in found if v is not None]
    if not found:
        return None
    return [_left_to_right_sum([v[j] for v in found]) / len(found) for j in range(len(found[0]))]


def _reference_dot(u, v):
    return _left_to_right_sum([a * b for a, b in zip(u, v)])


def _reference_cosine(u, v):
    nu, nv = math.sqrt(_reference_dot(u, u)), math.sqrt(_reference_dot(v, v))
    if nu == 0.0 or nv == 0.0:
        semvec.logger.warning("cosine of a zero vector is undefined; returning 0.0")
        return 0.0
    return _reference_dot(u, v) / (nu * nv)


def _reference_best_match(table, vec, words):
    best_sim = -2.0
    for word in words:
        wvec = table.lookup(word)
        if wvec is None:
            continue
        sim = _reference_cosine(vec, wvec)
        if sim > best_sim:
            best_sim = sim
    return best_sim


def _reference_money(table, lex, phrase):
    """``(revenue similarity, investment similarity)`` or ``None``, and the verdict."""
    vec = _reference_phrase_vector(table, phrase)
    if vec is None:
        return None, "unknown"
    rev_sim = _reference_best_match(table, vec, lex.revenue_words)
    inv_sim = _reference_best_match(table, vec, lex.investment_words)
    if max(rev_sim, inv_sim) <= lex.threshold or rev_sim == inv_sim:
        return (rev_sim, inv_sim), "unknown"
    return (rev_sim, inv_sim), "revenue" if rev_sim > inv_sim else "investment"


def _reference_person(table, lex, phrase, context):
    """``(founder similarity,)`` or ``None``, and the verdict."""
    vec = _reference_phrase_vector(table, f"{phrase} {context}".strip())
    if vec is None:
        return None, "other"
    sim = _reference_best_match(table, vec, lex.founder_words)
    return (sim,), "other" if sim <= lex.threshold else "founder"


class TestCosine:
    """The reference's cosine, which ``Classifier.best_similarities`` inlines."""

    def test_identical(self):
        assert _reference_cosine([1.0, 0.0], [1.0, 0.0]) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert _reference_cosine([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0)

    def test_forty_five_degrees(self):
        value = _reference_cosine([1.0, 1.0], [1.0, 0.0])
        assert value == pytest.approx(2 ** -0.5, abs=1e-6)
        assert value == pytest.approx(0.7071, abs=1e-4)

    def test_zero_vector_warns_and_returns_zero(self, caplog):
        with caplog.at_level(logging.WARNING, logger="finrelex.semvec"):
            value = _reference_cosine([0.0, 0.0], [1.0, 0.0])
        assert value == 0.0
        assert any("zero vector" in r.message for r in caplog.records)

    def test_symmetry(self):
        rng = random.Random(7)
        for _ in range(100):
            u, v = [rng.gauss(0.0, 1.0) for _ in range(3)], [rng.gauss(0.0, 1.0) for _ in range(3)]
            assert _reference_cosine(u, v) == pytest.approx(_reference_cosine(v, u))


def _assert_matches_reference(table, lex, phrase, context):
    clf = table.classifier(lex)
    want_vec = _reference_phrase_vector(table, phrase)
    got_vec = phrase_vector(table, phrase)
    assert (got_vec is None) == (want_vec is None), phrase
    if want_vec is not None:
        assert array("d", got_vec).tobytes() == array("d", want_vec).tobytes(), phrase
    sims, verdict = _reference_money(table, lex, phrase)
    assert clf.best_similarities(phrase, "revenue", "investment") == sims, phrase
    assert classify_money_phrase(table, lex, phrase) == verdict, phrase
    sims, verdict = _reference_person(table, lex, phrase, context)
    assert clf.best_similarities(f"{phrase} {context}".strip(), "founder") == sims, (phrase, context)
    assert classify_person_phrase(table, lex, phrase, context) == verdict, (phrase, context)


# Words of the drawn tables, lexicons and phrases: "zzz" and "qqq" are never
# in a table, so lexicons and phrases also hold out-of-vocabulary words.
_POOL = ["income", "revenue", "raised", "equity", "founder", "net", "the", "of", "million", "Income"]
_OOV = ["zzz", "qqq"]
# Components with zero rows, exact 45-degree ties and a component whose
# square underflows, so a non-zero vector can have norm 0.0.
_COMPONENTS = [0.0, 0.0, 1.0, -1.0, 2.0, 0.5, -0.25, 3.7, 1e-3, 1e-200]


@st.composite
def _tables(draw):
    """A table whose rows are drawn vectors, copies of an earlier row
    (exact ties) or scaled copies of one."""
    d = draw(st.integers(1, 3))
    words = draw(st.lists(st.sampled_from(_POOL), min_size=1, max_size=8, unique_by=str.casefold))
    rows = []
    for _ in words:
        kind = draw(st.sampled_from(["drawn", "drawn", "copy", "scaled"])) if rows else "drawn"
        if kind == "drawn":
            row = draw(st.lists(st.sampled_from(_COMPONENTS), min_size=d, max_size=d))
        else:
            scale = 1.0 if kind == "copy" else draw(st.sampled_from([2.0, 0.5, 3.7]))
            row = [scale * x for x in draw(st.sampled_from(rows))]
        rows.append(row)
    return table_of(dict(zip((w.casefold() for w in words), rows)))


@st.composite
def _lexicons(draw):
    words = st.sampled_from(_POOL + _OOV)
    revenue = draw(st.lists(words, min_size=1, max_size=4))
    investment = draw(st.lists(words.filter(
        lambda w: w.casefold() not in {r.casefold() for r in revenue}), min_size=1, max_size=4))
    founder = draw(st.lists(words, min_size=1, max_size=4))
    threshold = draw(st.sampled_from([0.0, 0.5, 2 ** -0.5, 0.9, 1.0]) | st.floats(0.0, 1.0))
    return LexiconConfig(tuple(revenue), tuple(investment), tuple(founder), threshold)


_phrases = st.lists(st.sampled_from(_POOL + _OOV), max_size=4).map(" ".join)


@settings(max_examples=50, deadline=None)
@given(_tables(), _lexicons(), st.lists(st.tuples(_phrases, _phrases), min_size=1, max_size=4))
def test_classifier_matches_reference(table, lex, phrases):
    for phrase, context in phrases:
        _assert_matches_reference(table, lex, phrase, context)


def _classified_phrases(table, lex):
    """The ``(money phrase, person phrase, person context)`` arguments of
    every classification in an ``extract`` of the fixture corpus."""
    money, person = [], []
    with mock.patch.object(semvec, "classify_money_phrase", side_effect=lambda t, lx, p: money.append(p) or "unknown"), \
            mock.patch.object(semvec, "classify_person_phrase", side_effect=lambda t, lx, p, c: person.append((p, c)) or "other"):
        for doc in corpus.load_documents(FIXTURE_CORPUS):
            relex.extract(TreeView.build(doc), table, lex)
    return money, person


def test_classifier_matches_reference_on_fixture_phrases(toy_table, lexicon):
    money, person = _classified_phrases(toy_table, lexicon)
    assert money and person
    for phrase in money:
        _assert_matches_reference(toy_table, lexicon, phrase, "")
    for phrase, context in person:
        _assert_matches_reference(toy_table, lexicon, phrase, context)


class TestClassifierBuiltOnce:
    def test_extract_looks_up_each_lexicon_word_once(self, lexicon):
        # a fresh table, so no classifier is cached yet; lookups made while a
        # phrase vector is built are per-phrase work and not counted
        table = load_embeddings(TOY_EMBEDDINGS)
        swapped = LexiconConfig(revenue_words=lexicon.investment_words, investment_words=lexicon.revenue_words)
        counts = Counter()
        in_phrase = False
        lookup, phrase_vector_ = EmbeddingTable.lookup, semvec.phrase_vector

        def counting_lookup(self, word):
            if not in_phrase:
                counts[word] += 1
            return lookup(self, word)

        def flagged_phrase_vector(table, phrase):
            nonlocal in_phrase
            in_phrase = True
            try:
                return phrase_vector_(table, phrase)
            finally:
                in_phrase = False

        docs = corpus.load_documents(FIXTURE_CORPUS)
        with mock.patch.object(EmbeddingTable, "lookup", counting_lookup), \
                mock.patch.object(semvec, "phrase_vector", flagged_phrase_vector):
            for lex in (lexicon, swapped, lexicon, swapped):
                for doc in docs:
                    relex.extract(TreeView.build(doc), table, lex)
        lexicon_words = Counter(lexicon.revenue_words + lexicon.investment_words + lexicon.founder_words)
        assert counts == lexicon_words + lexicon_words  # once for each of the two lexicons

    def test_each_lexicon_gets_its_own_classifier(self, tmp_path):
        # "far" is about 0.707 from "income": above one threshold, not the other
        path = tmp_path / "vectors.txt"
        path.write_text("income 1 0\nraised 0 1\nfar 1 1.0001\n", encoding="utf-8")
        table = load_embeddings(path)
        loose, strict = LexiconConfig(threshold=0.5), LexiconConfig(threshold=0.9)
        swapped = LexiconConfig(revenue_words=loose.investment_words, investment_words=loose.revenue_words)
        for lex, want in [(loose, "investment"), (strict, "unknown"), (swapped, "revenue"), (loose, "investment")]:
            assert classify_money_phrase(table, lex, "far") == want, lex
        assert table.classifier(loose) is table.classifier(LexiconConfig(threshold=0.5))
        assert len({id(table.classifier(lex)) for lex in (loose, strict, swapped)}) == 3


class TestZeroVectorWarnings:
    def test_zero_lexicon_word_warns_once_at_build(self, tmp_path, caplog):
        path = tmp_path / "vectors.txt"
        path.write_text("income 0 0\nrevenue 1 0\nraised 0 1\n", encoding="utf-8")
        table = load_embeddings(path)
        lex = LexiconConfig()
        with caplog.at_level(logging.WARNING, logger="finrelex.semvec"):
            verdicts = [classify_money_phrase(table, lex, phrase) for phrase in ["revenue", "raised", "revenue"]]
        assert verdicts == ["revenue", "investment", "revenue"]
        assert [r.getMessage() for r in caplog.records] == [
            "revenue lexicon word 'income' has a zero vector; its similarity to every phrase is 0.0"
        ]

    def test_zero_phrase_warns_once_per_classification(self, tmp_path, caplog):
        # three in-vocabulary lexicon words: the reference warned three times a
        # phrase; a phrase classified again is not worked out, nor warned, again
        path = tmp_path / "vectors.txt"
        path.write_text("income 1 0\nrevenue 1 0\nraised 0 1\nnil 0 0\nzero 0 0\n", encoding="utf-8")
        table = load_embeddings(path)
        lex = LexiconConfig()
        with caplog.at_level(logging.WARNING, logger="finrelex.semvec"):
            assert classify_money_phrase(table, lex, "nil") == "unknown"
            assert classify_money_phrase(table, lex, "nil zero") == "unknown"
            assert classify_person_phrase(table, lex, "nil", "") == "other"
            assert classify_money_phrase(table, lex, "nil") == "unknown"
            assert classify_person_phrase(table, lex, "nil", "") == "other"
        assert [r.getMessage() for r in caplog.records] == [
            f"phrase {phrase!r} has a zero vector; its similarity to every lexicon word is 0.0"
            for phrase in ["nil", "nil zero", "nil"]
        ]


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
        scaled = table_of({w: [3.7 * x for x in toy_table.lookup(w)] for w in toy_table.index})
        for phrase in phrases:
            assert classify_money_phrase(toy_table, lexicon, phrase) == classify_money_phrase(
                scaled, lexicon, phrase
            )


def test_finite_table_whose_squares_overflow_classifies_without_a_warning(tmp_path, lexicon):
    # each component is finite, yet the sum of two squares overflows to inf:
    # each similarity is then NaN (never wins) or 0.0 (not above the threshold)
    path = tmp_path / "vectors.txt"
    path.write_text("income 1.3e154 1.3e154\nraised 1.3e154 -1.3e154\nfounder 1.3e154 1.2e154\n"
                    "huge 1.3e154 1.3e154\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = load_embeddings(path)
        assert classify_money_phrase(table, lexicon, "huge") == "unknown"
        assert classify_person_phrase(table, lexicon, "huge", "") == "other"


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

    @pytest.mark.parametrize("key", ["revenue_words", "investment_words", "founder_words"])
    @pytest.mark.parametrize("word", ["", " ", "net income", "income ", "\tincome"])
    def test_word_that_never_matches_rejected(self, key, word):
        # table words come from str.split: none is empty or holds whitespace
        with pytest.raises(ValueError) as info:
            LexiconConfig(**{key: ("sales", word)})
        assert str(info.value) == f"{key}: {word!r} is empty or holds whitespace, so it never matches"

    def test_load_lexicon_names_file_of_word_that_never_matches(self, tmp_path):
        path = tmp_path / "lexicon.json"
        path.write_text('{"revenue_words": ["net income", ""]}', encoding="utf-8")
        with pytest.raises(EmbeddingFormatError) as info:
            load_lexicon(path)
        assert str(info.value) == (
            f"{path}: revenue_words: 'net income' is empty or holds whitespace, so it never matches"
        )

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

    @pytest.mark.parametrize("value", ["1.5", "-0.1"])
    def test_load_lexicon_rejects_threshold_out_of_range(self, tmp_path, value):
        path = tmp_path / "lexicon.json"
        path.write_text(f'{{"threshold": {value}}}', encoding="utf-8")
        with pytest.raises(EmbeddingFormatError) as info:
            load_lexicon(path)
        assert str(info.value) == f"{path}: threshold must be in [0, 1], got {value}"

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
        rows = toy_table.vectors.tolist()
        assert len(rows) == len(toy_table.index)
        for vec in rows:
            assert all(math.isfinite(x) for x in vec)
            assert len(vec) == toy_table.vectors.shape[1]
