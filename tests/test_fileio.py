import json
import os
import stat

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from finrelex._fileio import (
    Fields,
    LineRange,
    _reject_lone_surrogates,
    atomic_write_bytes,
    atomic_write_text,
    decode_utf8,
    iter_jsonl,
    line_ranges,
    read_json_object,
)
from tests.conftest import FIXTURE_CORPUS

# One line's content: blank, or a JSON value, some long enough to span a cut.
_CONTENT = st.one_of(
    st.sampled_from(["", " ", "\t ", "\r"]),
    st.integers().map(json.dumps),
    st.text(max_size=8).map(json.dumps),
    st.integers(1, 400).map(lambda n: json.dumps("x" * n)),
)


@pytest.fixture(scope="module")
def rows_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fileio") / "rows.jsonl"


@settings(max_examples=100, deadline=None)
@given(lines=st.lists(st.tuples(_CONTENT, st.sampled_from(["\n", "\r\n"])), max_size=8),
       final_newline=st.booleans())
@example(lines=[], final_newline=True)
@example(lines=[('"a"', "\n")], final_newline=False)
@example(lines=[(json.dumps("x" * 400), "\n"), ("1", "\n"), ("2", "\r\n")], final_newline=True)
def test_line_ranges_read_together_as_the_whole_file(rows_path, lines, final_newline):
    data = "".join(content + end for content, end in lines)
    if lines and not final_newline:
        data = data[: -len(lines[-1][1])]
    raw = data.encode("utf-8")
    rows_path.write_bytes(raw)
    whole = list(iter_jsonl(rows_path, ValueError))
    line_count = raw.count(b"\n") + (not raw.endswith(b"\n") and raw != b"")
    for parts in range(1, 6):
        ranges = line_ranges(rows_path, parts)
        assert [row for r in ranges for row in iter_jsonl(rows_path, ValueError, r)] == whole
        if not raw:
            assert ranges == []
            continue
        assert 1 <= len(ranges) <= parts
        # contiguous, non-empty, in file order, each starting at a line start
        assert [r.first for r in ranges] == [1, *(r.last + 1 for r in ranges[:-1])]
        assert all(r.first <= r.last for r in ranges) and ranges[-1].last == line_count
        assert all(r.start == 0 or raw[r.start - 1] == ord("\n") for r in ranges)


def test_line_ranges_cut_near_equal_byte_shares(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_text("".join(f"{i:04d}\n" for i in range(100)), encoding="utf-8")  # 5 bytes a line
    assert line_ranges(path, 4) == [LineRange(0, 1, 25), LineRange(125, 26, 50),
                                    LineRange(250, 51, 75), LineRange(375, 76, 100)]


def _reference_line_ranges(path, parts):
    """The two-pass cut before the one forward loop: seek to each share and
    read on to the next line start, then count each range's lines; kept as a
    test-only oracle."""
    size, cuts = os.stat(path).st_size, [0]
    with open(path, "rb") as fh:
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
                data = fh.read(end - start)
                count = data.count(b"\n") + (not data.endswith(b"\n"))
                ranges.append(LineRange(start, first, first + count - 1))
                first += count
    return ranges


@settings(max_examples=100, deadline=None)
@given(lines=st.lists(st.integers(0, 200), max_size=12), final_newline=st.booleans())
@example(lines=[0, 0, 0], final_newline=True)
@example(lines=[0], final_newline=False)
def test_line_ranges_match_two_pass_reference(rows_path, lines, final_newline):
    # lines of 0-200 bytes, so that some share falls inside a line, newline-only files among them
    raw = b"\n".join(b"x" * n for n in lines) + (b"\n" if lines and final_newline else b"")
    rows_path.write_bytes(raw)
    for parts in range(1, 10):
        assert line_ranges(rows_path, parts) == _reference_line_ranges(rows_path, parts)


def test_line_ranges_of_fixture_match_two_pass_reference():
    for parts in range(1, 10):
        assert line_ranges(FIXTURE_CORPUS, parts) == _reference_line_ranges(FIXTURE_CORPUS, parts)


def test_file_that_is_not_regular_is_one_unsplit_part():
    # its size says nothing of its lines, so it has no ranges and the caller
    # reads it whole, as one part
    assert line_ranges("/dev/null", 4) == []


def _reference_iter_jsonl(path, error):
    """The per-line loop before the one-scanner-call fast path: every line
    through ``json.loads``; kept as a test-only oracle."""
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = decode_utf8(line, lineno, error)
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                # a line holds no newline but its last character: an error past it is at the line's end
                column = min(exc.pos, len(line.rstrip("\n"))) + 1
                raise error(f"line {lineno}: invalid JSON record ({exc.msg}: column {column})") from exc
            if "\\" in line and ("\\ud" in line or "\\uD" in line):
                _reject_lone_surrogates(obj, lineno, error)
            yield lineno, obj


def _outcome(load, path):
    """What ``load`` yields, as text so that NaN compares, or the error it raises."""
    try:
        return repr(list(load(path, ValueError)))
    except ValueError as exc:
        return type(exc), str(exc)


_VALUE = st.one_of(
    st.dictionaries(st.text(max_size=4), st.one_of(st.none(), st.booleans(), st.integers(),
                                                   st.floats(), st.text(max_size=4)), max_size=3),
    st.lists(st.integers(), max_size=2), st.text(max_size=4), st.floats(),
).map(json.dumps)  # NaN, Infinity, and a non-BMP character as an escaped surrogate pair
_ODD_VALUE = st.sampled_from([
    "null", "NaN", "-Infinity", '{"x": NaN}', '{"a": 1, "a": 2}', '{"a": "\\ud83d\\ude00"}',
    '"\\ud800"', '{"a": "x\\uDC80"}', '["\\udbff", 1]', '{"a": ', "{bad}", "[1,]", "'a'", "",
])
_PAD = st.sampled_from([""] * 6 + [" ", "\t\r", "\xa0", "\u2028", "\x1c"])
# mostly lines that decode, so that a file's first error is often past line 1
_LINE = st.tuples(st.sampled_from([""] * 12 + ["\ufeff", " ", "\xa0"]),
                  st.one_of(_VALUE, _VALUE, _ODD_VALUE), _PAD,
                  st.sampled_from([""] * 12 + ["x", " 1", "}", '{"b": 2}']),
                  st.sampled_from(["\n", "\r\n"]))


@settings(max_examples=100, deadline=None)
@given(lines=st.lists(_LINE.map("".join), max_size=4))
def test_iter_jsonl_matches_per_line_json_loads(rows_path, lines):
    rows_path.write_text("".join(lines), encoding="utf-8", newline="")
    assert _outcome(iter_jsonl, rows_path) == _outcome(_reference_iter_jsonl, rows_path)


@pytest.mark.parametrize("text, reason", [
    ('"a"\n"cut\n', "Invalid control character at: column 5"),
    ('"a"\n{"id": "x"\n', "Expecting ',' delimiter: column 11"),
    ('"a"\n{"id": "x"\r\n', "Expecting ',' delimiter: column 12"),
    ('"a"\n{"id": "x"', "Expecting ',' delimiter: column 11"),
    ('"a"\n1 2\n', "Extra data: column 3"),
], ids=["control-character", "end-of-line", "end-of-crlf-line", "end-of-file", "extra-data"])
def test_decode_error_names_its_column(rows_path, text, reason):
    # an error at the end of a line is at its end, not on a line after it
    rows_path.write_text(text, encoding="utf-8", newline="")
    with pytest.raises(ValueError) as info:
        list(iter_jsonl(rows_path, ValueError))
    assert str(info.value) == f"line 2: invalid JSON record ({reason})"


@pytest.mark.parametrize("text, reason", [
    ('{"a": 1,\n "b": 2\n "c": 3}\n', "Expecting ',' delimiter: line 3 column 2"),
    ('{"a": 1,\n "b": 2\n\n', "Expecting ',' delimiter: line 2 column 8"),
    ('{"a": 1 "b": 2}', "Expecting ',' delimiter: column 9"),
], ids=["later-line", "end-of-text", "first-line"])
def test_decode_error_names_the_line_of_an_object_file(tmp_path, text, reason):
    path = tmp_path / "config.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as info:
        read_json_object(path, ValueError, "config")
    assert str(info.value) == f"config: invalid JSON ({reason})"


_ROW = Fields(id=str, predicted_text=str, n=int)
# every code point, surrogates and controls too
_ANY_TEXT = st.text(alphabet=st.characters(exclude_categories=()))


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.tuples(_ANY_TEXT, _ANY_TEXT, st.one_of(st.integers(),
                                                              st.integers(min_value=2**64),
                                                              st.integers(max_value=-2**64))),
                     max_size=4))
def test_fields_dumps_matches_per_row_json_dumps(rows):
    want = "".join(json.dumps(dict(zip(_ROW.keys, row)), ensure_ascii=False) + "\n" for row in rows)
    assert _ROW.dumps(rows) == want


def test_fields_dumps_refuses_rows_of_another_width():
    assert _ROW.dumps(iter([])) == ""
    with pytest.raises(ValueError):
        _ROW.dumps([("a", "b", 1, 2)])
    with pytest.raises(ValueError):
        _ROW.dumps([("a", "b", 1), ("a", "b")])


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask-022", "umask-077"])
def test_atomic_write_gives_the_mode_open_gives(tmp_path, umask, mode):
    old = os.umask(umask)
    try:
        atomic_write_text(tmp_path / "out.jsonl", "row\n")
        with open(tmp_path / "opened.jsonl", "w") as fh:
            fh.write("row\n")
    finally:
        os.umask(old)
    assert stat.S_IMODE(os.stat(tmp_path / "out.jsonl").st_mode) == mode
    assert stat.S_IMODE(os.stat(tmp_path / "opened.jsonl").st_mode) == mode


def test_failed_atomic_write_keeps_the_old_file_and_no_temp_file(tmp_path):
    path = tmp_path / "out.jsonl"
    atomic_write_text(path, "old\n")
    with pytest.raises(UnicodeEncodeError):
        atomic_write_text(path, "new \ud800\n")  # a lone surrogate, which UTF-8 cannot write
    assert path.read_text(encoding="utf-8") == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.jsonl"]


def test_atomic_write_bytes_writes_its_parts_in_order(tmp_path):
    path = tmp_path / "out.bin"
    atomic_write_bytes(path, iter([b"ab", memoryview(b"\x00cd"), bytearray(b"\xff"), b""]))
    assert path.read_bytes() == b"ab\x00cd\xff"


def test_failed_atomic_write_bytes_keeps_the_old_file_and_no_temp_file(tmp_path):
    path = tmp_path / "out.bin"
    atomic_write_bytes(path, [b"old"])

    def parts():
        yield b"new"
        raise OSError("no space left")

    with pytest.raises(OSError, match="no space left"):
        atomic_write_bytes(path, parts())
    assert path.read_bytes() == b"old"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.bin"]
