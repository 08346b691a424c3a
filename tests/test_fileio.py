import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from finrelex._fileio import LineRange, iter_jsonl, line_ranges

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


def test_file_that_is_not_regular_is_one_unsplit_part():
    # its size says nothing of its lines, so it is read to its end
    assert line_ranges("/dev/null", 4) == [None]
