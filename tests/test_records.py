import json
import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from finrelex._fileio import Fields
from finrelex.records import (
    RecordError,
    RelationRecord,
    parse,
    serialize,
    validate,
)

JUMIA_TARGET = "Jumia, revenue, €41 million, Q4 2020| Jumia, revenue, €33.7 million, Q3 2020|"

JUMIA_RECORDS = [
    RelationRecord("Jumia", "revenue", "€41 million", "Q4 2020"),
    RelationRecord("Jumia", "revenue", "€33.7 million", "Q3 2020"),
]


class TestSerialize:
    def test_two_record_target(self):
        assert serialize(JUMIA_RECORDS) == JUMIA_TARGET

    def test_empty_list(self):
        assert serialize([]) == ""

    def test_unknown_date_rendered_literally(self):
        record = RelationRecord("Apple", "revenue", "$9.4 million")
        assert serialize([record]) == "Apple, revenue, $9.4 million, unknown-date|"

    def test_one_pipe_per_record(self):
        assert serialize(JUMIA_RECORDS).count("|") == len(JUMIA_RECORDS)


class TestParse:
    def test_two_record_target(self):
        assert parse(JUMIA_TARGET) == JUMIA_RECORDS

    def test_empty_string(self):
        assert parse("") == []

    def test_missing_date_field(self):
        with pytest.raises(RecordError, match="fewer than four"):
            parse("Jumia, revenue, €41 million")

    def test_unknown_variable_name(self):
        with pytest.raises(RecordError, match="variable_name"):
            parse("Jumia, profit, €41 million, Q4 2020|")

    def test_date_with_internal_comma_survives(self):
        records = parse("Acme, revenue, $5 million, March 3, 2021|")
        assert records == [RelationRecord("Acme", "revenue", "$5 million", "March 3, 2021")]


class TestRecordConstruction:
    def test_rejects_comma_in_value(self):
        with pytest.raises(RecordError, match="comma"):
            RelationRecord("Acme", "revenue", "1,000 dollars")

    def test_rejects_pipe_in_company(self):
        with pytest.raises(RecordError):
            RelationRecord("Ac|me", "revenue", "$1")

    def test_rejects_empty_value(self):
        with pytest.raises(RecordError):
            RelationRecord("Acme", "revenue", "")

    def test_rejects_untrimmed_field(self):
        with pytest.raises(RecordError):
            RelationRecord("Acme ", "revenue", "$1")

    def test_accepts_customers_users_name(self):
        record = RelationRecord("Acme", "customers/users", "5 million")
        assert parse(serialize([record])) == [record]


# pieces of generated targets: good and bad fields, and their separators
_FIELD_PIECES = ["Acme", " Acme ", "", " ", "\t", "revenue", "Revenue", "revnue", "founder",
                 "customers/users", "$1 million", "March 3", " 2021", "unknown-date", "€4\u00a0m"]
_COMMAS = [", ", ",", ",,", " , ", ""]
_PIPES = ["|", "| ", "||", " | ", ""]


def _outcome(fn, target):
    try:
        fn(target)
    except RecordError as exc:
        return str(exc)
    return None


def test_validate_rejects_exactly_what_parse_rejects():
    rng = random.Random(1717)
    kinds = Counter()
    for _ in range(5000):
        segments = []
        for _ in range(rng.randint(0, 3)):
            fields = [rng.choice(_FIELD_PIECES) for _ in range(rng.choice((1, 3, 4, 4, 4, 5)))]
            segment = fields[0]
            for f in fields[1:]:
                segment += rng.choice(_COMMAS) + f
            segments.append(segment + rng.choice(_PIPES))
        target = rng.choice(_PIPES) + "".join(segments)
        expected = _outcome(parse, target)
        if expected is not None:
            kinds[expected.split()[0]] += 1
        assert _outcome(validate, target) == expected, target
    # every way to fail occurs, and so does success
    assert set(kinds) == {"record", "company", "variable_name", "variable_value", "variable_date"}
    assert min(kinds.values()) >= 5 and sum(kinds.values()) < 4500, kinds


@pytest.mark.parametrize("strings", [
    ["plain", "", "caf\u00e9 \u20ac41 \u4e2d\u6587 \U0001f600"],
    ['say "hi"', "back\\slash", "tab\tnew\nline\rcr", "\x00\x1f\x7f"],
    ["line\u2028sep\u2029para", "\u00a0\u2003", "|, ,|"],
])
def test_jsonl_dumps_matches_per_row_json_dumps(strings):
    fields = Fields(id=str, predicted_text=str, n=int)
    rows = [(s, s[::-1], i) for i, s in enumerate(strings)]
    want = "".join(json.dumps(dict(zip(fields.keys, row)), ensure_ascii=False) + "\n" for row in rows)
    assert fields.dumps(rows) == want


class TestPredictionFiles:
    def test_round_trip(self, tmp_path):
        from finrelex.records import load_predictions, save_predictions

        path = tmp_path / "pred.jsonl"
        pairs = [("a", serialize(JUMIA_RECORDS)), ("b", "")]
        save_predictions(pairs, path)
        assert load_predictions(path) == dict(pairs)

    def test_duplicate_id_rejected(self, tmp_path):
        from finrelex.records import load_predictions, save_predictions

        path = tmp_path / "pred.jsonl"
        save_predictions([("a", "x"), ("a", "y")], path)
        with pytest.raises(RecordError, match="duplicate"):
            load_predictions(path)

    def test_missing_field_rejected(self, tmp_path):
        from finrelex.records import load_predictions

        path = tmp_path / "pred.jsonl"
        path.write_text('{"id": "a"}\n', encoding="utf-8")
        with pytest.raises(RecordError, match="predicted_text"):
            load_predictions(path)

    @pytest.mark.parametrize("bad", ["{not json", "[1, 2]"], ids=["bad-json", "non-object"])
    def test_malformed_line_raises_record_error(self, tmp_path, bad):
        from finrelex.records import load_predictions

        path = tmp_path / "pred.jsonl"
        path.write_text('{"id": "a", "predicted_text": ""}\n' + bad + "\n", encoding="utf-8")
        with pytest.raises(RecordError, match="line 2"):
            load_predictions(path)

    @pytest.mark.parametrize(
        "line", ['{"id": 5, "predicted_text": ""}', '{"id": "b", "predicted_text": null}'],
        ids=["id-int", "predicted_text-null"],
    )
    def test_non_string_field_rejected(self, tmp_path, line):
        # str() would load these as id "5" and text "None"
        from finrelex.records import load_predictions

        path = tmp_path / "pred.jsonl"
        path.write_text('{"id": "a", "predicted_text": ""}\n' + line + "\n", encoding="utf-8")
        with pytest.raises(RecordError, match="line 2: field '(id|predicted_text)' must be a string"):
            load_predictions(path)


_word = st.text(
    alphabet=st.characters(
        blacklist_characters="|,",
        blacklist_categories=("Cs", "Zs", "Zl", "Zp", "Cc"),
    ),
    min_size=1,
    max_size=8,
)
_field_value = st.lists(_word, min_size=1, max_size=3).map(" ".join)
_record = st.builds(
    RelationRecord,
    company=_field_value,
    variable_name=st.sampled_from(("founder", "country", "revenue", "customers/users", "investment")),
    variable_value=_field_value,
    variable_date=_field_value,
)


@given(st.lists(_record, max_size=6))
def test_round_trip(records):
    assert parse(serialize(records)) == records
