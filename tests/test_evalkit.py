import logging
import math
import random
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finrelex import evalkit
from finrelex.corpus import GoldExample
from finrelex.evalkit import (
    EvalConfig,
    EvaluationError,
    aggregate,
    edit_distance,
    evaluate_corpus,
    f1_score,
    score_breakdown,
    score_example,
    word_match,
)
from tests.test_acceptance import oracle_edit_distance, oracle_score, oracle_word_match

EXACT_CFG = EvalConfig(mode="exact")
FUZZY_CFG = EvalConfig(mode="fuzzy", fuzzy_threshold=0.90)

JUMIA_TARGET = "Jumia, revenue, €41 million, Q4 2020| Jumia, revenue, €33.7 million, Q3 2020|"


class TestWordMatch:
    def test_exact_is_case_insensitive(self):
        assert word_match("Jumia", "jumia", EXACT_CFG)

    def test_millions_misses_at_90(self):
        # distance 1 over max length 8 -> similarity 0.875
        assert not word_match("million", "millions", FUZZY_CFG)

    def test_investmant_matches_at_90(self):
        # distance 1 over max length 10 -> similarity 0.90, threshold inclusive
        assert word_match("investment", "investmant", FUZZY_CFG)

    def test_two_empty_strings_match(self):
        assert word_match("", "", EXACT_CFG)
        assert word_match("", "", FUZZY_CFG)

    def test_exact_mismatch(self):
        assert not word_match("revenue", "income", EXACT_CFG)

    def test_fuzzy_threshold_one_equals_exact_for_nonempty(self):
        strict = EvalConfig(mode="fuzzy", fuzzy_threshold=1.0)
        rng = random.Random(5)
        words = ["revenue", "Revenue", "income", "jumia", "q4", "2020", "x"]
        for _ in range(200):
            a, b = rng.choice(words), rng.choice(words)
            assert word_match(a, b, strict) == word_match(a, b, EXACT_CFG)

    # thresholds that sit exactly on 1 - d/L for small d and L, plus both ends
    BOUNDARY_THRESHOLDS = sorted(
        {1 - d / L for L in range(1, 11) for d in range(L)}
        | {0.9, 0.8, 0.75, 2 / 3, 0.5, 1.0, 1e-9}
    )

    @settings(max_examples=150, deadline=None)
    @given(
        st.text("abcA", max_size=10),
        st.text("abcA", max_size=10),
        st.sampled_from(BOUNDARY_THRESHOLDS),
    )
    def test_fuzzy_equals_oracle_on_boundary_thresholds(self, a, b, threshold):
        cfg = EvalConfig(mode="fuzzy", fuzzy_threshold=threshold)
        assert word_match(a, b, cfg) == oracle_word_match(a, b, "fuzzy", threshold)

    @pytest.mark.parametrize("longest,d", [(4, 3), (7, 4), (10, 7), (11, 6)])
    def test_one_ulp_above_a_boundary_rejects(self, longest, d):
        # (1 - t) * longest rounds up to d here although 1 - d/longest < t
        a, b = "a" * longest, "a" * (longest - d) + "b" * d
        on = 1 - d / longest
        above = math.nextafter(on, 2.0)
        assert word_match(a, b, EvalConfig(mode="fuzzy", fuzzy_threshold=on))
        assert not word_match(a, b, EvalConfig(mode="fuzzy", fuzzy_threshold=above))
        assert not oracle_word_match(a, b, "fuzzy", above)

    @pytest.mark.parametrize(
        "a,b,threshold,expected",
        [
            # casefold makes "straße" 7 characters long, and "ﬁ" 2
            ("straße", "STRASSE", 1.0, True),
            ("straße", "strase", 0.85, True),
            ("straße", "strase", 6 / 7, True),
            ("straße", "strasen", 0.85, False),
            ("ﬁnance", "finane", 0.85, True),
            ("ﬁnance", "FINANCE", 1.0, True),
            ("ﬁ", "fl", 0.5, True),
            ("ﬁ", "fl", 0.51, False),
        ],
    )
    def test_bound_comes_from_case_folded_lengths(self, a, b, threshold, expected):
        cfg = EvalConfig(mode="fuzzy", fuzzy_threshold=threshold)
        assert word_match(a, b, cfg) is expected
        assert oracle_word_match(a, b, "fuzzy", threshold) is expected


class TestEditDistance:
    @pytest.mark.parametrize(
        "a,b,expected",
        [("", "", 0), ("abc", "abc", 0), ("abc", "", 3), ("kitten", "sitting", 3), ("cow", "bowl", 2)],
    )
    def test_known_distances(self, a, b, expected):
        # a limit as long as the longer word leaves the distance uncapped
        assert edit_distance(a, b, max(len(a), len(b))) == expected

    def test_symmetry(self):
        rng = random.Random(11)
        for _ in range(300):
            a = "".join(rng.choices("abcd", k=rng.randint(0, 6)))
            b = "".join(rng.choices("abcd", k=rng.randint(0, 6)))
            limit = rng.randint(0, 6)
            assert edit_distance(a, b, limit) == edit_distance(b, a, limit)

    @settings(max_examples=200, deadline=None)
    @given(st.text("abcd", max_size=8), st.text("abc", max_size=8))
    def test_bounded_is_oracle_capped_at_limit_plus_one(self, a, b):
        full = oracle_edit_distance(a, b)
        for limit in range(max(len(a), len(b)) + 2):
            bounded = edit_distance(a, b, limit)
            assert bounded == min(full, limit + 1)
            assert edit_distance(b, a, limit) == bounded

    def test_negative_limit_raises(self):
        with pytest.raises(ValueError, match="limit"):
            edit_distance("a", "b", -1)

    @pytest.mark.parametrize(
        "b,expected",
        [("a" * 19999 + "b", 1), ("a" * 19997, 3), ("b" * 20000, 3)],
        ids=["one-substitution", "length-gap", "all-different"],
    )
    def test_bounded_cost_is_linear(self, b, expected):
        # the full table would be 4e8 cells; the band of width 5 is 1e5
        start = time.perf_counter()
        assert edit_distance("a" * 20000, b, limit=2) == expected
        assert time.perf_counter() - start < 1.0


class TestScoreExample:
    def test_identical_strings_all_true_positive(self):
        tp, tn, fp, fn = score_example(JUMIA_TARGET, JUMIA_TARGET, EXACT_CFG)
        assert (tn, fp, fn) == (0, 0, 0)
        assert tp == 12  # tokens left after separators are stripped

    def test_empty_pair_is_one_true_negative(self):
        assert score_example("", "", EXACT_CFG) == (0, 1, 0, 0)

    def test_short_prediction_counts_false_negatives(self):
        counts = score_example(
            "Apple revenue $9.4 million unknown-date", "Apple revenue $9.4 million", EXACT_CFG
        )
        assert counts == (4, 0, 0, 1)

    def test_long_prediction_counts_false_positives(self):
        counts = score_example("Apple revenue", "Apple revenue extra", EXACT_CFG)
        assert counts == (2, 0, 1, 0)

    def test_positional_mismatch_is_false_positive(self):
        counts = score_example("a b", "b a", EXACT_CFG)
        assert counts == (0, 0, 2, 0)

    def test_separator_stripping_aligns_tokens(self):
        counts = score_example("Jumia, revenue|", "Jumia revenue", EXACT_CFG)
        assert counts == (2, 0, 0, 0)

    def test_separators_kept_when_configured(self):
        # "Jumia," no longer matches "Jumia"; the second position still does
        cfg = EvalConfig(mode="exact", strip_separators=False)
        counts = score_example("Jumia, revenue", "Jumia revenue", cfg)
        assert counts == (1, 0, 1, 0)

    def test_equal_words_never_reach_edit_distance(self, monkeypatch):
        calls = []

        def counting(a, b, limit):
            calls.append((a, b))
            return edit_distance(a, b, limit)

        monkeypatch.setattr(evalkit, "edit_distance", counting)
        assert score_example(JUMIA_TARGET, JUMIA_TARGET.upper(), FUZZY_CFG) == (12, 0, 0, 0)
        assert calls == []
        # words of 10 or more characters: an unequal pair has a band of 1 at 0.9
        words = ["alphabetical", "betterments", "gammaglobulin", "deltahedron"]
        for k in range(len(words) + 1):
            calls.clear()
            predicted = [w + "x" for w in words[:k]] + [w.upper() for w in words[k:]] + ["extra"]
            score_example(" ".join(words), " ".join(predicted), FUZZY_CFG)
            assert len(calls) == k

    def test_zero_band_pairs_never_reach_edit_distance(self, monkeypatch):
        # below 10 characters no distance but 0 meets 0.9, so an unequal pair
        # is refused without one; the counts are the same as with it
        calls = []
        monkeypatch.setattr(evalkit, "edit_distance", lambda a, b, limit: calls.append((a, b)))
        words = "alpha beta gamma delta"
        predicted = "alphax bet GAMMA dela extra"
        counts = score_example(words, predicted, FUZZY_CFG)
        assert counts == oracle_score(words, predicted, "fuzzy", 0.90, True) == (1, 0, 4, 0)
        assert calls == []

    def test_unicode_case_variants_equal_oracle(self):
        # words whose folds differ in length or need full case folding, joined
        # by separators the scorer strips or splits on
        words = ["Straße", "STRASSE", "strasse", "İ", "i\u0307", "I", "ΣΑΣ", "σας", "σασ",
                 "\ufb01n", "FIN", "fin", "fim", "Jumia", "JUMIA"]
        joins = [" ", "\u00a0", "\u2003", "|", ",", ", ", "| ", " \u00a0"]
        rng = random.Random(4242)

        def text():
            parts = rng.choices(words, k=rng.randint(0, 5))
            joined = "".join(w + rng.choice(joins) for w in parts)
            return joined if rng.random() < 0.5 else joined[:-1]  # or cut the last separator

        for _ in range(400):
            target, predicted = text(), text()
            for mode, threshold, strip in [("exact", 0.9, True), ("exact", 0.9, False),
                                           ("fuzzy", 0.5, True), ("fuzzy", 0.75, False),
                                           ("fuzzy", 0.9, True), ("fuzzy", 1.0, True)]:
                cfg = EvalConfig(mode=mode, fuzzy_threshold=threshold, strip_separators=strip)
                assert score_example(target, predicted, cfg) == oracle_score(
                    target, predicted, mode, threshold, strip
                ), (target, predicted, mode, threshold, strip)

    def test_appending_matching_pair_never_decreases_tp(self):
        rng = random.Random(23)
        for _ in range(100):
            target = " ".join(rng.choices("ab", k=rng.randint(0, 4)))
            predicted = " ".join(rng.choices("ab", k=rng.randint(0, 4)))
            base_tp = score_example(target, predicted, EXACT_CFG)[0]
            grown_tp = score_example(target + " zz", predicted + " zz", EXACT_CFG)[0]
            assert grown_tp >= base_tp


class TestAggregate:
    def test_benchmark_f1_rows(self):
        rows = [
            (0.0606, 0.0557, 0.058),
            (0.092, 0.5599, 0.158),
            (0.5238, 0.6741, 0.590),
            (0.5420, 0.6825, 0.604),
            (0.2803, 0.3209, 0.299),
        ]
        for precision, recall, expected_f1 in rows:
            assert f1_score(precision, recall) == pytest.approx(expected_f1, abs=1e-3)

    def test_zero_counters_yield_zero_metrics(self):
        report = aggregate([(0, 0, 0, 0)])
        assert (report.accuracy, report.precision, report.recall, report.specificity, report.f1) == (
            0.0, 0.0, 0.0, 0.0, 0.0,
        )

    def test_counter_sums_and_metrics(self):
        report = aggregate([(3, 1, 1, 1), (1, 1, 1, 1)])
        assert (report.tp, report.tn, report.fp, report.fn) == (4, 2, 2, 2)
        assert report.precision == pytest.approx(4 / 6)
        assert report.recall == pytest.approx(4 / 6)
        assert report.specificity == pytest.approx(2 / 4)
        assert report.accuracy == pytest.approx(6 / 10)

    def test_f1_is_harmonic_mean_when_tp_positive(self):
        report = aggregate([(5, 0, 3, 2)])
        expected = 2 * report.precision * report.recall / (report.precision + report.recall)
        assert report.f1 == pytest.approx(expected)


class TestEvaluateCorpus:
    def test_identical_prediction_scores_perfect(self):
        gold = [GoldExample("a", "text", JUMIA_TARGET)]
        report = evaluate_corpus(gold, {"a": JUMIA_TARGET}, EXACT_CFG)
        assert report.accuracy == 1.0

    def test_half_right_corpus(self):
        gold = [
            GoldExample("a", "t", "x y"),
            GoldExample("b", "t", "x y"),
        ]
        predictions = {"a": "x y", "b": "q q"}
        report = evaluate_corpus(gold, predictions, EXACT_CFG)
        assert report.precision == pytest.approx(0.5)

    def test_missing_prediction_id_raises(self):
        gold = [GoldExample("a", "t", ""), GoldExample("b", "t", "")]
        with pytest.raises(EvaluationError, match="b"):
            evaluate_corpus(gold, {"a": ""}, EXACT_CFG)

    def test_stray_prediction_ids_warn_once(self, caplog):
        # predictions for a whole corpus scored against a split of its gold
        gold = [GoldExample("a", "t", "x y")]
        predictions = {"a": "x z", **{f"extra{k}": "" for k in range(7)}}
        alone = evaluate_corpus(gold, {"a": "x z"}, EXACT_CFG)
        report = evaluate_corpus(gold, predictions, EXACT_CFG)
        assert report == alone and report.to_dict() == alone.to_dict()
        [record] = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert record.getMessage() == (
            "ignoring 7 predictions with no gold example, e.g. ids: extra0, extra1, extra2, extra3, extra4"
        )

    def test_empty_prediction_string_is_valid(self):
        gold = [GoldExample("a", "t", "")]
        report = evaluate_corpus(gold, {"a": ""}, EXACT_CFG)
        assert (report.tn, report.accuracy) == (1, 1.0)


class TestScoreBreakdown:
    def test_rows_sum_to_report(self, gold_examples):
        gold = gold_examples
        # every third prediction empty, every third one with a typo
        predictions = {
            ex.id: ["", ex.target_text, ex.target_text.replace("million", "milion")][k % 3]
            for k, ex in enumerate(gold)
        }
        report = evaluate_corpus(gold, predictions, FUZZY_CFG)
        rows = score_breakdown(gold, report)
        assert evalkit.BREAKDOWN.keys == ("id", "tp", "tn", "fp", "fn")
        assert [r[0] for r in rows] == [ex.id for ex in gold]
        for column, key in enumerate(("tp", "tn", "fp", "fn"), start=1):
            assert sum(r[column] for r in rows) == getattr(report, key)
        assert report.fp and report.fn and report.tp

    def test_counts_stay_out_of_report_file_and_equality(self):
        gold = [GoldExample("a", "t", "x y")]
        report = evaluate_corpus(gold, {"a": "x z"}, EXACT_CFG)
        assert report.per_example == ((1, 0, 1, 0),)
        assert "per_example" not in report.to_dict()
        assert report == aggregate([(1, 0, 0, 0), (0, 0, 1, 0)])


class TestEvalConfig:
    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            EvalConfig(mode="loose")

    def test_rejects_zero_threshold(self):
        with pytest.raises(ValueError):
            EvalConfig(mode="fuzzy", fuzzy_threshold=0.0)

    @pytest.mark.parametrize(
        "kwargs,field",
        [
            ({"fuzzy_threshold": True}, "fuzzy_threshold"),
            ({"fuzzy_threshold": "0.9"}, "fuzzy_threshold"),
            ({"fuzzy_threshold": None}, "fuzzy_threshold"),
            ({"strip_separators": "no"}, "strip_separators"),
            ({"strip_separators": 0}, "strip_separators"),
        ],
    )
    def test_rejects_wrong_types(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            EvalConfig(mode="fuzzy", **kwargs)

    def test_accepts_int_threshold(self):
        assert EvalConfig(mode="fuzzy", fuzzy_threshold=1).fuzzy_threshold == 1


def test_casefold_facts_that_folding_once_relies_on():
    """``score_example`` folds a whole string and then splits it, and
    ``word_match`` folds its words again.  That equals folding each word once
    because no character folds to or from whitespace, none folds to ``|`` or
    ``,``, and folding is idempotent.  Checked against this interpreter's
    Unicode database, over every code point."""
    for c in map(chr, range(sys.maxunicode + 1)):
        folded = c.casefold()
        if folded == c:
            continue
        assert not c.isspace(), hex(ord(c))
        assert not any(f.isspace() or f in "|," for f in folded), hex(ord(c))
        assert folded.casefold() == folded, hex(ord(c))
