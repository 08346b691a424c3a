"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Reference implementations here are deliberately independent of the library
code they check: the scorer oracle walks zipped token lists, and the edit
distance oracle is a memoized recursion rather than the banded one-row
table used by the package.
"""

import dataclasses
import itertools
import json
import random
import re
import time
from contextlib import contextmanager
from functools import lru_cache

import pytest

from finrelex import corpus, records, relex, semvec
from finrelex.cli import main as cli_main
from finrelex.deptree import TreeView
from finrelex.evalkit import EvalConfig, f1_score, score_example, word_match
from finrelex.records import RelationRecord
from tests.conftest import FIXTURE_CORPUS, FIXTURE_GOLD, TOY_EMBEDDINGS, table_of


@contextmanager
def criterion(number: int, title: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {title}")
        raise
    elapsed = time.perf_counter() - started
    print(f"PASS criterion {number}: {title} ({elapsed:.3f}s)")


# --------------------------------------------------------------------------
# independent oracles
# --------------------------------------------------------------------------

def oracle_edit_distance(a: str, b: str) -> int:
    @lru_cache(maxsize=None)
    def dist(i: int, j: int) -> int:
        if i == 0:
            return j
        if j == 0:
            return i
        return min(
            dist(i - 1, j) + 1,
            dist(i, j - 1) + 1,
            dist(i - 1, j - 1) + (a[i - 1] != b[j - 1]),
        )
    return dist(len(a), len(b))


def oracle_word_match(a: str, b: str, mode: str, threshold: float) -> bool:
    a, b = a.strip().casefold(), b.strip().casefold()
    if not a and not b:
        return True
    if mode == "exact":
        return a == b
    return 1.0 - oracle_edit_distance(a, b) / max(len(a), len(b)) >= threshold


def oracle_score(target: str, predicted: str, mode: str, threshold: float, strip: bool):
    def tokens(s):
        if strip:
            s = re.sub(r"[|,]", " ", s)
        return s.split()

    target_tokens, predicted_tokens = tokens(target), tokens(predicted)
    if not target_tokens and not predicted_tokens:
        return (0, 1, 0, 0)
    tp = tn = fp = fn = 0
    for t, p in itertools.zip_longest(target_tokens, predicted_tokens):
        if t is None:
            fp += 1
        elif p is None:
            fn += 1
        elif oracle_word_match(t, p, mode, threshold):
            tp += 1
        else:
            fp += 1
    return (tp, tn, fp, fn)


# --------------------------------------------------------------------------
# criteria
# --------------------------------------------------------------------------

def test_criterion_01_f1_arithmetic():
    with criterion(1, "f1 arithmetic reproduces five benchmark precision/recall rows"):
        rows = [
            (0.0606, 0.0557, 0.058),
            (0.092, 0.5599, 0.158),
            (0.5238, 0.6741, 0.590),
            (0.5420, 0.6825, 0.604),
            (0.2803, 0.3209, 0.299),
        ]
        for precision, recall, expected in rows:
            assert abs(f1_score(precision, recall) - expected) <= 0.001


def test_criterion_02_apple_end_to_end(toy_table, lexicon, apple_doc):
    with criterion(2, "Apple fixture extracts exactly one revenue record"):
        got = relex.extract(TreeView.build(apple_doc), toy_table, lexicon)
        assert got == [RelationRecord("Apple", "revenue", "$9.4 million", "unknown-date")]


def test_criterion_03_fixture_corpus_agreement(documents, gold_by_id, toy_table, lexicon):
    with criterion(3, "fixture corpus matches its pre-registered record lists"):
        assert len(documents) >= 20
        empties = [d for d in documents if not gold_by_id[d.id].target_text]
        assert len(empties) >= 5

        kinds_seen = set()
        paths_seen = set()
        for doc in documents:
            view = TreeView.build(doc)
            for rel in (
                relex.relate_money_company(view)
                + relex.relate_company_date(view)
                + relex.relate_other_pairs(view)
            ):
                kinds_seen.add(rel.kind)
                paths_seen.add((rel.kind, rel.path))
        assert kinds_seen == {
            "company-money", "company-date", "company-country",
            "company-person", "money-date", "person-country",
        }
        for path in "abc":
            assert ("company-money", path) in paths_seen
            assert ("company-date", path) in paths_seen

        for doc in documents:
            expected = records.parse(gold_by_id[doc.id].target_text)
            got = relex.extract(TreeView.build(doc), toy_table, lexicon)
            assert got == expected, f"disagreement on document {doc.id}"


def test_criterion_04_scorer_oracle_equivalence():
    with criterion(4, "positional scorer equals the reference scorer on 1000 pairs"):
        rng = random.Random(404)
        alphabet = ["a", "b", "ab", "ba", "abc", "investment", "investmant"]
        separators = ["", "|", ","]
        configs = [
            ("exact", 0.9, True),
            ("exact", 0.9, False),
            ("fuzzy", 0.9, True),
            ("fuzzy", 0.8, False),
        ]

        def random_string():
            n = rng.randint(0, 12)
            pieces = []
            for _ in range(n):
                pieces.append(rng.choice(alphabet) + rng.choice(separators))
            return " ".join(pieces)

        for i in range(1000):
            target, predicted = random_string(), random_string()
            mode, threshold, strip = configs[i % len(configs)]
            cfg = EvalConfig(mode=mode, fuzzy_threshold=threshold, strip_separators=strip)
            assert score_example(target, predicted, cfg) == oracle_score(
                target, predicted, mode, threshold, strip
            ), (target, predicted, mode, threshold, strip)


def test_criterion_05_fuzzy_match_oracle():
    with criterion(5, "fuzzy word matching equals the DP oracle on 10000 pairs"):
        boundary = EvalConfig(mode="fuzzy", fuzzy_threshold=0.90)
        assert word_match("investment", "investmant", boundary)
        assert not word_match("million", "millions", boundary)

        rng = random.Random(505)
        for _ in range(10000):
            a = "".join(rng.choices("abcdef", k=rng.randint(0, 10)))
            b = "".join(rng.choices("abcdef", k=rng.randint(0, 10)))
            for threshold in (0.80, 0.90, 1.00):
                cfg = EvalConfig(mode="fuzzy", fuzzy_threshold=threshold)
                assert word_match(a, b, cfg) == oracle_word_match(a, b, "fuzzy", threshold), (
                    a, b, threshold,
                )


def test_criterion_06_serialization_round_trip():
    with criterion(6, "serialize/parse round-trips 1000 generated record lists"):
        jumia = "Jumia, revenue, €41 million, Q4 2020| Jumia, revenue, €33.7 million, Q3 2020|"
        assert records.serialize(records.parse(jumia)) == jumia

        rng = random.Random(606)
        names = ("founder", "country", "revenue", "customers/users", "investment")

        def random_field(allow_comma=False):
            glyphs = "abcXYZ€$9."
            if allow_comma:
                glyphs += ","
            words = [
                "".join(rng.choices(glyphs, k=rng.randint(1, 6))).strip(",") or "x"
                for _ in range(rng.randint(1, 3))
            ]
            return " ".join(words)

        for _ in range(1000):
            original = [
                RelationRecord(
                    company=random_field(),
                    variable_name=rng.choice(names),
                    variable_value=random_field(),
                    variable_date=random_field(allow_comma=True),
                )
                for _ in range(rng.randint(0, 5))
            ]
            assert records.parse(records.serialize(original)) == original


def test_criterion_07_split_dedup_property():
    with criterion(7, "dedup split holds over 200 corpora with injected duplicates"):
        rng = random.Random(707)
        for trial in range(200):
            base = rng.randint(8, 24)
            gold = [
                corpus.GoldExample(
                    str(i), f"p{i}", f"Company{i}, revenue, ${i} million, unknown-date|"
                )
                for i in range(base)
            ]
            duplicated_ids = set()
            for j in range(rng.randint(1, 3)):
                twin = rng.randrange(base)
                duplicated_ids.add(str(twin))
                dup_id = f"dup{j}"
                duplicated_ids.add(dup_id)
                gold.append(
                    corpus.GoldExample(
                        dup_id, f"p{dup_id}",
                        gold[twin].target_text.replace("Company", "COMPANY"),
                    )
                )
            rng.shuffle(gold)

            train, test = corpus.split_train_test(gold, 0.2, seed=trial)
            target_size = round(0.2 * len(gold))

            assert {g.id for g in train} | {g.id for g in test} == {g.id for g in gold}
            assert len(test) <= target_size
            # duplicated facts can never leave training, everything else can
            achievable = len(gold) - len(duplicated_ids)
            assert len(test) == min(target_size, achievable)
            for t in test:
                t_info = corpus._info_content(t)
                for r in train:
                    assert not corpus._contained(t_info, corpus._info_content(r))


def test_criterion_08_classifier_properties(toy_table, lexicon):
    with criterion(8, "toy-table classifier labels and scale invariance"):
        for phrase in ("income", "a net income", "the income", "income zzz"):
            assert semvec.classify_money_phrase(toy_table, lexicon, phrase) == "revenue", phrase
        for phrase in ("raised", "the raised", "raised zzz"):
            assert semvec.classify_money_phrase(toy_table, lexicon, phrase) == "investment", phrase
        for phrase in ("zzz", "qqq www", ""):
            assert semvec.classify_money_phrase(toy_table, lexicon, phrase) == "unknown", phrase

        probes = ("income", "a net income", "raised", "$10 million", "zzz", "the founder of")
        for scale in (0.001, 2.5, 1000.0):
            scaled = table_of({w: [scale * x for x in toy_table.lookup(w)] for w in toy_table.index})
            for phrase in probes:
                assert semvec.classify_money_phrase(scaled, lexicon, phrase) == (
                    semvec.classify_money_phrase(toy_table, lexicon, phrase)
                )
                assert semvec.classify_person_phrase(scaled, lexicon, phrase, "the founder of") == (
                    semvec.classify_person_phrase(toy_table, lexicon, phrase, "the founder of")
                )


def test_criterion_09_worker_determinism(tmp_path):
    with criterion(9, "1-worker and 8-worker runs are byte-identical"):
        outputs = {}
        for workers in (1, 8):
            pred = tmp_path / f"pred_{workers}.jsonl"
            report = tmp_path / f"report_{workers}.json"
            assert cli_main([
                "extract", "--corpus", str(FIXTURE_CORPUS), "--embeddings", str(TOY_EMBEDDINGS),
                "--out", str(pred), "--workers", str(workers),
            ]) == 0
            assert cli_main([
                "evaluate", "--gold", str(FIXTURE_GOLD), "--pred", str(pred),
                "--report", str(report),
            ]) == 0
            outputs[workers] = (pred.read_bytes(), report.read_bytes())
        assert outputs[1] == outputs[8]
        assert json.loads(outputs[1][1])["accuracy"] == 1.0
