"""Output checks for the benchmark that do not import finrelex.

The scorer and the record comparison below are written from the README's
specification (positional word matching with separators stripped; record
fields compared case- and whitespace-insensitively), not from the package,
so a change in the package's behaviour shows up as failed items.
"""

from __future__ import annotations

import json
from collections import Counter
from itertools import zip_longest
from pathlib import Path

FUZZY_THRESHOLD = 0.90


def read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]


def check_predictions(path: Path, want: list[tuple[str, str]]) -> int:
    """Number of documents whose (id, predicted_text) line is not the expected
    one at its position in the prediction file."""
    got = [(row.get("id"), row.get("predicted_text")) for row in read_jsonl(path)]
    failed = sum(1 for g, w in zip_longest(got, want) if g != w)
    return min(failed, len(want))


def levenshtein(a: str, b: str) -> int:
    """Character edit distance, one row of the dynamic programme at a time."""
    row = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        diagonal, row[0] = row[0], i
        for j, cb in enumerate(b, start=1):
            diagonal, row[j] = row[j], min(row[j] + 1, row[j - 1] + 1, diagonal + (ca != cb))
    return row[-1]


def _words(s: str) -> list[str]:
    return s.replace("|", " ").replace(",", " ").split()


def _same(a: str, b: str, threshold: float) -> bool:
    a, b = a.casefold(), b.casefold()
    return a == b or 1.0 - levenshtein(a, b) / max(len(a), len(b)) >= threshold


def score(target: str, predicted: str, threshold: float) -> tuple[int, int, int, int]:
    """(tp, tn, fp, fn) of the positional fuzzy comparison of two strings."""
    t, p = _words(target), _words(predicted)
    if not t and not p:
        return (0, 1, 0, 0)
    tp = sum(_same(a, b, threshold) for a, b in zip(t, p))
    paired = min(len(t), len(p))
    return (tp, 0, paired - tp + max(0, len(p) - len(t)), max(0, len(t) - len(p)))


def check_scores(report_path: Path, breakdown_path: Path,
                 want: list[tuple[str, tuple[int, int, int, int]]]) -> int:
    """Number of examples whose breakdown row differs from the reference
    score; every example fails when the aggregate report is wrong."""
    rows = read_jsonl(breakdown_path)
    got = [(r.get("id"), (r.get("tp"), r.get("tn"), r.get("fp"), r.get("fn"))) for r in rows]
    failed = min(sum(1 for g, w in zip_longest(got, want) if g != w), len(want))

    tp, tn, fp, fn = (sum(w[1][k] for w in want) for k in range(4))
    ratio = lambda num, den: num / den if den else 0.0  # noqa: E731
    precision, recall = ratio(tp, tp + fp), ratio(tp, tp + fn)
    expected = {
        "tp": tp, "tn": tn, "fp": fp, "fn": fn,
        "accuracy": ratio(tp + tn, tp + tn + fp + fn),
        "precision": precision,
        "recall": recall,
        "specificity": ratio(tn, tn + fp),
        "f1": ratio(2 * precision * recall, precision + recall),
    }
    report = json.loads(report_path.read_text(encoding="utf-8"))
    if set(report) != set(expected) or any(abs(report[k] - v) > 5.1e-5 for k, v in expected.items()):
        return len(want)
    return failed


def record_multiset(target: str) -> Counter:
    """Records of a target string, each field case-folded and
    whitespace-collapsed; a record's date may itself contain commas."""
    records = Counter()
    for segment in target.split("|"):
        if segment.strip():
            records[tuple(" ".join(f.casefold().split()) for f in segment.split(",", 3))] += 1
    return records


def _contained(inner: Counter, outer: Counter) -> bool:
    return all(outer[key] >= count for key, count in inner.items())


def check_split(gold: list[dict], train_path: Path, test_path: Path, balanced_path: Path,
                target: int) -> int:
    """Number of gold examples involved in a violated split property.

    * train plus test is a permutation of the gold file;
    * the test set holds at most ``target`` examples;
    * no test record multiset equals or is contained in a train one;
    * the balanced subset is every informative train example plus as many
      empty train examples as there are informative ones (all of them when
      fewer exist).
    """
    key = lambda row: (row["id"], row["input_text"], row["target_text"])  # noqa: E731
    train, test, balanced = read_jsonl(train_path), read_jsonl(test_path), read_jsonl(balanced_path)
    bad: set = set()

    diff = Counter(map(key, gold))
    diff.subtract(Counter(map(key, train + test)))
    bad.update(k[0] for k, count in diff.items() if count)
    bad.update(row["id"] for row in test[target:])

    train_sets = [record_multiset(row["target_text"]) for row in train]
    holders: dict[tuple, list[int]] = {}
    for i, records in enumerate(train_sets):
        for record in records:
            holders.setdefault(record, []).append(i)
    for row in test:
        records = record_multiset(row["target_text"])
        if not records:
            if train:
                bad.add(row["id"])
            continue
        rarest = min(records, key=lambda r: len(holders.get(r, ())))
        if any(_contained(records, train_sets[i]) for i in holders.get(rarest, ())):
            bad.add(row["id"])

    train_keys = set(map(key, train))
    informative = {key(r) for r in train if r["target_text"].strip()}
    empty = {key(r) for r in train if not r["target_text"].strip()}
    kept = list(map(key, balanced))
    bad.update(k[0] for k in kept if k not in train_keys)
    bad.update(k[0] for k in informative - set(kept))
    kept_empty = len(set(kept) & empty)
    shortfall = abs(kept_empty - min(len(empty), len(informative))) + len(kept) - len(set(kept))
    return min(len(bad) + shortfall, len(gold))
