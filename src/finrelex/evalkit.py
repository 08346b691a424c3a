"""Stringent positional word-matching scorer and the five-metric report.

Target and predicted strings are tokenized and compared word-by-word at the
same position.  A matching pair counts as a true positive; a mismatching
pair counts as a false positive; a target word with no prediction at its
position is a false negative and a predicted word beyond the target is a
false positive.  A fully empty target/prediction pair contributes exactly
one true negative.  Words compare either exactly (after case-folding) or
fuzzily via normalized character edit distance at a configurable threshold.
Each scored string is case-folded once, whole, before it is split, and a
pair of equal folded words is a match without further work; only unequal
pairs reach :func:`word_match`.  Fuzzy mode decides each of those with an
edit distance bounded at the largest distance the threshold admits, which
gives the verdict of the full distance at a fraction of the cost; when that
bound is 0 (at threshold 0.9, every word shorter than 10 characters) the
unequal pair is refused with no distance at all.
:func:`evaluate_corpus` scores each example once; :func:`score_breakdown`
only formats the per-example counts kept on its report.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass, field, fields

from ._fileio import Fields
from .corpus import GoldExample
from .records import FIELD_SEPARATOR, RECORD_SEPARATOR

logger = logging.getLogger(__name__)

EXACT = "exact"
FUZZY = "fuzzy"


class EvaluationError(ValueError):
    """Raised when predictions do not cover the gold corpus."""


@dataclass(frozen=True)
class EvalConfig:
    mode: str = EXACT
    fuzzy_threshold: float = 0.90
    strip_separators: bool = True

    def __post_init__(self) -> None:
        if self.mode not in (EXACT, FUZZY):
            raise ValueError(f"mode must be {EXACT!r} or {FUZZY!r}, got {self.mode!r}")
        threshold = self.fuzzy_threshold
        if isinstance(threshold, bool) or not isinstance(threshold, (int, float)):
            raise ValueError(f"fuzzy_threshold must be a number, got {threshold!r}")
        if not isinstance(self.strip_separators, bool):
            raise ValueError(f"strip_separators must be a bool, got {self.strip_separators!r}")
        if not 0.0 < self.fuzzy_threshold <= 1.0:
            raise ValueError(f"fuzzy_threshold must be in (0, 1], got {self.fuzzy_threshold}")


@dataclass(frozen=True)
class EvalReport:
    tp: int
    tn: int
    fp: int
    fn: int
    accuracy: float
    precision: float
    recall: float
    specificity: float
    f1: float
    # (tp, tn, fp, fn) per example, in gold order; not part of the report file
    per_example: tuple[tuple[int, int, int, int], ...] = field(compare=False, repr=False)

    def to_dict(self) -> dict:
        """The report file's fields (those that compare), rates rounded to 4 places."""
        values = {f.name: getattr(self, f.name) for f in fields(self) if f.compare}
        return {k: round(v, 4) if isinstance(v, float) else v for k, v in values.items()}


def edit_distance(a: str, b: str, limit: int) -> int:
    """Unit-cost character-level Levenshtein distance, always bounded.

    The result is ``min(distance, limit + 1)``: exact up to the bound,
    ``limit + 1`` for anything above it.  A length difference above the
    bound decides at once; otherwise only the diagonal band
    ``|i - j| <= limit`` is filled, one row at a time, and the fill stops
    as soon as a row's band minimum exceeds the bound (Ukkonen 1985), so a
    call costs O(limit * min(len(a), len(b))).
    """
    if limit < 0:
        raise ValueError(f"limit must be non-negative, got {limit}")
    if len(a) > len(b):
        a, b = b, a
    over = limit + 1
    if len(b) - len(a) > limit:
        return over
    # one row of the table, overwritten in place inside the band; a cell to
    # the right of the band still holds its row-0 value, which exceeds limit
    row = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        lo = max(1, i - limit)
        hi = min(len(b), i + limit)
        diag = row[lo - 1]
        if lo == 1:
            row[0] = left = i
        else:
            left = over
        for j in range(lo, hi + 1):
            up = row[j]
            left = diag if b[j - 1] == ca else min(diag, up, left) + 1
            row[j] = left
            diag = up
        if min(row[lo:hi + 1]) > limit:
            return over
    return min(row[-1], over)


@functools.cache
def _max_distance(longest: int, threshold: float) -> int:
    """Largest ``d`` in ``0..longest`` with ``1.0 - d / longest >= threshold``.

    The expression is the fuzzy acceptance test itself and is monotone in
    ``d``, so ``distance <= d`` decides exactly as it does, boundary
    included.  Counting up from 0 evaluates it as written, in O(d), less
    than the distance it bounds.
    """
    d = 0
    while d < longest and 1.0 - (d + 1) / longest >= threshold:
        d += 1
    return d


def word_match(a: str, b: str, cfg: EvalConfig) -> bool:
    """Whether two words count as the same under the configured mode.

    Both modes compare case-folded, trimmed strings, and equal words (two
    empty strings too) match without an edit distance.  Fuzzy mode accepts
    an unequal pair when ``1 - editdistance/max(len)`` meets the threshold
    (inclusive), decided by a distance bounded at the largest admissible
    value; when that value is 0 the unequal words cannot match.
    """
    a, b = a.strip().casefold(), b.strip().casefold()
    if a == b:
        return True
    if cfg.mode == EXACT:
        return False
    k = _max_distance(max(len(a), len(b)), cfg.fuzzy_threshold)
    return k > 0 and edit_distance(a, b, k) <= k


def _tokenize(s: str, cfg: EvalConfig) -> list[str]:
    """The case-folded words of ``s``.  ``casefold`` never maps a character to
    or from whitespace, never produces a separator and is idempotent, so
    these are the words of ``s`` folded one by one."""
    if cfg.strip_separators:
        s = s.replace(RECORD_SEPARATOR, " ").replace(FIELD_SEPARATOR, " ")
    return s.casefold().split()


def score_example(target: str, predicted: str, cfg: EvalConfig) -> tuple[int, int, int, int]:
    """Positional (tp, tn, fp, fn) counts for one target/prediction pair."""
    target_words = _tokenize(target, cfg)
    predicted_words = _tokenize(predicted, cfg)
    if not target_words and not predicted_words:
        return (0, 1, 0, 0)
    lt, lp = len(target_words), len(predicted_words)
    tp = sum(t == p or word_match(t, p, cfg) for t, p in zip(target_words, predicted_words))
    return (tp, 0, min(lt, lp) - tp + max(lp - lt, 0), max(lt - lp, 0))


def f1_score(precision: float, recall: float) -> float:
    """Harmonic mean of precision and recall; 0 when both are 0."""
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def aggregate(scores: list[tuple[int, int, int, int]]) -> EvalReport:
    """Sum per-example counters and derive the five metrics.

    Zero-denominator metrics come out as 0 so degenerate corpora still
    produce a stable report.  The report keeps ``scores`` as ``per_example``.
    """
    tp = sum(s[0] for s in scores)
    tn = sum(s[1] for s in scores)
    fp = sum(s[2] for s in scores)
    fn = sum(s[3] for s in scores)

    def ratio(num: int, den: int) -> float:
        return num / den if den else 0.0

    precision = ratio(tp, tp + fp)
    recall = ratio(tp, tp + fn)
    return EvalReport(
        tp=tp,
        tn=tn,
        fp=fp,
        fn=fn,
        accuracy=ratio(tp + tn, tp + tn + fp + fn),
        precision=precision,
        recall=recall,
        specificity=ratio(tn, tn + fp),
        f1=f1_score(precision, recall),
        per_example=tuple(scores),
    )


def evaluate_corpus(
    gold: list[GoldExample], predictions: dict[str, str], cfg: EvalConfig
) -> EvalReport:
    """Score every gold example against its prediction and aggregate.

    Every gold id must have a prediction entry (an empty string is a valid
    prediction); missing ids raise :class:`EvaluationError` listing them all.
    Predictions with no gold example are not scored; one warning counts them.
    """
    missing = [ex.id for ex in gold if ex.id not in predictions]
    if missing:
        raise EvaluationError(f"missing predictions for ids: {', '.join(missing)}")
    gold_ids = {ex.id for ex in gold}
    stray = [pred_id for pred_id in predictions if pred_id not in gold_ids]
    if stray:
        logger.warning("ignoring %d predictions with no gold example, e.g. ids: %s",
                       len(stray), ", ".join(stray[:5]))
    return aggregate([score_example(ex.target_text, predictions[ex.id], cfg) for ex in gold])


# one row of the optional breakdown file
BREAKDOWN = Fields(id=str, tp=int, tn=int, fp=int, fn=int)


def score_breakdown(gold: list[GoldExample], report: EvalReport) -> list[tuple[str, int, int, int, int]]:
    """Per-example counter rows, in :data:`BREAKDOWN` order, taken from the
    report that :func:`evaluate_corpus` made for ``gold``."""
    return [(ex.id, *counts) for ex, counts in zip(gold, report.per_example, strict=True)]
