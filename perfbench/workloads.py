"""Seeded inputs for the finrelex benchmark workloads.

Each builder writes one workload's files into a work directory and returns a
:class:`Workload`: the ``finrelex`` command to time, the same command on empty
input (for ``setup_s``), the item count and a check of the outputs.  finrelex
itself is never imported here.  Documents are built from the hand-parsed
fixture in ``tests/data`` and their expected predictions are its hand-frozen
gold targets; gold files for ``evaluate`` and ``prepare`` are synthetic and
are checked by :mod:`reference`.  The same seed always gives byte-identical
files.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import reference

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
FIXTURE_CORPUS = DATA / "fixture_corpus.jsonl"
FIXTURE_GOLD = DATA / "fixture_gold.jsonl"
TOY_EMBEDDINGS = DATA / "toy_embeddings.txt"

# Padding words for the embedding table.  No fixture token starts with this
# prefix, so the padding is never looked up and every verdict is unchanged.
PAD_PREFIX = "qxz"
CHAIN_WORDS = ("sales", "costs", "margins", "volumes", "orders", "payments")
TEST_FRACTION = 0.2  # prepare's default --test-fraction

# Workload sizes.  ``full`` is what the benchmark times; ``tiny`` is the
# self-check; ``probe`` is the fixed-size run that gives the traced run of
# another workload a measured value for layers that workload never calls.
SIZES = {
    "short_docs": {"full": {"docs": 6_000, "pad_words": 100_000},
                   "tiny": {"docs": 60, "pad_words": 200},
                   "probe": {"docs": 400, "pad_words": 0}},
    "long_docs": {"full": {"docs": 4, "passes": 20, "chain": 1_500},
                  "tiny": {"docs": 2, "passes": 2, "chain": 40}},
    "score_fuzzy": {"full": {"examples": 12_000},
                    "tiny": {"examples": 200},
                    "probe": {"examples": 1_000}},
    "split_dedup": {"full": {"examples": 2_000},
                    "tiny": {"examples": 200},
                    "probe": {"examples": 300}},
}


@dataclass
class Workload:
    """One generated workload instance, ready to run."""

    name: str
    argv: list[str]
    setup_argv: list[str] | None  # None: the command rejects empty input, so set-up is the import
    items: int
    sizes: dict
    outputs: list[Path]
    reads: list[Path]  # the JSON-lines inputs the command decodes
    check: Callable[[], int] = field(repr=False)  # items whose output differs from the reference


def fixture() -> tuple[list[dict], dict[str, str]]:
    """Fixture paragraphs in file order, and their gold targets by id."""
    paragraphs = [json.loads(line) for line in FIXTURE_CORPUS.read_text(encoding="utf-8").splitlines()]
    gold = {}
    for line in FIXTURE_GOLD.read_text(encoding="utf-8").splitlines():
        obj = json.loads(line)
        gold[obj["id"]] = obj["target_text"]
    for p in paragraphs:
        if any(t["text"].casefold().startswith(PAD_PREFIX) for t in p["tokens"]):
            raise ValueError(f"fixture token collides with the embedding padding in {p['id']}")
    return paragraphs, gold


def write_jsonl(path: Path, rows) -> None:
    path.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows), encoding="utf-8")


def write_embeddings(path: Path, rng: random.Random, pad_words: int) -> int:
    """The toy table followed by ``pad_words`` seeded synthetic entries;
    returns the number of words written."""
    lines = TOY_EMBEDDINGS.read_text(encoding="utf-8").splitlines()
    dim = len(lines[0].split()) - 1
    for i in range(pad_words):
        values = " ".join(f"{rng.uniform(-1.0, 1.0):.4f}" for _ in range(dim))
        lines.append(f"{PAD_PREFIX}{i:07d} {values}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return len(lines)


def chain_paragraph(length: int) -> dict:
    """One sentence that is a single ``conj`` head chain with no entities."""
    words = [CHAIN_WORDS[i % len(CHAIN_WORDS)] for i in range(length)]
    tokens = [
        {"i": i, "text": w, "lemma": w, "pos": "NOUN", "dep": "conj" if i else "ROOT",
         "head": max(i - 1, 0), "sent": 0}
        for i, w in enumerate(words)
    ]
    return {"id": "chain", "text": " ".join(words), "tokens": tokens, "entities": [], "noun_chunks": []}


def join_paragraphs(doc_id: str, parts: list[dict]) -> dict:
    """Concatenate annotated paragraphs into one document, shifting every
    token index, head, sentence id and span."""
    tokens, entities, chunks, texts = [], [], [], []
    sentence = 0
    for part in parts:
        off = len(tokens)
        for t in part["tokens"]:
            tokens.append(dict(t, i=t["i"] + off, head=t["head"] + off, sent=t["sent"] + sentence))
        sentence += part["tokens"][-1]["sent"] + 1
        entities += [dict(e, start=e["start"] + off, end=e["end"] + off) for e in part["entities"]]
        chunks += [dict(c, start=c["start"] + off, end=c["end"] + off, root=c["root"] + off)
                   for c in part["noun_chunks"]]
        texts.append(part["text"])
    return {"id": doc_id, "text": " ".join(texts), "tokens": tokens, "entities": entities,
            "noun_chunks": chunks}


def long_documents(rng: random.Random, docs: int, passes: int, chain: int) -> tuple[list[dict], list[str]]:
    """Documents that each hold every fixture paragraph ``passes`` times in a
    seeded order plus one ``chain``-token run-on sentence at a seeded place.

    Every seed gives the same paragraph multiset per document, so only the
    order changes with the seed.  The expected prediction is the non-empty
    gold targets of the paragraphs, in document order, joined by a space.
    """
    paragraphs, gold = fixture()
    rows, expected = [], []
    for d in range(docs):
        order = [p for p in paragraphs for _ in range(passes)]
        rng.shuffle(order)
        parts = list(order)
        if chain:
            parts.insert(rng.randrange(len(parts) + 1), chain_paragraph(chain))
        rows.append(join_paragraphs(f"long{d:03d}", parts))
        expected.append(" ".join(gold[p["id"]] for p in order if gold[p["id"]]))
    return rows, expected


def _extract_workload(name: str, work: Path, rows: list[dict], expected: list[str],
                      embeddings: Path, workers: int, sizes: dict) -> Workload:
    corpus, empty = work / "docs.jsonl", work / "empty.jsonl"
    out, empty_out = work / "pred.jsonl", work / "empty-pred.jsonl"
    write_jsonl(corpus, rows)
    empty.write_text("", encoding="utf-8")
    want = [(r["id"], text) for r, text in zip(rows, expected)]
    common = ["--embeddings", str(embeddings), "--workers", str(workers)]
    return Workload(
        name=name,
        argv=["extract", "--corpus", str(corpus), "--out", str(out), *common],
        setup_argv=["extract", "--corpus", str(empty), "--out", str(empty_out), *common],
        items=len(rows),
        sizes=dict(sizes, tokens=sum(len(r["tokens"]) for r in rows)),
        outputs=[out],
        check=lambda: reference.check_predictions(out, want),
        reads=[corpus],
    )


def build_short_docs(work: Path, seed: int, docs: int, pad_words: int) -> Workload:
    """Fixture paragraphs drawn with replacement, each with a fresh id."""
    rng = random.Random(seed)
    paragraphs, gold = fixture()
    picks = [rng.choice(paragraphs) for _ in range(docs)]
    rows = [dict(p, id=f"doc{k:06d}") for k, p in enumerate(picks)]
    embeddings = work / "embeddings.txt"
    words = write_embeddings(embeddings, rng, pad_words)
    return _extract_workload("short_docs", work, rows, [gold[p["id"]] for p in picks], embeddings,
                             workers=2, sizes={"docs": docs, "embedding_words": words})


def build_long_docs(work: Path, seed: int, docs: int, passes: int, chain: int) -> Workload:
    rows, expected = long_documents(random.Random(seed), docs, passes, chain)
    return _extract_workload("long_docs", work, rows, expected, TOY_EMBEDDINGS, workers=1,
                             sizes={"docs": docs, "paragraphs_per_doc": passes * len(fixture()[0]),
                                    "chain_tokens": chain})


# --- synthetic gold ---------------------------------------------------------

SYLLABLES = ("ka", "lo", "mi", "ta", "ro", "zen", "va", "qu", "bi", "no", "sa", "tel", "fin", "pay", "xo")
CURRENCIES = ("$", "€", "₦", "£")
MONTHS = ("January", "March", "May", "July", "October", "December")
COUNTRIES = ("Nigeria", "Kenya", "Ghana", "Egypt", "South Africa", "Senegal")
VARIABLES = ("founder", "country", "revenue", "customers/users", "investment")


def _name(rng: random.Random, words: int) -> str:
    return " ".join("".join(rng.choice(SYLLABLES) for _ in range(rng.randint(2, 3))).capitalize()
                    for _ in range(words))


def _record(rng: random.Random, companies: list[str]) -> str:
    variable = rng.choice(VARIABLES)
    if variable == "founder":
        value = _name(rng, 2)
    elif variable == "country":
        value = rng.choice(COUNTRIES)
    elif variable == "customers/users":
        value = f"{rng.randint(1, 90)} million users"
    else:
        value = f"{rng.choice(CURRENCIES)}{rng.randint(1, 999) / 10:g} {rng.choice(('million', 'billion'))}"
    date = rng.choice((
        "unknown-date",
        f"Q{rng.randint(1, 4)} {rng.randint(2015, 2023)}",
        f"{rng.choice(MONTHS)} {rng.randint(2015, 2023)}",
        f"{rng.choice(MONTHS)} {rng.randint(1, 28)}, {rng.randint(2015, 2023)}",
        "last year",
    ))
    return f"{rng.choice(companies)}, {variable}, {value}, {date}"


def _target(records: list[str]) -> str:
    return "| ".join(records) + "|" if records else ""


def _respell(record: str, rng: random.Random) -> str:
    """Same record under the case- and whitespace-insensitive comparison."""
    company, rest = record.split(", ", 1)
    return f"{company.upper() if rng.random() < 0.5 else company.lower()},  {rest}"


def gold_examples(rng: random.Random, n: int, empty_share: float, related_share: float) -> list[dict]:
    """Synthetic gold rows.  ``empty_share`` of them have an empty target;
    ``related_share`` of the informative ones repeat an earlier example's
    records (some respelled), alone or plus one more, so record multisets are
    equal to or contained in one another."""
    companies = [_name(rng, rng.randint(1, 2)) for _ in range(max(8, n // 10))]
    rows, informative = [], []
    for k in range(n):
        if rng.random() < empty_share:
            records = []
        elif informative and rng.random() < related_share:
            records = [_respell(r, rng) if rng.random() < 0.3 else r for r in rng.choice(informative)]
            if rng.random() < 0.8:
                records.insert(rng.randrange(len(records) + 1), _record(rng, companies))
        else:
            records = [_record(rng, companies) for _ in range(rng.randint(1, 3))]
        if records:
            informative.append(records)
        text = f"Paragraph {k} about {rng.choice(companies)} and its {rng.choice(VARIABLES)}."
        rows.append({"id": f"g{k:06d}", "input_text": text, "target_text": _target(records)})
    return rows


def _edit_word(word: str, rng: random.Random) -> str:
    pos = rng.randrange(len(word) + 1)
    letter = rng.choice("abcdefghijklmnopqrstuvwxyz")
    op = rng.randrange(3)
    if op == 0 or len(word) < 2:
        return word[:pos] + letter + word[pos:]
    pos = min(pos, len(word) - 1)
    if op == 1:
        return word[:pos] + letter + word[pos + 1:]
    return word[:pos] + word[pos + 1:]


def perturb(target: str, rng: random.Random, companies: list[str]) -> str:
    """A seeded prediction for ``target``: a copy, character edits, a dropped,
    extra or reordered record, a case change, or an empty prediction."""
    records = [r.strip() for r in target.split("|") if r.strip()]
    kind = rng.random()
    if not records:
        return "" if kind < 0.7 else _target([_record(rng, companies)])
    if kind < 0.25:
        return target
    if kind < 0.55:
        words = target.split(" ")
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(words))
            if words[i].strip(",|"):
                core = words[i].rstrip(",|")
                words[i] = _edit_word(core, rng) + words[i][len(core):]
        return " ".join(words)
    if kind < 0.65:
        return _target(records[:-1]) if len(records) > 1 else ""
    if kind < 0.75:
        records.insert(rng.randrange(len(records) + 1), _record(rng, companies))
        return _target(records)
    if kind < 0.85:
        rng.shuffle(records)
        return _target(records)
    if kind < 0.93:
        return target.upper()
    return ""


def build_score_fuzzy(work: Path, seed: int, examples: int) -> Workload:
    """Gold examples and seeded perturbations of them as predictions."""
    rng = random.Random(seed)
    gold = gold_examples(rng, examples, empty_share=0.25, related_share=0.0)
    companies = [_name(rng, 1) for _ in range(50)]
    preds = [{"id": g["id"], "predicted_text": perturb(g["target_text"], rng, companies)} for g in gold]
    want = [(g["id"], reference.score(g["target_text"], p["predicted_text"], reference.FUZZY_THRESHOLD))
            for g, p in zip(gold, preds)]
    rng.shuffle(preds)
    paths = {k: work / f"{k}.jsonl" for k in ("gold", "pred", "empty", "breakdown", "empty-breakdown")}
    write_jsonl(paths["gold"], gold)
    write_jsonl(paths["pred"], preds)
    paths["empty"].write_text("", encoding="utf-8")
    report, empty_report = work / "report.json", work / "empty-report.json"

    def argv(gold_path: Path, pred_path: Path, report_path: Path, breakdown: Path) -> list[str]:
        return ["evaluate", "--gold", str(gold_path), "--pred", str(pred_path), "--mode", "fuzzy",
                "--report", str(report_path), "--breakdown", str(breakdown)]

    return Workload(
        name="score_fuzzy",
        argv=argv(paths["gold"], paths["pred"], report, paths["breakdown"]),
        setup_argv=argv(paths["empty"], paths["empty"], empty_report, paths["empty-breakdown"]),
        items=examples,
        sizes={"examples": examples},
        outputs=[report, paths["breakdown"]],
        check=lambda: reference.check_scores(report, paths["breakdown"], want),
        reads=[paths["gold"], paths["pred"]],
    )


def build_split_dedup(work: Path, seed: int, examples: int) -> Workload:
    """Gold examples with empty, equal and contained record multisets.

    Half the targets are empty: only then does the training side keep more
    empty than informative examples, so ``--balanced`` takes its
    seeded-sample path (at 30% it keeps every empty example).
    """
    rng = random.Random(seed)
    gold = gold_examples(rng, examples, empty_share=0.5, related_share=0.3)
    gold_path, out_dir = work / "gold.jsonl", work / "split"
    write_jsonl(gold_path, gold)
    outputs = [out_dir / "train.jsonl", out_dir / "test.jsonl", out_dir / "balanced-train.jsonl"]
    target = round(TEST_FRACTION * examples)
    return Workload(
        name="split_dedup",
        argv=["prepare", "--gold", str(gold_path), "--balanced", "--seed", str(seed),
              "--out-dir", str(out_dir)],
        setup_argv=None,
        items=examples,
        sizes={"examples": examples, "test_target": target},
        outputs=outputs,
        check=lambda: reference.check_split(gold, *outputs, target=target),
        reads=[gold_path],
    )


BUILDERS = {
    "short_docs": build_short_docs,
    "long_docs": build_long_docs,
    "score_fuzzy": build_score_fuzzy,
    "split_dedup": build_split_dedup,
}


def build(name: str, work: Path, seed: int, size: str = "full") -> Workload:
    """Generate workload ``name`` at ``size`` (full, tiny or probe) into ``work``."""
    work.mkdir(parents=True, exist_ok=True)
    return BUILDERS[name](work, seed, **SIZES[name][size])
