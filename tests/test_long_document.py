"""Extraction over one long document made of every fixture paragraph.

The heuristics are sentence-local, so joining paragraphs must neither change
what each paragraph yields nor make pairing cost grow faster than the
document does.
"""

import json
from pathlib import Path

from finrelex import records as records_mod
from finrelex import relex
from finrelex.corpus import load_documents
from finrelex.deptree import TreeView

FIXTURE_CORPUS = Path(__file__).parent / "data" / "fixture_corpus.jsonl"
CHAIN_TOKENS = 300


def _chain_paragraph(length: int) -> dict:
    """One run-on sentence that is a single ``conj`` head chain, no entities."""
    tokens = [
        {"i": i, "text": "sales", "lemma": "sales", "pos": "NOUN", "dep": "conj" if i else "ROOT",
         "head": max(i - 1, 0), "sent": 0}
        for i in range(length)
    ]
    return {"id": "chain", "text": " ".join(["sales"] * length), "tokens": tokens, "entities": [],
            "noun_chunks": []}


def _joined_document(tmp_path, passes: int):
    """Every fixture paragraph ``passes`` times in file order, with the chain
    sentence in the middle, as one document with re-offset tokens and spans.
    Returns the loaded document and its paragraph ids in document order."""
    paragraphs = [json.loads(line) for line in FIXTURE_CORPUS.read_text(encoding="utf-8").splitlines()]
    parts = paragraphs * passes
    parts.insert(len(parts) // 2, _chain_paragraph(CHAIN_TOKENS))
    tokens, entities, chunks = [], [], []
    sentence = 0
    for part in parts:
        off = len(tokens)
        tokens += [dict(t, i=t["i"] + off, head=t["head"] + off, sent=t["sent"] + sentence)
                   for t in part["tokens"]]
        sentence = tokens[-1]["sent"] + 1
        entities += [dict(e, start=e["start"] + off, end=e["end"] + off) for e in part["entities"]]
        chunks += [dict(c, start=c["start"] + off, end=c["end"] + off, root=c["root"] + off)
                   for c in part["noun_chunks"]]
    joined = {"id": f"joined-x{passes}", "text": " ".join(p["text"] for p in parts), "tokens": tokens,
              "entities": entities, "noun_chunks": chunks}
    path = tmp_path / f"joined-x{passes}.jsonl"
    path.write_text(json.dumps(joined) + "\n", encoding="utf-8")
    (doc,) = load_documents(path)
    return doc, [p["id"] for p in parts]


def test_joined_document_yields_the_paragraph_targets_in_order(tmp_path, gold_by_id, toy_table, lexicon):
    doc, ids = _joined_document(tmp_path, passes=1)
    targets = [gold_by_id[i].target_text for i in ids if i != "chain"]
    expected = " ".join(target for target in targets if target)
    assert records_mod.serialize(relex.extract(TreeView.build(doc), toy_table, lexicon)) == expected


def test_pairing_work_grows_linearly(tmp_path, monkeypatch):
    calls = []

    def counting(view, left_root, right_root):
        calls.append(1)
        return related(view, left_root, right_root)

    related = relex._related
    monkeypatch.setattr(relex, "_related", counting)
    counts = {}
    for passes in (2, 8):
        doc, _ = _joined_document(tmp_path, passes)
        calls.clear()
        relex.relate_other_pairs(TreeView.build(doc))
        counts[passes] = len(calls)
    # four times the paragraphs may cost at most about four times the tests;
    # pairing across the whole document would cost sixteen times
    assert 0 < counts[8] <= 4.5 * counts[2]
