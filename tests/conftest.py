import json
import math
from array import array
from pathlib import Path

import pytest
from hypothesis import strategies as st

from finrelex import corpus, semvec
from finrelex.deptree import TreeView

DATA_DIR = Path(__file__).parent / "data"

FIXTURE_CORPUS = DATA_DIR / "fixture_corpus.jsonl"
FIXTURE_GOLD = DATA_DIR / "fixture_gold.jsonl"
TOY_EMBEDDINGS = DATA_DIR / "toy_embeddings.txt"


def table_of(vectors):
    """The table of ``{word: vector}``, its words taken as already case-folded,
    one matrix row each in the dict's order."""
    rows = list(vectors.values())
    flat = array("d", [x for row in rows for x in row])
    return semvec.EmbeddingTable({word: row for row, word in enumerate(vectors)}, semvec._matrix(flat, len(rows[0])))


# a value of each JSON kind, and the two non-finite numbers Python's JSON reader takes
RETYPED = [["sales", 3], "sales", 1, 0.25, 10 ** 400, None, True, math.nan, math.inf]


def mutated_json(data, obj: dict) -> bytes:
    """The JSON text of ``obj`` with one drawn mutation: a byte flipped, the
    text cut short, an unknown key added or one value retyped."""
    kind = data.draw(st.sampled_from(["flip", "cut", "unknown", "retype"]), label="mutation")
    obj = dict(obj)
    if kind == "unknown":
        obj[data.draw(st.sampled_from(["treshold", "words", ""]), label="key")] = 0.5
    elif kind == "retype":
        obj[data.draw(st.sampled_from(sorted(obj)), label="key")] = data.draw(st.sampled_from(RETYPED))
    text = bytearray(json.dumps(obj).encode("utf-8"))
    if kind == "flip":
        text[data.draw(st.integers(0, len(text) - 1))] ^= data.draw(st.integers(1, 255))
    elif kind == "cut":
        del text[data.draw(st.integers(0, len(text) - 1)):]
    return bytes(text)


@pytest.fixture(scope="session", autouse=True)
def cache_home(tmp_path_factory):
    """The session's own ``XDG_CACHE_HOME``, so that neither the tests nor the
    commands they start read or write the user's embedding cache."""
    home = tmp_path_factory.mktemp("xdg-cache")
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(home))
        yield home


@pytest.fixture(scope="session")
def documents():
    return corpus.load_documents(FIXTURE_CORPUS)


@pytest.fixture(scope="session")
def doc_by_id(documents):
    return {d.id: d for d in documents}


@pytest.fixture(scope="session")
def gold_examples():
    return corpus.load_gold(FIXTURE_GOLD)


@pytest.fixture(scope="session")
def gold_by_id(gold_examples):
    return {g.id: g for g in gold_examples}


@pytest.fixture(scope="session")
def apple_doc(doc_by_id):
    return doc_by_id["apple-income"]


@pytest.fixture()
def apple_view(apple_doc):
    return TreeView.build(apple_doc)


@pytest.fixture(scope="session")
def toy_table():
    return semvec.load_embeddings(TOY_EMBEDDINGS)


@pytest.fixture(scope="session")
def lexicon():
    return semvec.LexiconConfig()
