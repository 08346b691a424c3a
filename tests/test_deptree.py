from finrelex import deptree as dt
from finrelex.deptree import TreeView


class TestChildren:
    def test_apple_verb_children(self, apple_view):
        assert apple_view.children_index[1] == (0, 4)

    def test_leaf_has_no_children(self, apple_view):
        assert apple_view.children_index[0] == ()

    def test_children_invert_heads(self, documents):
        # every dependent, in ascending document order
        for doc in documents:
            view = TreeView.build(doc)
            for tok in doc.tokens:
                expected = tuple(d.index for d in doc.tokens if d.head == tok.index != d.index)
                assert view.children_index[tok.index] == expected


class TestAncestors:
    def test_million_chain(self, apple_view):
        assert dt.ancestors(apple_view, 8) == [5, 4, 1]

    def test_root_has_no_ancestors(self, apple_view):
        assert dt.ancestors(apple_view, 1) == []

    def test_chain_shorter_than_sentence(self, documents):
        for doc in documents:
            view = TreeView.build(doc)
            for tok in doc.tokens:
                chain = dt.ancestors(view, tok.index)
                sentence_size = sum(1 for t in doc.tokens if t.sentence == tok.sentence)
                assert len(chain) < sentence_size or sentence_size == 1


class TestSubtrees:
    def test_income_subtree(self, apple_view):
        assert dt.subtree(apple_view, 4) == [2, 3, 5, 6, 7, 8]

    def test_leaf_subtrees_empty(self, apple_view):
        assert dt.subtree(apple_view, 0) == []

    def test_subtree_members_descend_from_token(self, documents):
        for doc in documents:
            view = TreeView.build(doc)
            for tok in doc.tokens:
                t = tok.index
                below = dt.subtree(view, t)
                assert below == sorted(below)
                assert t not in below
                assert all(t in dt.ancestors(view, d) for d in below)


class TestGoverningVerb:
    def test_income_governed_by_had(self, apple_view):
        assert dt.governing_verb(apple_view, 4) == 1

    def test_verb_itself_has_none(self, apple_view):
        # strict ancestors only
        assert dt.governing_verb(apple_view, 1) is None

    def test_verbless_fragment(self, doc_by_id):
        view = TreeView.build(doc_by_id["market-close"])
        # "market" is governed by the verb "closed"; the root itself is not
        assert dt.governing_verb(view, 2) is None


class TestNounChunkOf:
    def test_net_inside_income_chunk(self, apple_view):
        chunk = dt.noun_chunk_of(apple_view, 3)
        assert (chunk.start, chunk.end) == (2, 5)
        assert chunk.text == "a net income"

    def test_token_outside_all_chunks(self, apple_view):
        assert dt.noun_chunk_of(apple_view, 5) is None

    def test_single_token_chunk(self, apple_view):
        chunk = dt.noun_chunk_of(apple_view, 0)
        assert (chunk.start, chunk.end) == (0, 1)

    def test_chunks_cover_each_token_at_most_once(self, documents):
        for doc in documents:
            for t in range(len(doc.tokens)):
                containing = [c for c in doc.noun_chunks if c.start <= t < c.end]
                assert len(containing) <= 1


class TestEntityAccess:
    def test_money_span_root(self, apple_view, apple_doc):
        money = apple_doc.entities[1]
        assert money.label == "MONEY"
        assert dt.entity_root(apple_view, money) == 8

    def test_single_token_entity_root(self, apple_view, apple_doc):
        org = apple_doc.entities[0]
        assert dt.entity_root(apple_view, org) == 0

    def test_entity_at_outside_spans(self, apple_view):
        assert dt.entity_at(apple_view, 2) is None

    def test_entity_at_inside_span(self, apple_view):
        span = dt.entity_at(apple_view, 7)
        assert span is not None and span.label == "MONEY"


    def test_index_matches_linear_scans(self, documents):
        for doc in documents:
            view = TreeView.build(doc)
            for t in range(len(doc.tokens)):
                assert dt.entity_at(view, t) == next((e for e in doc.entities if e.start <= t < e.end), None)
                assert dt.noun_chunk_of(view, t) == next(
                    (c for c in doc.noun_chunks if c.start <= t < c.end), None
                )
            for span in doc.entities:
                inside = range(span.start, span.end)
                outside = [i for i in inside if doc.tokens[i].head not in inside]
                assert dt.entity_root(view, span) == (outside[0] if outside else span.end - 1)

