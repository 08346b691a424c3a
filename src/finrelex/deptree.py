"""Navigation and predicate primitives over a document's dependency trees.

The relation heuristics are phrased in terms of children, ancestor chains,
subtrees, governing verbs, and the entity/chunk layers; this
module turns a validated :class:`~finrelex.corpus.AnnotatedDocument` into a
:class:`TreeView` that answers those queries.  A view is immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

from .corpus import AnnotatedDocument, EntitySpan, NounChunk

SUBJECT_DEPS = frozenset({"nsubj", "nsubjpass"})
DIRECT_OBJECT_DEPS = frozenset({"dobj", "obj"})
VERB_POS = frozenset({"VERB", "AUX"})


@dataclass(frozen=True)
class TreeView:
    """A document plus a precomputed head-inverse (children) index."""

    document: AnnotatedDocument
    children_index: tuple[tuple[int, ...], ...]

    @classmethod
    def build(cls, document: AnnotatedDocument) -> "TreeView":
        index: list[list[int]] = [[] for _ in document.tokens]
        for tok in document.tokens:
            if tok.head != tok.index:
                index[tok.head].append(tok.index)
        return cls(document, tuple(tuple(kids) for kids in index))


def children(view: TreeView, t: int) -> list[int]:
    """Direct dependents of token ``t``, in ascending document order."""
    return list(view.children_index[t])


def ancestors(view: TreeView, t: int) -> list[int]:
    """Head chain from ``t`` up to and including the sentence root.

    Empty for a root token.
    """
    chain = []
    tokens = view.document.tokens
    cur = tokens[t]
    while cur.head != cur.index:
        cur = tokens[cur.head]
        chain.append(cur.index)
    return chain


def subtree(view: TreeView, t: int) -> list[int]:
    """All descendants of ``t`` (excluding ``t``), in document order."""
    found = []
    stack = list(view.children_index[t])
    while stack:
        node = stack.pop()
        found.append(node)
        stack.extend(view.children_index[node])
    return sorted(found)


def governing_verb(view: TreeView, t: int) -> int | None:
    """Nearest strict ancestor tagged VERB or AUX, or ``None``."""
    tokens = view.document.tokens
    for a in ancestors(view, t):
        if tokens[a].pos in VERB_POS:
            return a
    return None


def noun_chunk_of(view: TreeView, t: int) -> NounChunk | None:
    """The unique noun chunk whose range contains ``t``, if any."""
    for chunk in view.document.noun_chunks:
        if chunk.start <= t < chunk.end:
            return chunk
    return None


def entity_at(view: TreeView, t: int) -> EntitySpan | None:
    """The entity span containing ``t``, if any."""
    for span in view.document.entities:
        if span.start <= t < span.end:
            return span
    return None


def entity_root(view: TreeView, span: EntitySpan) -> int:
    """The token inside ``span`` whose head lies outside it.

    Falls back to the last token of the span when every head is internal
    (e.g. a span that contains its own sentence root).
    """
    tokens = view.document.tokens
    for i in range(span.start, span.end):
        if not span.start <= tokens[i].head < span.end:
            return i
    return span.end - 1


def dep_is(view: TreeView, t: int, label: str) -> bool:
    return view.document.tokens[t].dep == label


def is_subject(view: TreeView, t: int) -> bool:
    return view.document.tokens[t].dep in SUBJECT_DEPS


def is_direct_object(view: TreeView, t: int) -> bool:
    return view.document.tokens[t].dep in DIRECT_OBJECT_DEPS


def is_attr(view: TreeView, t: int) -> bool:
    return dep_is(view, t, "attr")


def is_prepositional_object(view: TreeView, t: int) -> bool:
    return dep_is(view, t, "pobj")
