"""Navigation and span lookups over a document's dependency trees.

``TreeView.build`` indexes a validated
:class:`~finrelex.corpus.AnnotatedDocument` in one O(n) pass: the children
of each token, the entity and the noun chunk covering each token, and each
entity's root token, so :func:`entity_at`, :func:`noun_chunk_of` and
:func:`entity_root` are O(1) lookups.  A view is a ``NamedTuple`` of the
document and these indexes, immutable and safe to share across threads.
Ancestry (:func:`ancestors`, :func:`governing_verb`) walks the head chain,
O(depth).  The heuristics in :mod:`~finrelex.relex` read dependency labels
straight from the document's tokens.
"""

from __future__ import annotations

from typing import NamedTuple

from .corpus import AnnotatedDocument, EntitySpan, NounChunk

VERB_POS = frozenset({"VERB", "AUX"})


class TreeView(NamedTuple):
    """A document plus per-token indexes of its trees and span layers.

    ``children_index[t]`` lists the dependents of ``t``; ``entity_index[t]``
    and ``chunk_index[t]`` hold the entity and the noun chunk covering ``t``
    (spans of a validated document never overlap); ``entity_roots`` maps
    each entity's start token to the entity's root token.
    """

    document: AnnotatedDocument
    children_index: tuple[tuple[int, ...], ...]
    entity_index: tuple[EntitySpan | None, ...]
    chunk_index: tuple[NounChunk | None, ...]
    entity_roots: dict[int, int]

    @classmethod
    def build(cls, document: AnnotatedDocument) -> "TreeView":
        tokens = document.tokens
        index: list[list[int]] = [[] for _ in tokens]
        for tok in tokens:
            if tok.head != tok.index:
                index[tok.head].append(tok.index)
        entity_index: list[EntitySpan | None] = [None] * len(tokens)
        roots = {}
        for span in document.entities:
            start, end = span.start, span.end
            entity_index[start:end] = [span] * (end - start)
            for i in range(start, end):
                if not start <= tokens[i].head < end:
                    roots[start] = i
                    break
            else:
                roots[start] = end - 1
        chunk_index: list[NounChunk | None] = [None] * len(tokens)
        for chunk in document.noun_chunks:
            chunk_index[chunk.start : chunk.end] = [chunk] * (chunk.end - chunk.start)
        children_index = tuple(tuple(kids) for kids in index)
        return cls(document, children_index, tuple(entity_index), tuple(chunk_index), roots)


def ancestors(view: TreeView, t: int) -> list[int]:
    """Head chain from ``t`` up to and including the sentence root.

    Empty for a root token.
    """
    chain = []
    tokens = view.document.tokens
    head = tokens[t].head
    while head != t:
        chain.append(head)
        t, head = head, tokens[head].head
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
    return view.chunk_index[t]


def entity_at(view: TreeView, t: int) -> EntitySpan | None:
    """The entity span containing ``t``, if any."""
    return view.entity_index[t]


def entity_root(view: TreeView, span: EntitySpan) -> int:
    """The token inside ``span`` whose head lies outside it.

    Falls back to the last token of the span when every head is internal
    (e.g. a span that contains its own sentence root).  ``span`` must be
    one of the view's document entities.
    """
    return view.entity_roots[span.start]

