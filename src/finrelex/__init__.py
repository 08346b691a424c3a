"""Company-centric financial relation extraction from parsed news paragraphs.

The package reads pre-annotated documents (tokens, dependency heads, entity
spans, noun chunks), applies tree-walking heuristics plus an embedding-based
phrase classifier to produce ``company, variable, value, date`` records, and
scores predicted outputs against gold targets with positional exact/fuzzy
word matching.

The namespace holds only the submodules: callers import ``finrelex.corpus``
and so on, so that each command loads only the layers it runs.
"""

__version__ = "0.1.0"
