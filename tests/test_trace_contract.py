"""The benchmark's traced run still sees every layer of the package.

``perfbench/tracing.py`` measures each layer by replacing, by name, the
module attributes through which ``cli`` calls it.  A refactor that renames a
wrapped function, or calls a layer around its module attribute, would leave
the benchmark measuring nothing without failing.  This runs each benchmark
workload at its tiny size under the tracer and checks that the outputs are
right and that each command's layers were traced.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402

# Spans each command must record, and one metric from each of
# ``layer_metrics``'s per-command groups.
SPANS = {
    "extract": ("corpus.load_documents", "deptree.build", "relex.extract", "relex.relate_money_company",
                "relex.relate_company_date", "relex.relate_other_pairs", "semvec.load_embeddings",
                "semvec.classify_money", "records.serialize", "records.save_predictions",
                "_fileio.atomic_write_text"),
    "evaluate": ("corpus.load_gold", "records.load_predictions", "evalkit.evaluate_corpus",
                 "evalkit.score_breakdown", "_fileio.atomic_write_text"),
    "prepare": ("corpus.load_gold", "corpus.split_train_test", "corpus.balanced_subset",
                "corpus.save_gold", "_fileio.atomic_write_text"),
}
GROUPS = {
    "extract": {"fileio.atomic_write_s", "corpus.load_documents_s", "relex.extract_self_s"},
    "evaluate": {"fileio.atomic_write_s", "corpus.load_gold_s", "evalkit.evaluate_corpus_s"},
    "prepare": {"fileio.atomic_write_s", "corpus.load_gold_s", "corpus.split_train_test_s"},
}
GROUP_METRICS = set().union(*GROUPS.values())


@pytest.fixture(scope="module")
def fr():
    return tracing.import_finrelex(PERFBENCH.parent / "src")


@pytest.mark.parametrize("name", sorted(tracing.COMMAND_OF))
def test_traced_workload_runs_every_layer(name, fr, tmp_path):
    command = tracing.COMMAND_OF[name]
    wl = workloads.build(name, tmp_path, seed=1, size="tiny")
    argv = tracing._with_workers(wl.argv, 1) if command == "extract" else wl.argv
    tracer = tracing.Tracer()
    with tracing.installed(tracer, fr):
        status = fr["cli"].main(["--log-level", "WARNING", *argv])
    assert status == 0
    assert wl.check() == 0
    assert [s for s in SPANS[command] if not tracer.ran(s)] == []
    metrics = tracing.layer_metrics(tracer)
    assert set(metrics) & GROUP_METRICS == GROUPS[command]
    if name == "score_fuzzy":
        # one scoring pass, with or without --breakdown
        assert metrics["evalkit.score_example_calls"] == wl.items
    if name == "short_docs":
        # the tracer reads the vocabulary as the loaded table's row count
        assert metrics["semvec.vocab"] == wl.sizes["embedding_words"] == 217
