"""Traced run: per-layer metrics from wraps around finrelex's public functions.

The package is imported into this process and the module attributes through
which ``cli`` and ``relex`` call each layer are replaced by wraps, so no file
under ``src/`` changes.  A wrap records a span (name, start, end, parent span,
document id when the arguments carry one) and, for a few calls, what it
returned; the hot ``deptree`` helpers are only counted, to keep the overhead
low.  Spans stay in memory and are written, gzipped, to
``.bench_build/perfbench`` when the run ends.  A layer's self time is its
spans' time minus the time of their child spans.

A traced run of a workload executes, in this process with ``--workers 1``:

1. the workload's command, untraced and traced in turn for ``--seconds``;
   each layer metric is its median over the traced passes, and the ratio of
   the median traced and untraced walls gives ``trace.overhead_share``;
2. a fixed-size *probe* of each command the workload does not run
   (``extract``, ``evaluate``, ``prepare``), so that every layer metric is a
   measured value on every workload.  A metric is taken from the workload's
   own command whenever that command calls the layer, and from a probe only
   otherwise; the probes have a fixed size, so such a metric stays flat on
   that workload;
3. the growth probes: ``relex.extract`` at x1/x2/x4 document size, the
   validator at x1/x2/x4 chain length and the split at x1/x2/x4 examples,
   each reported as the log-log slope of time against size.

End-to-end numbers never come from this run.
"""

from __future__ import annotations

import gzip
import json
import math
import pickle
import random
import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Callable

import workloads

COMMAND_OF = {"short_docs": "extract", "long_docs": "extract", "score_fuzzy": "evaluate",
              "split_dedup": "prepare"}
PROBE_FOR = {"extract": "short_docs", "evaluate": "score_fuzzy", "prepare": "split_dedup"}
POOL_WORKERS = 2
OTHER_PAIR_KINDS = (("ORG", "GPE"), ("ORG", "PERSON"), ("MONEY", "DATE"), ("PERSON", "GPE"))
HOT_HELPERS = ("entity_root", "entity_at", "noun_chunk_of", "subtree", "ancestors")

GROWTH_REPS = 3
GROWTH_PASSES = 4      # x1 document: every fixture paragraph 4 times, about 700 tokens
GROWTH_CHAIN = 400     # x1 head chain, tokens
GROWTH_EXAMPLES = 300  # x1 gold file for the split


class Tracer:
    """Spans, call counts and observed quantities of one traced command."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1, doc id or None]
        self.calls: Counter = Counter()
        self.values: Counter = Counter()
        self.kept: dict = {}
        self._open: list[int] = []

    def timed(self, name: str, fn: Callable, doc: Callable | None = None,
              observe: Callable | None = None) -> Callable:
        spans, open_ = self.spans, self._open

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, open_[-1] if open_ else -1, doc(args) if doc else None])
            open_.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                open_.pop()
                spans[index][1:3] = start, end
            if observe:
                observe(args, result)
            return result

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_total(self, name: str) -> float:
        child = Counter()
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        return sum(s[2] - s[1] - child[i] for i, s in enumerate(self.spans) if s[0] == name)

    def ran(self, name: str) -> bool:
        return any(s[0] == name for s in self.spans)


def import_finrelex(src: Path) -> dict:
    """Import the package from the checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(src))
    from finrelex import cli, corpus, deptree, evalkit, records, relex, semvec

    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"finrelex imported from {cli.__file__}, not from {src}")
    return {"cli": cli, "corpus": corpus, "deptree": deptree, "evalkit": evalkit,
            "records": records, "relex": relex, "semvec": semvec}


@contextmanager
def installed(tracer: Tracer, fr: dict):
    """Replace the package's call points with the tracer's wraps; restore on exit."""
    cli, corpus, deptree, evalkit = fr["cli"], fr["corpus"], fr["deptree"], fr["evalkit"]
    records, relex, semvec = fr["records"], fr["relex"], fr["semvec"]
    values, kept = tracer.values, tracer.kept
    saved = []

    def put(owner, attr: str, wrapper) -> None:
        saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def span(owner, attr: str, name: str, **kw) -> None:
        put(owner, attr, tracer.timed(name, getattr(owner, attr), **kw))

    def loaded_docs(args, docs):
        values["docs"] += len(docs)
        values["tokens"] += sum(len(d.tokens) for d in docs)
        kept["docs"] = docs

    def split(args, result):
        values["split_test"] += len(result[1])
        values["split_target"] += round(args[1] * len(args[0]))

    def related(args, result):
        values["relations"] += len(result)

    def other_pairs(args, result):
        related(args, result)
        labels = Counter(e.label for e in args[0].document.entities)
        values["other_relations"] += len(result)
        values["other_pairs"] += sum(labels[a] * labels[b] for a, b in OTHER_PAIR_KINDS)

    def wrote(args, result):
        values["bytes_written"] += len(args[1].encode("utf-8"))

    def classified(args, verdict):
        values["unknown"] += verdict == semvec.UNKNOWN

    def serialized(args, result):
        values["records_out"] += len(args[0])

    def loaded_table(args, table):
        kept["table"] = table

    def saved_predictions(args, result):
        kept["results"] = args[0]

    view_id = lambda args: args[0].document.id  # noqa: E731
    try:
        for owner in (corpus, records, cli):
            span(owner, "atomic_write_text", "_fileio.atomic_write_text", observe=wrote)
        span(corpus, "load_documents", "corpus.load_documents", observe=loaded_docs)
        for attr in ("load_gold", "balanced_subset", "save_gold"):
            span(corpus, attr, f"corpus.{attr}")
        span(corpus, "split_train_test", "corpus.split_train_test", observe=split)
        put(deptree.TreeView, "build", staticmethod(
            tracer.timed("deptree.build", deptree.TreeView.build, doc=lambda a: a[0].id)))
        for attr in HOT_HELPERS:
            put(deptree, attr, tracer.counted(attr, getattr(deptree, attr)))
        span(relex, "extract", "relex.extract", doc=view_id)
        for attr in ("relate_money_company", "relate_company_date"):
            span(relex, attr, f"relex.{attr}", doc=view_id, observe=related)
        span(relex, "relate_other_pairs", "relex.relate_other_pairs", doc=view_id, observe=other_pairs)
        span(semvec, "load_embeddings", "semvec.load_embeddings", observe=loaded_table)
        span(semvec, "classify_money_phrase", "semvec.classify_money", observe=classified)
        span(semvec, "classify_person_phrase", "semvec.classify_person")
        span(records, "serialize", "records.serialize", observe=serialized)
        span(records, "save_predictions", "records.save_predictions", observe=saved_predictions)
        span(records, "load_predictions", "records.load_predictions")
        put(records, "parse", tracer.counted("parse", records.parse))
        span(evalkit, "evaluate_corpus", "evalkit.evaluate_corpus")
        span(evalkit, "score_breakdown", "evalkit.score_breakdown")
        put(evalkit, "score_example", tracer.counted("score_example", evalkit.score_example))
        put(evalkit, "edit_distance", tracer.counted("edit_distance", evalkit.edit_distance))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _with_workers(argv: list[str], n: int) -> list[str]:
    argv = list(argv)
    argv[argv.index("--workers") + 1] = str(n)
    return argv


def pickle_bytes(docs: list, results: list, workers: int) -> int:
    """Bytes ``multiprocessing.Pool.map`` pickles for the documents it sends
    and the results it gets back, chunked as ``map`` chunks by default."""
    chunk, extra = divmod(len(docs), workers * 4)
    chunk += bool(extra)
    return sum(len(pickle.dumps(docs[i:i + chunk])) + len(pickle.dumps(results[i:i + chunk]))
               for i in range(0, len(docs), chunk))


def run_stage(wl: workloads.Workload, fr: dict, run_cli: Callable, log: Path, seconds: float) -> dict:
    """Alternate untraced and traced passes of one workload's command for
    ``seconds``, at least one of each, and check every pass's outputs.  A
    layer metric is its median over the traced passes."""
    extract = COMMAND_OF[wl.name] == "extract"
    main = fr["cli"].main
    argv = ["--log-level", "WARNING", *(_with_workers(wl.argv, 1) if extract else wl.argv)]
    untraced, traced, passes = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while not traced or time.perf_counter() - start + untraced[-1] + traced[-1] <= seconds:
        begin = time.perf_counter()
        first = main(argv)
        untraced.append(time.perf_counter() - begin)
        tracer = Tracer()
        with installed(tracer, fr):
            begin = time.perf_counter()
            status = tracer.timed("cli.main", main)(argv)
            traced.append(time.perf_counter() - begin)
        attempted += wl.items
        failed += wl.check() if first == 0 and status == 0 else wl.items
        passes.append(layer_metrics(tracer))

    metrics = {name: statistics.median([p[name] for p in passes]) for name in passes[0]}
    metrics["fileio.json_decode_s"] = json_decode_floor(wl.reads)
    if extract:
        walls = {}
        for n in (1, POOL_WORKERS):
            wall, _, code = run_cli(_with_workers(wl.argv, n), log)
            walls[n] = wall if code == 0 else math.nan
        metrics["cli.workers_speedup"] = walls[1] / walls[POOL_WORKERS]
        metrics["cli.pickle_bytes"] = pickle_bytes(tracer.kept["docs"], tracer.kept["results"], POOL_WORKERS)
    return {"workload": wl, "last_tracer": tracer, "metrics": metrics, "attempted": attempted, "failed": failed,
            "overhead_share": statistics.median(traced) / statistics.median(untraced) - 1.0}


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(t: Tracer) -> dict:
    """Layer metrics of one traced pass, for the layers its command calls."""
    v, c = t.values, t.calls
    ratio = lambda num, den: num / den if den else 0.0  # noqa: E731
    m = {}
    if t.ran("_fileio.atomic_write_text"):
        m["fileio.atomic_write_s"] = t.total("_fileio.atomic_write_text")
        m["fileio.bytes_written"] = v["bytes_written"]
    if t.ran("corpus.load_documents"):
        m["corpus.load_documents_s"] = t.total("corpus.load_documents")
        m["corpus.docs"], m["corpus.tokens"] = v["docs"], v["tokens"]
    if t.ran("corpus.load_gold"):
        m["corpus.load_gold_s"] = t.total("corpus.load_gold")
        m["records.parse_calls"] = c["parse"]
    if t.ran("corpus.split_train_test"):
        m["corpus.split_train_test_s"] = t.total("corpus.split_train_test")
        m["corpus.split_test_yield"] = ratio(v["split_test"], v["split_target"])
        m["corpus.balanced_subset_s"] = t.total("corpus.balanced_subset")
        m["corpus.save_gold_s"] = t.total("corpus.save_gold")
    if t.ran("relex.extract"):
        per_doc = [d * 1e3 for d in t.durations("relex.extract")]
        m.update({
            "deptree.build_s": t.total("deptree.build"),
            **{f"deptree.{h}_calls": c[h] for h in HOT_HELPERS},
            "relex.relate_money_company_s": t.total("relex.relate_money_company"),
            "relex.relate_company_date_s": t.total("relex.relate_company_date"),
            "relex.relate_other_pairs_s": t.total("relex.relate_other_pairs"),
            "relex.extract_self_s": t.self_total("relex.extract"),
            "relex.relations": v["relations"],
            "relex.other_pairs_yield": ratio(v["other_relations"], v["other_pairs"]),
            "relex.extract_doc_p50_ms": statistics.median(per_doc),
            "relex.extract_doc_p99_ms": _percentile(per_doc, 0.99),
            "semvec.load_embeddings_s": t.total("semvec.load_embeddings"),
            "semvec.vocab": len(t.kept["table"].vectors),
            "semvec.classify_money_s": t.total("semvec.classify_money"),
            "semvec.classify_money_calls": len(t.durations("semvec.classify_money")),
            "semvec.money_unknown_share": ratio(v["unknown"], len(t.durations("semvec.classify_money"))),
            "semvec.classify_person_s": t.total("semvec.classify_person"),
            "semvec.classify_person_calls": len(t.durations("semvec.classify_person")),
            "records.serialize_s": t.total("records.serialize"),
            "records.save_predictions_s": t.total("records.save_predictions"),
            "records.records_out": v["records_out"],
        })
    if t.ran("evalkit.evaluate_corpus"):
        m["records.load_predictions_s"] = t.total("records.load_predictions")
        m["evalkit.evaluate_corpus_s"] = t.total("evalkit.evaluate_corpus")
        m["evalkit.score_breakdown_s"] = t.total("evalkit.score_breakdown")
        m["evalkit.score_example_calls"] = c["score_example"]
        m["evalkit.edit_distance_calls"] = c["edit_distance"]
    return m


def json_decode_floor(paths: list[Path]) -> float:
    """This process's own ``json.loads`` over every line the command decodes."""
    lines = [line for p in paths for line in p.read_text(encoding="utf-8").splitlines() if line.strip()]
    start = time.perf_counter()
    for line in lines:
        json.loads(line)
    return time.perf_counter() - start


def _timed_median(fn: Callable) -> float:
    times = []
    for _ in range(GROWTH_REPS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def slope(sizes: list[float], times: list[float]) -> float:
    """Least-squares slope of log(time) against log(size)."""
    xs, ys = [math.log(s) for s in sizes], [math.log(t) for t in times]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def growth(fr: dict, work: Path, seed: int) -> dict:
    corpus, deptree, relex, semvec = fr["corpus"], fr["deptree"], fr["relex"], fr["semvec"]
    rng = random.Random(seed)
    table, lex = semvec.load_embeddings(workloads.TOY_EMBEDDINGS), semvec.LexiconConfig()
    scales = [1, 2, 4]
    extract_t, load_t, split_t = [], [], []
    for k in scales:
        rows, _ = workloads.long_documents(rng, 1, GROWTH_PASSES * k, 0)
        doc_path = work / f"growth-doc-{k}.jsonl"
        doc_path.write_text(json.dumps(rows[0]) + "\n", encoding="utf-8")
        view = deptree.TreeView.build(corpus.load_documents(doc_path)[0])
        extract_t.append(_timed_median(lambda: relex.extract(view, table, lex)))

        chain_path = work / f"growth-chain-{k}.jsonl"
        chain = workloads.join_paragraphs("chain", [workloads.chain_paragraph(GROWTH_CHAIN * k)])
        chain_path.write_text(json.dumps(chain) + "\n", encoding="utf-8")
        load_t.append(_timed_median(lambda: corpus.load_documents(chain_path)))

        gold = [corpus.GoldExample(**row) for row in
                workloads.gold_examples(rng, GROWTH_EXAMPLES * k, empty_share=0.5, related_share=0.3)]
        split_t.append(_timed_median(lambda: corpus.split_train_test(gold, 0.2, seed)))
    return {
        "relex.extract_growth_exp": slope(scales, extract_t),
        "corpus.load_documents_growth_exp": slope(scales, load_t),
        "corpus.split_growth_exp": slope(scales, split_t),
    }


def write_spans(stages: list[dict], path: Path) -> None:
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for stage in stages:
            name = stage["workload"].name
            for span in stage["last_tracer"].spans:
                fh.write(json.dumps([name, *span]) + "\n")


def run(wl: workloads.Workload, work: Path, seed: int, seconds: float, src: Path, run_cli: Callable,
        units: dict[str, str]) -> tuple[dict, int, int]:
    """Traced run of ``wl`` for about ``seconds`` plus the probes; returns
    (the per-layer metrics named in ``units``, items attempted, items failed)."""
    fr = import_finrelex(src)
    log = work / "stderr.log"
    stages = [run_stage(wl, fr, run_cli, log, seconds)]
    for command, probe in PROBE_FOR.items():
        if command != COMMAND_OF[wl.name]:
            probe_wl = workloads.build(probe, work / f"probe-{probe}", seed, "probe")
            stages.append(run_stage(probe_wl, fr, run_cli, log, seconds=0))

    metrics: dict = {}
    for stage in stages:
        for name, value in stage["metrics"].items():
            metrics.setdefault(name, value)
    metrics.update(growth(fr, work, seed))
    metrics["trace.overhead_share"] = stages[0]["overhead_share"]

    spans_path = work.parent / f"spans-{wl.name}-seed{seed}.jsonl.gz"
    write_spans(stages, spans_path)
    print(f"# spans written to {spans_path.relative_to(work.parent.parent.parent)}", file=sys.stderr)
    if set(metrics) != set(units):
        raise RuntimeError(f"traced metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    result = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    return result, sum(s["attempted"] for s in stages), sum(s["failed"] for s in stages)
