"""Command-line entry point for batch extraction, evaluation, and preparation.

Subcommands::

    extract   --corpus D --embeddings E [--lexicon L] --out P [--workers N]
    evaluate  --gold G --pred P [--mode exact|fuzzy] [--threshold T] --report R
    prepare   --gold G [--test-fraction F] [--balanced] [--seed S] --out-dir DIR
    inspect   --corpus D --id X

Each subcommand's handler (``cmd_*``) and required flags are declared once,
on its subparser in :func:`build_parser` (``set_defaults(run=...,
required_flags=...)``); ``main`` reports every missing required flag at once.
``finrelex SUBCOMMAND --help`` lists each flag with its default.  Flags are
the primary interface; ``--config FILE`` may point at a JSON object whose
keys pre-fill flag defaults (explicit flags always win).  Each key must
name a subcommand flag and have that flag's JSON type.  The log level
comes from ``--log-level`` or the ``FINRELEX_LOG_LEVEL`` environment variable
(flag wins); logs go to standard error, data only to files.  Output files are
written atomically (temp file + rename), so an interrupted run never leaves a
truncated file, and runs with identical inputs and seed produce byte-identical
outputs.  An output path that resolves to an input or to another output is
refused before anything is read.

``extract --workers N`` cuts the corpus file into at most N ranges of whole
lines, no more than the CPUs the process may run on.  After the table,
lexicon and classifier are built, each range but the first runs in a child
forked from this process (the ``fork`` start method, so Linux), which
inherits them and sends back only ids and predicted texts; this process runs
the first range.  Results are joined in file order, so the output is
byte-identical for every N and the first error in the file is the one a
single process reports.  Children's per-document warnings may interleave on
standard error.  Python 3.12 and later may warn that forking a process that
runs threads (NumPy's BLAS threads) can deadlock; CI runs 3.10 and 3.11.
One part (``--workers 1``, or a corpus of at most one line) forks nothing
and imports no ``multiprocessing``.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from . import corpus, evalkit
from . import records as records_mod
from ._fileio import LineRange, atomic_write_text, jsonl_dumps, line_ranges, read_json_object
from .deptree import TreeView

logger = logging.getLogger(__name__)

LOG_LEVEL_ENV = "FINRELEX_LOG_LEVEL"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finrelex",
        description="Extract company-centric financial relations from parsed news "
        "paragraphs and score predictions against gold targets.",
    )
    parser.add_argument("--config", help="JSON file supplying default values for flags")
    parser.add_argument("--log-level", dest="log_level",
                        default=os.environ.get(LOG_LEVEL_ENV) or "INFO",
                        help=f"logging level (default %(default)s, from ${LOG_LEVEL_ENV} when set)")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_extract = sub.add_parser("extract", help="run the heuristics over a document file")
    p_extract.add_argument("--corpus", help="annotated document file (JSON lines)")
    p_extract.add_argument("--embeddings", help="word embedding text file")
    p_extract.add_argument("--lexicon", help="JSON lexicon override file")
    p_extract.add_argument("--out", help="prediction file to write")
    p_extract.add_argument("--workers", type=int, default=1,
                           help="processes, at most one per available CPU, that each extract one "
                           "range of the corpus's lines (fork, so Linux); the output does not "
                           "depend on it (default %(default)s)")
    p_extract.set_defaults(run=cmd_extract, required_flags=("corpus", "embeddings", "out"))

    p_eval = sub.add_parser("evaluate", help="score a prediction file against gold targets")
    p_eval.add_argument("--gold", help="gold example file (JSON lines)")
    p_eval.add_argument("--pred", help="prediction file (JSON lines)")
    p_eval.add_argument("--mode", choices=(evalkit.EXACT, evalkit.FUZZY),
                        default=evalkit.EvalConfig.mode, help="matching mode (default %(default)s)")
    p_eval.add_argument("--threshold", type=float, default=evalkit.EvalConfig.fuzzy_threshold,
                        help="fuzzy similarity threshold (default %(default)s)")
    p_eval.add_argument("--keep-separators", dest="keep_separators", action="store_true",
                        help="score separator characters too instead of stripping them "
                        "(default %(default)s)")
    p_eval.add_argument("--report", help="report JSON file to write")
    p_eval.add_argument("--breakdown", help="optional per-example breakdown file to write")
    p_eval.set_defaults(run=cmd_evaluate, required_flags=("gold", "pred", "report"))

    p_prepare = sub.add_parser("prepare", help="deduplicated train/test split of a gold file")
    p_prepare.add_argument("--gold", help="gold example file (JSON lines)")
    p_prepare.add_argument("--test-fraction", dest="test_fraction", type=float, default=0.2,
                           help="test share of the corpus (default %(default)s)")
    p_prepare.add_argument("--balanced", action="store_true",
                           help="also write a class-balanced training subset (default %(default)s)")
    p_prepare.add_argument("--seed", type=int, default=13, help="sampling seed (default %(default)s)")
    p_prepare.add_argument("--out-dir", dest="out_dir", help="directory for the split files")
    p_prepare.set_defaults(run=cmd_prepare, required_flags=("gold", "out_dir"))

    p_inspect = sub.add_parser("inspect", help="print one document's annotations and heuristic traces")
    p_inspect.add_argument("--corpus", help="annotated document file (JSON lines)")
    p_inspect.add_argument("--id", help="document id to inspect")
    p_inspect.set_defaults(run=cmd_inspect, required_flags=("corpus", "id"))

    return parser


_JSON_KINDS = {"a boolean": (bool,), "an integer": (int,), "a number": (int, float), "a string": (str,)}


def _apply_config(path: str, parser: argparse.ArgumentParser) -> None:
    """Make the JSON object in ``path`` the flag defaults of every subcommand.

    A file that is not a UTF-8 JSON object, a key that names no subcommand
    flag, or a value its flag does not take, is a ``ValueError``; nothing is
    converted.  Only flag destinations are keys, so a config cannot set a
    subcommand's ``run`` or ``required_flags``.
    """
    config = read_json_object(path, ValueError, f"config file {path}")
    [subparsers] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {a.dest: a for sub in subparsers.choices.values() for a in sub._actions if a.dest != "help"}
    for key, value in config.items():
        if key not in flags:
            raise ValueError(f"config file {path}: {key!r} is not a flag of any subcommand")
        flag = flags[key]
        kind = ("a boolean" if flag.nargs == 0
                else {int: "an integer", float: "a number"}.get(flag.type, "a string"))
        if type(value) not in _JSON_KINDS[kind]:
            raise ValueError(f"config file {path}: {key!r} ({flag.option_strings[0]}) "
                             f"must be {kind}, got {value!r}")
    for sub in subparsers.choices.values():
        sub.set_defaults(**config)


def _configure_logging(level_name: str) -> None:
    level = getattr(logging, level_name.upper(), None)
    if not isinstance(level, int):
        raise ValueError(f"unknown log level {level_name!r}")
    # basicConfig does nothing once the root logger has a handler, so a
    # later call in the same process sets its level here.
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger().setLevel(level)


def _check_outputs(args: argparse.Namespace, inputs: tuple[str, ...],
                   outputs: dict[str, str | Path | None]) -> None:
    """Raise ``ValueError`` naming both flags when an output path resolves to
    the same file as an input or as another output.

    ``inputs`` are the destinations of the flags the command reads, ``--config``
    added; ``outputs`` maps a flag's name to the path written, ``None`` for
    none.  Commands call this before they read anything, so a clash leaves
    every file as it was.
    """
    seen: dict[Path, str] = {}
    for dest in ("config", *inputs):
        path = getattr(args, dest)
        if path is not None:
            seen.setdefault(Path(path).resolve(), "--" + dest.replace("_", "-"))
    for flag, path in outputs.items():
        if path is None:
            continue
        resolved = Path(path).resolve()
        if resolved in seen:
            raise ValueError(f"{flag} and {seen[resolved]} name the same file: {path}")
        seen[resolved] = flag


def cmd_extract(args: argparse.Namespace) -> None:
    _check_outputs(args, ("corpus", "embeddings", "lexicon"), {"--out": args.out})
    from . import semvec  # NumPy: only extract and inspect import it
    if args.workers < 1:
        raise ValueError(f"--workers must be an integer >= 1, got {args.workers!r}")
    # The table and lexicon first: a malformed one fails before the corpus is decoded.
    table = semvec.load_embeddings(args.embeddings)
    lex = semvec.load_lexicon(args.lexicon) if args.lexicon else semvec.LexiconConfig()
    table.classifier(lex)  # built once, before any fork, so every part inherits it
    ranges = line_ranges(args.corpus, _part_count(args.workers))
    results = _extract_parts(args.corpus, ranges, table, lex)
    records_mod.save_predictions(results, args.out)
    logger.info("wrote %d predictions to %s", len(results), args.out)


def _part_count(workers: int) -> int:
    """How many parts an ``extract --workers workers`` splits its corpus into:
    at most one per CPU this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(workers, cpus)


_Part = tuple[list[tuple[int, str]], list[str], Exception | None, Exception | None]


def _extract_part(path: str, lines: LineRange | None, table, lex) -> _Part:
    """Load, build, extract and serialize the documents on ``lines`` of
    ``path`` (all of it for ``None``).  Returns the (line number, id) of each
    document loaded, their predicted texts, and the error that stopped the
    load or else the one that stopped the extraction, the other ``None``.
    After an error the texts are empty; after a load error the documents
    loaded are those before the line that failed."""
    from . import relex

    loaded: list[tuple[int, str]] = []
    try:
        docs = corpus.load_documents(path, lines, loaded)
    except Exception as exc:  # raised by the parent, after every earlier part
        return loaded, [], exc, None
    try:
        texts = [records_mod.serialize(relex.extract(TreeView.build(doc), table, lex)) for doc in docs]
    except Exception as exc:  # raised by the parent, once every part has loaded
        return loaded, [], None, exc
    return loaded, texts, None, None


def _send_part(sender, path: str, lines: LineRange, table, lex) -> None:
    """A forked child's body: run one part and send the parent its result."""
    with sender:
        sender.send(_extract_part(path, lines, table, lex))


def _receive_part(lines: LineRange, receiver, child) -> _Part:
    try:
        return receiver.recv()
    except EOFError:
        child.join()
        raise RuntimeError(f"the extract worker for lines {lines.first}-{lines.last} exited "
                           f"with code {child.exitcode} before sending its result") from None


def _extract_parts(path: str, ranges: list[LineRange | None], table, lex) -> list[tuple[str, str]]:
    """(id, predicted text) of every document on ``ranges`` of ``path``, in file order.

    This process runs the first part; each other part runs in a child forked
    before that, which inherits the table and its classifier and sends back
    only its ids and texts.  Parts are joined in file order, so the error
    is the one a single process, which loads every document before it
    extracts any, reports: part k's ids are checked against every earlier
    part's, and part k's load error is raised only when every earlier part
    loaded and none of part k's documents repeats an earlier id; the first
    extraction error is raised only when every part loaded.  Every child is
    joined before this returns or raises; those still running on an error
    are terminated first.
    """
    children = []
    try:
        if len(ranges) > 1:
            import multiprocessing  # only a run of two or more parts forks

            context = multiprocessing.get_context("fork")
            for lines in ranges[1:]:
                receiver, sender = context.Pipe(duplex=False)
                with sender:
                    child = context.Process(target=_send_part, args=(sender, path, lines, table, lex))
                    children.append((lines, receiver, child))
                    child.start()
        ids: set[str] = set()
        results, extract_errors = [], []
        for k, lines in enumerate(ranges):
            loaded, texts, load_error, extract_error = (_extract_part(path, lines, table, lex) if k == 0
                                                        else _receive_part(*children[k - 1]))
            for lineno, doc_id in loaded:
                corpus.add_id(ids, doc_id, lineno)
            if load_error is not None:
                raise load_error
            if extract_error is not None:
                extract_errors.append(extract_error)
            results += [(doc_id, text) for (_, doc_id), text in zip(loaded, texts)]
        if extract_errors:
            raise extract_errors[0]
        return results
    except BaseException:
        for _, _, child in children:
            if child.is_alive():
                child.terminate()
        raise
    finally:
        for _, receiver, child in children:
            if child.pid is not None:
                child.join()
            receiver.close()


def cmd_evaluate(args: argparse.Namespace) -> None:
    _check_outputs(args, ("gold", "pred"), {"--report": args.report, "--breakdown": args.breakdown})
    gold = corpus.load_gold(args.gold)
    predictions = records_mod.load_predictions(args.pred)
    cfg = evalkit.EvalConfig(
        mode=args.mode,
        fuzzy_threshold=args.threshold,
        strip_separators=not args.keep_separators,
    )
    report = evalkit.evaluate_corpus(gold, predictions, cfg)
    atomic_write_text(args.report, json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
    if args.breakdown:
        atomic_write_text(args.breakdown, jsonl_dumps(evalkit.score_breakdown(gold, report)))
    logger.info(
        "evaluated %d examples: accuracy %.4f, precision %.4f, recall %.4f, f1 %.4f",
        len(gold), report.accuracy, report.precision, report.recall, report.f1,
    )


def cmd_prepare(args: argparse.Namespace) -> None:
    out_dir = Path(args.out_dir)
    train_path, test_path, balanced_path = (
        out_dir / name for name in ("train.jsonl", "test.jsonl", "balanced-train.jsonl"))
    # balanced-train.jsonl is removed when not written, so it is an output either way
    _check_outputs(args, ("gold",),
                   {f"--out-dir ({p.name})": p for p in (train_path, test_path, balanced_path)})
    gold = corpus.load_gold(args.gold)
    train, test = corpus.split_train_test(gold, args.test_fraction, args.seed)
    # Balance before writing, so a training side it rejects leaves no split behind.
    balanced = corpus.balanced_subset(train, args.seed) if args.balanced else None
    out_dir.mkdir(parents=True, exist_ok=True)
    corpus.save_gold(train, train_path)
    corpus.save_gold(test, test_path)
    logger.info("wrote %d train / %d test examples to %s", len(train), len(test), out_dir)
    if balanced is None:
        # An earlier run's subset may hold examples this split put in test.
        balanced_path.unlink(missing_ok=True)
    else:
        corpus.save_gold(balanced, balanced_path)
        logger.info("wrote %d balanced training examples", len(balanced))


def cmd_inspect(args: argparse.Namespace) -> None:
    from . import relex
    doc = {d.id: d for d in corpus.load_documents(args.corpus)}.get(args.id)
    if doc is None:
        raise ValueError(f"no document with id {args.id!r} in {args.corpus}")
    view = TreeView.build(doc)

    print(f"document {doc.id}: {doc.text}")
    print()
    print(f"{'i':>3} {'text':<15} {'lemma':<15} {'pos':<6} {'dep':<10} {'head':>4} {'sent':>4}")
    for tok in doc.tokens:
        print(f"{tok.index:>3} {tok.text:<15} {tok.lemma:<15} {tok.pos:<6} "
              f"{tok.dep:<10} {tok.head:>4} {tok.sentence:>4}")
    print()
    print("tree edges:")
    for tok in doc.tokens:
        if tok.head != tok.index:
            print(f"  {doc.tokens[tok.head].text} ({tok.head}) -{tok.dep}-> {tok.text} ({tok.index})")
        else:
            print(f"  ROOT -> {tok.text} ({tok.index})")
    print()
    print("entities:")
    for span in doc.entities:
        print(f"  [{span.start},{span.end}) {span.label}: {span.text}")
    print("noun chunks:")
    for chunk in doc.noun_chunks:
        print(f"  [{chunk.start},{chunk.end}) root {chunk.root}: {chunk.text}")
    print()
    print("heuristic traces:")
    relations = (relex.relate_money_company(view) + relex.relate_company_date(view)
                 + relex.relate_other_pairs(view))
    for rel in relations:
        print(f"  {relex.describe(rel)}")
    if not relations:
        print("  (no heuristic fired)")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _configure_logging(args.log_level)
        if args.config:
            _apply_config(args.config, parser)
            args = parser.parse_args(argv)
        missing = [name for name in args.required_flags if getattr(args, name) is None]
        if missing:
            flags = ", ".join("--" + name.replace("_", "-") for name in missing)
            raise ValueError(f"{args.subcommand}: missing required options: {flags}")
        args.run(args)
    except Exception as exc:  # surfaced as a diagnostic plus nonzero exit
        logging.basicConfig(stream=sys.stderr)
        logger.error("%s: %s", type(exc).__name__, exc,
                     exc_info=logger.isEnabledFor(logging.DEBUG))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
