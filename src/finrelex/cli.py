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
lines, no more than the CPUs the process may run on.  Each range runs in a
child forked from this process (``os.fork``, with one pipe each) before it
loads the table; the child reads, validates and relates its own lines one
document at a time, and sends back two pickles: the (line, id) pairs and
errors, then the unclassified candidate records.  This process runs no
range: meanwhile it loads the table and lexicon and builds the classifier,
then joins the ranges in file order, unpickling one range's candidates at a
time, and classifies each distinct bridge phrase and person context once.
So the output is byte-identical for every N, the first error is the one a
single process reports (a table error, then a lexicon error, then the first
corpus error in the file), and every warning is logged by this process in
file order.  No run imports ``multiprocessing``.  The table's parse is
cached on disk, one entry per table path (see ``semvec.load_embeddings``),
so a later run on the same bytes maps its words and matrix instead of
parsing it.  One part (``--workers 1``, a corpus of at most one line, a
pipe, named or not, which cannot be cut, or a corpus that cannot be opened)
forks nothing and imports no ``pickle``.

``main`` runs a command with the automatic cyclic garbage collector off and
puts it back as it found it, so a caller (a test, an in-process tracer)
keeps its own setting; the forked parts inherit it off.  This is safe
because the records a run builds (tokens, spans, documents, candidates,
relation records, gold examples) hold no reference cycles: reference
counting frees each as soon as it is dropped, and a run's only cycles are a
fixed handful (the argument parser, the table's classifier cache), whatever
the size of the input.  The collector would find nothing else, yet it
would traverse every record, again and again as they pile up.  At exit the
heap is frozen (``gc.freeze``, registered once per process), so the
interpreter's last collection traverses none of it; nothing is lost, since
every output file is closed by then and finalization still flushes the
standard streams.
"""

from __future__ import annotations

import argparse
import atexit
import functools
import gc
import json
import logging
import os
import sys
import traceback
from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO, NoReturn

from . import corpus, evalkit
from . import records as records_mod
from ._fileio import LineRange, atomic_write_text, line_ranges, read_json_object
from .deptree import TreeView

if TYPE_CHECKING:
    from .relex import Candidate

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
    p_extract.add_argument("--embeddings",
                           help="word embedding text file; the parse of a regular file is cached, one "
                           "entry per table path, in $XDG_CACHE_HOME/finrelex (else ~/.cache/finrelex), "
                           "which keeps four entries of about twice their table's size on disk; a later "
                           "run maps the entry's words and matrix read-only. Clear the cache by removing its "
                           "entries, never by truncating or editing one in place")
    p_extract.add_argument("--lexicon", help="JSON lexicon override file")
    p_extract.add_argument("--out", help="prediction file to write")
    p_extract.add_argument("--workers", type=int, default=1,
                           help="processes, at most one per available CPU, that each read and relate "
                           "one range of the corpus's lines, forked (so Linux) before the table "
                           "loads; the main process then classifies each distinct phrase once. "
                           "The output does not depend on it (default %(default)s)")
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
                   outputs: dict[str, str | Path | None], *, makes_directory: bool = False) -> None:
    """Raise ``ValueError`` naming both flags when an output path resolves to
    the same file as an input or as another output, and naming the flag when
    an output is a directory or its directory is not one.  A command that
    ``makes_directory`` needs only the nearest existing ancestor of that
    directory to be one.

    ``inputs`` are the destinations of the flags the command reads, ``--config``
    added; ``outputs`` maps a flag's name to the path written, ``None`` for
    none.  Commands call this before they read anything, so a refused run
    leaves every file as it was.
    """
    seen: dict[Path, str] = {}
    for dest in ("config", *inputs):
        path = getattr(args, dest)
        if path is not None:
            seen.setdefault(Path(path).resolve(), "--" + dest.replace("_", "-"))
    for flag, path in outputs.items():
        if path is None:
            continue
        target = Path(path)
        if target.is_dir():
            raise ValueError(f"{flag} {path} is a directory")
        directory = target.parent
        while makes_directory and not directory.exists():
            directory = directory.parent
        if not directory.is_dir():
            raise ValueError(f"{flag} {path}: {directory} is not a directory")
        resolved = target.resolve()
        if resolved in seen:
            raise ValueError(f"{flag} and {seen[resolved]} name the same file: {path}")
        seen[resolved] = flag


def cmd_extract(args: argparse.Namespace) -> None:
    _check_outputs(args, ("corpus", "embeddings", "lexicon"), {"--out": args.out})
    from . import relex  # before any fork, so the parts inherit it; evaluate and prepare do without
    if args.workers < 1:
        raise ValueError(f"--workers must be an integer >= 1, got {args.workers!r}")
    parts = _part_count(args.workers)
    try:
        ranges = line_ranges(args.corpus, parts) if parts > 1 else []
    except OSError:  # raised again by the load, after the table and lexicon, as one part raises it
        ranges = []
    if len(ranges) > 1:
        results = _extract_parts(args, ranges)
    else:
        table, lex = _load_table(args)
        results = [(doc.id, records_mod.serialize(relex.extract(TreeView.build(doc), table, lex)))
                   for doc in corpus.load_documents(args.corpus)]
    records_mod.save_predictions(results, args.out)
    logger.info("wrote %d predictions to %s", len(results), args.out)


def _load_table(args: argparse.Namespace):
    """``extract``'s table and lexicon, the table first, so a malformed one
    fails before the corpus; their classifier is built here, so its
    warnings are logged once per run, also when nothing is classified."""
    from . import semvec

    table = semvec.load_embeddings(args.embeddings)
    lex = semvec.load_lexicon(args.lexicon) if args.lexicon else semvec.LexiconConfig()
    table.classifier(lex)
    return table, lex


def _part_count(workers: int) -> int:
    """How many parts an ``extract --workers workers`` splits its corpus into:
    at most one per CPU this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(workers, cpus)


_Part = tuple[list[tuple[int, str]], list[list["Candidate"]], Exception | None, Exception | None]


def _relate_part(path: str, lines: LineRange) -> _Part:
    """A forked child's work: read, validate, build and relate the documents
    on ``lines`` of ``path``, one at a time.  Returns the (line number, id)
    of each document loaded, the candidates of each document related, and
    the error that stopped the load or else the first relating error, the
    other ``None``.  After a load error the documents loaded are those
    before the line that failed, and none is related; after a relating error
    the candidates are those of the documents before the one that failed."""
    from . import relex

    loaded: list[tuple[int, str]] = []
    related: list[list[Candidate]] = []
    relate_error = None
    try:
        for lineno, doc in corpus.iter_documents(path, lines):
            loaded.append((lineno, doc.id))
            if relate_error is None:
                try:
                    related.append(relex.relate(TreeView.build(doc)))
                except Exception as exc:  # raised by the parent, once every part has loaded
                    relate_error = exc
    except Exception as exc:  # raised by the parent, after every earlier part
        return loaded, [], exc, None
    return loaded, related, None, relate_error


def _flush_std_streams() -> None:
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (AttributeError, ValueError):  # None, or closed
            pass


def _send_part(pipe: int, path: str, lines: LineRange) -> NoReturn:
    """A forked child's body: run one part and write its result to the
    ``pipe`` descriptor as two pickles, the (line, id) pairs and errors, then
    the candidates.  Both are pickled before anything is written, so a result
    that cannot be pickled sends nothing.  The child always leaves through
    ``os._exit``, so it never returns into the caller: with status 0 once
    both are written, else with status 1 and the traceback on stderr."""
    status = 1
    try:
        import pickle

        loaded, related, load_error, relate_error = _relate_part(path, lines)
        head = pickle.dumps((loaded, load_error, relate_error), pickle.HIGHEST_PROTOCOL)
        candidates = pickle.dumps(related, pickle.HIGHEST_PROTOCOL)
        with open(pipe, "wb") as sender:
            sender.write(head)
            sender.write(candidates)
        status = 0
    except BaseException:
        traceback.print_exc()
    finally:
        _flush_std_streams()
        os._exit(status)


def _receive_part(lines: LineRange, receiver: BinaryIO, pid: int, unreaped: set[int]):
    """The next pickle the child ``pid``, which runs part ``lines``, sent.
    When it sent none whole, the child is reaped and taken out of
    ``unreaped``, and a ``RuntimeError`` names its lines and exit code."""
    import pickle

    try:
        return pickle.load(receiver)
    except (EOFError, pickle.UnpicklingError):
        unreaped.remove(pid)
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        raise RuntimeError(f"the extract worker for lines {lines.first}-{lines.last} exited "
                           f"with code {code} before sending its result") from None


def _extract_parts(args: argparse.Namespace, ranges: list[LineRange]) -> list[tuple[str, str]]:
    """(id, predicted text) of every document on ``ranges`` of the corpus, in file order.

    Each part runs in a child forked (``os.fork``, with one pipe) before
    this process loads the table; the child loads, builds and relates its
    documents and sends back two pickles: their (line, id) pairs and errors,
    then their candidates.  Meanwhile this process loads the table and
    lexicon, and it reads no result before they have loaded, so a table
    error, then a lexicon error, comes first, as in one process.  Parts are
    then joined in file order, so the error is the one a single process,
    which loads every document before it extracts any, reports: part k's
    ids are checked against every earlier part's, and part k's load error is
    raised only when every earlier part loaded and none of part k's
    documents repeats an earlier id.  Once every part has loaded, this
    process finishes the documents in file order, so the warnings come in
    file order (the table's classifier works out each distinct phrase
    once), and raises a part's relating error after finishing that part's
    documents before it.  A part's candidates are unpickled only when its
    documents are finished and dropped before the next part's, so this
    process holds one part's candidates at a time.  Every child is reaped
    before this returns or raises; on an error, each one not yet reaped is
    sent SIGTERM first.
    """
    import pickle  # before the forks, so the parts inherit it; one part pickles nothing

    from . import relex

    receivers: list[BinaryIO] = []
    parts: list[tuple[LineRange, BinaryIO, int]] = []
    unreaped: set[int] = set()
    try:
        for lines in ranges:
            read_end, write_end = os.pipe()
            receivers.append(open(read_end, "rb"))
            try:
                _flush_std_streams()  # else the child would write again what this process buffered
                pid = os.fork()
                if pid == 0:
                    for receiver in receivers:  # so a child whose parent is gone fails to write and exits
                        receiver.close()
                    _send_part(write_end, args.corpus, lines)
            finally:
                os.close(write_end)  # before the next fork, so this child alone holds it
            unreaped.add(pid)
            parts.append((lines, receivers[-1], pid))
        table, lex = _load_table(args)
        ids: set[str] = set()
        heads = []
        for part in parts:
            loaded, load_error, relate_error = _receive_part(*part, unreaped)
            for lineno, doc_id in loaded:
                corpus.add_id(ids, doc_id, lineno)
            if load_error is not None:
                raise load_error
            heads.append((loaded, relate_error))
        results = []
        for (loaded, relate_error), part in zip(heads, parts):
            results += [(doc_id, records_mod.serialize(relex.finish(doc_id, candidates, table, lex)))
                        for (_, doc_id), candidates in zip(loaded, _receive_part(*part, unreaped))]
            if relate_error is not None:
                raise relate_error
        return results
    except BaseException:
        import signal

        for pid in unreaped:
            os.kill(pid, signal.SIGTERM)
        raise
    finally:
        for pid in unreaped:
            os.waitpid(pid, 0)
        for receiver in receivers:
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
        atomic_write_text(args.breakdown, evalkit.BREAKDOWN.dumps(evalkit.score_breakdown(gold, report)))
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
                   {f"--out-dir ({p.name})": p for p in (train_path, test_path, balanced_path)},
                   makes_directory=True)
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
    # every line is read, one at a time, so a later malformed line or repeated id still fails
    doc = {d.id: d for _, d in corpus.iter_documents(args.corpus) if d.id == args.id}.get(args.id)
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


@functools.cache
def _freeze_heap_at_exit() -> None:
    """Once per process: at exit, move every object into the collector's
    permanent generation, so the interpreter's final collection traverses
    none of them."""
    atexit.register(gc.freeze)


def main(argv: list[str] | None = None) -> int:
    _freeze_heap_at_exit()
    parser = build_parser()
    args = parser.parse_args(argv)
    collector_was_on = gc.isenabled()
    gc.disable()
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
    finally:
        (gc.enable if collector_was_on else gc.disable)()
    return 0


if __name__ == "__main__":
    sys.exit(main())
