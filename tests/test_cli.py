import argparse
import json
import logging
import gc
import os
import pickle
import signal
import subprocess
import sys
import time
import weakref
from pathlib import Path

import pytest

from finrelex import cli, corpus, records, relex, semvec
from finrelex._fileio import line_ranges
from finrelex.cli import build_parser, main
from tests.conftest import DATA_DIR, FIXTURE_CORPUS, FIXTURE_GOLD, TOY_EMBEDDINGS

FIXTURE_INSPECT = DATA_DIR / "fixture_inspect.txt"


def run(*argv):
    return main([str(a) for a in argv])


def assert_no_child_left():
    # a child still running, or one that exited and was not reaped, fails this
    try:
        child = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"this process has a child it has not reaped (waitpid gave {child})")


@pytest.fixture()
def predictions_path(tmp_path):
    out = tmp_path / "pred.jsonl"
    assert run(
        "extract", "--corpus", FIXTURE_CORPUS, "--embeddings", TOY_EMBEDDINGS, "--out", out
    ) == 0
    return out


class TestExtract:
    def test_writes_prediction_per_document(self, predictions_path, documents):
        lines = predictions_path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == len(documents)
        first = json.loads(lines[0])
        assert first == {
            "id": "apple-income",
            "predicted_text": "Apple, revenue, $9.4 million, unknown-date|",
        }

    def test_predictions_follow_input_order(self, predictions_path, documents):
        ids = [json.loads(line)["id"] for line in predictions_path.read_text().splitlines()]
        assert ids == [d.id for d in documents]

    def test_missing_corpus_fails_without_output(self, tmp_path):
        out = tmp_path / "pred.jsonl"
        status = run("extract", "--corpus", tmp_path / "nope.jsonl",
                     "--embeddings", TOY_EMBEDDINGS, "--out", out)
        assert status != 0
        assert not out.exists()

    def test_bad_embeddings_fail_without_output(self, tmp_path):
        bad = tmp_path / "vectors.txt"
        bad.write_text("a 1\nb 1 2\n", encoding="utf-8")
        out = tmp_path / "pred.jsonl"
        status = run("extract", "--corpus", FIXTURE_CORPUS, "--embeddings", bad, "--out", out)
        assert status != 0
        assert not out.exists()

    @pytest.mark.parametrize("bad_file, message", [
        ("vectors", "line 2: expected 1 components, found 2"),
        ("lexicon", "'treshold' is not a lexicon field"),
    ])
    def test_bad_table_or_lexicon_fails_before_corpus(self, tmp_path, caplog, bad_file, message):
        # both files are read before the corpus, so a malformed corpus is never reached
        corpus_path = tmp_path / "corpus.jsonl"
        corpus_path.write_text("not json\n", encoding="utf-8")
        vectors, lexicon = tmp_path / "vectors.txt", tmp_path / "lexicon.json"
        vectors.write_text("a 1\nb 1 2\n" if bad_file == "vectors" else "a 1\n", encoding="utf-8")
        lexicon.write_text('{"treshold": 0.9}', encoding="utf-8")
        out = tmp_path / "pred.jsonl"
        flags = ["--lexicon", lexicon] if bad_file == "lexicon" else []
        assert run("extract", "--corpus", corpus_path, "--embeddings", vectors, *flags, "--out", out) == 1
        [record] = [r for r in caplog.records if r.levelno == logging.ERROR]
        assert record.getMessage().startswith("EmbeddingFormatError: ")
        assert message in record.getMessage()
        assert not out.exists()

    def test_lexicon_must_hold_object(self, tmp_path, caplog):
        lexicon = tmp_path / "lexicon.json"
        lexicon.write_text("[]", encoding="utf-8")
        out = tmp_path / "pred.jsonl"
        assert run("extract", "--corpus", FIXTURE_CORPUS, "--embeddings", TOY_EMBEDDINGS,
                   "--lexicon", lexicon, "--out", out) == 1
        [record] = [r for r in caplog.records if r.levelno == logging.ERROR]
        assert record.getMessage() == f"EmbeddingFormatError: {lexicon}: expected a JSON object, got list"
        assert not out.exists()

    def test_lexicon_override_changes_classification(self, tmp_path):
        # a near-impossible threshold suppresses every money classification
        lexicon_path = tmp_path / "lexicon.json"
        lexicon_path.write_text(json.dumps({"threshold": 0.9999}), encoding="utf-8")
        out = tmp_path / "pred.jsonl"
        assert run("extract", "--corpus", FIXTURE_CORPUS, "--embeddings", TOY_EMBEDDINGS,
                   "--lexicon", lexicon_path, "--out", out) == 0
        by_id = {
            json.loads(line)["id"]: json.loads(line)["predicted_text"]
            for line in out.read_text().splitlines()
        }
        assert by_id["konga-raise"] == ""
        # exact self-similarity 1.0 still exceeds the threshold
        assert by_id["apple-income"] == "Apple, revenue, $9.4 million, unknown-date|"

    def test_worker_count_does_not_change_output(self, tmp_path):
        single = tmp_path / "single.jsonl"
        pooled = tmp_path / "pooled.jsonl"
        assert run("extract", "--corpus", FIXTURE_CORPUS, "--embeddings", TOY_EMBEDDINGS,
                   "--out", single, "--workers", 1) == 0
        assert run("extract", "--corpus", FIXTURE_CORPUS, "--embeddings", TOY_EMBEDDINGS,
                   "--out", pooled, "--workers", 8) == 0
        assert single.read_bytes() == pooled.read_bytes()


def _set_head(line: bytes, token: int, head: int) -> bytes:
    obj = json.loads(line)
    obj["tokens"][token]["head"] = head
    return json.dumps(obj).encode("utf-8")


def _drop_field(line: bytes, key: str) -> bytes:
    obj = json.loads(line)
    del obj[key]
    return json.dumps(obj).encode("utf-8")


# Each case changes fixture lines (0-based index -> new bytes) and names the
# parts, of the two that ``line_ranges`` cuts, whose lines it changes.
_LINES = FIXTURE_CORPUS.read_bytes().splitlines()
_SHARDED_DEFECTS = {
    "part0-bad-json": ({1: b"{not json"}, {0}),
    "part1-invalid-head": ({15: _set_head(_LINES[15], 0, 99)}, {1}),
    "both-parts": ({3: _drop_field(_LINES[3], "tokens"), 18: b"[]"}, {0, 1}),
    "cross-part-duplicate-before-defect": ({14: _LINES[2], 19: _drop_field(_LINES[19], "entities")}, {1}),
    "defect-before-cross-part-duplicate": ({14: _set_head(_LINES[14], 0, 99), 19: _LINES[2]}, {1}),
    "duplicate-within-part1": ({17: _LINES[13]}, {1}),
    "non-utf8-part1": ({16: b'{"id": "caf\xff"}'}, {1}),
    "bad-json-last-line": ({21: _LINES[21][:-9]}, {1}),
}


class TestShardedExtract:
    """``--workers 2`` splits the corpus into two parts, each run by a child
    forked before the table loads, and must fail exactly as one process does."""

    @staticmethod
    def extract(tmp_path, corpus_path, workers, caplog, *flags):
        caplog.clear()
        out = tmp_path / f"pred-{workers}.jsonl"
        status = run("extract", "--corpus", corpus_path, "--embeddings", TOY_EMBEDDINGS,
                     "--out", out, "--workers", workers, *flags)
        errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
        return status, errors, out

    @pytest.mark.parametrize("changes, parts", _SHARDED_DEFECTS.values(), ids=_SHARDED_DEFECTS)
    def test_first_error_matches_one_process(self, tmp_path, caplog, monkeypatch, changes, parts):
        # two parts even on a one-CPU machine
        monkeypatch.setattr(cli, "_part_count", lambda workers: workers)
        lines = list(_LINES)
        for index, line in changes.items():
            lines[index] = line
        corpus_path = tmp_path / "corpus.jsonl"
        # a changed last line also loses its final newline
        corpus_path.write_bytes(b"\n".join(lines) + (b"" if 21 in changes else b"\n"))
        cut = line_ranges(corpus_path, 2)[1].first
        assert {int(i + 1 >= cut) for i in changes} == parts
        one = self.extract(tmp_path, corpus_path, 1, caplog)
        two = self.extract(tmp_path, corpus_path, 2, caplog)
        assert one[:2] == two[:2]
        assert one[0] == 1 and len(one[1]) == 1
        assert one[1][0].startswith(("CorpusFormatError: line ", "DocumentValidationError: "))
        assert not one[2].exists() and not two[2].exists()
        assert_no_child_left()

    @pytest.mark.parametrize("part1_defect", [False, True], ids=["extraction-error", "later-load-error"])
    def test_load_error_beats_earlier_extraction_error(self, tmp_path, caplog, monkeypatch, part1_defect):
        # one process loads every document before it extracts any, so a load
        # error in part 1 wins over an extraction failure in part 0
        relate = relex.relate

        def failing(view):
            if view.document.id == "apple-income":
                raise RuntimeError("extraction failed")
            return relate(view)

        monkeypatch.setattr(cli, "_part_count", lambda workers: workers)
        monkeypatch.setattr(relex, "relate", failing)
        lines = list(_LINES)
        if part1_defect:
            lines[15] = _set_head(lines[15], 0, 99)
        corpus_path = tmp_path / "corpus.jsonl"
        corpus_path.write_bytes(b"\n".join(lines) + b"\n")
        one = self.extract(tmp_path, corpus_path, 1, caplog)
        assert one[:2] == self.extract(tmp_path, corpus_path, 2, caplog)[:2]
        assert one[1][0].startswith("DocumentValidationError" if part1_defect else "RuntimeError")
        assert_no_child_left()

    def test_load_error_beats_earlier_relating_error_in_the_same_part(self, tmp_path, caplog, monkeypatch):
        # a part relates each document as it loads, so in part 1 a relating
        # failure comes before the bad line 21; one process loads every
        # document first, so line 21 is the error at every N
        failing_id = json.loads(_LINES[16])["id"]
        relate = relex.relate

        def failing(view):
            if view.document.id == failing_id:
                raise RuntimeError("extraction failed")
            return relate(view)

        monkeypatch.setattr(cli, "_part_count", lambda workers: workers)
        monkeypatch.setattr(relex, "relate", failing)
        lines = list(_LINES)
        lines[20] = b"{not json"
        corpus_path = tmp_path / "corpus.jsonl"
        corpus_path.write_bytes(b"\n".join(lines) + b"\n")
        assert line_ranges(corpus_path, 2)[1].first <= 17
        one = self.extract(tmp_path, corpus_path, 1, caplog)
        two = self.extract(tmp_path, corpus_path, 2, caplog)
        assert one[:2] == two[:2]
        assert one[0] == 1 and len(one[1]) == 1
        assert one[1][0].startswith("CorpusFormatError: line 21: invalid JSON record")
        assert not one[2].exists() and not two[2].exists()
        assert_no_child_left()

    def test_part_holds_one_document_at_a_time(self, monkeypatch):
        # every document built is tracked; when each is related, it is the only one alive
        live = weakref.WeakSet()
        counts = []
        document_from_dict, relate = corpus._document_from_dict, relex.relate

        def tracked(obj, lineno):
            doc = document_from_dict(obj, lineno)
            live.add(doc)
            return doc

        def counting(view):
            counts.append(len(live))
            return relate(view)

        monkeypatch.setattr(corpus, "_document_from_dict", tracked)
        monkeypatch.setattr(relex, "relate", counting)
        [part0, _] = line_ranges(FIXTURE_CORPUS, 2)
        loaded, related, load_error, relate_error = cli._relate_part(str(FIXTURE_CORPUS), part0)
        assert load_error is None and relate_error is None
        assert len(loaded) == len(related) == len(counts) == part0.last
        assert set(counts) == {1}

    def test_parent_holds_one_parts_candidates_at_a_time(self, tmp_path, monkeypatch):
        # at each document it finishes, the live candidates are those of that document's part
        def live_candidates():
            return sum(isinstance(obj, relex.Candidate) for obj in gc.get_objects())

        ranges = line_ranges(FIXTURE_CORPUS, 2)
        part_of, part_size = {}, []
        for index, lines in enumerate(ranges):
            loaded, related, _, _ = cli._relate_part(str(FIXTURE_CORPUS), lines)
            part_of.update((doc_id, index) for _, doc_id in loaded)
            part_size.append(sum(map(len, related)))
        del related
        assert all(part_size)
        before = live_candidates()
        seen = []
        finish = relex.finish

        def counting(doc_id, candidates, table, lex):
            seen.append((part_of[doc_id], live_candidates() - before))
            return finish(doc_id, candidates, table, lex)

        monkeypatch.setattr(cli, "_part_count", lambda workers: workers)
        monkeypatch.setattr(relex, "finish", counting)
        assert run("extract", "--corpus", FIXTURE_CORPUS, "--embeddings", TOY_EMBEDDINGS,
                   "--out", tmp_path / "pred.jsonl", "--workers", 2) == 0
        assert len(seen) == len(part_of)
        assert seen == [(part, part_size[part]) for part, _ in seen]
        assert_no_child_left()

    def test_named_pipe_corpus_runs_as_one_part(self, tmp_path):
        # a stat, which never waits, tells a named pipe from a regular file,
        # so the pipe is opened once, by the one-part load, and its writer is
        # neither waited for nor cut off; a fresh interpreter under a timeout,
        # so a regression fails instead of hanging the suite
        fifo = tmp_path / "corpus.fifo"
        os.mkfifo(fifo)
        script = ("import sys\nfrom finrelex import cli\n"
                  "cli._part_count = lambda workers: workers\nsys.exit(cli.main(sys.argv[1:]))\n")
        src = Path(__file__).resolve().parents[1] / "src"

        def extract(corpus_path, out):
            return subprocess.run(
                [sys.executable, "-c", script, "extract", "--corpus", str(corpus_path),
                 "--embeddings", str(TOY_EMBEDDINGS), "--out", str(out), "--workers", "2"],
                capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)), timeout=60,
            )

        regular, piped = tmp_path / "regular.jsonl", tmp_path / "piped.jsonl"
        assert extract(FIXTURE_CORPUS, regular).returncode == 0
        writer = subprocess.Popen([sys.executable, "-c", "import shutil, sys; "
                                   "shutil.copyfileobj(open(sys.argv[1], 'rb'), open(sys.argv[2], 'wb'))",
                                   str(FIXTURE_CORPUS), str(fifo)])
        try:
            proc = extract(fifo, piped)
            writer_status = writer.wait(timeout=10)
        finally:
            writer.kill()
            writer.wait()
        assert proc.returncode == 0, proc.stderr
        assert writer_status == 0
        assert piped.read_bytes() == regular.read_bytes()

    def test_dead_worker_is_an_error_naming_its_lines(self, tmp_path, caplog, capfd, monkeypatch):
        self.assert_part1_death_reported(tmp_path, caplog, capfd, monkeypatch, "exit-3", 3)

    @pytest.mark.parametrize("death, code", [("unpicklable-result", 1), ("sigkill", -9)])
    def test_worker_dying_otherwise_is_an_error_naming_its_lines(self, tmp_path, caplog, capfd, monkeypatch,
                                                                  death, code):
        self.assert_part1_death_reported(tmp_path, caplog, capfd, monkeypatch, death, code)

    def assert_part1_death_reported(self, tmp_path, caplog, capfd, monkeypatch, death, code):
        # the forked child inherits the patch, so part 1 dies before sending a result
        relate_part = cli._relate_part

        def dying(path, lines):
            if lines.first > 1:
                if death == "exit-3":
                    os._exit(3)
                if death == "sigkill":
                    os.kill(os.getpid(), signal.SIGKILL)
                return [], [[lambda: None]], None, None
            return relate_part(path, lines)

        monkeypatch.setattr(cli, "_part_count", lambda workers: workers)
        monkeypatch.setattr(cli, "_relate_part", dying)
        [_, part1] = line_ranges(FIXTURE_CORPUS, 2)
        parent = os.getpid()
        status, errors, out = self.extract(tmp_path, FIXTURE_CORPUS, 2, caplog)
        if os.getpid() != parent:  # a child returned from main: it must not go on running the suite
            os._exit(70)
        assert status == 1
        assert errors == [f"RuntimeError: the extract worker for lines {part1.first}-{part1.last} "
                          f"exited with code {code} before sending its result"]
        assert not out.exists()
        assert_no_child_left()
        # the child that could not pickle its result printed the traceback
        printed = "Traceback (most recent call last)" in capfd.readouterr().err
        assert printed == (death == "unpicklable-result")

    def test_result_cut_short_is_an_error_naming_its_lines(self):
        # a child killed while it writes leaves a pickle cut short, which counts as no result
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:
            os._exit(5)
        with open(write_end, "wb") as sender:
            sender.write(pickle.dumps(list(range(1000)), pickle.HIGHEST_PROTOCOL)[:-10])
        [_, part1] = line_ranges(FIXTURE_CORPUS, 2)
        unreaped = {pid}
        with open(read_end, "rb") as receiver, pytest.raises(RuntimeError) as raised:
            cli._receive_part(part1, receiver, pid, unreaped)
        assert str(raised.value) == (f"the extract worker for lines {part1.first}-{part1.last} "
                                     "exited with code 5 before sending its result")
        assert unreaped == set()
        assert_no_child_left()

    def test_error_in_part0_terminates_later_parts(self, tmp_path, caplog, monkeypatch):
        # part 1 would run for a minute; part 0's error needs nothing from it
        relate_part = cli._relate_part

        def slow(path, lines):
            if lines.first > 1:
                time.sleep(60)
            return relate_part(path, lines)

        monkeypatch.setattr(cli, "_part_count", lambda workers: workers)
        monkeypatch.setattr(cli, "_relate_part", slow)
        corpus_path = tmp_path / "corpus.jsonl"
        corpus_path.write_bytes(b"\n".join([_LINES[0], b"{not json", *_LINES[2:]]) + b"\n")
        start = time.monotonic()
        status, errors, out = self.extract(tmp_path, corpus_path, 2, caplog)
        assert time.monotonic() - start < 20
        assert status == 1 and errors[0].startswith("CorpusFormatError: line 2: invalid JSON record")
        assert not out.exists()
        assert_no_child_left()

    @pytest.mark.parametrize("bad_file", ["vectors", "lexicon", "none"])
    def test_table_then_lexicon_then_corpus_error(self, tmp_path, caplog, monkeypatch, bad_file):
        # the parts fork before the table loads, yet a table error, then a
        # lexicon error, beats every corpus error, and an unopenable corpus
        # still fails as one process fails
        monkeypatch.setattr(cli, "_part_count", lambda workers: workers)
        vectors, lexicon = tmp_path / "vectors.txt", tmp_path / "lexicon.json"
        vectors.write_text("a 1\nb 1 2\n", encoding="utf-8")
        lexicon.write_text('{"treshold": 0.9}', encoding="utf-8")
        corpus_path = tmp_path / "corpus.jsonl"
        if bad_file == "vectors":
            lines = list(_LINES)
            lines[15] = _set_head(lines[15], 0, 99)
            corpus_path.write_bytes(b"\n".join(lines) + b"\n")
            flags, message = ["--embeddings", vectors], "EmbeddingFormatError: line 2: expected 1 components"
        elif bad_file == "lexicon":
            flags, message = ["--lexicon", lexicon], "EmbeddingFormatError: "
        else:
            flags, message = [], "FileNotFoundError: "
        one = self.extract(tmp_path, corpus_path, 1, caplog, *flags)
        two = self.extract(tmp_path, corpus_path, 2, caplog, *flags)
        assert one[:2] == two[:2]
        assert one[0] == 1 and len(one[1]) == 1 and one[1][0].startswith(message)
        assert bad_file != "lexicon" or "'treshold' is not a lexicon field" in one[1][0]
        assert not one[2].exists() and not two[2].exists()
        assert_no_child_left()

    def test_table_error_terminates_running_parts(self, tmp_path, caplog, monkeypatch):
        # part 1 would run for a minute; the table error needs nothing from it
        relate_part = cli._relate_part

        def slow(path, lines):
            if lines.first > 1:
                time.sleep(60)
            return relate_part(path, lines)

        monkeypatch.setattr(cli, "_part_count", lambda workers: workers)
        monkeypatch.setattr(cli, "_relate_part", slow)
        vectors = tmp_path / "vectors.txt"
        vectors.write_text("a 1\nb 1 2\n", encoding="utf-8")
        start = time.monotonic()
        status, errors, out = self.extract(tmp_path, FIXTURE_CORPUS, 2, caplog, "--embeddings", vectors)
        assert time.monotonic() - start < 20
        assert status == 1 and errors == ["EmbeddingFormatError: line 2: expected 1 components, found 2"]
        assert not out.exists()
        assert_no_child_left()

    @pytest.mark.parametrize("workers", [1, 2, 10_000])
    def test_part_count_never_exceeds_cpus(self, workers):
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        assert cli._part_count(workers) == min(workers, cpus)
        assert_no_child_left()

    def test_part_count_without_affinity_uses_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert [cli._part_count(w) for w in (1, 2, 10_000)] == [1, 2, 3]

    def test_one_part_forks_nothing(self, tmp_path):
        # --workers 1, and at --workers 2 an empty or one-line corpus, or one
        # that cannot be opened, run in-process, even where two CPUs are free
        empty, one_line = tmp_path / "empty.jsonl", tmp_path / "one.jsonl"
        empty.write_bytes(b"")
        one_line.write_bytes(_LINES[0] + b"\n")
        script = (
            "import sys\n"
            "from finrelex import cli\n"
            "cli._part_count = lambda workers: workers\n"
            "corpus, empty, one_line, missing, toy, out = sys.argv[1:]\n"
            "for path, workers, status in ((corpus, '1', 0), (empty, '2', 0), (one_line, '2', 0),\n"
            "                              (missing, '2', 1)):\n"
            "    assert cli.main(['extract', '--corpus', path, '--embeddings', toy, '--out', out,\n"
            "                     '--workers', workers]) == status, path\n"
            "assert 'multiprocessing' not in sys.modules, 'a one-part extract imported multiprocessing'\n"
            "assert 'pickle' not in sys.modules, 'a one-part extract imported pickle'\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-c", script, str(FIXTURE_CORPUS), str(empty), str(one_line),
             str(tmp_path / "missing.jsonl"), str(TOY_EMBEDDINGS), str(tmp_path / "pred.jsonl")],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)),
        )
        assert proc.returncode == 0, proc.stderr

    def test_two_parts_import_no_multiprocessing(self, tmp_path):
        # a fresh interpreter, which forks its two parts with os.fork alone; its
        # stdout is a pipe, so a line still buffered at the forks is written once
        script = (
            "import sys\n"
            "from finrelex import cli\n"
            "cli._part_count = lambda workers: workers\n"
            "corpus, toy, out = sys.argv[1:]\n"
            "print('written once')\n"
            "assert cli.main(['extract', '--corpus', corpus, '--embeddings', toy, '--out', out,\n"
            "                 '--workers', '2']) == 0\n"
            "assert 'pickle' in sys.modules, 'the corpus did not run as two parts'\n"
            "assert 'multiprocessing' not in sys.modules, 'a two-part extract imported multiprocessing'\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        out = tmp_path / "pred.jsonl"
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        proc = subprocess.run(
            [sys.executable, "-c", script, str(FIXTURE_CORPUS), str(TOY_EMBEDDINGS), str(out)],
            capture_output=True, text=True, env=dict(env, PYTHONPATH=str(src)),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "written once\n"

    def test_parts_never_import_numpy(self, tmp_path):
        # a fresh interpreter, whose parts fork before it loads the table;
        # each part's body reports whether NumPy was loaded in it
        script = (
            "import sys\n"
            "from finrelex import cli\n"
            "cli._part_count = lambda workers: workers\n"
            "relate_part = cli._relate_part\n"
            "def probe(path, lines):\n"
            "    relate_part(path, lines)\n"
            "    return [(lines.first, f'{lines.first}: {\"numpy\" in sys.modules}')], [[]], None, None\n"
            "cli._relate_part = probe\n"
            "corpus, toy, out = sys.argv[1:]\n"
            "sys.exit(cli.main(['extract', '--corpus', corpus, '--embeddings', toy, '--out', out, '--workers', '2']))\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        out = tmp_path / "pred.jsonl"
        proc = subprocess.run(
            [sys.executable, "-c", script, str(FIXTURE_CORPUS), str(TOY_EMBEDDINGS), str(out)],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)),
        )
        assert proc.returncode == 0, proc.stderr
        cut = line_ranges(FIXTURE_CORPUS, 2)[1].first
        assert [json.loads(line)["id"] for line in out.read_text().splitlines()] == ["1: False", f"{cut}: False"]

    @pytest.mark.parametrize("case", ["unserializable-record", "zero-bridge-vector"])
    def test_warnings_match_one_process(self, tmp_path, case):
        # a fresh interpreter, whose forked children would write to the same
        # stderr; the parent alone logs each document's warnings, in file order
        lines = list(_LINES)
        rows = TOY_EMBEDDINGS.read_text(encoding="utf-8").splitlines()
        if case == "unserializable-record":
            for index in (8, 19):  # a country record in each part
                lines[index] = lines[index].replace(b"Nigeria", b"Nige|ria")
            changed, warning, count = (9, 20), "dropping unserializable record from document", 2
        else:
            # each "$N million" bridge phrase has a zero vector; part 1 repeats one of part 0's
            rows = [("million" + " 0" * (len(row.split()) - 1)) if row.startswith("million ") else row
                    for row in rows]
            lines.append(_LINES[1].replace(b'"konga-raise"', b'"konga-raise-again"'))
            changed, warning, count = (2, len(lines)), "phrase '$10 million' has a zero vector", 1
        table, corpus_path, out = tmp_path / "vectors.txt", tmp_path / "corpus.jsonl", tmp_path / "pred.jsonl"
        table.write_text("\n".join(rows) + "\n", encoding="utf-8")
        corpus_path.write_bytes(b"\n".join(lines) + b"\n")
        assert changed[0] < line_ranges(corpus_path, 2)[1].first <= changed[1]
        script = ("import sys\nfrom finrelex import cli\n"
                  "cli._part_count = lambda workers: workers\nsys.exit(cli.main(sys.argv[1:]))\n")
        src = Path(__file__).resolve().parents[1] / "src"
        runs = []
        for workers in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-c", script, "extract", "--corpus", str(corpus_path), "--embeddings", str(table),
                 "--out", str(out), "--workers", workers],
                capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)),
            )
            assert proc.returncode == 0, proc.stderr
            runs.append((proc.stderr, out.read_bytes()))
        assert runs[0] == runs[1]
        assert runs[0][0].count(warning) == count, runs[0][0]

    def test_classifier_built_once_per_run(self, tmp_path):
        # a fresh interpreter, whose forked child writes its warnings to the
        # same stderr; the build warning is logged by the parent alone, also
        # for a corpus that never classifies
        table = tmp_path / "vectors.txt"
        rows = TOY_EMBEDDINGS.read_text(encoding="utf-8").splitlines()
        dim = len(rows[0].split()) - 1
        table.write_text("\n".join(rows + ["proceeds" + " 0" * dim]) + "\n", encoding="utf-8")
        empty = tmp_path / "empty.jsonl"
        empty.write_bytes(b"")
        src = Path(__file__).resolve().parents[1] / "src"
        for corpus_path in (FIXTURE_CORPUS, empty):
            proc = subprocess.run(
                [sys.executable, "-m", "finrelex.cli", "extract", "--corpus", str(corpus_path),
                 "--embeddings", str(table), "--out", str(tmp_path / "pred.jsonl"), "--workers", "2"],
                capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)),
            )
            assert proc.returncode == 0, proc.stderr
            assert proc.stderr.count("lexicon word 'proceeds' has a zero vector") == 1, proc.stderr

    def test_cached_table_gives_the_same_run(self, tmp_path):
        # fresh interpreters under one cache home: the first run at each
        # --workers parses the table and caches it, the second reads it back;
        # a zero lexicon vector makes each run log one warning
        rows = TOY_EMBEDDINGS.read_text(encoding="utf-8").splitlines()
        dim = len(rows[0].split()) - 1
        table, out = tmp_path / "vectors.txt", tmp_path / "pred.jsonl"
        table.write_text("\n".join(rows + ["proceeds" + " 0" * dim]) + "\n", encoding="utf-8")
        script = ("import sys\nfrom finrelex import cli\n"
                  "cli._part_count = lambda workers: workers\nsys.exit(cli.main(sys.argv[1:]))\n")
        src = Path(__file__).resolve().parents[1] / "src"
        runs = []
        for workers in ("1", "2"):
            cache = tmp_path / f"cache-{workers}"
            for _ in range(2):
                proc = subprocess.run(
                    [sys.executable, "-c", script, "extract", "--corpus", str(FIXTURE_CORPUS),
                     "--embeddings", str(table), "--out", str(out), "--workers", workers],
                    capture_output=True, text=True,
                    env=dict(os.environ, PYTHONPATH=str(src), XDG_CACHE_HOME=str(cache)),
                )
                assert proc.returncode == 0, proc.stderr
                runs.append((proc.stderr, out.read_bytes()))
            assert len(list((cache / "finrelex").iterdir())) == 1
        assert runs[1:] == runs[:1] * 3
        assert runs[0][0].count("lexicon word 'proceeds' has a zero vector") == 1, runs[0][0]


class TestEvaluate:
    def test_perfect_predictions_score_one(self, tmp_path, predictions_path):
        report_path = tmp_path / "report.json"
        assert run("evaluate", "--gold", FIXTURE_GOLD, "--pred", predictions_path,
                   "--report", report_path) == 0
        report = json.loads(report_path.read_text())
        assert report["accuracy"] == 1.0
        assert report["fp"] == 0 and report["fn"] == 0
        # 69 = words across all non-empty targets after separator stripping,
        # 11 = one true negative per empty-target paragraph
        assert report["tp"] == 69
        assert report["tn"] == 11

    def test_gold_equals_pred_files(self, tmp_path, gold_examples):
        # predictions copied straight from the gold targets
        pred = tmp_path / "pred.jsonl"
        pred.write_text(
            "".join(
                json.dumps({"id": g.id, "predicted_text": g.target_text}) + "\n"
                for g in gold_examples
            ),
            encoding="utf-8",
        )
        report_path = tmp_path / "report.json"
        assert run("evaluate", "--gold", FIXTURE_GOLD, "--pred", pred, "--report", report_path) == 0
        assert json.loads(report_path.read_text())["accuracy"] == 1.0

    def test_breakdown_file(self, tmp_path, predictions_path, documents):
        report_path = tmp_path / "report.json"
        breakdown = tmp_path / "breakdown.jsonl"
        assert run("evaluate", "--gold", FIXTURE_GOLD, "--pred", predictions_path,
                   "--report", report_path, "--breakdown", breakdown) == 0
        rows = [json.loads(line) for line in breakdown.read_text().splitlines()]
        assert len(rows) == len(documents)
        assert all(set(row) == {"id", "tp", "tn", "fp", "fn"} for row in rows)

    def test_fuzzy_mode_flag(self, tmp_path, predictions_path):
        report_path = tmp_path / "report.json"
        assert run("evaluate", "--gold", FIXTURE_GOLD, "--pred", predictions_path,
                   "--mode", "fuzzy", "--threshold", 0.9, "--report", report_path) == 0
        assert json.loads(report_path.read_text())["accuracy"] == 1.0

    def test_missing_prediction_id_fails(self, tmp_path):
        pred = tmp_path / "pred.jsonl"
        pred.write_text(json.dumps({"id": "apple-income", "predicted_text": ""}) + "\n")
        report_path = tmp_path / "report.json"
        status = run("evaluate", "--gold", FIXTURE_GOLD, "--pred", pred, "--report", report_path)
        assert status != 0
        assert not report_path.exists()


class TestPrepare:
    @pytest.fixture()
    def distinct_gold_path(self, tmp_path):
        path = tmp_path / "gold.jsonl"
        lines = []
        for i in range(10):
            lines.append(json.dumps({
                "id": str(i),
                "input_text": f"paragraph {i}",
                "target_text": f"Company{i}, revenue, ${i} million, unknown-date|",
            }))
        for i in range(10, 14):
            lines.append(json.dumps({"id": str(i), "input_text": f"p{i}", "target_text": ""}))
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        return path

    def test_failed_balanced_run_writes_no_file(self, tmp_path):
        # one informative example among five: at this seed the split moves it
        # to test, so the training side has nothing to balance against
        path = tmp_path / "gold.jsonl"
        lines = [{"id": "0", "input_text": "p0", "target_text": "Acme, revenue, $1 million, unknown-date|"}]
        lines += [{"id": str(i), "input_text": f"p{i}", "target_text": ""} for i in range(1, 5)]
        path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
        out_dir = tmp_path / "splits"
        out_dir.mkdir()
        assert run("prepare", "--gold", path, "--test-fraction", 0.2, "--balanced",
                   "--seed", 1, "--out-dir", out_dir) == 1
        assert list(out_dir.iterdir()) == []

    def test_fraction_rounding_to_empty_test_set_fails_without_output(self, tmp_path, caplog):
        # the default 20% of two examples rounds to an empty test set
        path = tmp_path / "two.jsonl"
        lines = [{"id": str(i), "input_text": f"p{i}", "target_text": f"C{i}, revenue, $1, unknown-date|"}
                 for i in range(2)]
        path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
        out_dir = tmp_path / "splits"
        assert run("prepare", "--gold", path, "--out-dir", out_dir) == 1
        assert not out_dir.exists()
        assert "test_fraction 0.2 of 2 examples" in caplog.text

    def test_fraction_rounding_to_every_example_fails_without_output(self, tmp_path, caplog):
        # 96% of ten examples rounds to ten, which would leave train.jsonl empty
        path = tmp_path / "ten.jsonl"
        lines = [{"id": str(i), "input_text": f"p{i}", "target_text": f"C{i}, revenue, $1, unknown-date|"}
                 for i in range(10)]
        path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
        out_dir = tmp_path / "splits"
        assert run("prepare", "--gold", path, "--test-fraction", 0.96, "--out-dir", out_dir) == 1
        assert not out_dir.exists()
        assert "test_fraction 0.96 of 10 examples rounds to every example" in caplog.text

    def test_run_without_balanced_removes_stale_subset(self, tmp_path, distinct_gold_path):
        # the earlier subset would hold examples the new split puts in test
        out_dir = tmp_path / "splits"
        assert run("prepare", "--gold", distinct_gold_path, "--balanced", "--seed", 1,
                   "--out-dir", out_dir) == 0
        stale = {g.id for g in corpus.load_gold(out_dir / "balanced-train.jsonl")}
        assert run("prepare", "--gold", distinct_gold_path, "--seed", 2, "--out-dir", out_dir) == 0
        assert stale & {g.id for g in corpus.load_gold(out_dir / "test.jsonl")}
        assert sorted(p.name for p in out_dir.iterdir()) == ["test.jsonl", "train.jsonl"]

    def test_split_files_written(self, tmp_path, distinct_gold_path):
        out_dir = tmp_path / "splits"
        assert run("prepare", "--gold", distinct_gold_path, "--test-fraction", 0.2,
                   "--seed", 7, "--out-dir", out_dir) == 0
        train = corpus.load_gold(out_dir / "train.jsonl")
        test = corpus.load_gold(out_dir / "test.jsonl")
        assert len(train) + len(test) == 14
        assert len(test) == round(0.2 * 14)

    def test_ten_distinct_examples_split_eight_two(self, tmp_path):
        path = tmp_path / "gold.jsonl"
        path.write_text(
            "".join(
                json.dumps({
                    "id": str(i),
                    "input_text": f"paragraph {i}",
                    "target_text": f"Company{i}, revenue, ${i} million, unknown-date|",
                }) + "\n"
                for i in range(10)
            ),
            encoding="utf-8",
        )
        out_dir = tmp_path / "splits"
        assert run("prepare", "--gold", path, "--test-fraction", 0.2,
                   "--seed", 7, "--out-dir", out_dir) == 0
        assert len((out_dir / "train.jsonl").read_text().splitlines()) == 8
        assert len((out_dir / "test.jsonl").read_text().splitlines()) == 2

    def test_balanced_file_written(self, tmp_path, distinct_gold_path):
        out_dir = tmp_path / "splits"
        assert run("prepare", "--gold", distinct_gold_path, "--balanced",
                   "--seed", 7, "--out-dir", out_dir) == 0
        balanced = corpus.load_gold(out_dir / "balanced-train.jsonl")
        informative = [g for g in balanced if g.target_text]
        empty = [g for g in balanced if not g.target_text]
        assert len(empty) <= len(informative)

    def test_deterministic_outputs(self, tmp_path, distinct_gold_path):
        first = tmp_path / "one"
        second = tmp_path / "two"
        for out_dir in (first, second):
            assert run("prepare", "--gold", distinct_gold_path, "--seed", 11,
                       "--out-dir", out_dir) == 0
        assert (first / "test.jsonl").read_bytes() == (second / "test.jsonl").read_bytes()
        assert (first / "train.jsonl").read_bytes() == (second / "train.jsonl").read_bytes()


class TestInspect:
    def test_output_matches_frozen_snapshot(self, capsys, documents):
        # tests/data/fixture_inspect.txt is every fixture document's inspect
        # output in corpus order; any change to it must be deliberate.
        for doc in documents:
            assert run("inspect", "--corpus", FIXTURE_CORPUS, "--id", doc.id) == 0
        assert capsys.readouterr().out == FIXTURE_INSPECT.read_text(encoding="utf-8")

    def test_prints_document_details(self, capsys):
        assert run("inspect", "--corpus", FIXTURE_CORPUS, "--id", "apple-income") == 0
        out = capsys.readouterr().out
        assert "Apple" in out
        assert "nsubj" in out
        assert "MONEY: $9.4 million" in out
        assert "company-money path (c)" in out

    def test_unknown_id_fails(self):
        assert run("inspect", "--corpus", FIXTURE_CORPUS, "--id", "missing") != 0

    def test_document_without_relations(self, capsys):
        assert run("inspect", "--corpus", FIXTURE_CORPUS, "--id", "market-close") == 0
        assert "no heuristic fired" in capsys.readouterr().out


class TestConfigAndFlags:
    def test_config_file_supplies_defaults(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "corpus": str(FIXTURE_CORPUS),
            "embeddings": str(TOY_EMBEDDINGS),
            "out": str(tmp_path / "from_config.jsonl"),
        }))
        assert run("--config", config, "extract") == 0
        assert (tmp_path / "from_config.jsonl").exists()

    def test_explicit_flag_beats_config(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "corpus": str(FIXTURE_CORPUS),
            "embeddings": str(TOY_EMBEDDINGS),
            "out": str(tmp_path / "ignored.jsonl"),
        }))
        explicit = tmp_path / "explicit.jsonl"
        assert run("--config", config, "extract", "--out", explicit) == 0
        assert explicit.exists()
        assert not (tmp_path / "ignored.jsonl").exists()

    def test_config_balanced_writes_subset(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"balanced": True}))
        out_dir = tmp_path / "split"
        assert run("--config", config, "prepare", "--gold", FIXTURE_GOLD, "--out-dir", out_dir) == 0
        assert (out_dir / "balanced-train.jsonl").exists()

    def test_explicit_seed_beats_config_seed(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 1}))

        def test_file(name, *argv):
            assert run(*argv, "--gold", FIXTURE_GOLD, "--out-dir", tmp_path / name) == 0
            return (tmp_path / name / "test.jsonl").read_bytes()

        explicit = test_file("explicit", "--config", config, "prepare", "--seed", 2)
        assert explicit == test_file("flag", "prepare", "--seed", 2)
        # the config's seed 1 alone gives another split
        assert explicit != test_file("config", "--config", config, "prepare")

    @pytest.mark.parametrize("argv", [[], ["extract"], ["evaluate"], ["prepare"], ["inspect"]],
                             ids=["top", "extract", "evaluate", "prepare", "inspect"])
    def test_help_shows_each_default(self, capsys, argv):
        # a stray "%" in a help string would break "%(default)s" formatting
        parser = build_parser()
        if argv:
            [subparsers] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
            parser = subparsers.choices[argv[0]]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        defaults = [a.default for a in parser._actions if a.default not in (None, argparse.SUPPRESS)]
        assert defaults or argv == ["inspect"]
        for default in defaults:
            assert f"(default {default}" in text

    @pytest.mark.parametrize("subcommand, flags", [
        ("extract", "--corpus, --embeddings, --out"),
        ("evaluate", "--gold, --pred, --report"),
        ("prepare", "--gold, --out-dir"),
        ("inspect", "--corpus, --id"),
    ], ids=["extract", "evaluate", "prepare", "inspect"])
    def test_missing_required_flag_fails(self, caplog, subcommand, flags):
        assert run(subcommand) == 1
        [record] = [r for r in caplog.records if r.levelno == logging.ERROR]
        assert record.getMessage() == f"ValueError: {subcommand}: missing required options: {flags}"

    def test_invalid_log_level_fails(self, tmp_path):
        out = tmp_path / "pred.jsonl"
        assert run("--log-level", "NOISY", "extract", "--corpus", FIXTURE_CORPUS,
                   "--embeddings", TOY_EMBEDDINGS, "--out", out) != 0

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_fails(self, tmp_path, workers):
        out = tmp_path / "pred.jsonl"
        assert main(["extract", "--corpus", str(FIXTURE_CORPUS), "--embeddings", str(TOY_EMBEDDINGS),
                     "--out", str(out), "--workers", workers]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("workers", [2.0, True])
    def test_config_workers_must_be_integer(self, tmp_path, caplog, workers):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"workers": workers}))
        out = tmp_path / "pred.jsonl"
        assert run("--config", config, "extract", "--corpus", FIXTURE_CORPUS,
                   "--embeddings", TOY_EMBEDDINGS, "--out", out) == 1
        assert "--workers" in caplog.text
        assert not out.exists()


    @pytest.mark.parametrize(
        "entry,message",
        [
            ({"balanced": "no"}, "'balanced' (--balanced) must be a boolean, got 'no'"),
            ({"seed": "5"}, "'seed' (--seed) must be an integer, got '5'"),
            ({"seed": True}, "'seed' (--seed) must be an integer, got True"),
            ({"test_fraction": "0.5"}, "'test_fraction' (--test-fraction) must be a number, got '0.5'"),
            ({"threshold": None}, "'threshold' (--threshold) must be a number, got None"),
            ({"gold": 3}, "'gold' (--gold) must be a string, got 3"),
            ({"seeed": 5}, "'seeed' is not a flag of any subcommand"),
            ({"log_level": "DEBUG"}, "'log_level' is not a flag of any subcommand"),
            ({"run": "cmd_prepare"}, "'run' is not a flag of any subcommand"),
            ({"required_flags": []}, "'required_flags' is not a flag of any subcommand"),
        ],
        ids=["bool-str", "int-str", "int-bool", "float-str", "float-null", "str-int", "typo", "top-level",
             "handler", "required-flags"],
    )
    def test_config_value_must_have_flag_type(self, tmp_path, caplog, entry, message):
        # unchecked, "no" would be truthy, int("5"), float("0.5") and str(3)
        # would convert the value, and an unknown key would be ignored
        config = tmp_path / "config.json"
        config.write_text(json.dumps(entry))
        out_dir = tmp_path / "split"
        assert run("--config", config, "prepare", "--gold", FIXTURE_GOLD, "--out-dir", out_dir) == 1
        assert f"ValueError: config file {config}: {message}" in caplog.text
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "content,message",
        [
            (b'{"seed": 1', "invalid JSON (Expecting ',' delimiter)"),
            (b'{"seed": "\xff"}', "not valid UTF-8 (invalid start byte)"),
            (b"[1]", "expected a JSON object, got list"),
            (b"3", "expected a JSON object, got int"),
            (b'{"seed": ' + b"[" * 200_000, "invalid JSON (nested too deeply)"),
            (b'{"seed": ' + b"1" * 5000 + b"}",
             f"invalid JSON (an integer has more than {sys.get_int_max_str_digits()} digits)"),
        ],
        ids=["truncated-json", "non-utf8", "list", "int", "deep", "long-integer"],
    )
    def test_unreadable_config_names_file(self, tmp_path, caplog, content, message):
        # a bare JSONDecodeError or UnicodeDecodeError used to leak
        config = tmp_path / "config.json"
        config.write_bytes(content)
        out_dir = tmp_path / "split"
        assert run("--config", config, "prepare", "--gold", FIXTURE_GOLD, "--out-dir", out_dir) == 1
        [record] = [r for r in caplog.records if r.levelno == logging.ERROR]
        assert record.getMessage() == f"ValueError: config file {config}: {message}"
        assert not out_dir.exists()

    def test_config_serves_several_subcommands(self, tmp_path):
        # keys of another subcommand are legal; an int is a number
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "corpus": str(FIXTURE_CORPUS), "embeddings": str(TOY_EMBEDDINGS),
            "out": str(tmp_path / "pred.jsonl"), "workers": 1,
            "gold": str(FIXTURE_GOLD), "pred": str(tmp_path / "pred.jsonl"),
            "report": str(tmp_path / "report.json"), "threshold": 1, "keep_separators": False,
        }))
        assert run("--config", config, "extract") == 0
        assert run("--config", config, "evaluate", "--mode", "fuzzy") == 0
        assert json.loads((tmp_path / "report.json").read_text())["accuracy"] == 1.0


class TestLogLevel:
    def test_each_call_sets_its_own_level(self, tmp_path, caplog):
        # logging.basicConfig alone does nothing once the root logger has a
        # handler, which would leave the first call's level in force
        root = logging.getLogger()
        saved = root.level
        argv = ("extract", "--corpus", FIXTURE_CORPUS, "--embeddings", TOY_EMBEDDINGS,
                "--out", tmp_path / "pred.jsonl")
        try:
            assert run("--log-level", "WARNING", *argv) == 0
            assert "wrote 22 predictions" not in caplog.text
            assert run("--log-level", "INFO", *argv) == 0
            assert "wrote 22 predictions" in caplog.text
        finally:
            root.setLevel(saved)

    def test_level_from_environment(self, monkeypatch, caplog):
        monkeypatch.setenv("FINRELEX_LOG_LEVEL", "WARNING")
        assert build_parser().parse_args(["inspect"]).log_level == "WARNING"
        assert build_parser().parse_args(["--log-level", "DEBUG", "inspect"]).log_level == "DEBUG"
        monkeypatch.setenv("FINRELEX_LOG_LEVEL", "NOISY")
        assert run("inspect", "--corpus", FIXTURE_CORPUS, "--id", "apple-income") == 1
        assert "ValueError: unknown log level 'NOISY'" in caplog.text


class TestErrorLog:
    def test_names_exception_type(self, tmp_path, caplog):
        assert run("extract", "--corpus", tmp_path / "nope.jsonl",
                   "--embeddings", TOY_EMBEDDINGS, "--out", tmp_path / "pred.jsonl") == 1
        [record] = [r for r in caplog.records if r.levelno == logging.ERROR]
        assert record.getMessage().startswith("FileNotFoundError: ")
        assert not record.exc_info

    def test_debug_keeps_traceback(self, tmp_path, caplog):
        caplog.set_level(logging.DEBUG, logger="finrelex")
        assert run("extract", "--corpus", tmp_path / "nope.jsonl",
                   "--embeddings", TOY_EMBEDDINGS, "--out", tmp_path / "pred.jsonl") == 1
        [record] = [r for r in caplog.records if r.levelno == logging.ERROR]
        assert record.exc_info[0] is FileNotFoundError


_FIRST_LINE = {path: path.read_bytes().split(b"\n", 1)[0] for path in (FIXTURE_CORPUS, FIXTURE_GOLD)}


@pytest.mark.parametrize(
    "load, error, good, bad, message",
    [
        (corpus.load_documents, corpus.CorpusFormatError, _FIRST_LINE[FIXTURE_CORPUS],
         b'{"id": "caf\xff"}', "line 2: not valid UTF-8"),
        (corpus.load_gold, corpus.CorpusFormatError, _FIRST_LINE[FIXTURE_GOLD],
         b'{"id": "caf\xff"}', "line 2: not valid UTF-8"),
        (records.load_predictions, records.RecordError, b'{"id": "a", "predicted_text": ""}',
         b'{"id": "caf\xff", "predicted_text": ""}', "line 2: not valid UTF-8"),
        (semvec.load_embeddings, semvec.EmbeddingFormatError, b"a 1 0", b"caf\xff 1 0",
         "line 2: not valid UTF-8"),
        # the bad line sits inside the second chunk, not at its start
        (semvec.load_embeddings, semvec.EmbeddingFormatError,
         b"\n".join(b"w%d 1 0" % i for i in range(semvec.CHUNK_LINES + 2)), b"caf\xff 1 0",
         f"line {semvec.CHUNK_LINES + 3}: not valid UTF-8"),
        (semvec.load_lexicon, semvec.EmbeddingFormatError, b'{"revenue_words":',
         b'["caf\xff"]}', ": not valid UTF-8"),
    ],
    ids=["corpus", "gold", "predictions", "embeddings", "embeddings-second-chunk", "lexicon"],
)
def test_non_utf8_input_raises_loader_error(tmp_path, load, error, good, bad, message):
    # a bare UnicodeDecodeError used to leak, naming only a byte offset
    path = tmp_path / "input"
    path.write_bytes(good + b"\n" + bad + b"\n" + good + b"\n")
    with pytest.raises(error, match=f"{message} \\(invalid start byte\\)$"):
        load(path)


def test_non_utf8_reported_after_earlier_bad_json(tmp_path):
    # lines are decoded one by one, so the first bad line in file order wins
    path = tmp_path / "gold.jsonl"
    path.write_bytes(b"{not json\n" + b'{"id": "caf\xff"}\n')
    with pytest.raises(corpus.CorpusFormatError, match="^line 1: invalid JSON record"):
        corpus.load_gold(path)


def test_non_utf8_gold_logged_with_line(tmp_path, caplog):
    gold = tmp_path / "gold.jsonl"
    gold.write_bytes(_FIRST_LINE[FIXTURE_GOLD] + b"\n" + b'{"id": "caf\xff"}\n')
    assert run("prepare", "--gold", gold, "--out-dir", tmp_path / "split") == 1
    assert "CorpusFormatError: line 2: not valid UTF-8 (invalid start byte)" in caplog.text


def _with_id(line: bytes, new_id: str) -> bytes:
    # json.dumps escapes a surrogate as \\udXXX, as a writer of UTF-16 JSON would
    return json.dumps(dict(json.loads(line), id=new_id)).encode("ascii")


_SURROGATE_LOADERS = [
    (corpus.load_documents, corpus.CorpusFormatError, _FIRST_LINE[FIXTURE_CORPUS]),
    (corpus.load_gold, corpus.CorpusFormatError, _FIRST_LINE[FIXTURE_GOLD]),
    (records.load_predictions, records.RecordError, b'{"id": "a", "predicted_text": ""}'),
]
_SURROGATE_IDS = ["corpus", "gold", "predictions"]


@pytest.mark.parametrize("load, error, good", _SURROGATE_LOADERS, ids=_SURROGATE_IDS)
@pytest.mark.parametrize("bad_id, escape", [("doc\ud800x", "\\ud800"), ("g\udc80", "\\udc80")],
                         ids=["high", "low"])
def test_lone_surrogate_escape_raises_loader_error(tmp_path, load, error, good, bad_id, escape):
    # it used to load and then fail the write with a bare UnicodeEncodeError
    path = tmp_path / "input"
    bad = _with_id(good, bad_id)
    path.write_bytes(good + b"\n" + bad.replace(b"\\ud", b"\\uD") + b"\n")
    with pytest.raises(error) as info:
        load(path)
    assert str(info.value) == f"line 2: lone UTF-16 surrogate {escape} in a string (not valid Unicode)"


@pytest.mark.parametrize("load, error, good", _SURROGATE_LOADERS, ids=_SURROGATE_IDS)
def test_escaped_surrogate_pair_loads(tmp_path, load, error, good):
    path = tmp_path / "input"
    path.write_bytes(_with_id(good, "doc\ud83d\ude00") + b"\n")
    loaded = load(path)
    assert (list(loaded) if isinstance(loaded, dict) else [x.id for x in loaded]) == ["doc\U0001f600"]


def test_lone_surrogate_fails_extract_before_any_output(tmp_path, caplog):
    corpus_path, out = tmp_path / "corpus.jsonl", tmp_path / "pred.jsonl"
    corpus_path.write_bytes(_with_id(_FIRST_LINE[FIXTURE_CORPUS], "doc\ud800x") + b"\n")
    assert run("extract", "--corpus", corpus_path, "--embeddings", TOY_EMBEDDINGS, "--out", out) == 1
    assert "CorpusFormatError: line 1: lone UTF-16 surrogate \\ud800" in caplog.text
    assert not out.exists()


_DECODER_LIMITS = [
    (b"[" * 200_000, "nested too deeply"),
    (b'{"id": "a", "n": ' + b"1" * 5000 + b"}",
     f"an integer has more than {sys.get_int_max_str_digits()} digits"),
]
_DECODER_LIMIT_IDS = ["deep", "long-integer"]


@pytest.mark.parametrize("load, error, good", _SURROGATE_LOADERS, ids=_SURROGATE_IDS)
@pytest.mark.parametrize("bad, reason", _DECODER_LIMITS, ids=_DECODER_LIMIT_IDS)
def test_decoder_limit_raises_loader_error_naming_line(tmp_path, load, error, good, bad, reason):
    # a bare RecursionError or ValueError used to leak, naming no line
    path = tmp_path / "input"
    path.write_bytes(good + b"\n" + bad + b"\n" + good + b"\n")
    with pytest.raises(error) as info:
        load(path)
    assert str(info.value) == f"line 2: invalid JSON record ({reason})"


@pytest.mark.parametrize("bad, reason", _DECODER_LIMITS, ids=_DECODER_LIMIT_IDS)
def test_decoder_limit_in_lexicon_names_file(tmp_path, bad, reason):
    path = tmp_path / "lexicon.json"
    path.write_bytes(b'{"revenue_words": ' + bad + b"}")
    with pytest.raises(semvec.EmbeddingFormatError) as info:
        semvec.load_lexicon(path)
    assert str(info.value) == f"{path}: invalid JSON ({reason})"


def test_deep_line_fails_evaluate_naming_line(tmp_path, caplog):
    deep = tmp_path / "deep.jsonl"
    deep.write_bytes(b"[" * 200_000 + b"\n")
    report = tmp_path / "report.json"
    assert run("evaluate", "--gold", deep, "--pred", deep, "--report", report) == 1
    assert "CorpusFormatError: line 1: invalid JSON record (nested too deeply)" in caplog.text
    assert not report.exists()


def test_nesting_at_the_decoder_limit_names_line(tmp_path):
    # the lone-surrogate check re-encodes a decoded row a few frames deeper
    # than the decoder ran, so rows just under the decoder's limit hit the
    # encoder's; every depth around it fails with the loader's error
    lo, hi = 1, 100_000  # decodes from here at lo, not at hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            json.loads("[" * mid + "]" * mid)
            lo = mid
        except RecursionError:
            hi = mid
    path = tmp_path / "gold.jsonl"
    for depth in range(lo - 16, hi + 1):
        path.write_text("[" * depth + '"\\ud800"' + "]" * depth + "\n", encoding="ascii")
        with pytest.raises(corpus.CorpusFormatError, match="^line 1: "):
            corpus.load_gold(path)


class TestOutputNamesInput:
    """An output path that resolves to an input or to another output is
    refused before anything is read, so the input keeps its bytes."""

    @staticmethod
    def error(caplog) -> str:
        [record] = [r for r in caplog.records if r.levelno == logging.ERROR]
        return record.getMessage()

    def test_extract_out_names_corpus(self, tmp_path, caplog, monkeypatch):
        corpus_path = tmp_path / "c.jsonl"
        corpus_path.write_bytes(FIXTURE_CORPUS.read_bytes())
        monkeypatch.chdir(tmp_path)
        out = f"../{tmp_path.name}/c.jsonl"
        assert run("extract", "--corpus", "c.jsonl", "--embeddings", TOY_EMBEDDINGS, "--out", out) == 1
        assert self.error(caplog) == f"ValueError: --out and --corpus name the same file: {out}"
        assert corpus_path.read_bytes() == FIXTURE_CORPUS.read_bytes()

    @pytest.mark.parametrize("report_is_gold", [True, False], ids=["report-gold", "breakdown-report"])
    def test_evaluate_output_names_input_or_output(self, tmp_path, caplog, predictions_path, report_is_gold):
        gold = tmp_path / "g.jsonl"
        gold.write_bytes(FIXTURE_GOLD.read_bytes())
        report = gold if report_is_gold else tmp_path / "report.json"
        flags = [] if report_is_gold else ["--breakdown", tmp_path / "." / "report.json"]
        assert run("evaluate", "--gold", gold, "--pred", predictions_path, "--report", report, *flags) == 1
        if report_is_gold:
            assert self.error(caplog) == f"ValueError: --report and --gold name the same file: {gold}"
        else:
            assert self.error(caplog) == (f"ValueError: --breakdown and --report name the same file: "
                                          f"{tmp_path / '.' / 'report.json'}")
            assert not report.exists()
        assert gold.read_bytes() == FIXTURE_GOLD.read_bytes()

    @pytest.mark.parametrize("name", ["train.jsonl", "balanced-train.jsonl"])
    def test_prepare_out_dir_file_names_gold(self, tmp_path, caplog, name):
        # balanced-train.jsonl is removed by a run without --balanced
        out_dir = tmp_path / "sp"
        out_dir.mkdir()
        gold = out_dir / name
        gold.write_bytes(FIXTURE_GOLD.read_bytes())
        assert run("prepare", "--gold", gold, "--out-dir", out_dir) == 1
        assert self.error(caplog) == f"ValueError: --out-dir ({name}) and --gold name the same file: {gold}"
        assert sorted(p.name for p in out_dir.iterdir()) == [name]
        assert gold.read_bytes() == FIXTURE_GOLD.read_bytes()


class TestOutputDirectory:
    """An output that is a directory, or whose directory does not exist, is
    refused, naming its flag, before anything is read or written; ``prepare``
    makes its ``--out-dir`` under the nearest existing directory."""

    def test_extract_out_fails_before_table_loads(self, tmp_path, caplog, monkeypatch):
        monkeypatch.setattr(semvec, "load_embeddings", lambda path: pytest.fail("the table was loaded"))
        out = tmp_path / "nodir" / "pred.jsonl"
        assert run("extract", "--corpus", FIXTURE_CORPUS, "--embeddings", TOY_EMBEDDINGS, "--out", out) == 1
        assert TestOutputNamesInput.error(caplog) == (
            f"ValueError: --out {out}: {out.parent} is not a directory")
        assert list(tmp_path.iterdir()) == []

    def test_evaluate_breakdown_fails_before_report_is_written(self, tmp_path, caplog, predictions_path):
        report, breakdown = tmp_path / "report.json", tmp_path / "nodir" / "b.jsonl"
        assert run("evaluate", "--gold", FIXTURE_GOLD, "--pred", predictions_path,
                   "--report", report, "--breakdown", breakdown) == 1
        assert TestOutputNamesInput.error(caplog) == (
            f"ValueError: --breakdown {breakdown}: {breakdown.parent} is not a directory")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["pred.jsonl"]

    def test_output_under_a_file_is_refused(self, tmp_path, caplog, predictions_path):
        report = predictions_path / "report.json"
        assert run("evaluate", "--gold", FIXTURE_GOLD, "--pred", predictions_path, "--report", report) == 1
        assert TestOutputNamesInput.error(caplog) == (
            f"ValueError: --report {report}: {predictions_path} is not a directory")

    def test_extract_out_directory_fails_before_table_loads(self, tmp_path, caplog, monkeypatch):
        monkeypatch.setattr(semvec, "load_embeddings", lambda path: pytest.fail("the table was loaded"))
        out = tmp_path / "outdir"
        out.mkdir()
        assert run("extract", "--corpus", FIXTURE_CORPUS, "--embeddings", TOY_EMBEDDINGS, "--out", out) == 1
        assert TestOutputNamesInput.error(caplog) == f"ValueError: --out {out} is a directory"
        assert list(tmp_path.iterdir()) == [out] and list(out.iterdir()) == []

    def test_evaluate_breakdown_directory_writes_no_report(self, tmp_path, caplog, predictions_path):
        report, breakdown = tmp_path / "report.json", tmp_path / "bd"
        breakdown.mkdir()
        assert run("evaluate", "--gold", FIXTURE_GOLD, "--pred", predictions_path,
                   "--report", report, "--breakdown", breakdown) == 1
        assert TestOutputNamesInput.error(caplog) == f"ValueError: --breakdown {breakdown} is a directory"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bd", "pred.jsonl"]
        assert list(breakdown.iterdir()) == []

    @pytest.mark.parametrize("nested", [False, True], ids=["file", "under-file"])
    def test_prepare_out_dir_file_fails_before_gold_loads(self, tmp_path, caplog, monkeypatch, nested):
        monkeypatch.setattr(corpus, "load_gold", lambda path: pytest.fail("the gold was loaded"))
        blocker = tmp_path / "file"
        blocker.write_text("kept")
        out_dir = blocker / "split" if nested else blocker
        assert run("prepare", "--gold", FIXTURE_GOLD, "--out-dir", out_dir) == 1
        assert TestOutputNamesInput.error(caplog) == (
            f"ValueError: --out-dir (train.jsonl) {out_dir / 'train.jsonl'}: {blocker} is not a directory")
        assert list(tmp_path.iterdir()) == [blocker] and blocker.read_text() == "kept"

    def test_prepare_makes_missing_out_dir(self, tmp_path):
        out_dir = tmp_path / "new" / "split"
        assert run("prepare", "--gold", FIXTURE_GOLD, "--out-dir", out_dir) == 0
        assert sorted(p.name for p in out_dir.iterdir()) == ["test.jsonl", "train.jsonl"]


_WITHOUT_NUMPY = """
import sys
src, gold, pred, out, docs = sys.argv[1:]
sys.path.insert(0, src)
from finrelex.cli import main
assert main(["evaluate", "--gold", gold, "--pred", pred, "--mode", "fuzzy",
             "--report", out + "/report.json"]) == 0
assert main(["prepare", "--gold", gold, "--balanced", "--out-dir", out + "/split"]) == 0
assert main(["inspect", "--corpus", docs, "--id", "apple-income"]) == 0
assert "numpy" not in sys.modules, "evaluate, prepare or inspect imported numpy"
assert "multiprocessing" not in sys.modules, "evaluate, prepare or inspect imported multiprocessing"
"""


def test_evaluate_and_prepare_do_not_import_numpy(tmp_path, gold_examples):
    # a fresh interpreter, which holds only the modules the commands import
    pred = tmp_path / "pred.jsonl"
    records.save_predictions([(g.id, g.target_text) for g in gold_examples], pred)
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_NUMPY, str(src), str(FIXTURE_GOLD), str(pred), str(tmp_path),
         str(FIXTURE_CORPUS)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "report.json").is_file()
    assert (tmp_path / "split" / "balanced-train.jsonl").is_file()


_EXTRACT_WITHOUT_NUMPY = """
import sys
src, docs, table, out, workers = sys.argv[1:]
sys.path.insert(0, src)
from finrelex.cli import main
assert main(["extract", "--corpus", docs, "--embeddings", table, "--out", out, "--workers", workers]) == 0
assert "numpy" not in sys.modules, "extract imported numpy"
"""


@pytest.mark.parametrize("workers", ["1", "2"])
def test_extract_does_not_import_numpy(tmp_path, workers):
    # a fresh interpreter, which holds only the modules the command imports
    out = tmp_path / "pred.jsonl"
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _EXTRACT_WITHOUT_NUMPY, str(src), str(FIXTURE_CORPUS), str(TOY_EMBEDDINGS),
         str(out), workers],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert len(out.read_bytes().splitlines()) == len(FIXTURE_CORPUS.read_bytes().splitlines())
