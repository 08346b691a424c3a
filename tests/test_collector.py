"""``cli.main`` runs a command with the automatic cyclic garbage collector
off; these tests show that nothing is lost by it and that ``main`` leaves the
collector as it found it."""

import gc
import json
import subprocess
import sys
from pathlib import Path

import pytest

from finrelex import cli, corpus, records
from finrelex._fileio import line_ranges
from finrelex.cli import main
from tests.conftest import FIXTURE_CORPUS, FIXTURE_GOLD, TOY_EMBEDDINGS


def _copies(src: Path, dest: Path, copies: int, gold: bool = False) -> Path:
    """``src``'s rows ``copies`` times over, copy k's ids (and, for gold, the
    company of each target record) suffixed with k, so no row repeats."""
    rows = [json.loads(line) for line in src.read_text(encoding="utf-8").splitlines()]
    with dest.open("w", encoding="utf-8") as fh:
        for k in range(copies):
            for row in rows:
                row = {**row, "id": f"{row['id']}-{k}"}
                if gold:
                    row["target_text"] = "|".join(r.replace(",", f" {k},", 1) for r in row["target_text"].split("|"))
                fh.write(json.dumps(row, ensure_ascii=False) + "\n")
    return dest


def _cyclic_garbage(run) -> int:
    """How many objects ``run()`` leaves unreachable only through reference
    cycles: the objects a full collection finds afterwards, plus any an
    automatic collection found during the run."""
    was_on = gc.isenabled()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run()
        gc.collect()
        return len(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_on:
            gc.enable()


def _extract(root: Path) -> None:
    assert main(["extract", "--corpus", str(root / "corpus.jsonl"), "--embeddings", str(TOY_EMBEDDINGS),
                 "--out", str(root / "pred.jsonl")]) == 0


def _relate_part(root: Path) -> None:
    path = root / "corpus.jsonl"
    [lines] = line_ranges(path, 1)
    loaded, related, load_error, relate_error = cli._relate_part(str(path), lines)
    assert load_error is None and relate_error is None and len(related) == len(loaded)


def _evaluate(root: Path) -> None:
    assert main(["evaluate", "--gold", str(root / "gold.jsonl"), "--pred", str(root / "gold-pred.jsonl"),
                 "--mode", "fuzzy", "--report", str(root / "report.json"),
                 "--breakdown", str(root / "breakdown.jsonl")]) == 0


def _prepare(root: Path) -> None:
    assert main(["prepare", "--gold", str(root / "gold.jsonl"), "--balanced", "--out-dir", str(root / "split")]) == 0


@pytest.mark.parametrize("stage", [_extract, _relate_part, _evaluate, _prepare],
                         ids=["extract", "relate_part", "evaluate", "prepare"])
def test_records_make_no_reference_cycles(tmp_path, stage):
    # The collector is off while main runs a command: that is safe only while
    # the cyclic garbage of a run does not grow with its input.
    roots = []
    for copies in (1, 4):
        root = tmp_path / f"x{copies}"
        root.mkdir()
        _copies(FIXTURE_CORPUS, root / "corpus.jsonl", copies)
        gold = corpus.load_gold(_copies(FIXTURE_GOLD, root / "gold.jsonl", copies, gold=True))
        records.save_predictions([(g.id, g.target_text) for g in gold], root / "gold-pred.jsonl")
        roots.append(root)
    stage(roots[0])  # first-call imports and caches, outside the count
    small, large = (_cyclic_garbage(lambda: stage(root)) for root in roots)
    assert small == large


@pytest.mark.parametrize("corpus_path, status", [(FIXTURE_CORPUS, 0), (Path("missing.jsonl"), 1)],
                         ids=["success", "error"])
@pytest.mark.parametrize("collector_on", [True, False], ids=["on", "off"])
def test_main_leaves_collector_as_found(tmp_path, corpus_path, status, collector_on):
    was_on = gc.isenabled()
    (gc.enable if collector_on else gc.disable)()
    try:
        assert main(["extract", "--corpus", str(tmp_path / corpus_path), "--embeddings", str(TOY_EMBEDDINGS),
                     "--out", str(tmp_path / "pred.jsonl")]) == status
        assert gc.isenabled() is collector_on
    finally:
        (gc.enable if was_on else gc.disable)()


def test_forked_parts_run_without_collector(tmp_path, monkeypatch):
    # a part that finds the collector on fails, and its worker exits without a result
    relate_part = cli._relate_part

    def checked(path, lines):
        assert not gc.isenabled(), "a forked part runs with the collector on"
        return relate_part(path, lines)

    monkeypatch.setattr(cli, "_relate_part", checked)
    monkeypatch.setattr(cli, "_part_count", lambda workers: workers)  # two parts even on one CPU
    assert gc.isenabled()
    assert main(["extract", "--corpus", str(FIXTURE_CORPUS), "--embeddings", str(TOY_EMBEDDINGS),
                 "--workers", "2", "--out", str(tmp_path / "pred.jsonl")]) == 0


_EXIT_HOOKS = """
import atexit, gc, sys
sys.path.insert(0, sys.argv[1])
hooks = []
register = atexit.register
atexit.register = lambda func, *args, **kwargs: register(hooks.append(func) or func, *args, **kwargs)
from finrelex.cli import main
argv = ["evaluate", "--gold", sys.argv[2], "--pred", sys.argv[3], "--report", sys.argv[4]]
for _ in range(3):
    assert main(argv) == 0
assert hooks.count(gc.freeze) == 1, hooks
"""


def test_repeated_main_registers_one_exit_hook(tmp_path, gold_examples):
    # a fresh interpreter: this process may have called main already
    pred = tmp_path / "pred.jsonl"
    records.save_predictions([(g.id, g.target_text) for g in gold_examples], pred)
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _EXIT_HOOKS, str(src), str(FIXTURE_GOLD), str(pred), str(tmp_path / "report.json")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
