"""Self-check of the benchmark itself; run from the root of a checkout::

    python3 perfbench/selfcheck.py

It checks that

1. the same seed gives byte-identical generated inputs, and another seed
   gives different ones, for every workload;
2. the reference checks pass on a tiny instance of each workload run through
   the real ``finrelex`` command;
3. the same checks count a deliberately corrupted output as failed, so they
   are live;
4. the reference scorer gives hand-computed results on a few strings.

Prints one line per check and exits non-zero if any fails.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

import reference
import run
import workloads

WORK = run.WORK / "selfcheck"


def _files(directory: Path) -> dict[str, bytes]:
    return {str(p.relative_to(directory)): p.read_bytes() for p in sorted(directory.rglob("*")) if p.is_file()}


def corrupt(wl: workloads.Workload) -> None:
    """Damage one item of the workload's output in place."""
    if wl.name in ("short_docs", "long_docs"):
        rows = reference.read_jsonl(wl.outputs[0])
        rows[0]["predicted_text"] += " x"
        workloads.write_jsonl(wl.outputs[0], rows)
    elif wl.name == "score_fuzzy":
        rows = reference.read_jsonl(wl.outputs[1])
        rows[0]["tp"] += 1
        workloads.write_jsonl(wl.outputs[1], rows)
    else:  # move an empty-target example from train to test: it is contained in every train example
        train_path, test_path = wl.outputs[0], wl.outputs[1]
        train, test = reference.read_jsonl(train_path), reference.read_jsonl(test_path)
        moved = next(i for i, row in enumerate(train) if not row["target_text"])
        test.append(train.pop(moved))
        workloads.write_jsonl(train_path, train)
        workloads.write_jsonl(test_path, test)


def scorer_cases() -> list[str]:
    cases = [
        (reference.levenshtein("kitten", "sitting"), 3),
        (reference.score("Apple, revenue, $9.4 million, unknown-date|",
                         "Apple, revenue, $9.4 million, unknown-date|", 0.9), (5, 0, 0, 0)),
        (reference.score("", "", 0.9), (0, 1, 0, 0)),
        (reference.score("a b", "", 0.9), (0, 0, 0, 2)),
        (reference.score("", "x|", 0.9), (0, 0, 1, 0)),
        (reference.score("revenues", "REVENUE", 0.9), (0, 0, 1, 0)),      # 1 - 1/8 < 0.9
        (reference.score("investments", "investment", 0.9), (1, 0, 0, 0)),  # 1 - 1/11 >= 0.9
        (reference.record_multiset("Zen, revenue, $1 million, March 3,  2021|")[
            ("zen", "revenue", "$1 million", "march 3, 2021")], 1),
    ]
    return [f"case {i}: got {got!r}, want {want!r}" for i, (got, want) in enumerate(cases) if got != want]


def main() -> int:
    run.require_checkout()
    problems: list[str] = []

    def report(name: str, errors: list[str]) -> None:
        print(f"{'PASS' if not errors else 'FAIL'} {name}" + "".join(f"\n    {e}" for e in errors))
        problems.extend(errors)

    shutil.rmtree(WORK, ignore_errors=True)
    try:
        for name in workloads.BUILDERS:
            a = workloads.build(name, WORK / name / "a", seed=7, size="tiny")
            workloads.build(name, WORK / name / "b", seed=7, size="tiny")
            workloads.build(name, WORK / name / "c", seed=8, size="tiny")
            same = _files(WORK / name / "a") == _files(WORK / name / "b")
            differs = _files(WORK / name / "a") != _files(WORK / name / "c")
            report(f"{name}: seeded inputs", [e for ok, e in ((same, "same seed, different files"),
                                                             (differs, "other seed, same files")) if not ok])

            _, _, status = run.run_cli(a.argv, WORK / name / "stderr.log")
            failed = a.check() if status == 0 else a.items
            report(f"{name}: reference check on {a.items} items",
                   [f"exit {status}, {failed} failed items"] if status or failed else [])

            if status == 0:
                corrupt(a)
                report(f"{name}: corrupted output is caught", [] if a.check() > 0 else ["corruption not caught"])
        report("reference scorer", scorer_cases())
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
