"""finrelex benchmark: time real ``finrelex`` commands on seeded inputs.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload short_docs --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

With ``--trace 0`` each measured command runs in a fresh interpreter, as a
user runs ``finrelex``, and the end-to-end metrics are reported: the median
wall time, set-up time, items per second and peak resident memory over the
repetitions that fit in ``--seconds``.  Times are scaled to a reference
machine speed measured next to each repetition (see ``speed_probe``); the
raw wall times are printed to standard error.  Every repetition's outputs
are checked against a reference that does not come from finrelex; an item
whose output differs, or every item of a run that exits non-zero, counts as
failed.  With
``--trace 1`` the command runs in this process with the package's public
functions wrapped, and the per-layer metrics are reported instead (see
``tracing.py``).  ``--workload all`` runs every workload in turn and
prints one table.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give an environment stamp and the metrics in readable form.  Inputs and
outputs live in ``.bench_build/perfbench`` inside the checkout and are
removed at exit.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = workloads.ROOT
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

SETUP_REPS = 3
MIN_REPS = 3



def metric_units(kind: str) -> dict[str, str]:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``, as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def require_checkout() -> None:
    """Exit with an error unless the package source and fixture data exist."""
    needed = [SRC / "finrelex" / "cli.py", workloads.FIXTURE_CORPUS, workloads.FIXTURE_GOLD,
              workloads.TOY_EMBEDDINGS]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        sys.exit(f"perfbench: not a finrelex checkout, missing {', '.join(missing)}")


# The console script's body, plus a report of the peak resident memory of
# the process and of the pool workers it reaped.  ``wait4`` cannot give it:
# on Linux a spawned child's maximum RSS starts at the spawning process's.
CLI_MAIN = """
import resource, sys
from finrelex.cli import main
status = main()
with open("/proc/self/status") as fh:
    own = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print("peak_rss_kb", max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss))
sys.exit(status)
"""


def spawn(code: str, argv: list[str], log: Path) -> tuple[float, float, int]:
    """Run ``python -c code argv`` against the checkout's ``src``, stderr to
    ``log``.  Returns (wall seconds, the peak RSS in MB the code printed or
    NaN, exit code)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = log.with_suffix(".out")
    with open(log, "wb") as err, open(out, "wb") as stdout:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code, *argv], stdin=subprocess.DEVNULL,
                                stdout=stdout, stderr=err, env=env, cwd=ROOT)
        proc.wait()
        wall = time.perf_counter() - start
    peak = [line.split()[1] for line in out.read_text().splitlines() if line.startswith("peak_rss_kb ")]
    return wall, int(peak[-1]) / 1024.0 if peak else math.nan, proc.returncode


def run_cli(argv: list[str], log: Path) -> tuple[float, float, int]:
    """``finrelex <argv>`` in a fresh interpreter, as the console script runs it."""
    return spawn(CLI_MAIN, argv, log)


def _digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes() if p.is_file() else b"<missing>")
    return h.hexdigest()


def _report_failure(what: str, log: Path) -> None:
    tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
    print(f"perfbench: {what} failed:\n{tail}", file=sys.stderr)


# On a shared 2-CPU Xeon VM, CPU speed changed by up to 1.7x for seconds to
# minutes at a time, so the median of 20 s of raw wall times moved by 15-25%
# from run to run.  Each timed command therefore runs between two probes of
# a fixed pure-Python decode-and-sort loop (the kind of work finrelex does),
# and its wall time is scaled to the speed at which the probe takes
# REFERENCE_PROBE_S.  Raw wall times are printed next to the scaled ones.
_PROBE_JSON = json.dumps([{"id": i, "text": "word " * 20, "tokens": [{"i": j, "head": j} for j in range(10)]}
                          for i in range(2000)])
REFERENCE_PROBE_S = 0.065


def speed_probe() -> float:
    start = time.perf_counter()
    for _ in range(4):
        rows = json.loads(_PROBE_JSON)
        rows.sort(key=lambda r: -r["id"])
        sum(len(r["tokens"]) for r in rows)
    return time.perf_counter() - start


def at_reference_speed(run) -> tuple[float, float, float, int]:
    """Call ``run`` between two speed probes.  Returns (wall time scaled to the
    reference speed, raw wall time, peak RSS, exit code)."""
    before = speed_probe()
    wall, peak, status = run()
    probe = (before + speed_probe()) / 2
    return wall * REFERENCE_PROBE_S / probe, wall, peak, status


def measure(wl: workloads.Workload, work: Path, seconds: float) -> tuple[dict, int, int]:
    """Set-up time, then repeated timed runs of the command for ``seconds``."""
    log = work / "stderr.log"
    code, argv = (CLI_MAIN, wl.setup_argv) if wl.setup_argv else ("import finrelex.cli", [])
    spawn("import finrelex.cli", [], log)  # warm-up: byte-code and file caches, not timed
    setups = []
    for _ in range(SETUP_REPS):
        scaled, _, _, status = at_reference_speed(lambda: spawn(code, argv, log))
        if status != 0:
            _report_failure("set-up command", log)
            raise SystemExit(1)
        setups.append(scaled)

    walls, raw, rss = [], [], []
    attempted = failed = 0
    checked: dict[str, int] = {}
    start = time.perf_counter()
    while len(walls) < MIN_REPS or time.perf_counter() - start + statistics.median(raw) <= seconds:
        for p in wl.outputs:
            p.unlink(missing_ok=True)
        scaled, wall, peak, status = at_reference_speed(lambda: run_cli(wl.argv, log))
        walls.append(scaled)
        raw.append(wall)
        attempted += wl.items
        if status != 0:
            _report_failure(f"{wl.name} command (exit {status})", log)
            failed += wl.items
            continue
        rss.append(peak)
        digest = _digest(wl.outputs)
        if digest not in checked:
            checked[digest] = wl.check()
        failed += checked[digest]

    wall = statistics.median(walls)
    metrics = {
        "wall_s": wall,
        "setup_s": statistics.median(setups),
        "items_per_s": wl.items / wall,
        "peak_rss_mb": statistics.median(rss) if rss else math.nan,
    }
    print(f"# {wl.name}: {len(walls)} timed runs of {wl.items} items; raw wall median "
          f"{statistics.median(raw):.4f} s, runs {' '.join(f'{w:.3f}' for w in raw)} s; "
          f"scaled {' '.join(f'{w:.3f}' for w in walls)} s", file=sys.stderr)
    return {k: {"value": metrics[k], "unit": u} for k, u in metric_units("end_to_end").items()}, attempted, failed


def environment(seed: int, wl: workloads.Workload) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                                check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None  # the benchmark also runs from exported trees
    src = hashlib.sha256()
    for path in sorted((SRC / "finrelex").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": wl.name,
        "seed": seed,
        "sizes": wl.sizes,
        "items": wl.items,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, int, int]:
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        wl = workloads.build(name, work, seed)
        print(json.dumps({"environment": environment(seed, wl)}, sort_keys=True))
        if trace:
            import tracing

            metrics, attempted, failed = tracing.run(wl, work, seed, seconds, SRC, run_cli, metric_units("per_layer"))
        else:
            metrics, attempted, failed = measure(wl, work, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for metric, m in metrics.items():
        print(f"{name:<12} {metric:<36} {m['value']:>14.6g} {m['unit']}")
    print(f"{name:<12} {'failed_share':<36} {failed / attempted:>14.6g} share of {attempted} items")
    return metrics, attempted, failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.BUILDERS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measurement time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    require_checkout()

    names = list(workloads.BUILDERS) if args.workload == "all" else [args.workload]
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        m, a, f = run_workload(name, args.seed, args.seconds, bool(args.trace))
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in m.items()})
        attempted += a
        failed += f
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
