"""Time the end-to-end sweeps of two source trees of rowmotion.

    python3 tools/time_sweeps.py PARENT_SRC CHANGE_SRC [--out FILE]

PARENT_SRC and CHANGE_SRC are the src/ directories of two checkouts.  The
sweeps are verify-grid 8 8, verify-grid 9 9 --budget, verify-k 6 4,
conjectures and verify-delta1, each with --format json --no-timing.  Every
run is a fresh interpreter with PYTHONPATH set to one tree and
PYTHONHASHSEED=0, timed from outside as wall time around the whole process,
start-up included, and as the CPU time the kernel charged it; its output is
discarded and its exit code kept.  A pair
runs one command once on each side, and each command gets PAIRS pairs;
pairs alternate which side goes first (odd pairs the parent, even pairs
the change), and the commands take turns within a round of pairs.  One
command of each tree runs untimed first, so that neither side pays for
compiling its bytecode.

The script prints, per command, the median wall time of each side and in
how many pairs the change was faster; the JSON summary adds the quartiles
and the median CPU times.  With
--out, the same summary and every pair go into that JSON file under the key
"sweeps"; the file's other keys are kept.  Times are seconds on the machine
that runs the script, not scaled.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

COMMANDS = (
    ("verify-grid", "8", "8"),
    ("verify-grid", "9", "9", "--budget"),
    ("verify-k", "6", "4"),
    ("conjectures",),
    ("verify-delta1",),
)
RUN_MAIN = ("import sys; from rowmotion.cli import main; "
            "sys.exit(main(sys.argv[1:]))")
PAIRS = 5


def run(src: str, argv: list[str]) -> tuple[float, float, int]:
    """(wall seconds, CPU seconds, exit code) of one command in a fresh
    interpreter.  os.wait4 blocks until the child exits; a wait with a
    timeout would poll, and round every time up to its next 50 ms step."""
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0")
    start = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-c", RUN_MAIN, *argv],
                             env=env, stdout=subprocess.DEVNULL,
                             stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, child.returncode


def quartiles(values: list[float]) -> list[float]:
    q = statistics.quantiles(values, n=4)
    return [q[0], q[2]]


def summarize(runs: list[dict]) -> dict:
    parent = [r["parent_s"] for r in runs]
    change = [r["change_s"] for r in runs]
    return {
        "parent": round(statistics.median(parent), 4),
        "change": round(statistics.median(change), 4),
        "parent_quartiles": [round(q, 4) for q in quartiles(parent)],
        "change_quartiles": [round(q, 4) for q in quartiles(change)],
        "change_wins": sum(c < p for p, c in zip(parent, change)),
        "parent_cpu": round(statistics.median(
            r["parent_cpu_s"] for r in runs), 4),
        "change_cpu": round(statistics.median(
            r["change_cpu_s"] for r in runs), 4),
        "exit": sorted({r["parent_exit"] for r in runs}
                       | {r["change_exit"] for r in runs}),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    for src in (args.parent_src, args.change_src):
        if not (Path(src) / "rowmotion" / "cli.py").is_file():
            parser.error(f"{src} holds no rowmotion package")
    sides = {"parent": args.parent_src, "change": args.change_src}
    for src in sides.values():
        run(src, ["catalog", "--no-timing"])
    runs: dict[str, list[dict]] = {" ".join(c): [] for c in COMMANDS}
    for pair in range(1, PAIRS + 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        for command in COMMANDS:
            argv = [*command, "--format", "json", "--no-timing"]
            row = {"pair": pair, "first": order[0]}
            for side in order:
                (row[f"{side}_s"], row[f"{side}_cpu_s"],
                 row[f"{side}_exit"]) = run(sides[side], argv)
            runs[" ".join(command)].append(row)
        print(f"pair {pair} of {PAIRS} done", file=sys.stderr)
    summary = {name: summarize(rows) for name, rows in runs.items()}
    width = max(map(len, summary))
    for name, s in summary.items():
        print(f"{name:<{width}}  parent {s['parent']:.3f} s  "
              f"change {s['change']:.3f} s  "
              f"faster in {s['change_wins']} of {PAIRS}")
    if args.out:
        data = json.loads(args.out.read_text()) if args.out.exists() else {}
        data["sweeps"] = {
            "command": "python3 tools/time_sweeps.py PARENT_SRC CHANGE_SRC",
            "machine": f"{os.cpu_count()} CPUs, Python "
                       f"{platform.python_version()}; wall seconds, "
                       "not scaled",
            "medians": summary,
            "runs": runs,
        }
        args.out.write_text(json.dumps(data, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
