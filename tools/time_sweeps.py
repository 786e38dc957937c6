"""Time the end-to-end sweeps of two source trees of rowmotion.

    python3 tools/time_sweeps.py PARENT_SRC CHANGE_SRC [--pairs N]
        [--only TEXT [TEXT ...]] [--tier1] [--out FILE]

PARENT_SRC and CHANGE_SRC are the src/ directories of two checkouts.  The
sweeps are verify-grid 8 8, verify-grid 9 9 --budget, verify-k 6 4,
conjectures and verify-delta1; one listing, orbits prod(chain(8),chain(8))
(12870 ideals); and the four refusals of perfbench's guarded_inputs,
orbits prod(chain(2),K(100)), orbits prod(chain(20),chain(20)), orbits
prod(chain(10),chain(10)) and verify-grid 9 9, which exit 3 at the default
clamp of 20000 ideals, each poset's ideal lower bound being past it.
Each runs with --format json --no-timing.  --only keeps the commands whose
text, its words joined by spaces, contains one of the TEXTs (orbits
prod(chain(2) for the first refusal alone); the run stops
with a usage error when none does.  Every run is a fresh interpreter with
PYTHONPATH set to one tree and PYTHONHASHSEED=0, timed from outside as
wall time around the whole process, start-up included, and as the CPU
time the kernel charged it; its output is discarded and its exit code
kept.  The child also times the reference loop of perfbench/child.py
(imported, not run as a script) before it imports the package and after
main() returns, as perfbench does, and writes the two times to a pipe.
The wall time less those two loops is also reported scaled to
perfbench's reference machine: times 0.01 s over the mean loop time, so
that a run on a slow moment of a shared machine is not read as a slow
command.  The CPU time includes the loops.  A pair runs one command once
on each side, and each command gets N pairs (--pairs, 5 by default);
pairs alternate which side goes first (odd pairs the parent, even pairs
the change), and the commands take turns within a round of pairs.  One
command of each tree runs untimed first, so that neither side pays for
compiling its bytecode; PYTHONDONTWRITEBYTECODE is dropped from every
child's environment, so that the first run writes the .pyc files.

--tier1 also times tier-1 wall time: pytest -q -p no:cacheprovider on the
tests/ directory beside each SRC, run from that checkout, once per side in
each pair after the commands, in the same order as they.  It is timed and
scaled like a command and reported under its own key, "tier1"; a pytest
--collect-only of each tree runs untimed first, so that neither side pays
for compiling its tests.  --only then may match no command, and the
tier-1 run is timed alone.

The script prints, per command and for tier-1, the median wall and scaled
times of each side and in how many pairs the change was faster by each;
the JSON summary adds the quartiles and the median CPU times.  With --out,
the same summary and every pair go into that JSON file under the key
"sweeps", its command naming --pairs, --only and --tier1; the file's other
keys are kept.  Wall and CPU
times are seconds on the machine that runs the script; scaled times are
seconds at perfbench's reference speed.
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
    ("orbits", "prod(chain(8),chain(8))"),
    ("orbits", "prod(chain(2),K(100))"),
    ("orbits", "prod(chain(20),chain(20))"),
    ("orbits", "prod(chain(10),chain(10))"),
    ("verify-grid", "9", "9"),
)
CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"
# argv: the path of perfbench/child.py, the write end of the pipe, then
# the arguments of the call; the loop times go to the pipe whatever the
# call returns
RUN = """\
import importlib.util, os, sys
spec = importlib.util.spec_from_file_location("perfbench_child", sys.argv[1])
child = importlib.util.module_from_spec(spec)
spec.loader.exec_module(child)
before = child.reference_loop()
try:
    {call}
finally:
    os.write(int(sys.argv[2]), f"{{before}} {{child.reference_loop()}}".encode())
sys.exit(code)
"""
RUN_MAIN = RUN.format(
    call="from rowmotion.cli import main; code = main(sys.argv[3:])")
RUN_TESTS = RUN.format(call="import pytest; code = pytest.main(sys.argv[3:])")
TIER1_OPTIONS = ("-q", "-p", "no:cacheprovider")
# the tier-1 run's name, in the printed summary and in the JSON file
TIER1 = " ".join(["pytest", *TIER1_OPTIONS, "tests"])
# perfbench's nominal reference loop time, REF_NOMINAL_S in perfbench/run.py
REF_NOMINAL_S = 0.01


def run(src: str, argv: list[str], tests: bool = False) -> dict:
    """Wall seconds less the two reference loops, CPU seconds, the mean
    loop time, the scaled wall seconds and the exit code of one command in
    a fresh interpreter; with tests, of pytest -q with the options argv on
    the tests/ beside src, run from that checkout.  os.wait4 blocks until
    the child exits; a wait with a timeout would poll, and round every
    time up to its next 50 ms step.  When the child wrote no loop times,
    the wall time is whole and the loop and scaled times are None."""
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0")
    # the untimed first run must leave .pyc files for the timed runs to read
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    root = Path(src).resolve().parent
    if tests:
        argv = [*TIER1_OPTIONS, *argv, str(root / "tests")]
    read, write = os.pipe()
    with os.fdopen(read) as pipe:
        try:
            start = time.perf_counter()
            child = subprocess.Popen(
                [sys.executable, "-c", RUN_TESTS if tests else RUN_MAIN,
                 str(CHILD), str(write), *argv],
                env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL, pass_fds=(write,),
                cwd=root if tests else None)
            _, status, usage = os.wait4(child.pid, 0)
            wall = time.perf_counter() - start
        finally:
            os.close(write)
        child.returncode = os.waitstatus_to_exitcode(status)
        loops = [float(t) for t in pipe.read().split()]
    out = {"s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
           "ref_s": None, "scaled_s": None, "exit": child.returncode}
    if len(loops) == 2:
        out["s"] = wall - sum(loops)
        out["ref_s"] = sum(loops) / 2
        out["scaled_s"] = out["s"] * REF_NOMINAL_S / out["ref_s"]
    return out


def pair_row(pair: int, order: tuple[str, str], sides: dict[str, str],
             argv: list[str], tests: bool = False) -> dict:
    """One pair: run on each side in order, its keys prefixed by the
    side."""
    row = {"pair": pair, "first": order[0]}
    for side in order:
        for key, value in run(sides[side], argv, tests).items():
            row[f"{side}_{key}"] = value
    return row


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return values * 2
    q = statistics.quantiles(values, n=4)
    return [q[0], q[2]]


def compare(runs: list[dict], key: str, suffix: str = "") -> dict:
    """Medians and quartiles of one time of both sides, and in how many
    pairs the change took less; {} when a run lacks that time."""
    parent = [r[f"parent_{key}"] for r in runs]
    change = [r[f"change_{key}"] for r in runs]
    if None in parent or None in change:
        return {}
    return {
        f"parent{suffix}": round(statistics.median(parent), 4),
        f"change{suffix}": round(statistics.median(change), 4),
        f"parent{suffix}_quartiles": [round(q, 4) for q in quartiles(parent)],
        f"change{suffix}_quartiles": [round(q, 4) for q in quartiles(change)],
        f"change{suffix}_wins": sum(c < p for p, c in zip(parent, change)),
    }


def summarize(runs: list[dict]) -> dict:
    return {
        **compare(runs, "s"),
        **compare(runs, "scaled_s", "_scaled"),
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
    parser.add_argument("--pairs", type=int, default=5, metavar="N")
    parser.add_argument("--only", nargs="+", metavar="TEXT")
    parser.add_argument("--tier1", action="store_true",
                        help="also time pytest -q on the tests/ beside "
                        "each SRC")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    for src in (args.parent_src, args.change_src):
        if not (Path(src) / "rowmotion" / "cli.py").is_file():
            parser.error(f"{src} holds no rowmotion package")
        if args.tier1 and not (Path(src).resolve().parent / "tests").is_dir():
            parser.error(f"no tests/ directory beside {src}")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    commands = [c for c in COMMANDS if args.only is None
                or any(text in " ".join(c) for text in args.only)]
    if not commands and not args.tier1:
        parser.error("--only matches no command")
    sides = {"parent": args.parent_src, "change": args.change_src}
    for src in sides.values():
        run(src, ["catalog", "--no-timing"])
        if args.tier1:
            run(src, ["--collect-only"], tests=True)
    runs: dict[str, list[dict]] = {" ".join(c): [] for c in commands}
    tier1: list[dict] = []
    for pair in range(1, args.pairs + 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        for command in commands:
            runs[" ".join(command)].append(pair_row(
                pair, order, sides,
                [*command, "--format", "json", "--no-timing"]))
        if args.tier1:
            tier1.append(pair_row(pair, order, sides, [], tests=True))
        print(f"pair {pair} of {args.pairs} done", file=sys.stderr)
    summary = {name: summarize(rows) for name, rows in runs.items()}
    printed = dict(summary)
    if tier1:
        printed[TIER1] = summarize(tier1)
    width = max(map(len, printed))
    for name, s in printed.items():
        line = (f"{name:<{width}}  parent {s['parent']:.3f} s  "
                f"change {s['change']:.3f} s  "
                f"faster in {s['change_wins']} of {args.pairs}")
        if "parent_scaled" in s:
            line += (f"  scaled {s['parent_scaled']:.3f} -> "
                     f"{s['change_scaled']:.3f} s  "
                     f"faster in {s['change_scaled_wins']}")
        print(line)
    if args.out:
        data = json.loads(args.out.read_text()) if args.out.exists() else {}
        data["sweeps"] = {
            "command": " ".join(
                ["python3 tools/time_sweeps.py PARENT_SRC CHANGE_SRC",
                 f"--pairs {args.pairs}",
                 *(["--only", *map(repr, args.only)] if args.only else []),
                 *(["--tier1"] if args.tier1 else [])]),
            "machine": f"{os.cpu_count()} CPUs, Python "
                       f"{platform.python_version()}; wall seconds "
                       "less the reference loops, and the same scaled to "
                       f"a {REF_NOMINAL_S} s reference loop",
            "medians": summary,
            "runs": runs,
        }
        if tier1:
            data["sweeps"]["tier1"] = {
                "command": TIER1,
                "medians": printed[TIER1],
                "runs": tier1,
            }
        args.out.write_text(json.dumps(data, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
