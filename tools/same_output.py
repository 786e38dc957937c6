"""Compare the command-line output of two source trees of rowmotion.

    python3 tools/same_output.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are the src/ directories of two checkouts.  Each
command runs in a fresh interpreter with PYTHONPATH set to one of them,
PYTHONHASHSEED=0 and --no-timing, and the two runs must agree on exit code,
stdout and stderr.  Two commands run at once.  Every difference is
printed, then one summary line; the exit code is 1 if any command differs
and 0 otherwise.

The command set is every argv of perfbench/expected.json (read, never
written), verify-grid m n for m+n <= 10, verify-k m n for m <= 6 and n <= 4,
verify-delta1 and conjectures with and without --cap 100, the cap
boundaries of chain(6) and of the 4x4 grid, and listings whose ideal counts
straddle a byte (chain(1), chain(7) and chain(8), with 2, 8 and 9 ideals),
prod(chain(2),chain(4)) and one long listing, chain(4999) under --cap 5000.
verify-delta1 also runs on three expressions: the claw
osum(chain(1),dunion(chain(1),dunion(chain(1),chain(1)))), whose averages
are not constant (exit 1), the 3x4 grid, and chain(300), one long orbit.
conjectures also runs on layer(D5,2), layer(A7,4) and layer(E7,7), and on
one layer per kind of opposition involution of the Levi diagram that the
others leave out: layer(D9,2), whose Levi has a D7 component (the fork
swap), and layer(B6,3), layer(C5,5), layer(G2,1) and layer(F4,1) (the
identity).  orbits also runs on layer(A80,1), an 80-element chain.
The word layer's errors run too: step-word on one refused starred word per
message of validate_starred (a stray letter, two stars, an even number of
ones, too few ones before the star, no zero after it) and on the
non-binary 012, and verify-grid with a --word table on 3 4 0101011 and
2 2 0011.  The records' own output paths run too: catalog, and the parse
errors of orbits "prod(chain(2)" and orbits "foo(3)".  Each runs in json
and table format, and orbits also in csv.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from itertools import zip_longest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = ROOT / "perfbench" / "expected.json"
TIMEOUT_S = 600
JOBS = 2
RUN_MAIN = ("import sys; from rowmotion.cli import main; "
            "sys.exit(main(sys.argv[1:]))")


def _without_format(argv: list[str]) -> tuple[str, ...]:
    out = []
    skip = False
    for arg in argv:
        if skip:
            skip = False
        elif arg == "--format":
            skip = True
        else:
            out.append(arg)
    return tuple(out)


def base_commands() -> list[tuple[str, ...]]:
    """Every command of the set, without its format."""
    expected = json.loads(EXPECTED.read_text())
    commands = [_without_format(json.loads(key))
                for key in expected["commands"]]
    commands += [("verify-grid", str(m), str(n))
                 for m in range(1, 10) for n in range(1, 11 - m)]
    commands += [("verify-k", str(m), str(n))
                 for m in range(1, 7) for n in range(1, 5)]
    for name in ("verify-delta1", "conjectures"):
        commands += [(name,), (name, "--cap", "100")]
    for expr, caps in (("chain(6)", (6, 7)),
                       ("prod(chain(4),chain(4))", (69, 70))):
        commands += [("orbits", expr, "--cap", str(cap)) for cap in caps]
    commands += [("orbits", expr) for expr in (
        "chain(1)", "chain(7)", "chain(8)", "prod(chain(2),chain(4))")]
    commands += [("orbits", "chain(4999)", "--cap", "5000")]
    commands += [("verify-delta1", expr) for expr in (
        "osum(chain(1),dunion(chain(1),dunion(chain(1),chain(1))))",
        "prod(chain(3),chain(4))", "chain(300)")]
    commands += [("conjectures", expr) for expr in (
        "layer(D5,2)", "layer(A7,4)", "layer(E7,7)", "layer(D9,2)",
        "layer(B6,3)", "layer(C5,5)", "layer(G2,1)", "layer(F4,1)")]
    commands += [("orbits", "layer(A80,1)")]
    commands += [("step-word", word) for word in (
        "1*0x11", "1**011", "11*011", "0*1011", "01*101", "012")]
    commands += [("verify-grid", "3", "4", "--word", "0101011"),
                 ("verify-grid", "2", "2", "--word", "0011")]
    commands += [("catalog",), ("orbits", "prod(chain(2)"),
                 ("orbits", "foo(3)")]
    return list(dict.fromkeys(commands))


def with_formats(commands: list[tuple[str, ...]]) -> list[list[str]]:
    out = []
    for command in commands:
        formats = ("json", "table", "csv") if command[0] == "orbits" else (
            "json", "table")
        out += [[*command, "--format", fmt] for fmt in formats]
    return out


def run(src: str, argv: list[str]) -> tuple:
    """(exit code, stdout, stderr) of one command in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0")
    try:
        done = subprocess.run(
            [sys.executable, "-c", RUN_MAIN, *argv, "--no-timing"],
            env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return (f"timeout after {TIMEOUT_S} s", "", "")
    return (done.returncode, done.stdout, done.stderr)


def describe(argv: list[str], parent: tuple, change: tuple) -> str:
    """The command, both exit codes, and the first line where each stream
    differs."""
    lines = [f"differs: {' '.join(argv)}",
             f"  exit: parent {parent[0]}, change {change[0]}"]
    for name, a, b in zip(("stdout", "stderr"), parent[1:], change[1:]):
        a_lines, b_lines = a.splitlines(), b.splitlines()
        for k, (x, y) in enumerate(zip_longest(a_lines, b_lines)):
            if x != y:
                lines.append(f"  {name} line {k + 1}: parent {x!r}")
                lines.append(f"  {name} line {k + 1}: change {y!r}")
                break
        else:
            if a != b:
                lines.append(f"  {name}: differs in line endings")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    args = parser.parse_args(argv)
    for src in (args.parent_src, args.change_src):
        if not (Path(src) / "rowmotion" / "cli.py").is_file():
            parser.error(f"{src} holds no rowmotion package")
    commands = with_formats(base_commands())

    def compare(command):
        return (run(args.parent_src, command), run(args.change_src, command))

    differ = 0
    with ThreadPoolExecutor(JOBS) as pool:
        for command, (parent, change) in zip(commands,
                                             pool.map(compare, commands)):
            if parent != change or isinstance(parent[0], str):
                differ += 1
                print(describe(command, parent, change), flush=True)
    print(f"{len(commands)} commands, {differ} differ in exit code, stdout "
          f"or stderr")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
