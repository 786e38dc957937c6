"""Compare the command-line output of two source trees of rowmotion.

    python3 tools/same_output.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are the src/ directories of two checkouts.  Each
command runs in a fresh interpreter with PYTHONPATH set to one of them and
PYTHONHASHSEED=0, and the two runs must agree on exit code, stdout and
stderr.  Two commands run at once.  Every difference is
printed, then one summary line; the exit code is 1 if any command differs
and 0 otherwise.

The command set is every argv of perfbench/expected.json (read, never
written), verify-grid m n for m+n <= 10, verify-k m n for m <= 6 and n <= 4
and on the wider shapes 1 5, 2 5 and 1 6, the long codec orbits of
verify-grid 1 300 (one orbit of 301 words), verify-k 2 30 and verify-k 1 60,
encode of one starred ideal of
prod(chain(3),K(4)) (fiber sizes 8, 5 and 3) and step-word on its word
11101*0111011 for 12 steps, one period, step-word for one period on the
plain edge words 0, 1, 000, 111, 1100 and 0011 and on the starred words
*01 and 0*01, whose star push takes the branch of a star that shares its
run and that of a bare star,
verify-delta1 and conjectures with and without --cap 100, the cap
boundaries of chain(6) and of the 4x4 grid, and listings whose ideal counts
straddle a byte (chain(1), chain(7) and chain(8), with 2, 8 and 9 ideals),
prod(chain(2),chain(4)) and one long listing, chain(4999) under --cap 5000.
orbits also lists TEN, the dunion of ten chain(1), whose orbit of the
full and the empty ideal prints the two-digit size 10, and walks the orbit
of the full ideal of HUNDREDS, the dunion of 300 chain(1), with
--seed-ideal of 300 ones: an antichain of 300, past what one byte holds.
verify-delta1 also runs on four expressions: the claw
osum(chain(1),dunion(chain(1),dunion(chain(1),chain(1)))), whose averages
are not constant (exit 1), the 3x4 grid, chain(300), one long orbit, and
layer(E6,3), a layer that is no catalog entry and is listed as a poset.
Both sweeps run on the catalog name "[2]X[3]x[5]" under --cap 100, and
conjectures on "LAYER(a400, 200)" under --cap 100: each target is skipped
and named by its canonical spelling.
conjectures also runs on layer(D5,2), layer(A7,4) and layer(E7,7), and on
one layer per kind of opposition involution of the Levi diagram that the
others leave out: layer(D9,2), whose Levi has a D7 component (the fork
swap), and layer(B6,3), layer(C5,5), layer(G2,1) and layer(F4,1) (the
identity); and on layer(A120,60) under --cap 100, a 3660-element layer
that is refused while it is built.  conjectures also runs on layers whose
orbit lanes span the widths from 8 to 512 bits: layer(A11,6) (orbit
lengths 12, 6, 4 and 2), layer(D6,1) (10 and 2), layer(A300,1) (one orbit
of 301) and layer(A15,8) (12870 ideals in 810 orbits of lengths 16, 8, 4
and 2).  orbits also runs on layer(A80,1), an
80-element chain.
orbits also runs on the fan-in poset FAN_IN, the osum of two dunions of
six chain(1): each of six maximal elements covers each of six minimal ones,
127 ideals.  It runs as a listing and under --cap 10 and --cap 100, where
it is refused (exit 3): at 10 by its 12 elements, before the walk, and at
100 in the walk.  Sums key their elements by (side, index in the operand),
and three commands read such keys: orbits on DEEP_OSUM, ordinal sums of
chain(1) nested 200 constructors deep; orbits on
prod(chain(2),osum(chain(1),dunion(chain(1),chain(1)))), whose product
keys hold sum keys; and encode on osum(chain(2),chain(2)) with
--seed-ideal 1100, which no codec applies to (exit 2).
The word layer's errors run too: step-word on one refused starred word per
message of validate_starred (a stray letter, two stars, an even number of
ones, too few ones before the star, no zero after it) and on the
non-binary 012, and verify-grid with a --word table on 3 4 0101011 and
2 2 0011.  The records' own output paths run too: catalog, and orbits on
one text per message of the expression parser (PARSE_ERRORS: a missing
name, a missing "(", ",", or ")", an unknown constructor, a missing
integer, a zero, an unknown and an invalid system, a pivot past the rank,
and trailing input).  verify-grid 150 150 and verify-k 100 100 are refused
at the default clamp of 20000 ideals, the poset having more elements than
that.  One refusal at that clamp runs per rule of the ideal lower bound
that ideal_masks reads before its walk: orbits on
prod(chain(140),chain(140)) (the width of a rank), on
dunion(prod(chain(6),chain(6)),prod(chain(6),chain(6))) (a disjoint
union), on osum(prod(chain(10),chain(10)),chain(1)) (an ordinal sum) and
on J(prod(chain(20),chain(20))) (a product, refused while the lattice is
built), on H(15) (the 2**15 shifted shapes of H), and verify-delta1 on
prod(chain(10),chain(10)) (a skipped sweep target); so does orbits prod(chain(20),chain(20)) with --seed-ideal of
400 zeros, which walks one orbit of a grid far past the bound and exits
0.  Each runs in json and table format, and orbits also in csv, each
with --no-timing.

USAGE_CASES run as listed, with --no-timing where the command could
succeed.  They are the argv at the edge of the plain layout, which the
command line reads without argparse, and outside it, where argparse reads
them: --help alone and after each of the eight commands; no command and
the unknown command frobnicate; the values verify-grid 0 3, x 3, -1 3 and
+2 2, --format xml, --cap 0 and --cap 5_0 (int reads +2 and 5_0, so both
are plain); options that are not plain: --threads 2, the abbreviation
--form json, --format=json, --budget=1, a repeated --format, and
verify-k 2 2 --word 01 (an option of another command); the layouts
verify-delta1 --format json chain(3) (options before the optional
target), -- before the command and -- after it, orbits -x, an extra
positional and an empty expression; and the missing values of orbits
chain(3) --seed-ideal (the last word) and of encode without --seed-ideal.
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
# one text per message of the expression parser
PARSE_ERRORS = ("(3)", "chain 3", "prod(chain(2)", "chain(3", "foo(3)",
                "chain(x)", "chain(0)", "layer(Q4,1)", "layer(E9,1)",
                "layer(A2,9)", "chain(2)extra")
SIX = "dunion(chain(1),dunion(chain(1),dunion(chain(1),dunion(chain(1)," \
    "dunion(chain(1),chain(1))))))"
FAN_IN = f"osum({SIX},{SIX})"
# ordinal sums nested 200 constructors deep, a chain of 200 elements
DEEP_OSUM = "osum(chain(1)," * 199 + "chain(1)" + ")" * 199
# disjoint unions of ten and of 300 one-element chains
TEN = "dunion(chain(1)," * 9 + "chain(1)" + ")" * 9
HUNDREDS = "dunion(chain(1)," * 299 + "chain(1)" + ")" * 299
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
    commands += [("verify-k", "1", "5"), ("verify-k", "2", "5"),
                 ("verify-k", "1", "6")]
    commands += [("verify-grid", "1", "300"), ("verify-k", "2", "30"),
                 ("verify-k", "1", "60")]
    commands += [("encode", "prod(chain(3),K(4))", "--seed-ideal",
                  "111111111111110101000000000000"),
                 ("step-word", "11101*0111011", "--steps", "12")]
    commands += [("step-word", word, "--steps", str(steps)) for word, steps in (
        ("0", 1), ("1", 1), ("000", 3), ("111", 3), ("1100", 4), ("0011", 4),
        ("*01", 2), ("0*01", 3))]
    for name in ("verify-delta1", "conjectures"):
        commands += [(name,), (name, "--cap", "100")]
    for expr, caps in (("chain(6)", (6, 7)),
                       ("prod(chain(4),chain(4))", (69, 70))):
        commands += [("orbits", expr, "--cap", str(cap)) for cap in caps]
    commands += [("orbits", expr) for expr in (
        "chain(1)", "chain(7)", "chain(8)", "prod(chain(2),chain(4))")]
    commands += [("orbits", "chain(4999)", "--cap", "5000")]
    commands += [("orbits", TEN),
                 ("orbits", HUNDREDS, "--seed-ideal", "1" * 300)]
    commands += [("verify-delta1", expr) for expr in (
        "osum(chain(1),dunion(chain(1),dunion(chain(1),chain(1))))",
        "prod(chain(3),chain(4))", "chain(300)", "layer(E6,3)")]
    commands += [(name, target, "--cap", "100") for name, target in (
        ("verify-delta1", "[2]X[3]x[5]"), ("conjectures", "[2]X[3]x[5]"),
        ("conjectures", "LAYER(a400, 200)"))]
    commands += [("conjectures", expr) for expr in (
        "layer(D5,2)", "layer(A7,4)", "layer(E7,7)", "layer(D9,2)",
        "layer(B6,3)", "layer(C5,5)", "layer(G2,1)", "layer(F4,1)")]
    commands += [("conjectures", "layer(A120,60)", "--cap", "100")]
    commands += [("conjectures", expr) for expr in (
        "layer(A11,6)", "layer(D6,1)", "layer(A300,1)", "layer(A15,8)")]
    commands += [("orbits", "layer(A80,1)")]
    commands += [("orbits", FAN_IN), ("orbits", FAN_IN, "--cap", "10"),
                 ("orbits", FAN_IN, "--cap", "100")]
    commands += [("orbits", DEEP_OSUM),
                 ("orbits", "prod(chain(2),osum(chain(1),"
                            "dunion(chain(1),chain(1))))"),
                 ("encode", "osum(chain(2),chain(2))", "--seed-ideal",
                  "1100")]
    commands += [("step-word", word) for word in (
        "1*0x11", "1**011", "11*011", "0*1011", "01*101", "012")]
    commands += [("verify-grid", "3", "4", "--word", "0101011"),
                 ("verify-grid", "2", "2", "--word", "0011")]
    commands += [("catalog",)]
    commands += [("orbits", text) for text in PARSE_ERRORS]
    commands += [("verify-grid", "150", "150"), ("verify-k", "100", "100")]
    commands += [("orbits", expr) for expr in (
        "prod(chain(140),chain(140))",
        "dunion(prod(chain(6),chain(6)),prod(chain(6),chain(6)))",
        "osum(prod(chain(10),chain(10)),chain(1))",
        "J(prod(chain(20),chain(20)))", "H(15)")]
    commands += [("verify-delta1", "prod(chain(10),chain(10))"),
                 ("orbits", "prod(chain(20),chain(20))", "--seed-ideal",
                  "0" * 400)]
    return list(dict.fromkeys(commands))


def with_formats(commands: list[tuple[str, ...]]) -> list[list[str]]:
    out = []
    for command in commands:
        formats = ("json", "table", "csv") if command[0] == "orbits" else (
            "json", "table")
        out += [[*command, "--format", fmt, "--no-timing"] for fmt in formats]
    return out


USAGE_CASES = [
    ["--help"],
    *([command, "--help"] for command in (
        "orbits", "verify-grid", "verify-k", "verify-delta1", "conjectures",
        "encode", "step-word", "catalog")),
    [],
    ["frobnicate", "--no-timing"],
    ["verify-grid", "0", "3", "--no-timing"],
    ["verify-grid", "x", "3", "--no-timing"],
    ["verify-grid", "-1", "3", "--no-timing"],
    ["verify-grid", "+2", "2", "--no-timing"],
    ["orbits", "chain(3)", "--format", "xml", "--no-timing"],
    ["orbits", "chain(3)", "--cap", "0", "--no-timing"],
    ["orbits", "chain(3)", "--cap", "5_0", "--no-timing"],
    ["orbits", "chain(3)", "--threads", "2", "--no-timing"],
    ["orbits", "chain(3)", "--form", "json", "--no-timing"],
    ["orbits", "chain(3)", "--format=json", "--no-timing"],
    ["orbits", "chain(3)", "--budget=1", "--no-timing"],
    ["orbits", "chain(3)", "--format", "csv", "--format", "json",
     "--no-timing"],
    ["verify-k", "2", "2", "--word", "01", "--no-timing"],
    ["verify-delta1", "--format", "json", "chain(3)", "--no-timing"],
    ["--", "orbits", "chain(3)", "--no-timing"],
    ["orbits", "--no-timing", "--", "chain(3)"],
    ["orbits", "chain(3)", "-x", "--no-timing"],
    ["orbits", "chain(3)", "chain(4)", "--no-timing"],
    ["orbits", "", "--no-timing"],
    ["orbits", "chain(3)", "--no-timing", "--seed-ideal"],
    ["encode", "chain(3)", "--no-timing"],
]


def run(src: str, argv: list[str]) -> tuple:
    """(exit code, stdout, stderr) of one command in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0")
    try:
        done = subprocess.run(
            [sys.executable, "-c", RUN_MAIN, *argv],
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
    commands = with_formats(base_commands()) + USAGE_CASES

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
