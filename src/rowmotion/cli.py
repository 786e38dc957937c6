"""Command line front end.

Commands: orbits, verify-grid, verify-k, verify-delta1, conjectures, encode,
step-word, catalog.  Output formats: table (default), json, csv.  Exit codes:
0 all checks passed, 1 a check failed, 2 usage or parse error, 3 the work
exceeded the configured cap, or a sweep skipped a target that did.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from json.encoder import encode_basestring_ascii as _json_str
from types import SimpleNamespace
from typing import Iterable, Sequence

from .catalog import SPORADIC, CatalogEntry, find_entry
from .constructions import (
    ExprParseError,
    Layer,
    build,
    parse_poset_expr,
    to_text,
)
from .homomesy import check_conjectures, verify_constant_average
from .poset import (
    DEFAULT_CAP,
    CapExceeded,
    InvalidSubset,
    NotGraded,
    OrbitReport,
    Poset,
    list_orbits,
)
from .verify import (
    CheckResult,
    check_constant_average,
    verify_catalog_entry,
    verify_grid,
    verify_k_product,
    word_iterate_rows,
)
from .words import (
    grid_codec,
    k_codec,
    psi_bar_iterates,
    psi_iterates,
)

UNBUDGETED_CAP = 20000


def _orbit_rows(lengths: Iterable[int], sizes: Sequence[int]) -> list[dict]:
    """One row per orbit from the orbit lengths and the antichain sizes of
    the orbits end to end.  avg_size is the size total and the length each
    divided by their gcd, the digits of _fraction_str, with no Fraction."""
    rows = []
    end = 0
    for k, length in enumerate(lengths):
        start, end = end, end + length
        orbit = sizes[start:end]
        total = sum(orbit)
        g = math.gcd(total, length)
        rows.append({"orbit_id": k, "length": length,
                     "avg_size": f"{total // g}/{length // g}",
                     "sizes": list(orbit)})
    return rows


def _report_rows(reports: Sequence[OrbitReport]) -> list[dict]:
    """_orbit_rows of orbit reports."""
    return _orbit_rows([r.length for r in reports],
                       [s for r in reports for s in r.antichain_sizes])


def _to_json(value, indent: str = "\n") -> str:
    """json.dumps(value, sort_keys=True, indent=2) for values whose dicts
    have str keys, one join per container; indent is the newline and the
    indentation of value's own line.  json.dumps falls back to its
    pure-Python encoder under indent, at several times the cost.  bool is a
    subclass of int, so only exact ints print by int.__repr__, or by str,
    which gives the same digits for them and which a list comprehension
    calls faster than map calls int.__repr__.  An exact str or int, the
    common leaf, is told apart before the container tests; every other
    scalar is left to json.dumps."""
    if type(value) is str:
        return _json_str(value)
    if type(value) is int:
        return int.__repr__(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = indent + "  "
        if set(map(type, value)) == {int}:
            items = [str(item) for item in value]
        else:
            items = [_to_json(item, inner) for item in value]
        return f"[{inner}{(',' + inner).join(items)}{indent}]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = indent + "  "
        items = [f"{_json_str(key)}: {_to_json(value[key], inner)}"
                 for key in sorted(value)]
        return f"{{{inner}{(',' + inner).join(items)}{indent}}}"
    return json.dumps(value)


def _orbit_lines(rows: Sequence[dict], head: str, sep: str,
                 tail: str = "") -> list[str]:
    """Each row of _orbit_rows as head % row and its sizes, by %d joined by
    sep, and tail, from one sizes template per orbit length."""
    templates: dict[int, str] = {}
    lines = []
    for row in rows:
        sizes = row["sizes"]
        n = len(sizes)
        if n not in templates:
            templates[n] = sep.join(["%d"] * n) + tail
        lines.append(head % row + templates[n] % tuple(sizes))
    return lines


# _orbit_lines of the orbit rows as items of the JSON document
_JSON_ROW = ('{\n      "avg_size": "%(avg_size)s",\n      "length": '
             '%(length)d,\n      "orbit_id": %(orbit_id)d,\n      "sizes": '
             '[\n        ', ",\n        ", "\n      ]\n    }")


def _render(result: dict, fmt: str) -> str:
    orbits = result["orbits"]
    if fmt == "json":
        # _to_json of the document, its orbit rows printed by their schema
        items = {key: _to_json(value, "\n  ")
                 for key, value in result.items() if key != "orbits"}
        items["orbits"] = "[\n    " + ",\n    ".join(_orbit_lines(
            orbits, *_JSON_ROW)) + "\n  ]" if orbits else "[]"
        return "{\n  " + ",\n  ".join([f"{_json_str(key)}: {items[key]}"
                                       for key in sorted(items)]) + "\n}"
    if fmt == "csv":
        return "\n".join(["orbit_id,length,avg_size,sizes"] + _orbit_lines(
            orbits, "%(orbit_id)d,%(length)d,%(avg_size)s,", " "))
    lines = [f"command: {result['command']}"]
    if result["poset"] is not None:
        lines.append(f"poset: {result['poset']}")
    if result["n_elements"] is not None:
        lines.append(f"elements: {result['n_elements']}   "
                     f"max rank: {result['max_rank']}")
    if orbits:
        lines.append("")
        lines.append(f"{'orbit':>5}  {'length':>6}  {'avg':>8}  sizes")
        lines += _orbit_lines(
            orbits, "%(orbit_id)5d  %(length)6d  %(avg_size)8s  ", " ")
    if result["checks"]:
        lines.append("")
        for c in result["checks"]:
            mark = "PASS" if c["passed"] else "FAIL"
            lines.append(f"[{mark}] {c['name']}: {c['details']}")
    if result["witnesses"]:
        lines.append("")
        lines.append("witnesses:")
        for w in result["witnesses"]:
            lines.append("  " + json.dumps(w, sort_keys=True))
    if result["elapsed_ms"] is not None:
        lines.append("")
        lines.append(f"elapsed: {result['elapsed_ms']} ms")
    return "\n".join(lines)


def _emit(result: dict, args) -> int:
    code = 0 if all(c["passed"] for c in result["checks"]) else 1
    try:
        print(_render(result, args.format))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early (rowmotion ... | head); point stdout at
        # devnull so that the flush at exit does not fail a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    if args.format == "csv":
        for c in result["checks"]:
            if not c["passed"]:
                print(f"check failed: {c['name']}: {c['details']}",
                      file=sys.stderr)
    return code


def _finish(args, *, text: str | None = None, poset: Poset | None = None,
            orbits: Sequence[dict] = (),
            checks: Sequence[CheckResult] = (),
            witnesses: Sequence[dict] = ()) -> int:
    """Write what one command reports, the dict of its JSON document, and
    return its exit code.  text names the poset, in the grammar, and orbits
    are the rows of _orbit_rows."""
    elapsed_ms = int((time.monotonic() - args.start_time) * 1000)
    return _emit({
        "command": args.command,
        "poset": text,
        "n_elements": None if poset is None else poset.n_elements,
        "max_rank": None if poset is None else poset.max_rank,
        "orbits": list(orbits),
        "checks": [c.as_dict() for c in checks],
        "witnesses": list(witnesses),
        "elapsed_ms": None if args.no_timing else elapsed_ms,
    }, args)


def _parse_seed(poset: Poset, bits: str) -> int:
    if len(bits) != poset.n_elements or set(bits) - {"0", "1"}:
        raise ValueError(
            f"seed must be {poset.n_elements} bits over 0/1"
        )
    mask = 0
    for i, ch in enumerate(bits):
        if ch == "1":
            mask |= 1 << i
    if not poset.is_ideal_mask(mask):
        raise ValueError("seed bits are not a down-closed set")
    return mask


def _cmd_orbits(args) -> int:
    cap = _entry_cap(args)
    expr = parse_poset_expr(args.expr)
    poset = build(expr, cap=cap)
    if args.seed_ideal is not None:
        mask = _parse_seed(poset, args.seed_ideal)
        rows = _report_rows([OrbitReport.from_seed_mask(poset, mask, cap)])
    else:
        listing = list_orbits(poset, cap)
        rows = _orbit_rows(listing.lengths, listing.sizes)
    return _finish(args, text=to_text(expr), poset=poset, orbits=rows)


def _cmd_verify_grid(args) -> int:
    word = args.word
    if word is not None and sorted(word) != ["0"] * args.m + ["1"] * args.n:
        raise ValueError(f"--word needs {args.m} zeros and {args.n} ones")
    poset, reports, checks = verify_grid(args.m, args.n, _entry_cap(args))
    if word is not None:
        rows, ok = word_iterate_rows(word)
        details = " ".join(f"{i}:{w}:{direct}" for i, w, direct, _ in rows)
        checks = checks + [
            CheckResult("word iterate table agrees with the profile", ok,
                        details)
        ]
    return _finish(args, text=f"prod(chain({args.m}),chain({args.n}))",
                   poset=poset, orbits=_report_rows(reports), checks=checks)


def _cmd_verify_k(args) -> int:
    poset, reports, checks = verify_k_product(
        args.m, args.n, _entry_cap(args)
    )
    return _finish(args, text=f"prod(chain({args.m}),k({args.n - 1}))",
                   poset=poset, orbits=_report_rows(reports), checks=checks)


def _entry_cap(args) -> int:
    return args.cap if args.budget else min(args.cap, UNBUDGETED_CAP)


def _cmd_verify_delta1(args) -> int:
    entries = _sweep_entries(args.target)
    if entries is not None:
        return _sweep(args, entries, lambda entry, cap: (
            verify_catalog_entry(entry, cap)[1], []))
    cap = _entry_cap(args)
    expr = parse_poset_expr(args.target)
    poset = build(expr, cap=cap)
    text = to_text(expr)
    average = verify_constant_average(poset, cap=cap)
    return _finish(args, text=text, poset=poset,
                   orbits=_report_rows(average.orbits),
                   checks=[check_constant_average(
                       average, f"orbit averages constant [{text}]")])


def _cmd_conjectures(args) -> int:
    entries = _sweep_entries(args.target)
    if entries is None:
        expr = parse_poset_expr(args.target)
        if not isinstance(expr, Layer):
            raise ValueError("paired-count checks need a catalog name or a "
                             "layer(...) expression")
        entries = [CatalogEntry(to_text(expr), None, expr.family, expr.rank,
                                expr.pivot)]
    return _sweep(args, entries, _conjecture_checks)


def _conjecture_checks(entry: CatalogEntry, cap: int):
    # a layer of more than cap elements has more than cap ideals, so its
    # build stops at the cap too
    reports = check_conjectures(entry.realize_layer(cap), cap, entry.name)
    claims = ("element plus partner fill each orbit",
              "element and partner tie on antichains")
    checks = [CheckResult(f"{claim} [{entry.name}]", report.passed,
                          f"{report.n_orbits} orbits")
              for claim, report in zip(claims, reports)]
    return checks, [{"entry": entry.name, **w.as_dict()}
                    for report in reports for w in report.witnesses]


def _sweep_entries(target: str | None) -> list[CatalogEntry] | None:
    """The catalog entries a sweep checks: every sporadic entry without a
    target, the entry of a catalog name (case and spaces ignored), and None
    for any other target, which each sweep reads as an expression."""
    if target is None:
        return list(SPORADIC)
    entry = find_entry(target)
    return None if entry is None else [entry]


def _sweep(args, entries: list[CatalogEntry], check) -> int:
    """Run check(entry, cap), which returns (checks, witness dicts), on
    each entry.  An entry past the cap is skipped and listed among the
    witnesses; a sweep that skipped one did not do its work, so it exits 3
    unless a check failed."""
    checks: list[CheckResult] = []
    witnesses: list[dict] = []
    cap = _entry_cap(args)
    skipped = 0
    for entry in entries:
        try:
            entry_checks, entry_witnesses = check(entry, cap)
        except CapExceeded:
            witnesses.append({"entry": entry.name, "status": "skipped",
                              "reason": f"more than {cap} ideals"})
            skipped += 1
            continue
        checks.extend(entry_checks)
        witnesses.extend(entry_witnesses)
    if len(witnesses) > skipped:
        print("COUNTEREXAMPLE FOUND; see witnesses", file=sys.stderr)
    code = _finish(args, checks=checks, witnesses=witnesses)
    if skipped:
        print(f"skipped {skipped} of {len(entries)} targets: more than "
              f"{cap} ideals each", file=sys.stderr)
        return code or 3
    return code


def _cmd_encode(args) -> int:
    expr = parse_poset_expr(args.expr)
    poset = build(expr, cap=_entry_cap(args))
    mask = _parse_seed(poset, args.seed_ideal)
    try:
        codec = grid_codec(poset)
    except InvalidSubset:
        try:
            codec = k_codec(poset)
        except InvalidSubset:
            raise ValueError(
                "no codec applies to this poset and ideal") from None
    return _finish(args, text=to_text(expr), poset=poset,
                   checks=[CheckResult("encode", True, codec.encode(mask))])


def _cmd_step_word(args) -> int:
    word = args.word
    cap = _entry_cap(args)
    if args.steps > cap:
        raise CapExceeded(f"more than {cap} steps")
    if not word:
        raise ValueError(f"not a binary word: {word!r}")
    # psi_bar and psi refuse a malformed word, and --steps is positive
    if "*" in word:
        steps = psi_bar_iterates(word, args.steps)
    else:
        steps = psi_iterates(word, args.steps)
    details = " ".join(f"{i}:{w}" for i, w in enumerate(steps, start=1))
    return _finish(args, checks=[CheckResult("step-word", True, details)])


def _cmd_catalog(args) -> int:
    checks = [CheckResult(f"family[{fam}]", True, "parametrized family")
              for fam in ("grid [m]x[n]", "staircase H(n)",
                          "kproduct [m]xK(n-1)")]
    for entry in SPORADIC:
        poset = entry.realize_poset()
        realization = to_text(Layer(entry.layer_family, entry.layer_rank,
                                    entry.layer_pivot))
        extra = f", expr {to_text(entry.expr)}" if entry.expr else ""
        checks.append(CheckResult(
            f"entry[{entry.name}]", True,
            f"{realization}, {poset.n_elements} elements, "
            f"max rank {poset.max_rank}{extra}"))
    return _finish(args, checks=checks)


def _positive(text: str) -> int:
    """The one integer converter: an integer of at least 1.  A refused value
    raises argparse's own error, so argparse is imported only then."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is not None and value >= 1:
        return value
    import argparse

    raise argparse.ArgumentTypeError(
        f"expected an integer of at least 1, got {text!r}" if value is None
        else "must be at least 1")


# The options of every command, after its own arguments.
_COMMON = (
    ("--format", {"choices": ("table", "json", "csv"), "default": "table"}),
    ("--cap", {"type": _positive, "default": DEFAULT_CAP,
               "help": "abort if the ideal enumeration, or the step count "
               "of step-word, exceeds this"}),
    ("--budget", {"action": "store_true",
                  "help": "honor --cap beyond the default safety clamp"}),
    ("--no-timing", {"action": "store_true"}),
)

# The grammar of the command line, declared once: each command's handler,
# help line and own arguments, an argument being its name and the keywords
# of argparse's add_argument.  build_parser hands the table to argparse;
# _read_plain reads the plain layout from it without argparse, and knows
# the keywords type, choices, default, required, action "store_true" and
# nargs "?".
COMMANDS = {
    "orbits": (_cmd_orbits, "orbit decomposition of a poset", (
        ("expr", {}),
        ("--seed-ideal", {"metavar": "BITS",
                          "help": "walk only the orbit of this ideal "
                          "(indicator bitstring in element order)"}),
    )),
    "verify-grid": (_cmd_verify_grid, "run every grid check for [m]x[n]", (
        ("m", {"type": _positive}),
        ("n", {"type": _positive}),
        ("--word", {"metavar": "WORD",
                    "help": "also print the iterate table of this word"}),
    )),
    "verify-k": (_cmd_verify_k, "run every check for [m]xK(n-1)", (
        ("m", {"type": _positive}),
        ("n", {"type": _positive}),
    )),
    "verify-delta1": (_cmd_verify_delta1,
                      "constant-average checks over the catalog", (
        ("target", {"nargs": "?",
                    "help": "catalog entry name or a poset expression; "
                    "default is every sporadic entry"}),
    )),
    "conjectures": (_cmd_conjectures, "paired-count checks on layers", (
        ("target", {"nargs": "?",
                    "help": "catalog entry name or layer(...) expression; "
                    "default is every sporadic entry"}),
    )),
    "encode": (_cmd_encode, "word of one ideal", (
        ("expr", {}),
        ("--seed-ideal", {"metavar": "BITS", "required": True}),
    )),
    "step-word": (_cmd_step_word, "iterate a word", (
        ("word", {}),
        ("--steps", {"type": _positive, "default": 1}),
    )),
    "catalog": (_cmd_catalog, "list the catalog", ()),
}


def build_parser():
    """The argparse parser of COMMANDS, which reads every argv: help, usage
    errors and every layout that _read_plain leaves alone."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="rowmotion",
        description="Rowmotion orbits, binary-word codecs, and the catalog "
        "of posets with constant orbit averages.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_line, arguments) in COMMANDS.items():
        p = sub.add_parser(command, help=help_line)
        for name, keywords in arguments + _COMMON:
            p.add_argument(name, **keywords)
    return parser


def _read_plain(argv: Sequence[str]) -> SimpleNamespace | None:
    """The namespace build_parser().parse_args(argv) gives an argv in the
    plain layout COMMAND POSITIONAL... [--option VALUE | --flag]..., read
    from COMMANDS without argparse; None for any other argv.

    Plain means that each option is spelled in full and given once, that
    no positional or value is empty or starts with "-", that every value
    passes its converter and choices, and that every required argument is
    present.  argparse reads the rest (help, usage errors, abbreviations,
    --option=value, options before positionals) and words its messages.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    command, *words = argv
    arguments = COMMANDS[command][2] + _COMMON
    positionals = [name for name, _ in arguments if name[0] != "-"]
    n = 0
    while (n < len(words) and n < len(positionals)
           and words[n][:1] not in ("", "-")):
        n += 1
    given = dict(zip(positionals, words[:n]))  # name -> text; None: a flag
    specs = dict(arguments)
    rest = iter(words[n:])
    for name in rest:
        if name[:1] != "-" or name not in specs or name in given:
            return None
        if specs[name].get("action") == "store_true":
            given[name] = None
        else:
            given[name] = next(rest, "")
            if given[name][:1] in ("", "-"):
                return None
    values = {"command": command}
    for name, spec in arguments:
        dest = name.lstrip("-").replace("-", "_")
        if name not in given:
            if spec.get("required") or (
                    name in positionals and spec.get("nargs") != "?"):
                return None
            flag = spec.get("action") == "store_true"
            values[dest] = spec.get("default", False if flag else None)
        elif given[name] is None:
            values[dest] = True
        else:
            try:
                values[dest] = spec.get("type", str)(given[name])
            except Exception:  # _positive's argparse.ArgumentTypeError,
                # which argparse words on the second reading
                return None
            if values[dest] not in spec.get("choices", (values[dest],)):
                return None
    return SimpleNamespace(**values)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_plain(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    args.start_time = time.monotonic()
    try:
        return COMMANDS[args.command][0](args)
    except ExprParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 3
    except (ValueError, NotGraded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
