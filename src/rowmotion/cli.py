"""Command line front end.

Commands: orbits, verify-grid, verify-k, verify-delta1, conjectures, encode,
step-word, catalog.  Output formats: table (default), json, csv.  Exit codes:
0 all checks passed, 1 a check failed, 2 usage or parse error, 3 the work
exceeded the configured cap, or a sweep skipped a target that did.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from json.encoder import encode_basestring_ascii as _json_str
from typing import Sequence

from .catalog import SPORADIC, find_entry
from .constructions import (
    Chain,
    DUnion,
    H,
    J,
    K,
    Layer,
    OSum,
    PosetExpr,
    Prod,
    build,
    to_text,
)
from .homomesy import check_conjectures, orbit_reports, verify_constant_average
from .poset import (
    DEFAULT_CAP,
    CapExceeded,
    InvalidSubset,
    NotGraded,
    OrbitReport,
    Poset,
)
from .roots import FAMILY_RANK_RANGE, layer as build_layer
from .verify import (
    CheckResult,
    _fraction_str,
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
    validate_starred,
)

UNBUDGETED_CAP = 20000


class ExprParseError(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"byte {offset}: {message}")
        self.offset = offset


class _ExprParser:
    """Recursive descent over the poset grammar.

    expr := chain(INT) | k(INT) | h(INT) | j(expr) | prod(expr,expr)
          | osum(expr,expr) | dunion(expr,expr) | layer(TYPE,INT)
    Case and whitespace are ignored; every integer must be at least 1.
    """

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def fail(self, message: str, offset: int | None = None):
        raise ExprParseError(message, self.pos if offset is None else offset)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def expect(self, ch: str):
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            self.fail(f"expected {ch!r}")
        self.pos += 1

    def read_word(self) -> tuple[str, int]:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        if self.pos == start:
            self.fail("expected a name")
        return self.text[start : self.pos], start

    def read_int(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.fail("expected an integer")
        value = int(self.text[start : self.pos])
        if value < 1:
            self.fail("integer parameters must be at least 1", start)
        return value

    def parse(self) -> PosetExpr:
        expr = self.parse_expr()
        self.skip_ws()
        if self.pos != len(self.text):
            self.fail("unexpected trailing input")
        return expr

    def parse_expr(self) -> PosetExpr:
        name, start = self.read_word()
        lowered = name.lower()
        self.expect("(")
        if lowered == "chain":
            n = self.read_int()
            self.expect(")")
            return Chain(n)
        if lowered == "k":
            r = self.read_int()
            self.expect(")")
            return K(r)
        if lowered == "h":
            n = self.read_int()
            self.expect(")")
            return H(n)
        if lowered == "j":
            inner = self.parse_expr()
            self.expect(")")
            return J(inner)
        if lowered in ("prod", "osum", "dunion"):
            left = self.parse_expr()
            self.expect(",")
            right = self.parse_expr()
            self.expect(")")
            ctor = {"prod": Prod, "osum": OSum, "dunion": DUnion}[lowered]
            return ctor(left, right)
        if lowered == "layer":
            return self.parse_layer_args()
        self.fail(f"unknown constructor {name!r}", start)

    def parse_layer_args(self) -> PosetExpr:
        token, start = self.read_word()
        family = token[:1].upper()
        digits = token[1:]
        if family not in FAMILY_RANK_RANGE or not digits.isdigit():
            self.fail("expected a system name like A3 or E6", start)
        rank = int(digits)
        lo, hi = FAMILY_RANK_RANGE[family]
        if rank < lo or (hi is not None and rank > hi):
            self.fail(f"{family}{rank} is not a valid system", start)
        self.expect(",")
        pivot_start = self.pos
        pivot = self.read_int()
        if pivot > rank:
            self.fail(f"pivot {pivot} outside 1..{rank}", pivot_start)
        self.expect(")")
        return Layer(family, rank, pivot)


def parse_poset_expr(text: str) -> PosetExpr:
    return _ExprParser(text).parse()


class RunResult:
    """What one command reports; the list fields start empty."""

    def __init__(
        self,
        command: str,
        poset: str | None = None,
        n_elements: int | None = None,
        max_rank: int | None = None,
        orbits: list | None = None,
        checks: list | None = None,
        witnesses: list | None = None,
        elapsed_ms: int | None = None,
    ):
        self.command = command
        self.poset = poset
        self.n_elements = n_elements
        self.max_rank = max_rank
        self.orbits = [] if orbits is None else orbits
        self.checks = [] if checks is None else checks
        self.witnesses = [] if witnesses is None else witnesses
        self.elapsed_ms = elapsed_ms

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "poset": self.poset,
            "n_elements": self.n_elements,
            "max_rank": self.max_rank,
            "orbits": self.orbits,
            "checks": self.checks,
            "witnesses": self.witnesses,
            "elapsed_ms": self.elapsed_ms,
        }


def _orbit_dicts(reports: Sequence[OrbitReport]) -> list[dict]:
    return [
        {
            "orbit_id": k,
            "length": r.length,
            "avg_size": _fraction_str(r.average_size),
            "sizes": list(r.antichain_sizes),
        }
        for k, r in enumerate(reports)
    ]


def _check_dicts(checks: list[CheckResult]) -> list[dict]:
    return [c.as_dict() for c in checks]


def _to_json(value, indent: str = "\n") -> str:
    """json.dumps(value, sort_keys=True, indent=2) for values whose dicts
    have str keys, one join per container; indent is the newline and the
    indentation of value's own line.  json.dumps falls back to its
    pure-Python encoder under indent, at several times the cost.  bool is a
    subclass of int, so only exact ints print by int.__repr__, and every
    scalar other than a str or an exact int is left to json.dumps."""
    if isinstance(value, str):
        return _json_str(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = indent + "  "
        if set(map(type, value)) == {int}:
            items = map(int.__repr__, value)
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
    if type(value) is int:
        return int.__repr__(value)
    return json.dumps(value)


def _render(result: RunResult, fmt: str, show_timing: bool) -> str:
    if not show_timing:
        result.elapsed_ms = None
    if fmt == "json":
        return _to_json(result.to_dict())
    if fmt == "csv":
        lines = ["orbit_id,length,avg_size,sizes"]
        for o in result.orbits:
            sizes = " ".join(str(s) for s in o["sizes"])
            lines.append(f"{o['orbit_id']},{o['length']},{o['avg_size']},{sizes}")
        return "\n".join(lines)
    lines = [f"command: {result.command}"]
    if result.poset is not None:
        lines.append(f"poset: {result.poset}")
    if result.n_elements is not None:
        lines.append(
            f"elements: {result.n_elements}   max rank: {result.max_rank}"
        )
    if result.orbits:
        lines.append("")
        lines.append(f"{'orbit':>5}  {'length':>6}  {'avg':>8}  sizes")
        for o in result.orbits:
            sizes = " ".join(str(s) for s in o["sizes"])
            lines.append(
                f"{o['orbit_id']:>5}  {o['length']:>6}  {o['avg_size']:>8}  {sizes}"
            )
    if result.checks:
        lines.append("")
        for c in result.checks:
            mark = "PASS" if c["passed"] else "FAIL"
            lines.append(f"[{mark}] {c['name']}: {c['details']}")
    if result.witnesses:
        lines.append("")
        lines.append("witnesses:")
        for w in result.witnesses:
            lines.append("  " + json.dumps(w, sort_keys=True))
    if result.elapsed_ms is not None:
        lines.append("")
        lines.append(f"elapsed: {result.elapsed_ms} ms")
    return "\n".join(lines)


def _emit(result: RunResult, args) -> int:
    code = 0 if all(c["passed"] for c in result.checks) else 1
    try:
        print(_render(result, args.format, not args.no_timing))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early (rowmotion ... | head); point stdout at
        # devnull so that the flush at exit does not fail a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    if args.format == "csv":
        for c in result.checks:
            if not c["passed"]:
                print(f"check failed: {c['name']}: {c['details']}",
                      file=sys.stderr)
    return code


def _add_common(sub):
    sub.add_argument("--format", choices=("table", "json", "csv"),
                     default="table")
    sub.add_argument("--cap", type=_positive, default=DEFAULT_CAP,
                     help="abort if the ideal enumeration, or the step "
                     "count of step-word, exceeds this")
    sub.add_argument("--budget", action="store_true",
                     help="honor --cap beyond the default safety clamp")
    sub.add_argument("--no-timing", action="store_true")


def _positive(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer of at least 1, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rowmotion",
        description="Rowmotion orbits, binary-word codecs, and the catalog "
        "of posets with constant orbit averages.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("orbits", help="orbit decomposition of a poset")
    p.add_argument("expr")
    p.add_argument("--seed-ideal", metavar="BITS",
                   help="walk only the orbit of this ideal (indicator "
                   "bitstring in element order)")
    _add_common(p)

    p = sub.add_parser("verify-grid",
                       help="run every grid check for [m]x[n]")
    p.add_argument("m", type=_positive)
    p.add_argument("n", type=_positive)
    p.add_argument("--word", metavar="WORD",
                   help="also print the iterate table of this word")
    _add_common(p)

    p = sub.add_parser("verify-k",
                       help="run every check for [m]xK(n-1)")
    p.add_argument("m", type=_positive)
    p.add_argument("n", type=_positive)
    _add_common(p)

    p = sub.add_parser("verify-delta1",
                       help="constant-average checks over the catalog")
    p.add_argument("target", nargs="?",
                   help="catalog entry name or a poset expression; default "
                   "is every sporadic entry")
    _add_common(p)

    p = sub.add_parser("conjectures",
                       help="paired-count checks on layers")
    p.add_argument("target", nargs="?",
                   help="catalog entry name or layer(...) expression; "
                   "default is every sporadic entry")
    _add_common(p)

    p = sub.add_parser("encode", help="word of one ideal")
    p.add_argument("expr")
    p.add_argument("--seed-ideal", metavar="BITS", required=True)
    _add_common(p)

    p = sub.add_parser("step-word", help="iterate a word")
    p.add_argument("word")
    p.add_argument("--steps", type=_positive, default=1)
    _add_common(p)

    p = sub.add_parser("catalog", help="list the catalog")
    _add_common(p)

    return parser


def _poset_result(command: str, expr_text: str, poset: Poset) -> RunResult:
    return RunResult(
        command=command,
        poset=expr_text,
        n_elements=poset.n_elements,
        max_rank=poset.max_rank,
    )


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
    result = _poset_result("orbits", to_text(expr), poset)
    if args.seed_ideal is not None:
        mask = _parse_seed(poset, args.seed_ideal)
        reports = [OrbitReport.from_seed_mask(poset, mask, cap)]
    else:
        reports = orbit_reports(poset, cap)
    result.orbits = _orbit_dicts(reports)
    return _finish(result, args)


def _cmd_verify_grid(args) -> int:
    word = args.word
    if word is not None and sorted(word) != ["0"] * args.m + ["1"] * args.n:
        raise ValueError(f"--word needs {args.m} zeros and {args.n} ones")
    poset, reports, checks = verify_grid(args.m, args.n, _entry_cap(args))
    result = _poset_result(
        "verify-grid", f"prod(chain({args.m}),chain({args.n}))", poset
    )
    result.orbits = _orbit_dicts(reports)
    if word is not None:
        rows, ok = word_iterate_rows(word)
        details = " ".join(f"{i}:{w}:{direct}" for i, w, direct, _ in rows)
        checks = checks + [
            CheckResult("word iterate table agrees with the profile", ok,
                        details)
        ]
    result.checks = _check_dicts(checks)
    return _finish(result, args)


def _cmd_verify_k(args) -> int:
    poset, reports, checks = verify_k_product(
        args.m, args.n, _entry_cap(args)
    )
    result = _poset_result(
        "verify-k", f"prod(chain({args.m}),k({args.n - 1}))", poset
    )
    result.orbits = _orbit_dicts(reports)
    result.checks = _check_dicts(checks)
    return _finish(result, args)


def _entry_cap(args) -> int:
    return args.cap if args.budget else min(args.cap, UNBUDGETED_CAP)


def _cmd_verify_delta1(args) -> int:
    result = RunResult(command="verify-delta1")
    checks: list[CheckResult] = []
    witnesses: list[dict] = []
    cap = _entry_cap(args)
    if args.target is None:
        targets = list(SPORADIC)
    else:
        entry = find_entry(args.target)
        if entry is not None:
            targets = [entry]
        else:
            expr = parse_poset_expr(args.target)
            poset = build(expr, cap=cap)
            result = _poset_result("verify-delta1", to_text(expr), poset)
            average = verify_constant_average(poset, cap=cap)
            result.orbits = _orbit_dicts(average.orbits)
            result.checks = _check_dicts([check_constant_average(
                average, f"orbit averages constant [{to_text(expr)}]")])
            return _finish(result, args)
    for entry in targets:
        try:
            _, entry_checks = verify_catalog_entry(entry, cap)
        except CapExceeded:
            witnesses.append(_skipped(entry.name, cap))
            continue
        checks.extend(entry_checks)
    result.checks = _check_dicts(checks)
    result.witnesses = witnesses
    return _finish_sweep(result, args, len(targets))


def _resolve_layer(target: str):
    entry = find_entry(target)
    if entry is not None:
        return entry.realize_layer(), entry.name
    expr = parse_poset_expr(target)
    if not isinstance(expr, Layer):
        raise ValueError(
            "paired-count checks need a catalog name or a layer(...) "
            "expression"
        )
    return build_layer(expr.family, expr.rank, expr.pivot), to_text(expr)


def _cmd_conjectures(args) -> int:
    result = RunResult(command="conjectures")
    checks: list[CheckResult] = []
    witnesses: list[dict] = []
    cap = _entry_cap(args)
    if args.target is None:
        targets = [(e.realize_layer(), e.name) for e in SPORADIC]
    else:
        targets = [_resolve_layer(args.target)]
    for root_layer, name in targets:
        try:
            ideals_report, antichains_report = check_conjectures(
                root_layer, cap, name
            )
        except CapExceeded:
            witnesses.append(_skipped(name, cap))
            continue
        checks.append(
            CheckResult(
                f"element plus partner fill each orbit [{name}]",
                ideals_report.passed,
                f"{ideals_report.n_orbits} orbits",
            )
        )
        checks.append(
            CheckResult(
                f"element and partner tie on antichains [{name}]",
                antichains_report.passed,
                f"{antichains_report.n_orbits} orbits",
            )
        )
        for witness in ideals_report.witnesses + antichains_report.witnesses:
            witnesses.append({"entry": name, **witness.as_dict()})
    result.checks = _check_dicts(checks)
    result.witnesses = witnesses
    if witnesses and any(w.get("status") != "skipped" for w in witnesses):
        print("COUNTEREXAMPLE FOUND; see witnesses", file=sys.stderr)
    return _finish_sweep(result, args, len(targets))


def _cmd_encode(args) -> int:
    expr = parse_poset_expr(args.expr)
    poset = build(expr, cap=_entry_cap(args))
    result = _poset_result("encode", to_text(expr), poset)
    mask = _parse_seed(poset, args.seed_ideal)
    try:
        word = grid_codec(poset).encode(mask)
    except InvalidSubset:
        try:
            codec = k_codec(poset)
        except InvalidSubset:
            raise ValueError(
                "no codec applies to this poset and ideal") from None
        if codec.full_rank(mask):
            word = codec.encode_fullrank(mask)
        else:
            word = codec.encode_starred(mask)
    result.checks = [
        {"name": "encode", "passed": True, "details": word}
    ]
    return _finish(result, args)


def _cmd_step_word(args) -> int:
    result = RunResult(command="step-word")
    word = args.word
    cap = _entry_cap(args)
    if args.steps > cap:
        raise CapExceeded(f"more than {cap} steps")
    if "*" in word:
        validate_starred(word)
        steps = psi_bar_iterates(word, args.steps)
    else:
        if set(word) - {"0", "1"} or not word:
            raise ValueError(f"not a binary word: {word!r}")
        steps = psi_iterates(word, args.steps)
    details = " ".join(f"{i}:{w}" for i, w in enumerate(steps, start=1))
    result.checks = [
        {"name": "step-word", "passed": True, "details": details}
    ]
    return _finish(result, args)


def _cmd_catalog(args) -> int:
    result = RunResult(command="catalog")
    checks = []
    for fam in ("grid [m]x[n]", "staircase H(n)", "kproduct [m]xK(n-1)"):
        checks.append(
            {"name": f"family[{fam}]", "passed": True,
             "details": "parametrized family"}
        )
    for entry in SPORADIC:
        poset = entry.realize_poset()
        realization = (
            f"layer({entry.layer_family}{entry.layer_rank},"
            f"{entry.layer_pivot})"
        )
        extra = f", expr {to_text(entry.expr)}" if entry.expr else ""
        checks.append(
            {
                "name": f"entry[{entry.name}]",
                "passed": True,
                "details": f"{realization}, {poset.n_elements} elements, "
                f"max rank {poset.max_rank}{extra}",
            }
        )
    result.checks = checks
    return _finish(result, args)


def _finish(result: RunResult, args) -> int:
    result.elapsed_ms = int((time.monotonic() - args.start_time) * 1000)
    return _emit(result, args)


def _skipped(name: str, cap: int) -> dict:
    return {"entry": name, "status": "skipped",
            "reason": f"more than {cap} ideals"}


def _finish_sweep(result: RunResult, args, n_targets: int) -> int:
    """_finish for a sweep: a sweep that skipped a target for the cap did not
    do its work, so it exits 3 unless a check failed."""
    code = _finish(result, args)
    skipped = sum(w.get("status") == "skipped" for w in result.witnesses)
    if skipped:
        print(f"skipped {skipped} of {n_targets} targets: more than "
              f"{_entry_cap(args)} ideals each", file=sys.stderr)
        return code or 3
    return code


COMMANDS = {
    "orbits": _cmd_orbits,
    "verify-grid": _cmd_verify_grid,
    "verify-k": _cmd_verify_k,
    "verify-delta1": _cmd_verify_delta1,
    "conjectures": _cmd_conjectures,
    "encode": _cmd_encode,
    "step-word": _cmd_step_word,
    "catalog": _cmd_catalog,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.start_time = time.monotonic()
    try:
        return COMMANDS[args.command](args)
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
