"""Command-line surface: grammar, formats, exit codes, schema stability."""

import io
import json
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import rowmotion
from rowmotion import cli, constructions, verify
from rowmotion.cli import ExprParseError, main, parse_poset_expr
from rowmotion.constructions import (
    GRAMMAR,
    H,
    J,
    K,
    Chain,
    DUnion,
    Layer,
    OSum,
    Prod,
    build,
    to_text,
)
from rowmotion.homomesy import IDEAL_IDENTITY, Witness
from rowmotion.poset import OrbitReport, Poset, all_orbits
from rowmotion.roots import FAMILY_RANK_RANGE
from rowmotion.verify import CheckResult

JSON_KEYS = {
    "command", "poset", "n_elements", "max_rank",
    "orbits", "checks", "witnesses", "elapsed_ms",
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- expression grammar -------------------------------------------------------


def test_grammar_round_trips():
    for text, expr in [
        ("chain(4)", Chain(4)),
        ("k(3)", K(3)),
        ("k( 0 )", K(0)),
        ("h(2)", H(2)),
        ("prod(chain(2),chain(3))", Prod(Chain(2), Chain(3))),
        ("osum(chain(1),k(2))", OSum(Chain(1), K(2))),
        ("dunion(chain(2),chain(2))", DUnion(Chain(2), Chain(2))),
        ("j(chain(3))", J(Chain(3))),
        ("layer(E6,4)", Layer("E", 6, 4)),
        ("layer(F4, 4)", Layer("F", 4, 4)),
    ]:
        assert parse_poset_expr(text) == expr
        assert parse_poset_expr(to_text(expr)) == expr


def test_grammar_is_case_and_space_insensitive():
    assert parse_poset_expr(" PROD( Chain(2) , CHAIN(3) ) ") == Prod(
        Chain(2), Chain(3)
    )
    assert parse_poset_expr("Layer(e8, 8)") == Layer("E", 8, 8)


def test_grammar_errors_carry_byte_offsets():
    # one case per fault the parser reports, each with its message
    cases = [
        ("", 0, "expected a name"),
        ("  (3)", 2, "expected a name"),
        ("layer( ,1)", 7, "expected a name"),
        ("chain 3", 6, "expected '('"),
        ("prod(chain(2) chain(3))", 14, "expected ','"),
        ("prod(chain(2)", 13, "expected ','"),
        ("chain(3", 7, "expected ')'"),
        ("nosuch(3)", 0, "unknown constructor 'nosuch'"),
        ("prod(chain(2),Foo(1))", 14, "unknown constructor 'Foo'"),
        ("chain(x)", 6, "expected an integer"),
        ("chain(0)", 6, "integer parameters must be at least 1"),
        ("H(0)", 2, "integer parameters must be at least 1"),
        ("layer(A3, 0)", 10, "integer parameters must be at least 1"),
        ("layer(Q4,1)", 6, "expected a system name like A3 or E6"),
        ("layer(E,1)", 6, "expected a system name like A3 or E6"),
        ("layer(e9,1)", 6, "E9 is not a valid system"),
        ("layer(A2,9)", 9, "pivot 9 outside 1..2"),
        ("layer(A2, 9)", 9, "pivot 9 outside 1..2"),
        ("chain(2)extra", 8, "unexpected trailing input"),
    ]
    for text, offset, message in cases:
        with pytest.raises(ExprParseError) as info:
            parse_poset_expr(text)
        assert info.value.offset == offset, text
        assert str(info.value) == f"byte {offset}: {message}", text


@pytest.mark.parametrize("text,message", [
    ("chain(²)", "byte 6: expected an integer"),
    ("layer(A²,1)", "byte 6: expected a system name like A3 or E6"),
])
def test_a_digit_that_is_no_decimal_is_a_parse_error(capsys, text, message):
    # str.isdigit accepts a superscript two, which int refuses
    code, out, err = run(capsys, "orbits", text)
    assert (code, out) == (2, "")
    assert err == f"parse error: {message}\n"


def test_nesting_past_the_bound_is_refused_at_its_first_constructor(capsys):
    bound = constructions.MAX_DEPTH
    assert bound == 500
    message = f"byte {2 * bound}: expressions nest at most 500 constructors deep"
    # bound + 1 constructors, and an unclosed text ten times as deep
    for text in ("J(" * bound + "chain(1)" + ")" * bound, "J(" * 5000):
        with pytest.raises(ExprParseError) as info:
            parse_poset_expr(text)
        assert info.value.offset == 2 * bound
        assert str(info.value) == message
        code, out, err = run(capsys, "orbits", text)
        assert (code, out, err) == (2, "", f"parse error: {message}\n")
    # in a chain of ordinal sums the first constructor past the bound is
    # the left operand of the 500th osum
    deep = "osum(chain(1)," * 2000 + "chain(1)" + ")" * 2000
    code, out, err = run(capsys, "orbits", deep)
    offset = len("osum(chain(1),") * (bound - 1) + len("osum(")
    assert (code, out) == (2, "")
    assert err == (f"parse error: byte {offset}: expressions nest at most "
                   "500 constructors deep\n")


@pytest.mark.parametrize("outer", ["J(", "osum(chain(1),"])
def test_an_expression_at_the_bound_round_trips(outer):
    # parsed and printed only: building a 500-deep J chain takes long
    depth = constructions.MAX_DEPTH - 1
    text = outer * depth + "chain(1)" + ")" * depth
    expr = parse_poset_expr(text)
    assert to_text(expr) == text
    # the nodes are walked by a loop: == on them recurses once per level
    for _ in range(depth):
        assert type(expr) in (J, OSum)
        expr = expr._values()[-1]
    assert expr == Chain(1)


@pytest.mark.parametrize("command", ["verify-grid", "verify-k"])
def test_the_suites_name_posets_that_the_parser_reads(capsys, command):
    for m in range(1, 4):
        for n in range(1, 4):
            code, out, _ = run(capsys, command, str(m), str(n),
                               "--format", "json", "--no-timing")
            assert code == 0
            suite = json.loads(out)
            code, out, err = run(capsys, "orbits", suite["poset"],
                                 "--format", "json", "--no-timing")
            assert code == 0, err
            listing = json.loads(out)
            assert listing["poset"].lower() == suite["poset"].lower()
            for key in ("n_elements", "max_rank", "orbits"):
                assert listing[key] == suite[key], (command, m, n, key)


def _random_expr(rng: random.Random, depth: int = 0):
    kind = rng.randrange(8 if depth < 3 else 4)
    if kind == 0:
        return Chain(rng.randint(1, 30))
    if kind == 1:
        return K(rng.randint(0, 30))
    if kind == 2:
        return H(rng.randint(1, 30))
    if kind == 3:
        family = rng.choice("ABCDEFG")
        lo, hi = FAMILY_RANK_RANGE[family]
        rank = rng.randint(lo, hi or 40)
        return Layer(family, rank, rng.randint(1, rank))
    if kind == 4:
        return J(_random_expr(rng, depth + 1))
    pair = (Prod, OSum, DUnion)[kind - 5]
    return pair(_random_expr(rng, depth + 1), _random_expr(rng, depth + 1))


def test_every_printed_expression_parses_back():
    rng = random.Random(20261019)
    kinds = set()
    zero_k = False
    for _ in range(500):
        expr = _random_expr(rng)
        assert parse_poset_expr(to_text(expr)) == expr, expr
        kinds.add(type(expr))
        zero_k = zero_k or "K(0)" in to_text(expr)
    assert kinds == set(GRAMMAR)
    assert zero_k


def test_the_command_line_reads_the_grammar_of_constructions():
    assert cli.parse_poset_expr is constructions.parse_poset_expr
    assert cli.ExprParseError is constructions.ExprParseError


def test_nested_expression():
    text = "prod(chain(2),j(j(prod(chain(2),chain(3)))))"
    expr = parse_poset_expr(text)
    assert expr == Prod(Chain(2), J(J(Prod(Chain(2), Chain(3)))))


# -- commands and formats -----------------------------------------------------


def test_orbits_table(capsys):
    code, out, err = run(capsys, "orbits", "prod(chain(2),chain(3))")
    assert code == 0
    assert "orbit" in out and "6/5" in out
    assert out.count("\n6/5") == 0  # averages rendered inline per row


def test_orbits_json_schema(capsys):
    code, out, _ = run(
        capsys, "orbits", "prod(chain(2),chain(3))", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == JSON_KEYS
    assert doc["command"] == "orbits"
    assert doc["poset"] == "prod(chain(2),chain(3))"
    assert doc["n_elements"] == 6
    assert doc["max_rank"] == 4
    assert len(doc["orbits"]) == 2
    for o in doc["orbits"]:
        assert set(o) == {"orbit_id", "length", "avg_size", "sizes"}
        assert o["avg_size"] == "6/5"
    # keys are sorted for byte-stable output
    assert out.index('"checks"') < out.index('"command"') < out.index('"orbits"')


def test_json_is_deterministic(capsys):
    args = ["orbits", "k(2)", "--format", "json", "--no-timing"]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_orbits_csv(capsys):
    code, out, _ = run(
        capsys, "orbits", "prod(chain(2),chain(3))", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "orbit_id,length,avg_size,sizes"
    assert lines[1].startswith("0,5,6/5,")


def test_orbits_seed(capsys):
    code, out, _ = run(
        capsys, "orbits", "chain(4)", "--seed-ideal", "1100",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["orbits"]) == 1
    assert doc["orbits"][0]["length"] == 5


def test_a_seeded_orbit_prints_sizes_past_a_byte(capsys):
    # the full ideal of 300 incomparable elements and the empty ideal: an
    # antichain of 300, which no byte of sizes holds
    expr = "dunion(chain(1)," * 299 + "chain(1)" + ")" * 299
    argv = ["orbits", expr, "--seed-ideal", "1" * 300, "--no-timing"]
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0
    assert out.splitlines()[1:] == ["0,2,150/1,300 0"]
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert json.loads(out)["orbits"] == [
        {"orbit_id": 0, "length": 2, "avg_size": "150/1", "sizes": [300, 0]}]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.splitlines()[-1] == "    0       2     150/1  300 0"


def test_a_listing_prints_without_orbit_records(monkeypatch, capsys):
    # orbits prints a listing from its lengths and its size table, so it
    # makes no OrbitReport; the output is the same bytes as from the
    # reports of all_orbits
    expr = "prod(chain(3),chain(4))"
    printed = {fmt: run(capsys, "orbits", expr, "--format", fmt,
                        "--no-timing")
               for fmt in ("json", "csv", "table")}
    reports = all_orbits(build(parse_poset_expr(expr)))
    rows = cli._report_rows(reports)
    assert len(rows) == 5

    def refuse(self, *args, **kwargs):
        raise AssertionError("built an orbit record")

    monkeypatch.setattr(OrbitReport, "__init__", refuse)
    for fmt, (code, out, err) in printed.items():
        assert code == 0 and not err
        assert run(capsys, "orbits", expr, "--format", fmt,
                   "--no-timing") == (code, out, err), fmt
    doc = json.loads(printed["json"][1])
    assert doc["orbits"] == rows


def test_orbits_seed_must_be_down_closed(capsys):
    code, out, err = run(capsys, "orbits", "chain(4)", "--seed-ideal", "0101")
    assert code == 2
    assert "down-closed" in err


def test_verify_grid_passes(capsys):
    code, out, _ = run(capsys, "verify-grid", "2", "3")
    assert code == 0
    assert "[PASS]" in out and "[FAIL]" not in out


def test_verify_grid_word_rows(capsys):
    code, out, _ = run(
        capsys, "verify-grid", "3", "7", "--word", "0011101111"
    )
    assert code == 0
    assert "1:0101110111:2" in out
    assert "9:1100011111:1" in out
    assert "10:0011101111:1" in out


def test_verify_grid_checks_the_word_before_the_suite(capsys, monkeypatch):
    import rowmotion.cli as cli

    def refuse(*args, **kwargs):
        raise AssertionError("ran the suite")

    monkeypatch.setattr(cli, "verify_grid", refuse)
    for word in ("01", "0011101112"):
        code, out, err = run(capsys, "verify-grid", "3", "7", "--word", word)
        assert code == 2 and out == ""
        assert "--word needs 3 zeros and 7 ones" in err


def test_verify_k_passes(capsys):
    code, out, _ = run(capsys, "verify-k", "2", "2")
    assert code == 0
    assert "[FAIL]" not in out
    assert "full-rank codec round-trips" in out


def test_verify_delta1_named_entry(capsys):
    code, out, _ = run(capsys, "verify-delta1", "layer(F4,4)")
    assert code == 0
    assert "orbit averages constant" in out


def test_verify_delta1_expression_fallback(capsys):
    code, out, _ = run(
        capsys, "verify-delta1", "prod(chain(2),chain(4))",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["checks"] and all(c["passed"] for c in doc["checks"])


def test_conjectures_layer(capsys):
    code, out, _ = run(capsys, "conjectures", "layer(A3,2)")
    assert code == 0
    assert "element plus partner fill each orbit" in out


def test_conjectures_need_a_layer(capsys):
    code, out, err = run(capsys, "conjectures", "chain(3)")
    assert code == 2
    assert "layer" in err


def test_encode_grid_ideal(capsys):
    code, out, _ = run(
        capsys, "encode", "prod(chain(2),chain(3))",
        "--seed-ideal", "110000",
    )
    assert code == 0
    assert "0" in out and "1" in out


def test_encode_split_ideal_gets_starred_word(capsys):
    code, out, _ = run(
        capsys, "encode", "prod(chain(2),k(1))",
        "--seed-ideal", "11000000",
    )
    assert code == 0
    assert "01*011" in out


def test_step_word_plain(capsys):
    code, out, _ = run(capsys, "step-word", "0011101111", "--steps", "3")
    assert code == 0
    assert "1:0101110111" in out
    assert "3:1101011101" in out


def test_step_word_starred(capsys):
    code, out, _ = run(capsys, "step-word", "01*011", "--steps", "5")
    assert code == 0
    assert "5:01*011" in out


def test_step_word_rejects_garbage(capsys):
    code, out, err = run(capsys, "step-word", "01x11")
    assert code == 2


@pytest.mark.parametrize("word,message", [
    ("", "not a binary word: ''"),
    ("012", "not a binary word: '012'"),
    ("01*x1", "not a starred word: '01*x1'"),
    ("1**0", "expected exactly one star"),
    ("1*01", "expected an odd number of ones"),
    ("11*01", "expected 1 ones before the star"),
    ("1*101", "star must be immediately followed by 0"),
])
def test_step_word_refuses_a_malformed_word_by_name(capsys, word, message):
    # the word steps refuse what they cannot read; step-word refuses only
    # the empty word itself
    code, out, err = run(capsys, "step-word", word)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_step_word_charges_its_steps_to_the_cap(capsys):
    code, out, err = run(capsys, "step-word", "0011", "--steps", "20001")
    assert code == 3
    assert out == ""
    assert "cap exceeded: more than 20000 steps" in err
    code, out, err = run(capsys, "step-word", "0011", "--steps", "5",
                         "--cap", "4")
    assert code == 3
    assert "more than 4 steps" in err
    code, out, err = run(capsys, "step-word", "01*011", "--steps", "20001",
                         "--cap", "30000", "--budget")
    assert code == 0
    assert "20001:" in out


def test_catalog_lists_everything(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    for name in ["[2]x[3]x[3]", "[2]xH6", "J3([2]x[3])", "layer(E8,8)"]:
        assert name in out
    assert "[FAIL]" not in out


def test_parse_error_exit_code(capsys):
    code, out, err = run(capsys, "orbits", "prod(chain(2)")
    assert code == 2
    assert "byte 13" in err


def test_cap_exit_code(capsys):
    code, out, err = run(
        capsys, "orbits", "prod(chain(8),prod(chain(8),chain(8)))",
        "--cap", "500",
    )
    assert code == 3
    assert "cap" in err.lower()


def test_a_layer_is_charged_to_the_cap_while_it_is_generated(capsys):
    # layer(A60,30) has 930 members; generation stops at the 501st
    start = time.perf_counter()
    code, out, err = run(capsys, "orbits", "layer(A60,30)", "--budget",
                         "--cap", "500")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert err == "cap exceeded: more than 500 elements\n"


def test_cap_stops_before_long_orbit_walks(capsys):
    # 216 elements pass the element guard; the enumeration cap must then
    # fire before any orbit walk can run past it
    start = time.monotonic()
    code, out, err = run(
        capsys, "orbits", "prod(chain(6),prod(chain(6),chain(6)))",
        "--cap", "500",
    )
    assert code == 3
    assert "cap" in err.lower()
    assert time.monotonic() - start < 10


@pytest.mark.parametrize("argv", [
    ["orbits", "prod(chain(20),chain(20))"],
    ["verify-grid", "9", "9"],
])
def test_large_inputs_are_refused_quickly(capsys, argv):
    start = time.monotonic()
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert "more than 20000 ideals" in err
    assert time.monotonic() - start < 5


def test_a_seeded_walk_on_a_grid_past_the_bound_succeeds(capsys):
    # C(40, 20) ideals are far past the clamp, but one orbit enumerates none
    grid = "prod(chain(20),chain(20))"
    assert build(parse_poset_expr(grid)).min_ideals > 20000
    code, out, err = run(capsys, "orbits", grid, "--seed-ideal", "0" * 400,
                         "--no-timing")
    assert (code, err) == (0, "")
    assert out


@pytest.mark.parametrize("argv", [
    ["verify-grid", "300", "300"],
    ["verify-grid", "4000", "4000"],
    ["verify-k", "100", "100"],
    ["verify-k", "2000", "2000"],
])
def test_a_codec_suite_refuses_a_large_shape_before_building_it(
        capsys, monkeypatch, argv):
    # m*n grid elements (2mn for K) give more ideals than that
    def build(*shape):
        raise AssertionError(f"built the poset of {shape}")

    monkeypatch.setattr(verify, "grid_poset", build)
    monkeypatch.setattr(verify, "k_product_poset", build)
    start = time.monotonic()
    code, out, err = run(capsys, *argv)
    assert time.monotonic() - start < 0.5
    assert (code, out) == (3, "")
    assert err == "cap exceeded: more than 20000 ideals\n"


def test_many_elements_are_refused_before_enumerating(capsys):
    # 20000 elements give more than 20000 ideals, known before any level
    start = time.monotonic()
    code, out, err = run(capsys, "orbits", "chain(20000)")
    assert code == 3
    assert "cap exceeded: more than 20000 ideals" in err
    assert time.monotonic() - start < 2


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_cap_below_one_is_a_usage_error(capsys, cap):
    with pytest.raises(SystemExit) as exc:
        main(["orbits", "prod(chain(3),chain(3))", "--cap", cap])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "--cap: must be at least 1" in captured.err


@pytest.mark.parametrize("argv,name", [
    (["orbits", "chain(3)", "--cap", "abc"], "--cap"),
    (["verify-grid", "x", "3"], "m"),
])
def test_a_non_integer_is_a_usage_error(capsys, argv, name):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert f"argument {name}: expected an integer of at least 1" in captured.err
    assert "_positive" not in captured.err


# -- the plain reader against argparse ----------------------------------------

EXPECTED = Path(__file__).resolve().parent.parent / "perfbench" / "expected.json"

# values each argument takes in a plain command; any other draw is from _ODD
_GOOD = {
    "expr": ["chain(3)", "prod(chain(2),chain(2))"],
    "target": ["chain(3)", "E6"],
    "word": ["0011", "1*0011"],
    "m": ["2", "3"],
    "n": ["2", "3"],
    "--format": ["table", "json", "csv"],
    "--cap": ["5", "100"],
    "--steps": ["2"],
    "--seed-ideal": ["0101"],
    "--word": ["01011"],
}
_ODD = ["", " ", "0", "-1", "x", "5_0", "+2", " 3", "xml", "--", "-h",
        "--help", "-x", "-", "--form", "--no-t", "--bud", "--seed", "--st",
        "--format=json", "--cap=5", "--budget=1", "--word", "--steps",
        "--format", "--no-timing", "frobnicate"]


def _plain_layouts(rng: random.Random, command: str) -> list[str]:
    """COMMAND, some of its positionals, then some options in any order, a
    fifth of the values drawn from _ODD."""
    arguments = cli.COMMANDS[command][2] + cli._COMMON

    def value(name):
        pool = _ODD if rng.random() < 0.2 else _GOOD[name]
        return rng.choice(pool)

    argv = [command]
    positionals = [name for name, _ in arguments if name[0] != "-"]
    argv += [value(name) for name in positionals[:rng.randint(
        len(positionals) - 1, len(positionals))]]
    options = [(name, spec) for name, spec in arguments if name[0] == "-"]
    for name, spec in rng.sample(options, rng.randint(0, len(options))):
        argv.append(name)
        if spec.get("action") != "store_true":
            argv.append(value(name))
    return argv


def _reader_cases() -> list[list[str]]:
    """Plain layouts of every command, the same with their words shuffled
    or with one word of _ODD put in or swapped in, and a few fixed argv."""
    rng = random.Random(2016)
    cases = [[], ["frobnicate"], ["--help"], ["-h", "orbits"],
             ["--", "orbits", "chain(3)"], ["orbits", "--", "chain(3)"],
             ["verify-delta1", "--format", "json", "chain(3)"],
             ["verify-delta1", "--cap", "5", "target", "chain(3)"],
             ["verify-k", "2", "2", "--word", "01"],
             ["orbits", "chain(3)", "--seed-ideal"], ["encode", "chain(3)"]]
    for command in cli.COMMANDS:
        for _ in range(120):
            argv = _plain_layouts(rng, command)
            cases.append(argv)
            words = argv[1:]
            rng.shuffle(words)
            cases.append([command, *words])
            at = rng.randint(1, len(argv))
            cases.append(argv[:at] + [rng.choice(_ODD)]
                         + argv[at + rng.randint(0, 1):])
    return cases


def test_the_plain_reader_agrees_with_argparse():
    parser = cli.build_parser()
    read = refused = 0
    for argv in _reader_cases():
        plain = cli._read_plain(argv)
        try:
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                parsed = vars(parser.parse_args(argv))
        except SystemExit:
            parsed = None
        if plain is None:
            refused += 1
        else:
            assert vars(plain) == parsed, argv
            read += 1
    # both sides of the reader are exercised
    assert read > 500 and refused > 500, (read, refused)


def test_every_benchmark_command_skips_argparse():
    commands = json.loads(EXPECTED.read_text())["commands"]
    assert len(commands) > 100
    for key in commands:
        argv = json.loads(key)
        for tail in ([], ["--no-timing"]):
            assert cli._read_plain(argv + tail) is not None, argv + tail


def test_a_plain_command_does_not_import_argparse():
    src = Path(rowmotion.__file__).resolve().parent.parent
    script = (
        "import contextlib, io, sys\n"
        "import rowmotion.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = rowmotion.cli.main(['orbits', 'chain(3)', '--format',"
        " 'json', '--no-timing'])\n"
        "print(code, 'argparse' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 False\n"


def test_an_abbreviated_option_still_reads_through_argparse(capsys):
    argv = ["orbits", "prod(chain(2),chain(2))", "--no-timing"]
    assert cli._read_plain(argv + ["--form", "json"]) is None
    assert run(capsys, *argv, "--form", "json") == run(
        capsys, *argv, "--format", "json")


def test_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    out = capsys.readouterr().out
    assert exc.value.code == 0
    assert all(command in out for command in cli.COMMANDS)


def test_a_long_chain_is_listed_in_seconds(capsys):
    # one orbit of 3000 ideals, from one bit-sliced step
    start = time.monotonic()
    code, out, err = run(capsys, "orbits", "chain(2999)", "--cap", "3000",
                         "--format", "csv")
    assert code == 0
    rows = out.splitlines()
    assert len(rows) == 2 and rows[1].split(",")[1] == "3000"
    assert time.monotonic() - start < 5


def test_unbudgeted_cap_is_clamped(capsys):
    # without --budget a huge --cap must not admit a huge build
    code, out, err = run(
        capsys, "orbits", "chain(30000)", "--cap", "1000000000",
    )
    assert code == 3
    code, out, err = run(capsys, "orbits", "chain(30000)", "--cap", "50000")
    assert code == 3


@pytest.mark.parametrize("command", ["verify-delta1", "conjectures"])
def test_capped_sweep_that_skips_exits_3(capsys, command):
    code, out, err = run(capsys, command, "--cap", "100", "--format", "json")
    assert code == 3
    doc = json.loads(out)
    skipped = [w for w in doc["witnesses"] if w.get("status") == "skipped"]
    assert len(skipped) == 16
    assert doc["checks"] and all(c["passed"] for c in doc["checks"])
    assert "skipped 16 of 20 targets" in err


def test_conjectures_refuse_a_large_layer_before_building_it(capsys):
    # layer(A400,200) has 40000 elements: the build stops at the cap, long
    # before the layer or its ideals are listed
    start = time.perf_counter()
    code, out, err = run(capsys, "conjectures", "layer(A400,200)",
                         "--cap", "100", "--format", "json")
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert json.loads(out)["witnesses"] == [{
        "entry": "layer(A400,200)", "reason": "more than 100 ideals",
        "status": "skipped",
    }]
    assert err == "skipped 1 of 1 targets: more than 100 ideals each\n"


def test_capped_sweep_with_a_failed_check_exits_1(capsys, monkeypatch):
    import rowmotion.cli as cli

    real = cli.verify_catalog_entry

    def failing(entry, cap):
        poset, checks = real(entry, cap)
        return poset, [CheckResult(c.name, False, "forced") for c in checks]

    monkeypatch.setattr(cli, "verify_catalog_entry", failing)
    code, out, err = run(capsys, "verify-delta1", "--cap", "100")
    assert code == 1
    assert "skipped 16 of 20 targets" in err


def test_capped_conjectures_with_a_counterexample_exits_1(capsys, monkeypatch):
    real = cli.check_conjectures
    witness = Witness(0, "01", "a", "b", 1, 2, IDEAL_IDENTITY)

    def failing(root_layer, cap, name):
        ideals, antichains = real(root_layer, cap, name)
        return (ideals._replace(passed=False, witnesses=(witness,)),
                antichains._replace(passed=False))

    monkeypatch.setattr(cli, "check_conjectures", failing)
    code, out, err = run(capsys, "conjectures", "--cap", "100",
                         "--format", "json")
    assert code == 1
    found = [w for w in json.loads(out)["witnesses"]
             if w.get("status") != "skipped"]
    assert len(found) == 4 and all("entry" in w for w in found)
    assert err == ("COUNTEREXAMPLE FOUND; see witnesses\n"
                   "skipped 16 of 20 targets: more than 100 ideals each\n")


@pytest.mark.parametrize("argv, name", [
    (("verify-delta1", "[2]X[3]x[5]"), "[2]x[3]x[5]"),
    (("conjectures", "[2]X[3]x[5]"), "[2]x[3]x[5]"),
    (("conjectures", "LAYER(a400, 200)"), "layer(A400,200)"),
])
def test_a_skipped_target_is_named_canonically(capsys, argv, name):
    code, out, err = run(capsys, *argv, "--cap", "100", "--format", "json")
    assert code == 3
    assert json.loads(out)["witnesses"] == [{
        "entry": name, "reason": "more than 100 ideals", "status": "skipped",
    }]
    assert err == "skipped 1 of 1 targets: more than 100 ideals each\n"


def test_uncapped_sweep_skips_nothing(capsys):
    code, out, err = run(capsys, "verify-delta1", "--format", "json")
    assert code == 0
    assert json.loads(out)["witnesses"] == []
    assert "skipped" not in err


def test_csv_failures_go_to_stderr(capsys):
    # a failing check must stay visible in csv mode, which only carries
    # orbit rows on stdout
    from rowmotion.cli import _emit

    result = {key: None for key in JSON_KEYS}
    result.update(orbits=[], witnesses=[])
    result["checks"] = [{"name": "x", "passed": False, "details": "boom"}]

    class Args:
        format = "csv"
        no_timing = True

    code = _emit(result, Args())
    captured = capsys.readouterr()
    assert code == 1
    assert "x" in captured.err


def test_run_result_round_trip(monkeypatch):
    results = []
    monkeypatch.setattr(cli, "_emit",
                        lambda result, args: results.append(result) or 0)
    main(["orbits", "chain(2)", "--no-timing"])
    (doc,) = results
    assert doc["poset"] == "chain(2)"
    assert (doc["n_elements"], doc["max_rank"]) == (2, 2)
    assert doc["orbits"] == [{"orbit_id": 0, "length": 3, "avg_size": "2/3",
                              "sizes": [0, 1, 1]}]
    assert set(doc) == JSON_KEYS
    assert json.loads(cli._to_json(doc)) == doc


def test_orbit_averages_print_as_the_reduced_fraction(capsys):
    # avg_size is printed from the gcd of the size total and the length;
    # it must read as _fraction_str of the exact average in json and csv
    exprs = ("prod(chain(4),chain(4))", "prod(chain(5),K(3))",
             "layer(E6,2)", "chain(1)")
    reduced = unreduced = 0
    for expr in exprs:
        reports = all_orbits(build(parse_poset_expr(expr)))
        expected = [verify._fraction_str(r.average_size) for r in reports]
        for r in reports:
            if r.length > 1 and r.average_size.denominator == r.length:
                unreduced += 1
            elif r.average_size.denominator != r.length:
                reduced += 1
        code, out, _ = run(capsys, "orbits", expr, "--format", "json",
                           "--no-timing")
        assert code == 0
        assert [o["avg_size"] for o in json.loads(out)["orbits"]] == expected
        code, out, _ = run(capsys, "orbits", expr, "--format", "csv")
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert [row.split(",")[2] for row in rows] == expected, expr
    assert reduced and unreduced
    (empty,) = cli._report_rows(all_orbits(Poset.empty()))
    assert empty == {"orbit_id": 0, "length": 1, "avg_size": "0/1",
                     "sizes": [0]}


# -- the JSON writer ----------------------------------------------------------

# quotes, backslashes, every escaped control character, DEL, non-ASCII text
# (a line separator, a character outside the basic plane) and a lone surrogate
_JSON_CHARS = 'ab"\\/\b\f\n\r\t\x00\x1f\x7f \u00e9\u65e5\u2028\U0001f600\ud800'


def _random_key(rng: random.Random) -> str:
    # "%" and braces would break a key spliced into a format template
    return "".join(rng.choice(_JSON_CHARS + "%{}")
                   for _ in range(rng.randrange(4)))


def _random_json(rng: random.Random, depth: int = 0):
    """A nested value of the kinds the writer takes: str-keyed dicts, lists,
    tuples, ints, True/False/None and strings, empty containers included;
    and rows, lists of dicts that give one key set, as the orbit listing
    does, with near-misses: a last row that gives its keys in the other
    order, or no keys at all."""
    kind = rng.randrange(10 if depth < 4 else 4)
    if kind == 0:
        return rng.choice([0, 1, -1, rng.randint(-10**20, 10**20)])
    if kind == 1:
        return rng.choice([True, False, None])
    if kind == 2:
        return "".join(rng.choice(_JSON_CHARS) for _ in range(rng.randrange(6)))
    if kind == 3:
        # a flat list, sometimes with a bool among the ints
        return [rng.choice([0, 7, -3, 10**30, True, False])
                if rng.random() < 0.1 else rng.randrange(-9, 99)
                for _ in range(rng.randrange(5))]
    items = [_random_json(rng, depth + 1) for _ in range(rng.randrange(5))]
    if kind in (4, 5):
        return items
    if kind == 6:
        return tuple(items)
    if kind == 9:
        keys = list(dict.fromkeys(_random_key(rng)
                                  for _ in range(rng.randrange(5))))
        rows = [{key: _random_json(rng, depth + 1) for key in keys}
                for _ in range(rng.randrange(1, 4))]
        near_miss = rng.randrange(4)
        if near_miss == 0:
            rows[-1] = dict(reversed(rows[-1].items()))
        elif near_miss == 1:
            rows[-1] = {}
        return rows
    return {_random_key(rng): item for item in items}


def _row_lists(value) -> int:
    """How many lists and tuples in value hold nonempty dicts that all
    give one key set, in whatever order."""
    if isinstance(value, dict):
        return sum(map(_row_lists, value.values()))
    if not isinstance(value, (list, tuple)):
        return 0
    rows = (len(value) > 0
            and all(type(item) is dict and item for item in value)
            and len({frozenset(item) for item in value}) == 1)
    return rows + sum(map(_row_lists, value))


def test_json_writer_matches_json_dumps_on_random_values():
    rng = random.Random(20261019)
    rows = 0
    for _ in range(2000):
        value = _random_json(rng)
        rows += _row_lists(value)
        assert cli._to_json(value) == json.dumps(
            value, sort_keys=True, indent=2), value
    # lists of rows, as the orbit listing gives, are among the values
    assert rows > 100


def test_json_writer_prints_subclassed_leaves_like_json_dumps():
    # only an exact str or int takes the writer's own leaf route

    class Text(str):
        pass

    class Count(int):
        pass

    for value in (Text('a"é'), [Text("b"), 1], {"k": Text("")},
                  [Count(3), 4], True, [False, 2]):
        assert cli._to_json(value) == json.dumps(
            value, sort_keys=True, indent=2), value


@pytest.mark.parametrize("argv", [
    ["orbits", "chain(3)"],
    ["orbits", "prod(chain(2),chain(3))", "--seed-ideal", "100000"],
    ["verify-grid", "2", "3", "--word", "01011"],
    ["verify-k", "2", "2"],
    ["verify-delta1", "--cap", "100"],
    ["verify-delta1", "osum(chain(1),dunion(chain(1),chain(1)))"],
    ["conjectures", "layer(D5,2)"],
    ["encode", "prod(chain(2),chain(2))", "--seed-ideal", "1100"],
    ["step-word", "1*0011", "--steps", "3"],
    ["catalog"],
])
def test_json_writer_matches_json_dumps_on_each_command(argv, monkeypatch):
    results = []
    monkeypatch.setattr(cli, "_emit",
                        lambda result, args: results.append(result) or 0)
    main(argv)
    (doc,) = results
    assert cli._to_json(doc) == json.dumps(doc, sort_keys=True, indent=2)
    assert cli._render(doc, "json") == cli._to_json(doc)


def test_orbit_rows_print_like_the_generic_writers():
    # _render prints the orbit rows from a template per orbit length, in
    # every format; sizes past a byte, one-orbit and one-ideal listings
    rng = random.Random(31)
    for _ in range(200):
        lengths = [rng.randint(1, 20) for _ in range(rng.randint(0, 12))]
        sizes = [rng.choice([0, 1, 9, 10, 255, 256, 300, rng.randrange(99)])
                 for _ in range(sum(lengths))]
        rows = cli._orbit_rows(iter(lengths), sizes)
        doc = {"command": "orbits", "poset": "chain(1)", "n_elements": 1,
               "max_rank": 1, "orbits": rows, "checks": [], "witnesses": [],
               "elapsed_ms": None}
        assert cli._render(doc, "json") == json.dumps(doc, sort_keys=True,
                                                      indent=2)
        printed = [[str(o["orbit_id"]), str(o["length"]), o["avg_size"],
                    " ".join(map(str, o["sizes"]))] for o in rows]
        assert cli._render(doc, "csv").splitlines()[1:] == [
            ",".join(row) for row in printed]
        table = cli._render(doc, "table").splitlines()
        assert table[5:] == [f"{i:>5}  {n:>6}  {avg:>8}  {s}"
                             for i, n, avg, s in printed]


def test_module_runs_as_a_script():
    src = Path(rowmotion.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "rowmotion.cli", "catalog", "--format", "json"],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["command"] == "catalog"


def test_a_reader_that_leaves_early_is_not_an_error():
    # about 260 kB on one line: more than a pipe holds, so the write fails
    src = Path(rowmotion.__file__).resolve().parent.parent
    proc = subprocess.Popen(
        [sys.executable, "-m", "rowmotion.cli", "step-word", "0011101111",
         "--steps", "20000", "--no-timing"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.stdout.readline() == "command: step-word\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert "Traceback" not in err and "Error" not in err


# -- fuzzed expressions -------------------------------------------------------

_INTS = st.integers(0, 12)
_LEAVES = st.one_of(
    st.builds("chain({})".format, _INTS),
    st.builds("k({})".format, _INTS),
    st.builds("h({})".format, _INTS),
    st.builds("layer({}{},{})".format, st.sampled_from("ABCDEFG"), _INTS,
              _INTS),
)
_EXPRS = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.builds("j({})".format, inner),
        st.builds("{}({},{})".format,
                  st.sampled_from(["prod", "osum", "dunion"]), inner, inner),
    ),
    max_leaves=4,
)


@st.composite
def _maybe_corrupted(draw):
    """A grammar expression, sometimes with one character inserted,
    replaced or deleted."""
    text = draw(_EXPRS)
    if draw(st.booleans()):
        return text
    edit = draw(st.sampled_from(["insert", "replace", "delete"]))
    at = draw(st.integers(0, len(text) - 1))
    if edit == "delete":
        return text[:at] + text[at + 1:]
    char = draw(st.characters())
    return text[:at] + char + text[at + (edit == "replace"):]


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_maybe_corrupted())
def test_fuzzed_expressions_exit_cleanly(text):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(["orbits", text, "--cap", "300", "--no-timing"])
        except SystemExit as exc:  # argparse's usage error, as for "-x"
            code = exc.code
    assert code in (0, 2, 3), (text, err.getvalue())
    assert (code == 0) == bool(out.getvalue())
