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
from rowmotion import cli
from rowmotion.cli import (
    ExprParseError,
    RunResult,
    main,
    parse_poset_expr,
)
from rowmotion.constructions import (
    H,
    J,
    K,
    Chain,
    DUnion,
    Layer,
    OSum,
    Prod,
    to_text,
)
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
    cases = [
        ("nosuch(3)", 0),
        ("prod(chain(2)", 13),
        ("chain(0)", 6),
        ("chain(x)", 6),
        ("layer(A2,9)", 9),
        ("layer(Q4,1)", 6),
        ("chain(2)extra", 8),
    ]
    for text, offset in cases:
        with pytest.raises(ExprParseError) as info:
            parse_poset_expr(text)
        assert info.value.offset == offset, text


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


def test_uncapped_sweep_skips_nothing(capsys):
    code, out, err = run(capsys, "verify-delta1", "--format", "json")
    assert code == 0
    assert json.loads(out)["witnesses"] == []
    assert "skipped" not in err


def test_csv_failures_go_to_stderr(capsys):
    # a failing check must stay visible in csv mode, which only carries
    # orbit rows on stdout
    from rowmotion.cli import RunResult, _emit

    result = RunResult(command="demo")
    result.checks = [{"name": "x", "passed": False, "details": "boom"}]

    class Args:
        format = "csv"
        no_timing = True

    code = _emit(result, Args())
    captured = capsys.readouterr()
    assert code == 1
    assert "x" in captured.err


def test_run_result_round_trip():
    result = RunResult(command="orbits")
    result.poset = "chain(2)"
    result.n_elements = 2
    result.max_rank = 2
    result.orbits = [{"orbit_id": 0, "length": 3, "avg_size": "2/3",
                      "sizes": [0, 1, 1]}]
    doc = result.to_dict()
    assert set(doc) == JSON_KEYS


# -- the JSON writer ----------------------------------------------------------

# quotes, backslashes, every escaped control character, DEL, non-ASCII text
# (a line separator, a character outside the basic plane) and a lone surrogate
_JSON_CHARS = 'ab"\\/\b\f\n\r\t\x00\x1f\x7f \u00e9\u65e5\u2028\U0001f600\ud800'


def _random_json(rng: random.Random, depth: int = 0):
    """A nested value of the kinds the writer takes: str-keyed dicts, lists,
    tuples, ints, True/False/None and strings, empty containers included."""
    kind = rng.randrange(9 if depth < 4 else 4)
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
    return {"".join(rng.choice(_JSON_CHARS) for _ in range(rng.randrange(4))):
            item for item in items}


def test_json_writer_matches_json_dumps_on_random_values():
    rng = random.Random(20261019)
    for _ in range(2000):
        value = _random_json(rng)
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
    (doc,) = [result.to_dict() for result in results]
    assert cli._to_json(doc) == json.dumps(doc, sort_keys=True, indent=2)


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
