"""Smoke test of the benchmark harness.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload once on a reduced command list, untraced and traced, and
checks that every metric BENCHMARK.json names is emitted; and that the
outcome checker accepts added JSON keys but not changed results.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
EXPECTED = json.loads(run.EXPECTED.read_text())

# the cheapest commands of each workload; the full lists take minutes
REDUCED = {
    "catalog_sweep": lambda argv: "layer(D10,4)" in argv,
    "codec_sweep": lambda argv: argv[0] == "verify-k",
    "orbit_listing": lambda argv: "J(prod(chain(3),chain(4)))" in argv
    or argv[0] in ("encode", "step-word"),
    "guarded_inputs": lambda argv: "prod(chain(10),chain(10))" in argv
    or argv[0] == "verify-grid",
}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted(workload, trace):
    commands = [c for c in run.plan(workload, 7, EXPECTED)
                if REDUCED[workload](c.argv)]
    assert commands
    metrics, attempted, failed, _ = run.measure(commands, EXPECTED, 0, trace)
    names = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert sorted(metrics) == sorted(names)
    assert all(isinstance(m["value"], (int, float)) for m in metrics.values())
    assert failed == 0
    assert attempted >= len(commands)


def test_checker_ignores_added_keys_but_not_changed_results():
    command = next(c for c in run.plan("orbit_listing", 7, EXPECTED)
                   if c.argv[0] == "step-word")
    report = run.run_child(command.argv + ["--no-timing"])
    assert run.check(command, report, EXPECTED) == []

    data = json.loads(report["stdout"])
    data["skipped"] = []
    assert run.check(command, dict(report, stdout=json.dumps(data)),
                     EXPECTED) == []

    data["checks"][0]["details"] = "1:01"
    assert run.check(command, dict(report, stdout=json.dumps(data)), EXPECTED)
    assert run.check(command, dict(report, exit=1), EXPECTED)
