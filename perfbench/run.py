"""Benchmark of the rowmotion command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A closed loop with one client: the commands of a workload run one after
another, each in a fresh interpreter (perfbench/child.py) that calls
rowmotion.cli.main(argv + ["--no-timing"]) the way a user's shell would.
Fresh interpreters keep the lru_caches of one command from serving the next.
A pass runs every command once; passes repeat for about S seconds (at least
two, or one untraced and one traced round with --trace 1) and the medians
over passes are reported, with times scaled to a reference machine speed
(reference_scale).

Every command's outcome is checked against perfbench/expected.json, recorded
at the commit that introduced the benchmark (perfbench/record.py).  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer counters of perfbench/layertrace.py, plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"
SPANS_DIR = ROOT / ".perfbench"
SETUP_PROBES = 5
# child.py's reference loop takes about this long on an unloaded 2-vCPU Xeon
# virtual machine; see reference_scale.
REF_NOMINAL_S = 0.01
CHILD_TIMEOUT_S = 170
# Without --budget the CLI clamps --cap to 20000 ideals; each guarded input
# enumerates that many before it is refused.
CLAMP = 20000


class Command(NamedTuple):
    argv: list[str]
    exit: int
    ideals: int  # ideals the command covers: the numerator of ideals_per_s


def _json(*argv: str) -> list[str]:
    return [*argv, "--format", "json"]


# Ideal counts per poset, as enumerated at the commit that introduced this
# benchmark; the catalog figure sums the twenty sporadic entries.
CATALOG_IDEALS = 16884
LISTED = [
    ("prod(chain(8),chain(8))", 12870),
    ("prod(chain(6),chain(9))", 5005),
    ("layer(E8,2)", 2431),
    ("layer(E8,8)", 232),
    ("prod(chain(3),H(5))", 4224),
    ("prod(chain(5),K(3))", 1782),
    ("J(prod(chain(3),chain(4)))", 352),
]

FIXED = {
    "catalog_sweep": [
        Command(_json("verify-delta1"), 0, CATALOG_IDEALS),
        Command(_json("conjectures"), 0, CATALOG_IDEALS),
        Command(_json("conjectures", "layer(D10,4)"), 0, 2275),
    ],
    "codec_sweep": [
        Command(_json("verify-grid", "7", "7"), 0, 3432),
        Command(_json("verify-k", "6", "4"), 0, 4290),
    ],
    "orbit_listing": [
        Command(["orbits", expr, "--format", fmt], 0, ideals)
        for expr, ideals in LISTED
        for fmt in ("json", "csv")
    ],
    "guarded_inputs": [
        Command(["orbits", "prod(chain(2),K(100))"], 3, CLAMP),
        Command(["orbits", "prod(chain(20),chain(20))"], 3, CLAMP),
        Command(["orbits", "prod(chain(10),chain(10))"], 3, CLAMP),
        Command(["verify-grid", "9", "9"], 3, CLAMP),
    ],
}

# Per-pass seeded draws for orbit_listing, one from each pool.
POOLS = ("walk_grid", "walk_e8", "walk_k", "encode_grid", "encode_k",
         "step_plain", "step_starred")


def plan(workload: str, seed: int, expected: dict) -> list[Command]:
    """The commands of one pass; only orbit_listing draws from the seed."""
    commands = list(FIXED[workload])
    if workload == "orbit_listing":
        rng = random.Random(seed)
        for pool in POOLS:
            entry = rng.choice(expected["pools"][pool])
            commands.append(Command(entry["argv"], 0, entry["ideals"]))
    return commands


# -- one command in a fresh interpreter ---------------------------------------


def run_child(argv: list[str], trace: bool = False) -> dict:
    """Run child.py on argv (empty: import only) and return its report."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    # Let the first import leave .pyc files in the checkout, as an installed
    # package has them; otherwise setup_s depends on the caller's environment
    # (compiling every module doubles the import time).
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    spec = json.dumps({"argv": argv, "trace": trace})
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), spec],
        capture_output=True, text=True, env=env, cwd=ROOT,
        timeout=CHILD_TIMEOUT_S,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"child failed on {argv}: exit {proc.returncode}\n{proc.stderr}"
        )
    return json.loads(lines[-1])


def outcome_fields(argv: list[str], stdout: str) -> dict:
    """The result fields a change must not alter: orbit lengths, sizes and
    averages, check names and pass flags, and the produced word for encode
    and step-word.  Keys added to the JSON later are ignored."""
    if not stdout.strip():
        return {}
    if "csv" in argv:
        rows = [line.split(",") for line in stdout.strip().splitlines()[1:]]
        return {"orbits": [[int(length), avg, [int(s) for s in sizes.split()]]
                           for _, length, avg, sizes in rows]}
    data = json.loads(stdout)
    fields = {
        "orbits": [[o["length"], o["avg_size"], o["sizes"]]
                   for o in data.get("orbits") or []],
        "checks": [[c["name"], c["passed"]] for c in data.get("checks") or []],
    }
    if data["command"] in ("encode", "step-word"):
        fields["results"] = [c["details"] for c in data["checks"]]
    return fields


def digest(fields: dict) -> str:
    text = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def check(command: Command, report: dict, expected: dict) -> list[str]:
    """Reasons the operation failed; empty when it succeeded."""
    problems = []
    if report["exit"] != command.exit:
        problems.append(f"exit {report['exit']}, expected {command.exit}")
    try:
        fields = outcome_fields(command.argv, report["stdout"])
    except (ValueError, KeyError, TypeError) as exc:
        return problems + [f"unreadable output: {exc!r}"]
    failed = [name for name, passed in fields.get("checks", []) if not passed]
    if failed:
        problems.append(f"checks failed: {failed}")
    recorded = expected["commands"].get(json.dumps(command.argv))
    if recorded is None:
        problems.append("no recorded outcome")
    elif digest(fields) != recorded["digest"]:
        problems.append("result fields differ from the recorded outcome")
    return problems


# -- passes and metrics --------------------------------------------------------


def run_pass(commands: list[Command], expected: dict, trace: bool) -> dict:
    stats = {"run_s": 0.0, "peak_rss_mb": 0.0, "ideals": 0, "failed": 0,
             "reports": []}
    for command in commands:
        report = run_child(command.argv + ["--no-timing"], trace)
        problems = check(command, report, expected)
        if problems:
            stats["failed"] += 1
            print(f"FAILED {' '.join(command.argv)}: {'; '.join(problems)}",
                  file=sys.stderr)
        stats["run_s"] += report["main_s"]
        stats["peak_rss_mb"] = max(stats["peak_rss_mb"], report["maxrss_mb"])
        stats["ideals"] += command.ideals
        stats["reports"].append(report)
    stats["ideals_per_s"] = stats["ideals"] / stats["run_s"]
    stats["scale"] = reference_scale(stats["reports"])
    return stats


# per-layer metric -> (layer key, counter) in layertrace's report
LAYER_FIELDS = {
    "poset.enumerate.calls": ("poset.enumerate", "calls"),
    "poset.enumerate.ideals": ("poset.enumerate", "ideals"),
    "poset.enumerate.self_s": ("poset.enumerate", "self_s"),
    "poset.walk.calls": ("poset.walk", "calls"),
    "poset.walk.steps": ("poset.walk", "steps"),
    "poset.walk.self_s": ("poset.walk", "self_s"),
    "poset.idealset.count": ("poset.idealset", "calls"),
    "poset.idealset.self_s": ("poset.idealset", "self_s"),
    **{
        f"words.{part}.{field}": (f"words.{part}", field)
        for part in ("encode", "decode", "psi", "psi_bar", "profile", "sequences")
        for field in ("calls", "self_s")
    },
    **{
        f"homomesy.{part}.{field}": (f"homomesy.{part}", field)
        for part in ("average", "conjecture", "occurrence")
        for field in ("calls", "self_s")
    },
    "constructions.build.calls": ("constructions.build", "calls"),
    "constructions.build.self_s": ("constructions.build", "self_s"),
    "roots.layer.calls": ("roots.layer", "calls"),
    "roots.layer.self_s": ("roots.layer", "self_s"),
    "isomorphism.calls": ("isomorphism", "calls"),
    "isomorphism.self_s": ("isomorphism", "self_s"),
    "catalog.entries": ("catalog", "calls"),
    "verify.suite.self_s": ("verify.suite", "self_s"),
    "cli.parse.self_s": ("cli.parse", "self_s"),
    "cli.main.self_s": ("cli.main", "self_s"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(stats: dict) -> dict[str, float]:
    """Per-layer totals of one traced pass, self times scaled like the
    end-to-end times."""
    totals: dict[str, float] = dict.fromkeys(LAYER_FIELDS, 0)
    sums = {"build_elements": 0, "sweeps": 0, "swept_posets": 0,
            "distinct_ideals": 0, "checks": 0, "checks_failed": 0,
            "skipped": 0, "output_bytes": 0}
    hits = {"constructions": [0, 0], "roots": [0, 0]}
    for report in stats["reports"]:
        trace = report["trace"]
        for metric, (key, field) in LAYER_FIELDS.items():
            totals[metric] += trace["layers"].get(key, {}).get(field, 0)
        for name in ("build_elements", "sweeps", "swept_posets",
                     "distinct_ideals"):
            sums[name] += trace[name]
        for name, (hit, miss) in trace["cache"].items():
            hits[name][0] += hit
            hits[name][1] += miss
        sums["output_bytes"] += len(report["stdout"].encode())
        if report["stdout"].startswith("{"):
            data = json.loads(report["stdout"])
            sums["checks"] += len(data["checks"])
            sums["checks_failed"] += sum(not c["passed"] for c in data["checks"])
            sums["skipped"] += sum(w.get("status") == "skipped"
                                   for w in data["witnesses"])
    for metric in LAYER_FIELDS:
        if metric.endswith("self_s"):
            totals[metric] *= stats["scale"]
    totals.update({
        "poset.steps_per_ideal": _ratio(totals["poset.walk.steps"],
                                        sums["distinct_ideals"]),
        "homomesy.walks_per_poset": _ratio(sums["sweeps"], sums["swept_posets"]),
        "constructions.build.elements": sums["build_elements"],
        "constructions.cache_hit_ratio": _ratio(
            hits["constructions"][0], sum(hits["constructions"])),
        "roots.cache_hit_ratio": _ratio(hits["roots"][0], sum(hits["roots"])),
        "catalog.skipped": sums["skipped"],
        "verify.checks": sums["checks"],
        "verify.checks_failed": sums["checks_failed"],
        "cli.output_bytes": sums["output_bytes"],
    })
    return totals


def reference_scale(reports: list[dict]) -> float:
    """Factor that scales times measured alongside these reports to a
    machine on which child.py's reference loop takes REF_NOMINAL_S.

    The machine is shared, and its speed drifts by a third or more within
    minutes.  Every child times the same fixed loop, so the ratio of a
    command's time to the loop's time stays put while both slow down.
    Each pass is scaled by its own children, which follows the drift more
    closely than one factor for the whole run.
    """
    return REF_NOMINAL_S / statistics.median(r["ref_s"] for r in reports)


def _scaled(passes: list[dict], key: str) -> float:
    """Median over passes of a time, each scaled by its pass's factor."""
    return statistics.median(p[key] * p["scale"] for p in passes)


def measure(commands: list[Command], expected: dict, seconds: float,
            trace: bool) -> tuple[dict, int, int, list[dict]]:
    """Run passes for about `seconds`; return metrics, attempted, failed and
    the traced passes.

    With trace, untraced and traced passes alternate and the untraced ones
    give the base of the tracing overhead.
    """
    probes = [run_child([]) for _ in range(SETUP_PROBES)]
    plain: list[dict] = []
    traced: list[dict] = []
    min_rounds = 1 if trace else 2
    start = time.perf_counter()
    while True:
        plain.append(run_pass(commands, expected, trace=False))
        if trace:
            traced.append(run_pass(commands, expected, trace=True))
        elapsed = time.perf_counter() - start
        rounds = len(plain)
        if rounds >= min_rounds and elapsed * (rounds + 1) / rounds > seconds:
            break
    passes = plain + traced
    attempted = sum(len(p["reports"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    reports = probes + [r for p in passes for r in p["reports"]]
    run_scale = reference_scale(reports)
    for k, p in enumerate(plain):
        print(f"pass {k}: raw run_s {p['run_s']:.4f}  scale {p['scale']:.4f}  "
              f"failed {p['failed']}")
    cmd_medians = [
        statistics.median(p["reports"][k]["main_s"] * p["scale"] for p in plain)
        for k in range(len(commands))
    ]
    for command, median in zip(commands, cmd_medians):
        print(f"scaled cmd median {median:.4f} s  {' '.join(command.argv)}")

    if not trace:
        metrics = {
            "run_s": _scaled(plain, "run_s"),
            "ideals_per_s": statistics.median(p["ideals_per_s"] / p["scale"]
                                              for p in plain),
            # the slowest command by its median: a maximum over single
            # passes would pick the noisiest sample
            "slowest_cmd_s": max(cmd_medians),
            "setup_s": statistics.median(r["import_s"] for r in reports)
            * run_scale,
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        }
    else:
        per_pass = [layer_metrics(p) for p in traced]
        metrics = {name: statistics.median(m[name] for m in per_pass)
                   for name in per_pass[0]}
        metrics["trace.untraced_run_s"] = _scaled(plain, "run_s")
        metrics["trace.traced_run_s"] = _scaled(traced, "run_s")
        metrics["trace.overhead_ratio"] = (metrics["trace.traced_run_s"]
                                           / metrics["trace.untraced_run_s"])
        metrics["machine.ref_loop_s"] = REF_NOMINAL_S / run_scale
    units = metric_units("per_layer" if trace else "end_to_end")
    print(f"error_rate {failed / attempted:.6f} ({failed} of {attempted} "
          "operations failed)")
    for name in units:
        print(f"{name:32s} {metrics[name]:.6g} {units[name]}")
    return ({name: {"value": metrics[name], "unit": unit}
             for name, unit in units.items()}, attempted, failed, traced)


def metric_units(section: str) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json lists in section."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def write_spans(path: Path, commands: list[Command], stats: dict) -> None:
    """Keep the coarse spans of a traced pass, one list per command."""
    path.parent.mkdir(exist_ok=True)
    out = [{"argv": c.argv, "spans": r["trace"]["spans"]}
           for c, r in zip(commands, stats["reports"])]
    path.write_text(json.dumps(out))
    print(f"spans written to {path.relative_to(ROOT)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(FIXED))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "rowmotion" / "cli.py").is_file():
        print(f"no rowmotion sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    expected = json.loads(EXPECTED.read_text())
    commands = plan(args.workload, args.seed, expected)
    metrics, attempted, failed, traced = measure(
        commands, expected, args.seconds, bool(args.trace))
    if traced:
        write_spans(SPANS_DIR / f"spans-{args.workload}-{args.seed}.json",
                    commands, traced[-1])
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
