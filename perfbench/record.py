"""Record the outcomes the benchmark checks against.

    python3 perfbench/record.py

Draws the seeded input pools of orbit_listing, runs every command of every
workload once, and writes perfbench/expected.json: exit code and a digest of
the result fields (run.outcome_fields) per command.  Run it only at a commit
whose outputs are known to be right; the benchmark then holds later commits
to them.  It refuses to record a command whose exit code is unexpected or
whose checks do not all pass.
"""

import json
import random
import sys

import run

sys.path.insert(0, str(run.ROOT / "src"))

from rowmotion.catalog import SPORADIC  # noqa: E402
from rowmotion.cli import parse_poset_expr  # noqa: E402
from rowmotion.constructions import build  # noqa: E402
from rowmotion.poset import OrbitReport, ideal_masks  # noqa: E402
from rowmotion.words import encode_K_starred, is_full_rank  # noqa: E402

POOL_SIZE = 16
GRID = "prod(chain(8),chain(8))"
KPROD = "prod(chain(5),K(3))"  # [5]xK(3): m=5, n=4, period m+2n-1 = 12


def _ideals(expr: str) -> tuple:
    poset = build(parse_poset_expr(expr))
    return poset, list(ideal_masks(poset))


def draw_pools(rng: random.Random) -> dict:
    pools = {}
    for pool, expr in (("walk_grid", GRID), ("walk_e8", "layer(E8,2)"),
                       ("walk_k", KPROD)):
        poset, masks = _ideals(expr)
        pools[pool] = [
            {"argv": ["orbits", expr, "--seed-ideal",
                      poset.ideal(mask).bit_string(),
                      "--format", "json"],
             "ideals": OrbitReport.from_seed_mask(poset, mask).length}
            for mask in rng.sample(masks, POOL_SIZE)
        ]
    for pool, expr in (("encode_grid", GRID), ("encode_k", KPROD)):
        poset, masks = _ideals(expr)
        pools[pool] = [
            {"argv": ["encode", expr, "--seed-ideal",
                      poset.ideal(mask).bit_string(),
                      "--format", "json"], "ideals": 1}
            for mask in rng.sample(masks, POOL_SIZE)
        ]
    words = set()
    while len(words) < POOL_SIZE:
        letters = list("0" * 8 + "1" * 8)
        rng.shuffle(letters)
        words.add("".join(letters))
    pools["step_plain"] = [
        {"argv": ["step-word", w, "--steps", "16", "--format", "json"],
         "ideals": 16} for w in sorted(words)
    ]
    poset, masks = _ideals(KPROD)
    starred = sorted({encode_K_starred(poset.ideal(mask)) for mask in masks
                      if not is_full_rank(poset.ideal(mask))})
    pools["step_starred"] = [
        {"argv": ["step-word", w, "--steps", "12", "--format", "json"],
         "ideals": 12} for w in rng.sample(starred, POOL_SIZE)
    ]
    return pools


def check_ideal_counts() -> list[str]:
    """The ideals_per_s numerators hard-coded in run.py, recounted."""
    wrong = []
    for expr, count in run.LISTED + [("layer(D10,4)", 2275),
                                     ("prod(chain(7),chain(7))", 3432),
                                     ("prod(chain(6),K(3))", 4290)]:
        if len(_ideals(expr)[1]) != count:
            wrong.append(expr)
    catalog = sum(len(list(ideal_masks(e.realize_poset()))) for e in SPORADIC)
    if catalog != run.CATALOG_IDEALS:
        wrong.append("catalog")
    return wrong


def main() -> int:
    wrong = check_ideal_counts()
    if wrong:
        print(f"ideal counts in run.py are stale for {wrong}", file=sys.stderr)
        return 1
    pools = draw_pools(random.Random(0))
    commands = [c for cs in run.FIXED.values() for c in cs]
    commands += [run.Command(e["argv"], 0, e["ideals"])
                 for entries in pools.values() for e in entries]
    recorded = {}
    for command in commands:
        report = run.run_child(command.argv + ["--no-timing"])
        fields = run.outcome_fields(command.argv, report["stdout"])
        failed = [n for n, passed in fields.get("checks", []) if not passed]
        if report["exit"] != command.exit or failed:
            print(f"refusing to record {command.argv}: exit {report['exit']}, "
                  f"failed checks {failed}", file=sys.stderr)
            return 1
        recorded[json.dumps(command.argv)] = {
            "exit": report["exit"], "digest": run.digest(fields)}
        print(f"{report['main_s']:8.3f}s  {' '.join(command.argv)}")
    run.EXPECTED.write_text(json.dumps(
        {"commands": recorded, "pools": pools}, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
