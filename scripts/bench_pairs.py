"""Run the benchmark on two checkouts in alternating pairs and compare them.

    python scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W \\
        --pairs N --seconds S [--first-seed K]

Pair k (from 0) runs `perfbench/run.py --workload W --seed K+k
--seconds S` in each checkout, the parent first in even pairs and the
change first in odd ones, so drift in the host's speed falls on both
sides alike.  For each end-to-end metric of BENCHMARK.json (the one
next to this script) it prints each side's median [q1, q3], the
change's difference in the median, how many pairs the change won
(ties count for neither side), and whether the pairs show a gain: at
least ten pairs ran, the change won at least nine tenths of them, and
its median is better than the parent's by more than the parent's own
interquartile distance.  It also prints how many ops failed on each
side.  Exits 1 if a run fails, and 2, before any run, if either
checkout has a `__pycache__` directory under src: bytecode an earlier
run left on one side makes its `setup_s` time loading that, not
compiling the source.  The runs write none (PYTHONDONTWRITEBYTECODE).
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    """(median, q1, q3) of at least two values."""
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return med, q1, q3


def compare(parent: list[float], change: list[float], better: str) -> dict:
    """One metric over paired runs: `parent[k]` and `change[k]` come
    from pair k, and `better` is "lower" or "higher"."""
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p, c = quartiles(parent), quartiles(change)
    return {"parent": p, "change": c, "diff": c[0] / p[0] - 1, "wins": wins,
            "pairs": len(parent),
            "gain": len(parent) >= 10 and 10 * wins >= 9 * len(parent)
            and sign * (c[0] - p[0]) > p[2] - p[1]}


def run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    if p.returncode != 0:
        raise RuntimeError(f"{checkout} seed {seed}: exit {p.returncode}\n{p.stderr}")
    return json.loads(p.stdout.splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--first-seed", type=int, default=1)
    ns = ap.parse_args(argv)
    if ns.pairs < 2:
        ap.error("--pairs must be at least 2")
    sides = {"parent": ns.parent, "change": ns.change}
    for checkout in sides.values():
        caches = sorted((checkout / "src").rglob("__pycache__"))
        if caches:
            print(f"bench_pairs: bytecode cache under src, remove it first: "
                  f"{', '.join(map(str, caches))}", file=sys.stderr)
            return 2
    results: dict[str, list[dict]] = {"parent": [], "change": []}
    for k in range(ns.pairs):
        seed = ns.first_seed + k
        for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
            try:
                results[side].append(run(sides[side], ns.workload, seed, ns.seconds))
            except RuntimeError as e:
                print(f"bench_pairs: {e}", file=sys.stderr)
                return 1
    failed = {s: sum(r["failed"] for r in rs) for s, rs in results.items()}
    attempted = {s: sum(r["attempted"] for r in rs) for s, rs in results.items()}
    print(f"{ns.workload}: {ns.pairs} pairs of {ns.seconds:g} s runs, seeds "
          f"{ns.first_seed}-{ns.first_seed + ns.pairs - 1}; failed ops: parent "
          f"{failed['parent']}/{attempted['parent']}, change "
          f"{failed['change']}/{attempted['change']}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for m in spec["end_to_end"]:
        name = m["name"]
        row = compare(*([r["metrics"][name]["value"] for r in results[s]]
                        for s in ("parent", "change")), m["better"])
        p, c = ("{:.4g} [{:.4g}, {:.4g}]".format(*row[s]) for s in ("parent", "change"))
        print(f"  {name:12s} {p:30s} -> {c:30s} {row['diff']:+7.1%}  "
              f"won {row['wins']}/{row['pairs']}  gain: {'yes' if row['gain'] else 'no'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
