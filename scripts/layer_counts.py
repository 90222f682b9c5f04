"""Print the traced per-layer counts of every benchmark workload.

Runs `perfbench/run.py --workload W --seed 1 --seconds 1 --trace 1`
for each workload and prints one `workload metric value` line per
per-layer metric that is not a time: call counts, yields, hit ratios,
plays explored, tests run.  `trace.overhead_frac` is a ratio of times
and is left out.  The lines are sorted, so the reports of two
checkouts compare with a plain diff; tests/data/layer_counts.txt holds
the expected report.  Run from the repository root:

    python scripts/layer_counts.py
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("traces", "equiv", "oracle")


def main() -> int:
    lines = []
    for w in WORKLOADS:
        p = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", w, "--seed", "1",
             "--seconds", "1", "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True)
        if p.returncode != 0:
            print(f"layer_counts: {w} failed\n{p.stderr}", file=sys.stderr)
            return 1
        metrics = json.loads(p.stdout.splitlines()[-1])["metrics"]
        lines += [f"{w} {m} {v['value']}" for m, v in metrics.items()
                  if v["unit"] != "s" and m != "trace.overhead_frac"]
    print("\n".join(sorted(lines)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
