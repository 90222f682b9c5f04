"""gamesem benchmark: one workload, timed end to end or traced layer by layer.

    python3 perfbench/run.py --workload {traces,equiv,oracle} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout; gamesem is imported from its
src/ directory.  A closed loop with one client and no threads: each op
is one user-level request (one CLI invocation, or one pair checked
both ways) and starts when the previous one has ended.  The seed
orders the ops and renames the variables of every generated term.

The ops run in a fresh interpreter (perfbench/worker.py), so set-up
time and peak memory belong to this workload alone.  Set-up is timed
in SETUP_SAMPLES fresh interpreters and reported as their median.
The host's speed drifts, so every time is rescaled by a reference job
timed around it (see REFERENCE_S).
With --trace 0 the run makes round(S / PASS_SECONDS) whole passes
over the pool and reports the end-to-end metrics; with --trace 1 it makes
one untraced and one traced pass and reports the per-layer metrics.

Every metric is printed by name with its unit on stderr; the last line
of stdout is the result as JSON.  The full record (per-op times,
stdout digests, undecided ops, the self-time table, and the Python
version, nproc, PYTHONHASHSEED and seed) is written to
.perfbench/results/.  Exits 1 without a result if a worker fails.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 9
# The host's speed drifts, so times are reported at the speed at which
# the worker's reference job (worker.reference_s) takes REFERENCE_S:
# wall seconds * REFERENCE_S / seconds of the job run around the op.
# REFERENCE_S is about what the job takes on this host when it is
# quiet.  Raw wall times are in the record.
REFERENCE_S = 0.003
DEADLINE_S = 170

# (metric, unit)
END_TO_END = [
    ("setup_s", "s"),
    ("op_s.p50", "s"),
    ("op_s.tail", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]


class WorkerFailed(Exception):
    pass


def worker(args: list[str], deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    try:
        p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                           timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired as e:
        raise WorkerFailed(f"{' '.join(args)}: timed out") from e
    if p.returncode != 0:
        raise WorkerFailed(f"{' '.join(args)}: exit {p.returncode}\n{p.stderr[-2000:]}")
    return json.loads(p.stdout.splitlines()[-1])


def scaled(rec: dict, key: str) -> list[float]:
    """An op's wall times rescaled to the reference host speed."""
    return [s * REFERENCE_S / r for s, r in zip(rec[key], rec[key + "_ref"])]


def tail(samples: list[float]) -> tuple[float, float]:
    """Value at the highest percentile that leaves ten samples above it,
    and that percentile.  With fewer than eleven samples, the maximum."""
    xs = sorted(samples)
    k = len(xs) - 11 if len(xs) >= 11 else len(xs) - 1
    return xs[k], 100.0 * (k + 1) / len(xs)


def summarize_ops(ops: dict) -> tuple[int, list[dict], int, list[dict]]:
    """Attempted ops, failures, undecided ops, and for each undecided
    input the route and count that made it undecided."""
    attempted = undecided_ops = 0
    failures, undecided = [], {}
    for name, rec in ops.items():
        for o in rec["outcomes"]:
            attempted += 1
            if o["failure"]:
                failures.append({"op": name, "why": o["failure"]})
            elif o["undecided"]:
                undecided_ops += 1
                for route, count in o["undecided"]:
                    u = undecided.setdefault((name, route, count), {
                        "op": name, "route": route, "count": count, "times": 0})
                    u["times"] += 1
    return attempted, failures, undecided_ops, list(undecided.values())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)
    deadline = monotonic() + DEADLINE_S

    common = ["--workload", ns.workload, "--seed", str(ns.seed)]
    passes = workloads.passes_for(ns.seconds)
    try:
        setups = [worker(common + ["--setup-only"], deadline)
                  for _ in range(SETUP_SAMPLES - 1)]
        res = worker(common + (["--trace"] if ns.trace else ["--passes", str(passes)]), deadline)
    except WorkerFailed as e:
        print(f"perfbench: worker failed: {e}", file=sys.stderr)
        return 1
    setups.append(res)
    setup_s = [d["setup_s"] * REFERENCE_S / d["setup_ref_s"] for d in setups]

    attempted, failures, undecided_ops, undecided = summarize_ops(res["ops"])
    failed = len(failures)
    ops = res["ops"].values()
    samples = [s for rec in ops for s in scaled(rec, "seconds")]
    tail_s, tail_pct = tail(samples)
    e2e = {
        "setup_s": statistics.median(setup_s),
        "op_s.p50": statistics.median(samples),
        "op_s.tail": tail_s,
        "ops_per_s": len(samples) / sum(samples),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    record = {
        "workload": ns.workload, "seed": ns.seed, "seconds": ns.seconds, "trace": ns.trace,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED", "unset"),
        "reference_s": REFERENCE_S,
        "passes": len(next(iter(ops))["seconds"]),
        "setup_samples": [{k: d[k] for k in ("setup_s", "setup_ref_s")} for d in setups],
        "op_s.tail.percentile": tail_pct, "op_s.samples": len(samples),
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted, "undecided_frac": undecided_ops / attempted,
        "failures": failures, "undecided": undecided,
        "end_to_end": e2e,
        "ops": {name: {k: v for k, v in rec.items() if k != "outcomes"}
                for name, rec in sorted(res["ops"].items())},
    }
    if ns.trace:
        untraced = sum(samples)
        traced = sum(s for rec in ops for s in scaled(rec, "traced_seconds"))
        layer = tracer.layer_metrics(res["trace"], untraced, traced, res["output_bytes"])
        record["per_layer"] = layer
        raw_traced = sum(s for rec in ops for s in rec["traced_seconds"])
        record["self_time_table"] = tracer.self_time_table(res["trace"], raw_traced)
        record["trace_summary"] = res["trace"]
        units = {m: u for m, u, _ in tracer.PER_LAYER}
        metrics = {m: {"value": v, "unit": units[m]} for m, v in layer.items()}
    else:
        units = dict(END_TO_END)
        metrics = {m: {"value": e2e[m], "unit": units[m]} for m, _ in END_TO_END}

    out_dir = ROOT / ".perfbench" / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / f"{ns.workload}-seed{ns.seed}-trace{ns.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    err = sys.stderr
    print(f"perfbench {ns.workload} seed={ns.seed} passes={record['passes']} "
          f"ops={attempted} failed={failed} undecided_frac={record['undecided_frac']:.4f} "
          f"failed_frac={record['failed_frac']:.4f}", file=err)
    for m, v in metrics.items():
        print(f"  {m:45s} {v['value']:14.6g} {v['unit']}", file=err)
    if not ns.trace:
        print(f"  op_s.tail is p{tail_pct:.1f} of {len(samples)} samples", file=err)
    for u in undecided:
        print(f"  undecided: {u['op']} ({u['route']} = {u['count']}, "
              f"{u['times']} times)", file=err)
    for f in failures:
        print(f"  FAILED: {f['op']}: {f['why']}", file=err)
    if ns.trace:
        print("  self time by layer (share of traced op time):", file=err)
        for row in record["self_time_table"]:
            print(f"    {row['layer']:40s} {row['calls']:9d} {row['self_s']:9.3f} s "
                  f"{row['share']:7.1%}", file=err)
    print(f"  record: {out.relative_to(ROOT)}", file=err)

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
