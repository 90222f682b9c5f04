"""Run one workload in this fresh interpreter; print the measurements as JSON.

    python3 perfbench/worker.py --workload traces --seed 1 --passes 3
    python3 perfbench/worker.py --workload traces --seed 1 --setup-only
    python3 perfbench/worker.py --workload traces --seed 1 --trace

Set-up is timed from before `import gamesem` until the workload's
inputs are written.  Every op, and the set-up, is timed together with
a fixed reference job (see reference_s).  With --trace the worker makes
one untraced pass and then the same pass again with spans recorded at
every layer boundary.  gamesem is imported from the src/ directory next
to this one and from nowhere else.
"""
from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import shutil
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import workloads
from tracer import ROOT_SPAN, Tracer
from workloads import Outcome, sha256

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


# The host's speed drifts by up to 2.5x within seconds, and CPU time
# drifts with it, so every op is timed together with a fixed reference
# job run just before and after it.  The job walks the P-views of fixed
# random justified sequences, building tuples and a dict the way the
# engine does; its time follows the host's state much as the engine's
# does (a tight loop over one small dict over-reacts to it).
_rng = random.Random(7)
_MOVES = [p + k for p in ("R.", "L.", "R.L.", "R.R.") for k in "q0123"]
_PROPONENT = frozenset(m for m in _MOVES if m.endswith("q") != (m.count(".") % 2 == 1))
_SEQS = [tuple((_rng.choice(_MOVES), _rng.randrange(-1, i) if i else -1)
               for i in range(_rng.randrange(6, 14)))
         for _ in range(300)]


def reference_s() -> float:
    """Seconds the reference job takes now, on a heap just collected
    and with the collector off."""
    gc.collect()
    gc.disable()
    try:
        t0 = perf_counter()
        seen: dict[tuple, int] = {}
        for seq in _SEQS:
            for i in range(1, len(seq) + 1):
                j, pos = i - 1, []
                while j >= 0:
                    m, p = seq[j]
                    pos.append(j)
                    if m in _PROPONENT:
                        j -= 1
                    elif p < 0:
                        break
                    else:
                        pos.append(p)
                        j = p - 1
                key = tuple(seq[k] for k in reversed(pos))
                seen[key] = seen.get(key, 0) + 1
        return perf_counter() - t0
    finally:
        gc.enable()


def run_pass(order, results: dict, tracer=None) -> None:
    """Run each op once and check it.  Records each op's wall time and
    the mean time of the reference job just before and just after it.

    A CLI op's stdout is checked in full the first time; later passes
    must reproduce it byte for byte."""
    key = "traced_seconds" if tracer else "seconds"
    before = reference_s()
    for op in order:
        t0 = perf_counter()
        try:
            raw = tracer.span(ROOT_SPAN, op.run) if tracer else op.run()
            error = None
        except Exception:
            raw, error = None, traceback.format_exc(limit=3)
        dt = perf_counter() - t0
        after = reference_s()
        rec = results.setdefault(op.name, {"sha256": None})
        rec.setdefault(key, []).append(dt)
        rec.setdefault(key + "_ref", []).append((before + after) / 2)
        before = after
        if error is not None:
            outcome = Outcome(f"raised: {error}")
        elif op.cli:
            rc, stdout = raw
            digest = sha256(stdout)
            rec["bytes"] = len(stdout.encode("utf-8"))
            if rec["sha256"] is None:
                rec["sha256"] = digest
                rec["outcome"] = op.check(raw)
            outcome = rec["outcome"]
            if digest != rec["sha256"]:
                outcome = Outcome("stdout differs between passes of the same input")
        else:
            outcome = op.check(raw)
        rec.setdefault("outcomes", []).append(
            {"failure": outcome.failure, "undecided": outcome.undecided})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--passes", type=int, default=1)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--trace", action="store_true")
    ns = ap.parse_args(argv)

    t0 = perf_counter()
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import gamesem
    if Path(gamesem.__file__).resolve().parent != (src / "gamesem").resolve():
        print(f"gamesem imported from {gamesem.__file__}, not from {src}", file=sys.stderr)
        return 2
    base = ROOT / ".perfbench" / "work"
    base.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{ns.workload}-", dir=base))
    try:
        _, schedule = workloads.generate(ns.workload, ns.seed, 1 if ns.trace else ns.passes, work)
        setup_s = perf_counter() - t0
        doc = {"setup_s": setup_s, "setup_ref_s": sorted(reference_s() for _ in range(5))[2]}
        if not ns.setup_only:
            results: dict = {}
            for order in schedule:
                run_pass(order, results)
            if ns.trace:
                tr = Tracer()
                tr.install()
                run_pass(schedule[0], results, tr)
                doc["trace"] = tr.summary()
                doc["output_bytes"] = sum(r.get("bytes", 0) for r in results.values())
            for rec in results.values():
                rec.pop("outcome", None)
            doc["ops"] = results
            doc["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
