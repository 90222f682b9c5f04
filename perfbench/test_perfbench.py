"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

The hash-seed test runs every workload's traced pass twice, so this
file takes about a minute.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def bench(*args, cwd=ROOT, env=None):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=300)


def test_benchmark_json_lists_the_metrics_run_py_prints():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == tracer.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


def test_same_seed_same_inputs_other_seed_other_names(tmp_path):
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for d, seed in zip(dirs, (1, 1, 2)):
        d.mkdir()
        workloads.generate("equiv", seed, 2, d)
    read = [{p.name: p.read_text() for p in d.iterdir()} for d in dirs]
    assert read[0] == read[1]
    assert read[0].keys() == read[2].keys() and read[0] != read[2]


def test_traces_reference_rejects_a_wrong_sum(tmp_path):
    b = workloads.Bounds(2, 8)
    src = tmp_path / "add.pcf"
    src.write_text("fun a: nat -> fun b: nat -> a + b\n")
    rc, out = workloads.run_cli(["traces", str(src)] + b.cli_args())
    assert workloads.check_traces("add", b, rc, out).failure is None
    doc = json.loads(out)
    for play in doc["plays"]:
        if len(play["moves"]) == 6 and play["moves"][-1]["m"] == "R.R.2":
            play["moves"][-1]["m"] = "R.R.1"
            break
    assert workloads.check_traces("add", b, rc, json.dumps(doc)).failure
    doc["plays"] = [p for p in doc["plays"] if len(p["moves"]) < 6]
    doc["count"] = len(doc["plays"])
    assert "answer pairs" in workloads.check_traces("add", b, rc, json.dumps(doc)).failure


def test_equiv_reference_rejects_a_verdict_against_the_pin():
    e = workloads.EQUIV_POOL[0]
    doc = {"verdict": "EQUIV_AT_BOUNDS", "bounds": e.bounds.to_json(),
           "bound_exceeded_count": 0}
    assert "contradicts" in workloads.check_equiv(e, 0, json.dumps(doc)).failure
    assert "does not match" in workloads.check_equiv(e, 1, json.dumps(doc)).failure
    doc["bound_exceeded_count"] = 3
    out = workloads.check_equiv(e, 0, json.dumps(doc))
    assert out.failure is None and out.undecided == [("obs_equiv.bound_exceeded", 3)]


def test_routes_reference_fails_a_decided_route_and_names_an_undecided_one():
    rep = SimpleNamespace(equal=True, bound_exceeded=(0, 0))
    leq = SimpleNamespace(holds=True, bound_exceeded=0)
    assert workloads.check_routes(True, rep, leq, leq).failure is None
    assert workloads.check_routes(False, rep, leq, leq).failure
    lost = SimpleNamespace(holds=True, bound_exceeded=5)
    out = workloads.check_routes(True, rep, lost, leq)
    assert out.failure is None and out.undecided == [("brute_force_leq.excluded", 5)]


def test_run_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = bench("--workload", "equiv", "--seed", "1", "--seconds", "1", "--trace", "0",
              cwd=tmp_path)
    assert p.returncode != 0
    assert not p.stdout.strip()


def _traced(workload: str, hashseed: int) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed))
    p = bench("--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "1", env=env)
    assert p.returncode == 0, p.stderr
    return json.loads(p.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_layer_counts_do_not_depend_on_the_hash_seed(workload):
    a, b = _traced(workload, 1), _traced(workload, 2)
    assert a["correct"] and b["correct"]
    counted = [m for m, unit, _ in tracer.PER_LAYER
               if unit != "s" and m != "trace.overhead_frac"]
    assert {m: a["metrics"][m]["value"] for m in counted} == \
        {m: b["metrics"][m]["value"] for m in counted}
    compose = a["metrics"]["strategy.respond.compose.calls"]["value"]
    hit_ratio = a["metrics"]["strategy.compose.hit_ratio"]["value"]
    if workload == "traces":
        assert compose == 0
    else:
        assert hit_ratio > 0
