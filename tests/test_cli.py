import hashlib
import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gamesem import cli, equiv, pcf, plays, strategy
from gamesem.arena import Arena, MoveLabel, arrow, make_nat_arena
from gamesem.bounds import Bounds
from gamesem.equiv import LeqReport
from gamesem.observation import ODetSet
from gamesem.plays import ROOT, Play, is_complete
from gamesem.strategy import StrategyError, TraceResult
from mutations import mutated


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "gamesem.cli", *args],
        capture_output=True, text=True, timeout=120)


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_parse_emits_term_and_type(tmp_path):
    f = write(tmp_path, "t.pcf", "fun x: nat -> x + 1  # comment\n")
    r = run_cli("parse", f)
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert set(doc) == {"term", "type"}
    assert doc["type"] == "nat -> nat"
    assert doc["term"]["node"] == "fun"


def test_parse_error_exits_2_with_position(tmp_path):
    f = write(tmp_path, "bad.pcf", "fun x nat -> x\n")
    r = run_cli("parse", f)
    assert r.returncode == 2
    assert "1:7" in r.stderr


def test_type_error_exits_2(tmp_path):
    f = write(tmp_path, "bad.pcf", "0 1\n")
    r = run_cli("parse", f)
    assert r.returncode == 2


def test_missing_file_exits_2(tmp_path):
    r = run_cli("parse", str(tmp_path / "absent.pcf"))
    assert r.returncode == 2


def test_denote_echoes_bounds(tmp_path):
    f = write(tmp_path, "t.pcf", "succ 0\n")
    r = run_cli("denote", f, "--max-nat", "2")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["bounds"]["max_nat"] == 2
    assert doc["type"] == "nat"
    assert doc["arena"]["initials"] == ["q"]
    assert any(e["response"] is not None for e in doc["views"])


def test_traces_counts_and_filter(tmp_path):
    f = write(tmp_path, "t.pcf", "fun x: nat -> succ x\n")
    full = run_cli("traces", f, "--max-nat", "1", "--max-play-len", "6")
    comp = run_cli("traces", f, "--max-nat", "1", "--max-play-len", "6",
                   "--complete-only")
    assert full.returncode == 0 and comp.returncode == 0
    d_full = json.loads(full.stdout)
    d_comp = json.loads(comp.stdout)
    assert d_full["count"] == len(d_full["plays"])
    assert d_comp["count"] < d_full["count"]
    assert d_full["bound_exceeded"] == 0


def test_complete_only_asks_no_is_complete(tmp_path, monkeypatch, capsys):
    # the filter reads completeness off the walk and keeps what
    # is_complete keeps
    f = write(tmp_path, "t.pcf", "fun x: nat -> fun y: nat -> ifz x then y else 0\n")
    bounds = ["--max-nat", "1", "--max-play-len", "10"]
    assert cli.main(["traces", f, *bounds]) == 0
    full = json.loads(capsys.readouterr().out)
    arena = Arena.from_json(full["arena"])
    want = [p for p in full["plays"] if is_complete(Play.from_json(p, arena))]

    def refuse(s):
        raise AssertionError("is_complete was asked")

    monkeypatch.setattr(plays, "is_complete", refuse)
    assert cli.main(["traces", f, *bounds, "--complete-only"]) == 0
    comp = json.loads(capsys.readouterr().out)
    assert comp["plays"] == want and comp["count"] == len(want) < full["count"]
    assert {k: v for k, v in comp.items() if k not in ("plays", "count")} == \
        {k: v for k, v in full.items() if k not in ("plays", "count")}


def test_obs_output_is_deterministic(tmp_path):
    f = write(tmp_path, "t.pcf", "fun x: nat -> x + x\n")
    r1 = run_cli("obs", f, "--max-nat", "1", "--max-play-len", "8")
    r2 = run_cli("obs", f, "--max-nat", "1", "--max-play-len", "8")
    assert r1.returncode == 0
    assert r1.stdout == r2.stdout
    doc = json.loads(r1.stdout)
    assert doc["arena"]["initials"] == ["R.q"]
    assert doc["sets"]


def test_equiv_equal_exits_0(tmp_path):
    a = write(tmp_path, "a.pcf", "1 + 2\n")
    b = write(tmp_path, "b.pcf", "succ 2\n")
    r = run_cli("equiv", a, b, "--max-nat", "3")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["verdict"] == "EQUIV_AT_BOUNDS"
    assert doc["witness"] is None


def test_equiv_unequal_exits_1_with_witness(tmp_path):
    a = write(tmp_path, "a.pcf", "0\n")
    b = write(tmp_path, "b.pcf", "1\n")
    r = run_cli("equiv", a, b, "--max-nat", "1")
    assert r.returncode == 1
    doc = json.loads(r.stdout)
    assert doc["verdict"] == "INEQUIV"
    assert doc["witness"]["views"]
    assert doc["witness_side"] in ("left", "right")


def test_equiv_arena_mismatch_exits_2(tmp_path):
    a = write(tmp_path, "a.pcf", "0\n")
    b = write(tmp_path, "b.pcf", "fun x: nat -> x\n")
    r = run_cli("equiv", a, b)
    assert r.returncode == 2


def test_equiv_oracle_agreement(tmp_path):
    a = write(tmp_path, "a.pcf", "1 + 2\n")
    b = write(tmp_path, "b.pcf", "succ 2\n")
    r = run_cli("equiv", a, b, "--max-nat", "3", "--oracle")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["oracle"]["agrees"] is True
    assert doc["oracle"]["left_leq_right"]["verdict"] == "HOLDS_AT_BOUNDS"
    assert doc["oracle"]["right_leq_left"]["verdict"] == "HOLDS_AT_BOUNDS"


# f (f 1) against f 1 at max_nat 1: at 10/6 obs_equiv hits bounds and
# the oracle excludes tests; at 14/4 the witness has a 5-move view the
# oracle cannot enumerate; at 12/6 and 16/6 the two routes agree.
@pytest.mark.parametrize("play_len,view_len,explained", [
    ("10", "6", True), ("12", "6", False), ("14", "4", True), ("16", "6", False),
])
def test_equiv_oracle_disagreement_explained_by_bounds(tmp_path, play_len, view_len,
                                                       explained):
    a = write(tmp_path, "a.pcf", "fun f: nat -> nat -> f (f 1)\n")
    b = write(tmp_path, "b.pcf", "fun f: nat -> nat -> f 1\n")
    r = run_cli("equiv", a, b, "--oracle", "--max-nat", "1",
                "--max-play-len", play_len, "--max-view-len", view_len)
    assert r.returncode == 1, r.stderr
    doc = json.loads(r.stdout)
    assert doc["verdict"] == "INEQUIV"
    assert doc["oracle"]["agrees"] is not explained
    assert doc["oracle"].get("bounds_explain") is (True if explained else None)


def test_equiv_oracle_unexplained_disagreement_exits_3(tmp_path, monkeypatch, capsys):
    a = write(tmp_path, "a.pcf", "1 + 2\n")
    b = write(tmp_path, "b.pcf", "succ 2\n")

    def refuted(s1, s2, b):
        return LeqReport(False, b, None, 1, 0)

    monkeypatch.setattr(cli, "brute_force_leq", refuted)
    assert cli.main(["equiv", a, b, "--oracle"]) == 3
    out, err = capsys.readouterr()
    oracle = json.loads(out)["oracle"]
    assert oracle["agrees"] is False and "bounds_explain" not in oracle
    assert err == ("internal error: obs_equiv and the oracle disagree, "
                   "and the bounds do not explain it\n")


def test_equiv_respects_add_pragma(tmp_path):
    a = write(tmp_path, "a.pcf", "fun x: nat -> fun y: nat -> x + y\n")
    b = write(tmp_path, "b.pcf",
              "#pragma add_rl\nfun x: nat -> fun y: nat -> y + x\n")
    r = run_cli("equiv", a, b, "--max-nat", "1", "--max-play-len", "8")
    assert r.returncode == 0


def _set_file(tmp_path, name, max_nat, answer):
    arena = make_nat_arena(max_nat)
    s = ODetSet.make(arena, [(("q", ROOT), (str(answer), 0))])
    p = tmp_path / name
    p.write_text(json.dumps(s.to_json(include_arena=True)))
    return str(p)


def test_run_view_set_as_test(tmp_path):
    f = write(tmp_path, "t.pcf", "succ 0\n")
    good = _set_file(tmp_path, "one.json", 2, 1)
    bad = _set_file(tmp_path, "two.json", 2, 2)
    r = run_cli("test", f, "--set", good, "--max-nat", "2")
    assert r.returncode == 0
    assert json.loads(r.stdout)["verdict"] == "TOP"
    r = run_cli("test", f, "--set", bad, "--max-nat", "2")
    assert r.returncode == 0
    assert json.loads(r.stdout)["verdict"] == "BOT"


def test_view_set_arena_cross_check(tmp_path):
    f = write(tmp_path, "t.pcf", "succ 0\n")
    wrong = _set_file(tmp_path, "w.json", 3, 1)
    r = run_cli("test", f, "--set", wrong, "--max-nat", "2")
    assert r.returncode == 2
    assert "arena" in r.stderr


def test_view_set_with_a_bad_element_exits_2(tmp_path):
    # Two threads in one element: ODetSet.make refuses it as the file is read.
    f = write(tmp_path, "t.pcf", "1\n")
    views = [[], [("q", -1)], [("q", -1), ("1", 0)], [("q", -1), ("1", 0), ("q", -1)]]
    doc = {"arena": make_nat_arena(2).to_json(), "initial": "q",
           "views": [{"moves": [{"m": m, "ptr": p} for m, p in v]} for v in views]}
    s = write(tmp_path, "s.json", json.dumps(doc))
    r = run_cli("test", f, "--set", s, "--max-nat", "2")
    assert r.returncode == 2
    assert r.stderr == (f"error: bad view-set file {s}: not an O-deterministic view-set: "
                        "element has several initial moves: Play[q 1<-0 q]\n")


def test_hand_written_view_set_without_view_arenas(tmp_path):
    # The documented file format: the arena is given once at the top,
    # and each view is {"moves": [{"m": move, "ptr": justifier}]}.
    f = write(tmp_path, "t.pcf", "succ 0\n")
    doc = {
        "arena": make_nat_arena(2).to_json(),
        "initial": "q",
        "views": [
            {"moves": []},
            {"moves": [{"m": "q", "ptr": -1}]},
            {"moves": [{"m": "q", "ptr": -1}, {"m": "1", "ptr": 0}]},
        ],
    }
    s = write(tmp_path, "s.json", json.dumps(doc))
    r = run_cli("test", f, "--set", s, "--max-nat", "2")
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["verdict"] == "TOP"


def test_a_witness_equiv_prints_runs_as_a_test(tmp_path):
    # `equiv` prints the witness without its arena; `test` reads it over
    # the term's arena
    add = write(tmp_path, "add.pcf", "fun x: nat -> fun y: nat -> x + y\n")
    first = write(tmp_path, "first.pcf", "fun x: nat -> fun y: nat -> x\n")
    bounds = ("--max-nat", "2", "--max-play-len", "12")
    r = run_cli("equiv", add, first, *bounds)
    assert r.returncode == 1, r.stderr
    report = json.loads(r.stdout)
    assert report["witness_side"] == "right" and "arena" not in report["witness"]
    witness = write(tmp_path, "witness.json", json.dumps(report["witness"]))
    for term, verdict in ((first, "TOP"), (add, "BOT")):
        r = run_cli("test", term, "--set", witness, *bounds)
        assert r.returncode == 0, r.stderr
        assert json.loads(r.stdout)["verdict"] == verdict


@pytest.mark.parametrize("ptr", ["1e400", "1.5", "true", '"1"'])
def test_view_set_pointer_that_is_no_json_integer_exits_2(tmp_path, ptr):
    # Read as int(), each of these pointers would be 1, the right one.
    f = write(tmp_path, "t.pcf", "fun x: nat -> x\n")
    n = make_nat_arena(1)
    views = [[], [("R.q", -1)], [("R.q", -1), ("L.q", 0)],
             [("R.q", -1), ("L.q", 0), ("L.1", "PTR")]]
    doc = json.dumps({
        "arena": arrow(n, n).to_json(),
        "initial": "R.q",
        "views": [{"moves": [{"m": m, "ptr": p} for m, p in v]} for v in views],
    })
    s = write(tmp_path, "s.json", doc.replace('"PTR"', ptr))
    r = run_cli("test", f, "--set", s, "--max-nat", "1")
    assert r.returncode == 2
    assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1
    assert "views[3].moves[2].ptr: expected an integer, got " in r.stderr


@pytest.mark.parametrize("text", ["\u00b2", "9" * 5000], ids=["superscript", "5000-digits"])
def test_numeral_int_cannot_read_exits_2(tmp_path, text):
    f = tmp_path / "n.pcf"
    f.write_text(text + "\n", encoding="utf-8")
    r = run_cli("parse", str(f))
    assert r.returncode == 2
    assert r.stderr.startswith(f"error: {f}: 1:1: ") and r.stderr.count("\n") == 1


def test_bad_view_set_file_exits_2(tmp_path):
    f = write(tmp_path, "t.pcf", "0\n")
    g = write(tmp_path, "g.json", "{not json")
    r = run_cli("test", f, "--set", g)
    assert r.returncode == 2


def test_a_view_set_file_nested_too_deeply_exits_2(tmp_path):
    # json.loads runs out of recursion depth: bad input, not a resource limit
    f = write(tmp_path, "id.pcf", "fun x: nat -> x\n")
    deep = write(tmp_path, "deep.json", "[" * 100_000 + "]" * 100_000)
    r = run_cli("test", f, "--set", deep)
    assert r.returncode == 2
    assert r.stderr.startswith(f"error: bad view-set file {deep}: maximum recursion depth")
    assert r.stderr.count("\n") == 1


# The view-set door, `ODetSet.from_json` -> `make` -> the constructor,
# fuzzed through `gamesem test` on the identity at nat 1: documents
# built around a valid set by deleting keys, moves or views (missing
# keys, odd-length views) and by putting values of the wrong type, bad
# or huge pointers, NaN, odd move names and foreign arenas in place of
# any part, the whole document included.  Each must give a verdict, or
# exit 2 with one stderr line.
# The set is written out as the document `ODetSet.to_json` makes of it,
# which `test_the_fuzzed_view_set_is_what_the_engine_writes` checks, so
# no engine rule runs at import.
_ID_ARENA = arrow(make_nat_arena(1), make_nat_arena(1))
_ID_CALLS = (("R.q", ROOT), ("L.q", 0), ("L.1", 1))
_ID_ANSWERS = (("R.q", ROOT), ("R.1", 0))
_ID_SET = {"initial": "R.q",
           "views": [Play(_ID_ARENA, v).to_json()
                     for v in ((), _ID_CALLS[:1], _ID_CALLS[:2], _ID_ANSWERS, _ID_CALLS)],
           "arena": _ID_ARENA.to_json()}
_JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 6), st.integers(),
    st.sampled_from([2 ** 63, -(2 ** 63), 10 ** 30]),
    st.floats(), st.text(max_size=4),
    st.sampled_from(["R.q", "R.0", "L.q", "L.1", "q", "a\nb", [], {}, [[]], {"moves": []},
                     {"m": "L.q", "ptr": 0}, make_nat_arena(1).to_json(),
                     make_nat_arena(2).to_json(), arrow(make_nat_arena(2),
                                                        make_nat_arena(2)).to_json()]))


def test_the_fuzzed_view_set_is_what_the_engine_writes():
    made = ODetSet.make(_ID_ARENA, [_ID_CALLS, _ID_ANSWERS])
    # key order included: the fuzzer walks the document's parts in it
    assert list(made.to_json(include_arena=True).items()) == list(_ID_SET.items())


@st.composite
def _view_set_texts(draw):
    # the views' parts three times as likely as the arena's
    return json.dumps(mutated(draw, _ID_SET, _JUNK, lambda p: p[:1] == ("views",)))


@pytest.fixture(scope="module")
def door(tmp_path_factory):
    d = tmp_path_factory.mktemp("door")
    return write(d, "id.pcf", "fun x: nat -> x\n"), str(d / "set.json")


# What the door says of a document it refuses: the part at fault, by its
# path, and what was expected there; or why the arena or the views are
# wrong; never a bare Python exception text.
_DOOR_SAYS = re.compile(
    r"(document|arena|views)[\w.\[\]]*: expected .+, got .+"
    r"|not an O-deterministic view-set: .+"
    r"|duplicate move ids|initial move .+|enabling pair .+|answers enable nothing, .+"
    r"|non-initial move .+ has no enabler|maximum recursion depth exceeded .+"
    r"|view-set arena does not match the term's arena")


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_view_set_texts())
@example(json.dumps(_ID_SET))
@example("[" * 100_000 + "]" * 100_000)
@example(json.dumps({**_ID_SET, "views": [{"moves": [{"m": "a\nb", "ptr": -1}]}]}))
def test_view_set_door_gives_a_verdict_or_exits_2(door, text):
    term, path = door
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["test", term, "--set", path, "--max-nat", "1"])
    if code == 0:
        assert json.loads(out.getvalue())["verdict"] in {"TOP", "BOT", "BOUND_EXCEEDED"}
        assert err.getvalue() == ""
    else:
        assert code == 2 and out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        said = err.getvalue()[len("error: "):-1].removeprefix(f"bad view-set file {path}: ")
        assert _DOOR_SAYS.fullmatch(said), said


_DISAGREE = ("internal error: obs_equiv and the oracle disagree, and the bounds "
             "do not explain it\n")


def _exits_by_the_contract(argv) -> int:
    """Run `cli.main(argv)` in-process and check the exit-code
    contract: 0 or 1 only with one JSON document on stdout and nothing
    on stderr, 1 only for an INEQUIV verdict; 2 or 3 only with nothing
    on stdout and exactly one stderr line.  The one other case is an
    `--oracle` run whose two decision methods disagree: exit 3 with the
    report, which says so, on stdout and the documented line on stderr.
    An exception escaping `main` is the traceback a process would
    print."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    if code == 3 and "--oracle" in argv and err.getvalue() == _DISAGREE:
        doc = json.loads(out.getvalue())
        assert isinstance(doc, dict) and doc["oracle"]["agrees"] is False, argv
    elif code in (0, 1):
        doc = json.loads(out.getvalue())
        assert isinstance(doc, dict) and err.getvalue() == "", argv
        assert code == (argv[0] == "equiv" and doc["verdict"] == "INEQUIV"), argv
    else:
        assert code in (2, 3) and out.getvalue() == "", argv
        said = err.getvalue()
        assert said.count("\n") == 1 and said.endswith("\n"), (argv, said)
        assert said.startswith(("error: ", "internal error: ", "resource limit: ")), said
    return code


_FUZZ_SUBCOMMANDS = ("parse", "denote", "traces", "obs", "equiv")
_FUZZ_BINDERS = (["fun", "f", ":", "nat", "->", "nat", "->"], ["fun", "x", ":", "nat", "->"],
                 ["fun", "y", ":", "nat", "->"])


def _fuzz_term(leaves):
    """Token lists of nat terms of the surface grammar over x, y : nat
    and f : nat -> nat, bound or free."""
    def grow(t):
        return st.one_of(
            st.tuples(st.sampled_from(["succ", "pred"]), t).map(lambda p: [p[0], *p[1]]),
            st.tuples(t, t).map(lambda p: [*p[0], "+", *p[1]]),
            st.tuples(t, t, t).map(lambda p: ["ifz", *p[0], "then", *p[1], "else", *p[2]]),
            t.map(lambda p: ["f", "(", *p, ")"]),
            st.tuples(t, t).map(lambda p: ["(", *_FUZZ_BINDERS[1], *p[0], ")", "(", *p[1], ")"]),
            t.map(lambda p: ["fix", "(", *_FUZZ_BINDERS[2], *p, ")"]))

    return st.recursive(st.sampled_from([["0"], ["1"], ["3"], ["x"], ["y"]]), grow,
                        max_leaves=leaves)


# Tokens a mutation puts in: the grammar's own and some it has no place for.
_FUZZ_TOKENS = ["(", ")", "->", ":", "+", "fun", "fix", "ifz", "then", "else", "nat", "succ",
                "x", "f", "0", "2", "9" * 40, "\u00fc", "#", "#pragma add_rl\n", "\n", "$", "-"]


@st.composite
def _fuzz_program(draw) -> str:
    binders = draw(st.lists(st.sampled_from(_FUZZ_BINDERS), max_size=3, unique_by=tuple))
    toks = [t for b in binders for t in b] + draw(_fuzz_term(5))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(toks)))
        kind = draw(st.sampled_from(["delete", "insert", "replace", "swap"]))
        if kind == "insert" or not toks:
            toks.insert(i, draw(st.sampled_from(_FUZZ_TOKENS)))
        elif kind == "swap" and i + 1 < len(toks):
            toks[i], toks[i + 1] = toks[i + 1], toks[i]
        elif kind == "replace":
            toks[min(i, len(toks) - 1)] = draw(st.sampled_from(_FUZZ_TOKENS))
        else:
            del toks[min(i, len(toks) - 1)]
    return " ".join(toks) + "\n"


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.sampled_from((*_FUZZ_SUBCOMMANDS, "equiv --oracle")), _fuzz_program(),
       _fuzz_program())
@example("equiv", "fun x: nat -> x + 1\n", "fun y: nat -> succ y\n")
@example("traces", "fix (fun f: nat -> nat -> fun x: nat -> ifz x then 0 else f (pred x))\n",
         "0\n")
@example("obs", "fun f: nat -> nat -> f (f 1)\n", "0\n")
@example("equiv --oracle", "fun x: nat -> x\n", "fun x: nat -> ifz x then 0 else x\n")
def test_the_cli_keeps_its_exit_contract_on_mutated_programs(fuzz_dir, cmd, left, right):
    # small bounds, so every program that typechecks runs in milliseconds
    files = [write(fuzz_dir, f"{side}.pcf", text) for side, text in (("l", left), ("r", right))]
    cmd, *opts = cmd.split()
    argv = [cmd, *files[:2 if cmd == "equiv" else 1], *opts]
    if cmd != "parse":
        argv += ["--max-nat", "1", "--max-play-len", "6", "--max-view-len", "4",
                 "--fix-depth", "2"]
    _exits_by_the_contract(argv)


_FUZZ_FLAGS = {"--max-nat": Bounds.max_nat, "--max-play-len": Bounds.max_play_len,
               "--max-view-len": Bounds.max_view_len, "--fix-depth": Bounds.fix_depth}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(_FUZZ_SUBCOMMANDS[1:]),
       st.sampled_from(["fun x: nat -> succ x\n", "fun f: nat -> nat -> f 1\n",
                        "fix (fun x: nat -> x)\n", "1 + 2\n"]),
       st.one_of(st.fixed_dictionaries({}, optional={
                     flag: st.sampled_from([1, default + 1]) for flag, default in _FUZZ_FLAGS.items()}),
                 st.fixed_dictionaries({flag: st.sampled_from([0, -1, -(10 ** 30), 1, default + 1])
                                        for flag, default in _FUZZ_FLAGS.items()})))
def test_the_cli_keeps_its_exit_contract_at_the_edges_of_its_bounds(fuzz_dir, cmd, text, flags):
    # each bound at 0, below it, at the least it takes and just above
    # its default; never a bound large enough to run long
    f = write(fuzz_dir, "bounds.pcf", text)
    argv = [cmd, f, *([f] if cmd == "equiv" else [])]
    for flag, value in flags.items():
        argv += [flag, str(value)]
    code = _exits_by_the_contract(argv)
    assert (code == 2) == any(v < 1 for v in flags.values())


def test_non_utf8_input_exits_2(tmp_path):
    ok = write(tmp_path, "ok.pcf", "0\n")
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\xff\xfe0\n")
    for args in (("parse", str(bad)), ("test", ok, "--set", str(bad))):
        r = run_cli(*args)
        assert r.returncode == 2
        assert r.stderr == (f"error: cannot read {bad}: "
                            "not UTF-8 text (invalid start byte at byte 0)\n")


@pytest.mark.parametrize("args,inputs", [
    (["denote", "one"], ["one"]),
    (["equiv", "one", "two"], ["one", "two"]),
    (["test", "one", "--set", "set"], ["one"]),
])
def test_each_input_is_typechecked_once(tmp_path, monkeypatch, capsys, args, inputs):
    sources = {"one": "succ 0\n", "two": "1 + 0\n"}
    paths = {name: write(tmp_path, name + ".pcf", text) for name, text in sources.items()}
    paths["set"] = _set_file(tmp_path, "set.json", 1, 1)
    roots = {name: pcf.parse(text) for name, text in sources.items()}
    checked = []
    typecheck = pcf.typecheck

    def spy(t, ctx=()):
        checked.extend(name for name, root in roots.items() if t == root)
        return typecheck(t, ctx)

    monkeypatch.setattr(pcf, "typecheck", spy)
    monkeypatch.setattr(cli, "typecheck", spy)
    assert cli.main([paths.get(a, a) for a in args] + ["--max-nat", "1"]) == 0
    capsys.readouterr()
    assert checked == inputs


def test_laws_exit_0():
    r = run_cli("laws", "--max-nat", "2")
    assert r.returncode == 0
    assert json.loads(r.stdout)["verdict"] == "ALL_LAWS_HOLD"


def test_a_failing_law_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(equiv, "_interaction_bounds", lambda b: b)
    assert cli.main(["laws", "--max-nat", "2", "--max-play-len", "4"]) == 1
    assert json.loads(capsys.readouterr().out)["verdict"] == "LAW_FAILURE"


def test_engine_failure_exits_3(tmp_path, monkeypatch):
    f = write(tmp_path, "t.pcf", "0\n")

    def boom(path, b):
        raise StrategyError("wired through")

    monkeypatch.setattr(cli, "_denote_file", boom)
    assert cli.main(["denote", str(f)]) == 3


@pytest.mark.parametrize("flag,value,field", [
    ("--max-nat", "0", "max_nat"),
    ("--max-play-len", "-1", "max_play_len"),
])
def test_bad_bounds_exit_2(tmp_path, flag, value, field):
    f = write(tmp_path, "t.pcf", "fun x: nat -> x\n")
    r = run_cli("traces", f, flag, value)
    assert r.returncode == 2
    assert r.stderr == f"error: {field} must be positive, got {value}\n"


# terms that nest pcf.MAX_NESTING deep, the most the parser accepts,
# and a sum deep enough to run out below it
_DEEP_TERMS = {
    "succ": "succ " * (pcf.MAX_NESTING - 1) + "0\n",
    "pred": "pred " * (pcf.MAX_NESTING - 1) + "1\n",
    "lambdas": "".join(f"fun x{i}: nat -> " for i in range(pcf.MAX_NESTING - 1)) + "x0\n",
    "sum": " + ".join(["1"] * 200) + "\n",
}


def test_resource_limit_exits_3(tmp_path):
    # the term parses; asking its strategy goes down the sum's pairings
    # at five frames per level (a pairing's `_answer` and `play_fn`,
    # then `respond`, `_answer` and `play_fn` of the composite below;
    # ROADMAP item 2(b)), so 200 terms run out
    f = write(tmp_path, "deep.pcf", _DEEP_TERMS["sum"])
    r = run_cli("obs", f)
    assert r.returncode == 3
    assert "Traceback" not in r.stderr
    assert r.stderr == "resource limit: maximum recursion depth exceeded\n"


@pytest.mark.parametrize("source", [" + ".join(["1"] * 190) + "\n",
                                    "ifz " * 190 + "0" + " then 0 else 0" * 190 + "\n"],
                         ids=["sum", "ifz"])
def test_a_sum_or_an_ifz_chain_190_levels_deep_is_observed(tmp_path, source):
    # a sum or an `ifz` level is asked in five frames, so 190 levels
    # fit within the default recursion limit
    f = write(tmp_path, "deep.pcf", source)
    r = run_cli("obs", f, "--max-nat", "1", "--max-play-len", "4")
    assert r.returncode == 0, r.stderr


def test_parse_prints_the_type_of_the_longest_lambda_chain(tmp_path):
    # the type's arrows are printed along its result spine in a loop,
    # not one frame per arrow
    f = write(tmp_path, "deep.pcf", _DEEP_TERMS["lambdas"])
    r = run_cli("parse", f)
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["type"] == "nat -> " * (pcf.MAX_NESTING - 1) + "nat"


def test_a_deep_lambda_chain_asks_its_variable_across_one_table(tmp_path):
    # 250 renamings over one mirror: they fuse into one route when the
    # nodes are built, so asking the top node does not recurse per lambda
    n = 250
    f = write(tmp_path, "lams.pcf", "".join(f"fun x{i}: nat -> " for i in range(n)) + "x0\n")
    r = run_cli("denote", f, "--max-nat", "1")
    assert r.returncode == 0, r.stderr
    views = json.loads(r.stdout)["views"]
    result = "R." * n
    assert sorted((v["view"]["moves"][-1]["m"], v["response"]["m"]) for v in views) == [
        ("L.0", result + "0"), ("L.1", result + "1"), (result + "q", "L.q")]


@pytest.mark.parametrize("source", ["succ " * 3000 + "0\n",
                                    "(" * 300 + "0" + ")" * 300 + "\n"],
                         ids=["succ", "parentheses"])
def test_deep_nesting_is_a_parse_error_exits_2(tmp_path, source):
    # the column is that of the token the parser had reached
    f = write(tmp_path, "deep.pcf", source)
    r = run_cli("parse", f)
    assert r.returncode == 2
    assert re.fullmatch(rf"error: {re.escape(f)}: 1:\d+: term nested too deeply\n", r.stderr)


@pytest.mark.parametrize("n", [500, 900])
def test_a_term_past_the_nesting_limit_exits_2_with_no_output(tmp_path, n):
    # deep enough to run the JSON writer out of recursion, not the parser
    f = write(tmp_path, "deep.pcf", "succ " * n + "0\n")
    r = run_cli("parse", f)
    assert r.returncode == 2 and r.stdout == ""
    col = 5 * pcf.MAX_NESTING + 1
    assert r.stderr == f"error: {f}: 1:{col}: term nested too deeply\n"


@pytest.mark.parametrize("shape", [
    "succ", "pred", "lambdas",
    pytest.param("sum", marks=pytest.mark.xfail(strict=True, reason=(
        "a sum is asked down its pairings at five frames per level, through "
        "`respond`, so 200 terms exit 3 with a recursion limit (ROADMAP items 10 "
        "and 2(b))"))),
])
def test_a_term_the_parser_accepts_is_observed_or_refused_as_bad_input(tmp_path, shape):
    # every term here is within pcf.MAX_NESTING; the engine must
    # observe it or refuse it as bad input, not run out of stack.  The
    # denotation recurses one frame per subterm, and a composite is
    # asked in two, its `_answer` and its `play_fn`.
    f = write(tmp_path, "deep.pcf", _DEEP_TERMS[shape])
    assert pcf.parse(_DEEP_TERMS[shape])
    r = run_cli("obs", f, "--max-nat", "1", "--max-play-len", "4")
    assert r.returncode in (0, 2), r.stderr


def test_a_term_at_the_nesting_limit_is_written_from_deep_in_the_caller(tmp_path, capsys):
    # the writer recurses one frame per level, so an in-process caller
    # 300 frames down still has room to write a term one level short of
    # the limit
    f = write(tmp_path, "deep.pcf", "succ " * (pcf.MAX_NESTING - 2) + "0\n")

    def nested(k):
        return nested(k - 1) if k else (cli.main(["parse", f]), capsys.readouterr())

    shallow = nested(0)
    assert shallow[0] == 0 and shallow[1].err == ""
    assert nested(300) == shallow


@pytest.mark.parametrize("cmd, text, read", [
    ("obs", "fun f: nat -> nat -> f (f (f 1))\n", 100),   # about 700 kB
    ("parse", "fun x: nat -> x\n", 0),   # still buffered when the write fails
], ids=["obs", "parse"])
def test_a_closed_stdout_exits_3_with_one_line(tmp_path, cmd, text, read):
    # the reader takes `read` bytes and closes the pipe; stdout is
    # block-buffered, as it is on a pipe unless PYTHONUNBUFFERED is set
    f = write(tmp_path, "t.pcf", text)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen([sys.executable, "-m", "gamesem.cli", cmd, f,
                             "--max-nat", "3", "--max-play-len", "20"], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert len(proc.stdout.read(read)) == read
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 3
    assert err == "output closed: stdout's reader exited before the output was written\n"


def test_out_of_memory_exits_3(tmp_path, monkeypatch, capsys):
    once = write(tmp_path, "once.pcf", "fun f: nat -> nat -> f 1\n")
    twice = write(tmp_path, "twice.pcf", "fun f: nat -> nat -> f (f 1)\n")

    def exhausted(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(equiv, "_play_against", exhausted)
    assert cli.main(["equiv", once, twice, "--oracle"]) == 3
    assert capsys.readouterr().err == "resource limit: out of memory\n"


def test_oracle_decides_once_against_twice_at_the_defaults(tmp_path):
    # 3,748,194 candidate tests; the search evaluates 11 leaves each way.
    once = write(tmp_path, "once.pcf", "fun f: nat -> nat -> f 1\n")
    twice = write(tmp_path, "twice.pcf", "fun f: nat -> nat -> f (f 1)\n")
    r = run_cli("equiv", once, twice, "--oracle")
    assert r.returncode == 0, r.stderr
    oracle = json.loads(r.stdout)["oracle"]
    assert oracle["agrees"] is True
    assert oracle["left_leq_right"]["tested"] == oracle["right_leq_left"]["tested"] == 11


# A second-order argument used twice, against itself: 398 leaves each
# way at play_len 16, whatever the view cap.
SECOND_ORDER = "fun g: (nat -> nat) -> nat -> g (fun x: nat -> g (fun y: nat -> x))\n"


def test_oracle_test_budget_exits_3(tmp_path, monkeypatch, capsys):
    f = write(tmp_path, "g.pcf", SECOND_ORDER)
    monkeypatch.setattr(equiv, "TEST_BUDGET", 50)
    assert cli.main(["equiv", f, f, "--oracle", "--max-play-len", "16",
                     "--max-view-len", "10"]) == 3
    assert capsys.readouterr().err == ("resource limit: oracle incomplete at bounds "
                                       "after 50 tests\n")


def test_oracle_budget_with_a_huge_candidate_count_exits_3(tmp_path, monkeypatch, capsys):
    # At view_len 16 the candidate sets run to thousands of digits; the
    # message counts leaves only.
    f = write(tmp_path, "g.pcf", SECOND_ORDER)
    monkeypatch.setattr(equiv, "TEST_BUDGET", 50)
    assert cli.main(["equiv", f, f, "--oracle", "--max-play-len", "16",
                     "--max-view-len", "16"]) == 3
    assert capsys.readouterr().err == ("resource limit: oracle incomplete at bounds "
                                       "after 50 tests\n")


def test_exploration_play_budget_exits_3(tmp_path, monkeypatch, capsys):
    # Against every Opponent f (f (f 1)) has millions of plays at these
    # bounds; the budget stops the walk first.
    thrice = write(tmp_path, "thrice.pcf", "fun f: nat -> nat -> f (f (f 1))\n")
    monkeypatch.setattr(strategy, "EXPLORE_BUDGET", 1000)
    assert cli.main(["traces", thrice, "--max-nat", "2", "--max-play-len", "30"]) == 3
    assert capsys.readouterr().err == ("resource limit: exploration incomplete at "
                                       "bounds after 1000 plays\n")


GOLDEN_TERMS = {
    "hof.pcf": "fun f: nat -> nat -> f (f 1)\n",
    "once.pcf": "fun f: nat -> nat -> f 1\n",
    "add.pcf": "fun x: nat -> fun y: nat -> x + y\n",
    "add_flip.pcf": "fun x: nat -> fun y: nat -> y + x\n",
    "rec_zero.pcf": "fix (fun f: nat -> nat -> fun x: nat -> "
                    "ifz x then 0 else f (pred x))\n",
    "strict_zero.pcf": "fun x: nat -> ifz x then 0 else 0\n",
    "sum3.pcf": "fun x: nat -> fun y: nat -> fun z: nat -> z + x\n",
    "thrice.pcf": "fun f: nat -> nat -> f (f (f 1))\n",
}

# sha256 of stdout.  These pin the canonical JSON byte for byte,
# including `denote`'s tabulated view function; a digest changes only
# when the output is meant to change.  The `equiv --oracle` digests pin
# the oracle's `tested` leaf counts too.
NAT2_B = ("--max-nat", "2", "--max-play-len", "10")
REC_B = ("--max-nat", "1", "--fix-depth", "2")
GOLDEN = [
    (("denote", "hof.pcf", *NAT2_B), 0,
     "5be7a6b8447fe463c8481c9a1c18559d3a68fec06dc82cb85c305b9276a42285"),
    (("traces", "hof.pcf", *NAT2_B), 0,
     "d4eb43256874e069f306c3e3e24cc415b3952f85cd8cdcac541b2db65eb6564f"),
    (("obs", "hof.pcf", *NAT2_B), 0,
     "cb9a40babd5ad40384473c42ac6d2afefb83ebe1cc8a474b105ce9b6050fc027"),
    (("denote", "add.pcf", *NAT2_B), 0,
     "cb7fcbefd0623b1028c0beb9edfcdda4aa92bf29a416f509bfd6dc7d7dadc1eb"),
    (("traces", "add.pcf", *NAT2_B), 0,
     "7c94a030aa3eaee5b26fd6d9d46d549ce68c195a92c83424bad58a08ec8adcad"),
    (("obs", "add.pcf", *NAT2_B), 0,
     "85f9758f98b348ad4d917aeba7a20989331d4d09092d5c25d91577c12943a9f8"),
    (("denote", "rec_zero.pcf", *REC_B, "--max-play-len", "14"), 0,
     "6971b1ab2641ffb255a8a4c2df277b0d7c423d15d36a548e674be48d679b614e"),
    (("traces", "rec_zero.pcf", *REC_B, "--max-play-len", "12"), 0,
     "a040d150f80b07ec2d544ef16fdca4d779528f4ff42cec79f32f81f950502427"),
    (("traces", "sum3.pcf", "--complete-only", *NAT2_B), 0,
     "8a3639983c1ee7ff6771beebb6a94e4e690ec16caa916546e0b290202128b70e"),
    (("obs", "rec_zero.pcf", *REC_B, "--max-play-len", "24"), 0,
     "9c2c75341b1b9dd75da45bd5ea0ae9c597af29fe19f17f81be48bda2855184e7"),
    # thrice at the bounds of the twice/thrice pairs of the benchmark's `equiv` pool
    (("obs", "thrice.pcf", "--max-nat", "3", "--max-play-len", "20"), 0,
     "d3801d193297883abb70f2256e612ce3b662f5d1633f474a488680ceca9fb244"),
    (("equiv", "add.pcf", "add_flip.pcf", "--oracle", "--max-nat", "1",
      "--max-play-len", "8", "--max-view-len", "4"), 0,
     "764c56780a239c1590d7fff1c9d132c5d74aa9d43de504bd84e69ac468b3eb65"),
    (("equiv", "rec_zero.pcf", "strict_zero.pcf", "--oracle", *REC_B,
      "--max-play-len", "24", "--max-view-len", "4"), 0,
     "df7cf747f7e98ff55b84a85c48a96bca5564dfc77103b8fa12ca17849cc9f544"),
    (("equiv", "hof.pcf", "once.pcf", "--oracle", "--max-nat", "1",
      "--max-play-len", "16", "--max-view-len", "6"), 1,
     "87251458e3b94851471784a6e991c8eb8d41a098229039f2ba388a8338515afe"),
]


@pytest.mark.parametrize("args,code,digest", GOLDEN,
                         ids=[" ".join(a[:3]) for a, _, _ in GOLDEN])
def test_golden_stdout(tmp_path, args, code, digest):
    for name, text in GOLDEN_TERMS.items():
        write(tmp_path, name, text)
    argv = [str(tmp_path / a) if a in GOLDEN_TERMS else a for a in args]
    r = run_cli(*argv)
    assert r.returncode == code, r.stderr
    assert hashlib.sha256(r.stdout.encode()).hexdigest() == digest


# Every subcommand writes canonical JSON: what the stdlib writes for the
# parsed document with the same indent and key order.  This covers the
# subcommands and flags that no digest above pins.
ROUND_TRIP = [
    pytest.param(("parse", "hof.pcf"), id="parse"),
    pytest.param(("denote", "add.pcf", "--max-nat", "1"), id="denote"),
    pytest.param(("traces", "add.pcf", "--max-nat", "1"), id="traces"),
    pytest.param(("traces", "add.pcf", "--max-nat", "1", "--complete-only"),
                 id="traces --complete-only"),
    pytest.param(("obs", "hof.pcf", "--max-nat", "1"), id="obs"),
    pytest.param(("equiv", "add.pcf", "add_flip.pcf", "--max-nat", "1"), id="equiv"),
    pytest.param(("equiv", "add.pcf", "add_flip.pcf", "--oracle", "--max-nat", "1",
                  "--max-view-len", "4"), id="equiv --oracle"),
    pytest.param(("test", "one.pcf", "--set", "one.json", "--max-nat", "2"), id="test --set"),
    pytest.param(("laws", "--max-nat", "1"), id="laws"),
]


def _argv(tmp_path, args):
    for name, text in {**GOLDEN_TERMS, "one.pcf": "succ 0\n"}.items():
        write(tmp_path, name, text)
    _set_file(tmp_path, "one.json", 2, 1)
    return [str(tmp_path / a) if a.endswith((".pcf", ".json")) else a for a in args]


@pytest.mark.parametrize("args", ROUND_TRIP)
def test_stdout_is_canonical_json(tmp_path, capsys, args):
    assert cli.main(_argv(tmp_path, args)) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


# The CLI's encoder against the stdlib's.  Text with quotes,
# backslashes, control, non-ASCII and lone surrogate characters;
# negative and large ints; bools beside the ints they equal; empty
# containers at any depth.  Leaf dicts come from a pool of three, so one
# recurs at one depth or at several, and {"a": 1} meets {"a": True}.
# A TraceResult must be written as the list of its plays' `to_json()`:
# its arena is named with a quote, a backslash, a non-ASCII character or
# a lone surrogate, its moves come from a pool of three, so they recur
# within a play, across plays and across depths, it holds the empty
# play among others or no play at all, and it is drawn alone, at
# several depths at once and beside its own plain form.
_TEXT = st.one_of(
    st.sampled_from(["a", "m", "ptr", '"', "\\", "\x00", "\x1f", "\x7f", "\u00e9",
                     "\u2028", "\ud800", "\U0001f600"]),
    st.text(max_size=6))
_ARENAS = [Arena((("q", MoveLabel.OQ), ("0", MoveLabel.PA), ('"1"', MoveLabel.PA)),
                 (("q", "0"), ("q", '"1"')), frozenset({"q"}), name=name)
           for name in ("nat", 'say "q"', "C:\\nat", "caf\u00e9", "\ud800")]


@st.composite
def _results(draw):
    arena = draw(st.sampled_from(_ARENAS))
    ids = [m for m, _ in arena.labels]
    plays = [tuple((draw(st.sampled_from(ids)), draw(st.integers(ROOT, i - 1)))
                   for i in range(draw(st.integers(0, 5))))
             for _ in range(draw(st.integers(0, 4)))]
    return TraceResult(arena, tuple(plays), draw(st.integers(0, 2)))


_LEAVES = st.one_of(_TEXT, st.integers(-2, 2), st.integers(),
                    st.sampled_from([-(2 ** 64), 2 ** 100]), st.booleans(), st.none(),
                    st.sampled_from([{"a": 1}, {"a": True}, {"a": "1", "m": 0}]),
                    _results(), _results().map(lambda r: [r, [r, [r]], {"p": r}]),
                    _results().map(lambda r: [r, _plain(r)]))
_DOCS = st.recursive(
    _LEAVES,
    lambda c: st.lists(c, max_size=4) | st.dictionaries(_TEXT, c, max_size=4),
    max_leaves=40)


def canonical(doc) -> str:
    return cli._encode(doc, 0, {})


def _plain(o):
    """`o` with every TraceResult replaced by the list of its plays'
    `Play.to_json()`."""
    if isinstance(o, TraceResult):
        return [Play(o.arena, moves).to_json() for moves in o.plays]
    if isinstance(o, dict):
        return {k: _plain(v) for k, v in o.items()}
    if isinstance(o, (list, tuple)):
        return [_plain(v) for v in o]
    return o


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_DOCS)
def test_encoder_matches_json_dumps(doc):
    assert canonical(doc) == json.dumps(_plain(doc), indent=2, sort_keys=True)
    assert emitted(doc) == canonical(doc) + "\n"
    # streamed down any number of levels, the pieces are the same text
    for levels in range(4):
        assert "".join(cli._pieces(doc, 0, {}, levels)) == canonical(doc)


def test_encoder_keeps_bools_and_depths_apart():
    leaf = {"m": "R.q", "ptr": -1}
    for doc in ([{"a": 1}, {"a": True}, {"a": 1}],
                {"x": leaf, "y": [leaf, [leaf]]},
                (1, [()], {"t": ((),)})):
        assert canonical(doc) == json.dumps(doc, indent=2, sort_keys=True)


@pytest.mark.parametrize("doc", [1.5, {1: "a"}, {"a": [float("nan")]}, {"a"}, b"a"],
                         ids=["float", "int key", "nested float", "set", "bytes"])
def test_encoder_rejects_what_it_does_not_write(doc):
    with pytest.raises(TypeError):
        canonical(doc)


def emitted(doc) -> str:
    """What `_emit` writes for doc."""
    out = io.StringIO()
    with redirect_stdout(out):
        cli._emit(doc)
    return out.getvalue()


def test_emit_streams_what_json_dumps_writes(tmp_path, monkeypatch):
    # `_emit` writes a document in pieces: each subcommand's document,
    # and containers left empty where the stream splits them, come out
    # as the stdlib writes them whole
    docs = []
    with monkeypatch.context() as m:
        m.setattr(cli, "_emit", docs.append)
        for param in ROUND_TRIP:
            cli.main(_argv(tmp_path, param.values[0]))
    assert len(docs) == len(ROUND_TRIP)
    docs += [{}, [], (), {"plays": (), "count": 0}, {"sets": [[], [{}]], "bounds": {}},
             [[], {}, ()], {"a": [[]], "b": [{}]},
             {"plays": TraceResult(_ARENAS[1], (), 0), "count": 0},
             {"plays": TraceResult(_ARENAS[2], ((), (("q", ROOT),)), 0), "count": 2},
             TraceResult(_ARENAS[3], ((), (("q", ROOT), ('"1"', 0))), 0)]
    for doc in docs:
        assert emitted(doc) == json.dumps(_plain(doc), indent=2, sort_keys=True) + "\n"


def test_emit_writes_each_set_and_each_play_apart():
    # the whole text is never held: no write `_emit` makes holds two of
    # a document's sets, or two of its plays
    sets = [[{"m": f"set{k}", "ptr": -1}] for k in range(3)]
    plays = TraceResult(_ARENAS[2], tuple(((f"play{k}", ROOT),) for k in range(3)), 0)
    writes = []
    with redirect_stdout(io.StringIO()) as out:
        out.write = writes.append
        cli._emit({"sets": sets, "plays": plays, "count": 3})
    for kind in ("set", "play"):
        assert all(len(re.findall(kind + r"\d", w)) <= 1 for w in writes), kind
    assert "".join(writes) == emitted({"sets": sets, "plays": plays, "count": 3})


def test_in_process_calls_share_the_parser_and_nothing_else(tmp_path, capsys):
    # The parser is built once per process; no call leaves a subcommand,
    # a flag or a bound behind for the next, so each call writes what it
    # writes in a process of its own.
    runs = [_argv(tmp_path, args) for args in (
        ("traces", "add.pcf", "--complete-only", "--max-nat", "1", "--max-play-len", "6"),
        ("equiv", "add.pcf", "add_flip.pcf", "--oracle", "--max-nat", "1",
         "--max-view-len", "4"),
        ("traces", "add.pcf", "--max-nat", "1"),
        ("test", "one.pcf", "--set", "one.json", "--max-nat", "2"),
        ("denote", "add.pcf", "--max-nat", "1"),
        ("traces", "add.pcf", "--complete-only", "--max-nat", "1", "--max-play-len", "6"))]
    fresh = cli.build_parser.__wrapped__
    together = []
    for argv in runs:
        assert vars(cli.build_parser().parse_args(argv)) == vars(fresh().parse_args(argv))
        together.append((cli.main(argv), capsys.readouterr()))
    assert cli.build_parser() is cli.build_parser()
    for argv, want in zip(runs, together):
        r = run_cli(*argv)
        assert (r.returncode, r.stdout, r.stderr) == (want[0], *want[1]), argv


def test_help_lists_subcommands():
    r = run_cli("--help")
    assert r.returncode == 0
    for sub in ("parse", "denote", "traces", "obs", "equiv", "test", "laws"):
        assert sub in r.stdout
