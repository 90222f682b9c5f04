"""Workload pools, seeded input generation and reference checks.

A workload is a fixed pool of (term, bounds) entries.  One pass runs
every entry once, and a run makes whole passes.  The seed shuffles the
order of every pass and renames the bound variables of every generated
term, so two seeds give different inputs but the same work per pass.

Every op is checked against a reference that does not come from the
engine: a plain-Python evaluation of the term for `traces`, verdicts
pinned by hand for `equiv`, and `corpus.PAIRS` plus pinned verdicts for
`oracle`.  This module imports gamesem only inside the ops, so
run.py can read the pools without paying for the import.
"""
from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# Every pool is sized so that one pass takes about PASS_SECONDS at the
# seed commit on a 2-core host (Python 3.11).  A run makes
# round(seconds / PASS_SECONDS) whole passes, so runs of one length do
# the same work on every commit.  At 20 s that is 5 passes.  Each pool
# has a group of entries of about the same cost where op_s.tail (the
# 11th largest sample) falls, and another where the median falls, so
# that neither sits on the edge between entries of different cost.
PASS_SECONDS = 4.0

# ---------------------------------------------------------------- terms

TERMS = {
    "once": "fun {f}: nat -> nat -> {f} 1",
    "twice": "fun {f}: nat -> nat -> {f} ({f} 1)",
    "thrice": "fun {f}: nat -> nat -> {f} ({f} ({f} 1))",
    "rec_zero": "fix (fun {f}: nat -> nat -> fun {x}: nat -> "
                "ifz {x} then 0 else {f} (pred {x}))",
    "strict_zero": "fun {x}: nat -> ifz {x} then 0 else 0",
    "rec_id": "fix (fun {f}: nat -> nat -> fun {x}: nat -> "
              "ifz {x} then 0 else succ ({f} (pred {x})))",
    "id": "fun {x}: nat -> {x}",
}

# Curried sums of two variables: (parameters, left summand, right summand).
SUMS = {
    "add": ("xy", "x", "y"),
    "add_flip": ("xy", "y", "x"),
    "double": ("x", "x", "x"),
    "first_twice": ("xy", "x", "x"),
    "add3_zx": ("xyz", "z", "x"),
    "add3_yz": ("xyz", "y", "z"),
}


def sum_template(name: str) -> str:
    params, a, b = SUMS[name]
    binders = " ".join(f"fun {{{p}}}: nat ->" for p in params)
    return f"{binders} {{{a}}} + {{{b}}}"


@dataclass(frozen=True)
class Bounds:
    max_nat: int
    max_play_len: int
    max_view_len: int = 6
    fix_depth: int = 4

    def cli_args(self) -> list[str]:
        return ["--max-nat", str(self.max_nat), "--max-play-len", str(self.max_play_len),
                "--max-view-len", str(self.max_view_len), "--fix-depth", str(self.fix_depth)]

    def to_json(self) -> dict:
        return {"max_nat": self.max_nat, "max_play_len": self.max_play_len,
                "max_view_len": self.max_view_len, "fix_depth": self.fix_depth}

    def tag(self) -> str:
        return f"n{self.max_nat}p{self.max_play_len}v{self.max_view_len}f{self.fix_depth}"


@dataclass(frozen=True)
class PairEntry:
    left: str
    right: str
    bounds: Bounds
    expect_equal: bool
    reason: str

    @property
    def name(self) -> str:
        return f"{self.left}~{self.right}@{self.bounds.tag()}"


# ---------------------------------------------------------------- pools

# Four heavy entries of about the same cost (nat 2, play_len 12) hold
# the tail, five of about the same cost at nat 3, play_len 10 hold the
# median, and five light ones at play_len 8 fill the pass.
TRACES_POOL = [(t, Bounds(n, p)) for t, n, p in (
    ("add", 2, 12), ("add_flip", 2, 12), ("double", 2, 12), ("first_twice", 2, 12),
    ("add", 3, 10), ("add_flip", 3, 10), ("double", 3, 10), ("first_twice", 3, 10),
    ("add3_zx", 3, 10),
    ("add", 3, 8), ("add_flip", 2, 8), ("double", 3, 8), ("first_twice", 2, 8),
    ("add3_yz", 3, 8),
)]

_TWICE_THRICE = ("the context f = (ifz k then 1 else 0) makes twice answer 1 "
                 "and thrice answer 0")
_ONCE_TWICE = ("the context f = (ifz k then 1 else 0) makes once answer 0 "
               "and twice answer 1")
_ONCE_THRICE = "at max_nat 3 the context f = succ makes once answer 2 and thrice answer 3"
_REC_ZERO = ("fix_depth > max_nat unfoldings reach x = 0 for every x, so both "
             "ask x and answer 0; repeated questions leave the same O-views")
_REC_ID = ("fix_depth > max_nat unfoldings reach x = 0 for every x, so the "
           "recursion returns x; repeated questions leave the same O-views")

# Three heavy entries of about the same cost hold the tail, and seven
# recursive pairs of about the same cost hold the median.
EQUIV_POOL = [
    PairEntry("twice", "thrice", Bounds(3, 20), False, _TWICE_THRICE),
    PairEntry("thrice", "twice", Bounds(3, 20), False, _TWICE_THRICE),
    PairEntry("once", "thrice", Bounds(3, 22), False, _ONCE_THRICE),
    PairEntry("twice", "thrice", Bounds(2, 20), False, _TWICE_THRICE),
    PairEntry("once", "twice", Bounds(3, 20), False, _ONCE_TWICE),
    PairEntry("rec_zero", "strict_zero", Bounds(3, 60, fix_depth=5), True, _REC_ZERO),
    PairEntry("rec_zero", "strict_zero", Bounds(3, 80, fix_depth=8), True, _REC_ZERO),
    PairEntry("rec_zero", "strict_zero", Bounds(3, 100, fix_depth=7), True, _REC_ZERO),
    PairEntry("rec_zero", "strict_zero", Bounds(3, 120, fix_depth=10), True, _REC_ZERO),
    # play_len 30 is too short for the hidden interaction at x = 3: the
    # engine reports a bound hit, so this op is undecided, not failed.
    PairEntry("rec_zero", "strict_zero", Bounds(3, 30, fix_depth=5), True, _REC_ZERO),
    PairEntry("rec_id", "id", Bounds(3, 80, fix_depth=5), True, _REC_ID),
    PairEntry("rec_id", "id", Bounds(3, 100, fix_depth=6), True, _REC_ID),
    PairEntry("rec_zero", "strict_zero", Bounds(2, 40, fix_depth=6), True, _REC_ZERO),
    PairEntry("rec_id", "id", Bounds(2, 60, fix_depth=4), True, _REC_ID),
    PairEntry("rec_id", "id", Bounds(3, 80, fix_depth=3), False,
              "fix_depth 3 <= max_nat 3: on x = 3 the unrolling is cut off "
              "before x reaches 0, so the recursive side never answers"),
]

# The 13-pair battery (from gamesem.corpus) joins these at run time.
# The three heaviest cost about the same and hold the tail.
ORACLE_EXTRA = [
    PairEntry("once", "once", Bounds(1, 12, max_view_len=6), True,
              "a term is equivalent to itself"),
    PairEntry("once", "twice", Bounds(1, 16, max_view_len=8), False, _ONCE_TWICE),
    # The shared interaction budget loses tests here: undecided, not dropped.
    PairEntry("twice", "thrice", Bounds(1, 16, max_view_len=6), False, _TWICE_THRICE),
    PairEntry("thrice", "twice", Bounds(1, 16, max_view_len=6), False, _TWICE_THRICE),
]

WORKLOADS = ("traces", "equiv", "oracle")


def passes_for(seconds: float) -> int:
    return max(1, round(seconds / PASS_SECONDS))


# ---------------------------------------------------------------- ops

@dataclass
class Outcome:
    failure: str | None = None
    undecided: list[tuple[str, int]] = field(default_factory=list)


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]
    cli: bool = False


def _rename(template: str, rng: random.Random) -> str:
    """Fill each {placeholder} with a fresh identifier drawn from rng."""
    names: dict[str, str] = {}
    used: set[str] = set()
    for key in ("f", "x", "y", "z"):
        if "{" + key + "}" in template:
            while True:
                ident = rng.choice("abcdeghkmnrsuvw") + str(rng.randrange(100))
                if ident not in used:
                    break
            used.add(ident)
            names[key] = ident
    return template.format(**names)


def run_cli(argv: list[str]) -> tuple[int, str]:
    from gamesem import cli
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(argv)
        except SystemExit as e:
            rc = e.code if isinstance(e.code, int) else 2
    return rc, out.getvalue()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# --- traces reference ---

def _complete_single_threaded(moves: list[tuple[str, int]]) -> bool:
    """One unjustified move, well-bracketed, every question answered."""
    if sum(1 for _, p in moves if p == -1) != 1:
        return False
    pending: list[int] = []
    for i, (m, p) in enumerate(moves):
        if m.endswith("q"):
            pending.append(i)
        elif not pending or pending.pop() != p:
            return False
    return not pending


def check_traces(term: str, b: Bounds, rc: int, stdout: str) -> Outcome:
    """Every complete single-threaded play must end with the saturating
    sum of the Opponent's answers, read per variable in the order asked;
    and every pair of answers in 0..max_nat must occur in such a play."""
    if rc != 0:
        return Outcome(f"exit code {rc}, expected 0")
    doc = json.loads(stdout)
    if doc["bounds"] != b.to_json() or doc["count"] != len(doc["plays"]):
        return Outcome("bounds or count in the output do not match the request")
    params, a, c = SUMS[term]
    prefixes = ["R." * i + "L." for i in range(len(params))]
    result = "R." * len(params)
    ia, ic = params.index(a), params.index(c)
    seen = set()
    for play in doc["plays"]:
        moves = [(mv["m"], mv["ptr"]) for mv in play["moves"]]
        if not _complete_single_threaded(moves):
            continue
        answers: list[list[int]] = [[] for _ in params]
        for m, _ in moves[1:-1]:
            for i, pre in enumerate(prefixes):
                if m.startswith(pre) and m[len(pre):].isdigit():
                    answers[i].append(int(m[len(pre):]))
        last, ptr = moves[-1]
        try:
            x = answers[ia].pop(0)
            y = answers[ic].pop(0)
        except IndexError:
            return Outcome(f"play {moves} asks a variable too few times")
        if any(answers) or ptr != 0 or last != f"{result}{min(x + y, b.max_nat)}":
            return Outcome(f"play {moves} does not answer {a} + {c} = {x} + {y}")
        seen.add((x, y))
    if doc["bound_exceeded"]:
        return Outcome(None, [("explore.bound_exceeded", doc["bound_exceeded"])])
    if len(seen) != (b.max_nat + 1) ** 2:
        return Outcome(f"only {len(seen)} answer pairs reach a complete play")
    return Outcome()


# --- equiv and oracle references ---

def check_equiv(e: PairEntry, rc: int, stdout: str) -> Outcome:
    """Exit code agrees with the printed verdict, and a verdict reached
    without bound hits agrees with the pinned one."""
    if rc not in (0, 1):
        return Outcome(f"exit code {rc}")
    doc = json.loads(stdout)
    equal = doc["verdict"] == "EQUIV_AT_BOUNDS"
    if rc != (0 if equal else 1):
        return Outcome(f"exit code {rc} does not match verdict {doc['verdict']}")
    if doc["bounds"] != e.bounds.to_json():
        return Outcome("bounds in the output do not match the request")
    if doc["bound_exceeded_count"]:
        return Outcome(None, [("obs_equiv.bound_exceeded", doc["bound_exceeded_count"])])
    if equal != e.expect_equal:
        return Outcome(f"verdict {doc['verdict']} contradicts the pinned one ({e.reason})")
    return Outcome()


def check_routes(expect_equal: bool, rep, fwd, bwd) -> Outcome:
    """Both decision routes against the reference; a route that hit the
    interaction budget is undecided rather than wrong."""
    out = Outcome()
    routes = (
        ("obs_equiv.bound_exceeded", sum(rep.bound_exceeded), rep.equal),
        ("brute_force_leq.excluded", fwd.bound_exceeded + bwd.bound_exceeded,
         fwd.holds and bwd.holds),
    )
    for route, hits, equal in routes:
        if hits:
            out.undecided.append((route, hits))
        elif equal != expect_equal:
            out.failure = f"{route.split('.')[0]} says equal={equal}, expected {expect_equal}"
    return out


def _both_routes(s1, s2, b):
    from gamesem import brute_force_leq, obs_equiv
    return obs_equiv(s1, s2, b), brute_force_leq(s1, s2, b), brute_force_leq(s2, s1, b)


# ---------------------------------------------------------------- generation

def generate(workload: str, seed: int, passes: int, work: Path) -> tuple[list[Op], list[list[Op]]]:
    """Write the workload's inputs under `work`; return its ops and the
    schedule (one seeded permutation of the ops per pass)."""
    rng = random.Random(seed)
    ops: list[Op] = []
    if workload in ("traces", "equiv"):
        import gamesem.cli  # noqa: F401  (a CLI process imports it before its first op)
    if workload == "traces":
        for term, b in TRACES_POOL:
            path = work / f"{term}-{b.tag()}.pcf"
            path.write_text(_rename(sum_template(term), rng) + "\n")
            argv = ["traces", str(path)] + b.cli_args()
            ops.append(Op(f"{term}@{b.tag()}", lambda argv=argv: run_cli(argv),
                          lambda r, t=term, b=b: check_traces(t, b, *r), cli=True))
    elif workload == "equiv":
        for e in EQUIV_POOL:
            paths = [work / f"{e.name}.{side}.pcf" for side in ("l", "r")]
            for path, term in zip(paths, (e.left, e.right)):
                path.write_text(_rename(TERMS[term], rng) + "\n")
            argv = ["equiv", str(paths[0]), str(paths[1])] + e.bounds.cli_args()
            ops.append(Op(e.name, lambda argv=argv: run_cli(argv),
                          lambda r, e=e: check_equiv(e, *r), cli=True))
    elif workload == "oracle":
        from gamesem.corpus import PAIRS
        for p in PAIRS:
            ops.append(Op(f"battery:{p.left}~{p.right}", lambda p=p: _battery_op(p),
                          lambda r, p=p: check_routes(p.expect_equal, *r)))
        for e in ORACLE_EXTRA:
            paths = [work / f"{e.name}.{side}.pcf" for side in ("l", "r")]
            for path, term in zip(paths, (e.left, e.right)):
                path.write_text(_rename(TERMS[term], rng) + "\n")
            ops.append(Op(e.name, lambda e=e, paths=paths: _source_op(e, paths),
                          lambda r, e=e: check_routes(e.expect_equal, *r)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    schedule = []
    for _ in range(passes):
        order = list(ops)
        rng.shuffle(order)
        schedule.append(order)
    (work / "inputs.json").write_text(json.dumps(
        {"workload": workload, "seed": seed,
         "schedule": [[op.name for op in order] for order in schedule]}, indent=1))
    return ops, schedule


def _battery_op(p):
    """One pair of the battery exactly as scripts/oracle_sweep.py runs it."""
    from gamesem.corpus import build_pair
    s1, s2 = build_pair(p)
    return _both_routes(s1, s2, p.bounds)


def _source_op(e: PairEntry, paths: list[Path]):
    import gamesem
    b = gamesem.Bounds(**e.bounds.to_json())
    s1, s2 = (gamesem.denote(gamesem.parse(p.read_text()), b) for p in paths)
    return _both_routes(s1, s2, b)
