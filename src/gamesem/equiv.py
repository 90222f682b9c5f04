"""Equivalence checking: observational comparison, a brute-force
test-based oracle, and the compositionality law checks.

Two strategies are compared either through their observational
representations (sets of Opponent-view sets) or by running every
closed deterministic view set as a test against both and demanding
the convergence verdicts agree.  Both roads are bounded and verdicts
always carry the bounds they were established at.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, replace
from functools import cache

from .arena import Arena
from .bounds import Bounds
from .corpus import applier, proj_strategy
from .observation import (
    ODetSet,
    ObservationalStrategy,
    TestVerdict,
    observations,
    play_key,
    run_test,
    sorted_views,
    viewset_key,
)
from .pcf import builtin, denote, parse, succ_strategy
from .plays import ROOT, Play, is_well_bracketed, legal_extensions
from .strategy import InnocentStrategy, as_thunk, compose, copycat, explore


@dataclass(frozen=True)
class EquivReport:
    equal: bool
    bounds: Bounds
    witness: ODetSet | None
    witness_side: str | None       # "left" or "right" when inequivalent
    bound_exceeded: tuple[int, int]

    @property
    def verdict(self) -> str:
        return "EQUIV_AT_BOUNDS" if self.equal else "INEQUIV"

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "bounds": self.bounds.to_json(),
            "witness": None if self.witness is None else self.witness.to_json(),
            "witness_side": self.witness_side,
            "bound_exceeded_count": sum(self.bound_exceeded),
        }


def obs_equiv(s1: InnocentStrategy, s2: InnocentStrategy, b: Bounds) -> EquivReport:
    """Compare observational representations for set equality.

    On inequivalence the witness is the smallest view set in the
    symmetric difference (fewest moves in total, ties broken
    lexicographically on the serialized views).
    """
    if s1.arena != s2.arena:
        raise ValueError("strategies live on different arenas")
    x = observations(s1, b)
    y = observations(s2, b)
    exceeded = (x.bound_exceeded, y.bound_exceeded)
    if x.sets == y.sets:
        return EquivReport(True, b, None, None, exceeded)
    w = _least_difference(x, y)
    side = "left" if w in x.sets else "right"
    return EquivReport(False, b, ODetSet.make(s1.arena, w), side, exceeded)


def enumerate_oviews(arena: Arena, max_view_len: int) -> list[Play]:
    """All well-bracketed single-threaded O-views up to the length cap,
    in `play_key` order.

    Each grows through `legal_extensions` from the positions its mover
    may point at: ROOT in the empty view, as only the first move opens
    a thread; every position at even length, as an O-view is its own
    O-view; and the last at odd length, as a Proponent move in an O-view
    points at the move before it.  Bracketing violations are pruned
    eagerly; they can never be repaired by extension.
    """
    out: list[Play] = []
    frontier = [Play(arena, ())]
    while frontier:
        v = frontier.pop()
        if not is_well_bracketed(v):
            continue
        out.append(v)
        n = len(v.moves)
        if n < max_view_len:
            frontier.extend(legal_extensions(
                v, (ROOT,) if n == 0 else range(n) if n % 2 == 0 else (n - 1,)))
    out.sort(key=play_key)
    return out


def _view_tree(arena: Arena, max_view_len: int):
    """The capped O-views as a tree: the views in play_key order and,
    per view index, the indices of its one-move extensions."""
    views = enumerate_oviews(arena, max_view_len)
    index = {v.moves: i for i, v in enumerate(views)}
    kids: list[list[int]] = [[] for _ in views]
    for i, v in enumerate(views):
        if v.moves:
            kids[index[v.moves[:-1]]].append(i)
    return views, kids


def closed_odet_sets(arena: Arena, max_view_len: int) -> Iterator[frozenset[Play]]:
    """Every prefix-closed deterministic view set over the arena whose
    views respect the length cap, lazily and smallest first.

    The order is `viewset_key` order.  Its first component is the
    total number of moves, so the sets are built one total size at a
    time and each such bucket is sorted on its own.  Two memoised
    recursions build a bucket: `rooted(i, n)`, the sets rooted at view
    i with n moves in all, and `spread(i, n)`, whose entry k unites
    sets rooted at the last k children of view i.  A set rooted at a
    view of even length (Opponent to move) takes at most one child; at
    odd length (Proponent to move) the children are independent, so it
    is a spread, folded over the children in one loop.  Sets are built
    as tuples of view indices; the views are in play_key order, so
    sorted indices compare as viewset_key's sorted views do.
    """
    views, kids = _view_tree(arena, max_view_len)
    size = [len(v.moves) for v in views]
    largest = list(size)              # largest total size rooted at i
    for i in reversed(range(len(views))):   # children come after parents
        if kids[i]:
            sub = [largest[c] for c in kids[i]]
            largest[i] += sum(sub) if size[i] % 2 else max(sub)

    @cache
    def rooted(i: int, n: int) -> list[tuple[int, ...]]:
        # Sets rooted at view i with n moves in total.
        if n < size[i] or n > largest[i]:
            return []
        rest, v = n - size[i], (i,)
        if rest == 0:
            return [v]
        if size[i] % 2:
            return [v + s for s in spread(i, rest)[-1]]
        return [v + s for c in kids[i] for s in rooted(c, rest)]

    @cache
    def spread(i: int, n: int) -> list[list[tuple[int, ...]]]:
        # Entry k: unions of sets rooted at the last k children of view
        # i, each child left out or taken once, with n moves in all.
        row = [[()] if n == 0 else []]
        for k, c in enumerate(reversed(kids[i])):   # k children after c
            got = list(row[k])
            for j in range(size[c], min(n, largest[c]) + 1):
                tail = spread(i, n - j)[k]
                if tail:
                    got.extend(a + t for a in rooted(c, j) for t in tail)
            row.append(got)
        return row

    try:
        for n in range(largest[0] + 1):
            bucket = ([()] if n == 0 else []) + rooted(0, n)
            bucket.sort(key=lambda t: (len(t), sorted(t)))
            for t in bucket:
                yield frozenset(views[i] for i in t)
    finally:
        rooted.cache_clear()
        spread.cache_clear()


def count_closed_odet_sets(arena: Arena, max_view_len: int) -> int:
    """How many sets `closed_odet_sets` yields, without building them."""
    views, kids = _view_tree(arena, max_view_len)
    count = [1] * len(views)          # sets rooted at view i
    for i in reversed(range(len(views))):
        if len(views[i].moves) % 2:
            for c in kids[i]:
                count[i] *= 1 + count[c]
        else:
            count[i] += sum(count[c] for c in kids[i])
    return 1 + count[0]


def enumerate_closed_odet_sets(arena: Arena, max_view_len: int) -> list[frozenset[Play]]:
    """Every prefix-closed deterministic view set over the arena whose
    views respect the length cap, smallest first, as one list."""
    return list(closed_odet_sets(arena, max_view_len))


@dataclass(frozen=True)
class LeqReport:
    holds: bool
    bounds: Bounds
    witness: ODetSet | None
    tested: int
    bound_exceeded: int

    @property
    def verdict(self) -> str:
        return "HOLDS_AT_BOUNDS" if self.holds else "FAILS"

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "bounds": self.bounds.to_json(),
            "witness": None if self.witness is None else self.witness.to_json(),
            "tested": self.tested,
            "bound_exceeded_count": self.bound_exceeded,
        }


# Candidate tests brute_force_leq runs per direction before it gives
# up.  The test suite, the oracle sweep and the benchmark test at most
# a few hundred; the CLI defaults on (nat -> nat) -> nat have millions.
TEST_BUDGET = 20_000


class OracleIncomplete(Exception):
    """The test budget ran out before a failing test or the last candidate."""

    def __init__(self, tested: int, candidates: int):
        super().__init__(f"oracle incomplete at bounds after {tested} of "
                         f"{candidates} candidate tests")
        self.tested = tested
        self.candidates = candidates


def brute_force_leq(s1: InnocentStrategy, s2: InnocentStrategy, b: Bounds) -> LeqReport:
    """Test-based order: does every closed deterministic view set that
    drives s1 to convergence also drive s2 there?

    Runs the candidate sets (views capped at max_view_len) as tests
    against both strategies, smallest first as `closed_odet_sets`
    yields them, and fails on the first set where s1 converges but s2
    does not; sets of a larger total size are never built.  Runs where either
    side exceeds the interaction budget are counted and excluded; they
    neither confirm nor refute.  Raises OracleIncomplete when
    TEST_BUDGET tests find no failure and candidates remain.
    """
    if s1.arena != s2.arena:
        raise ValueError("strategies live on different arenas")
    tested = 0
    exceeded = 0
    for vs in closed_odet_sets(s1.arena, b.max_view_len):
        if tested == TEST_BUDGET:
            raise OracleIncomplete(
                tested, count_closed_odet_sets(s1.arena, b.max_view_len))
        s = ODetSet(s1.arena, vs)
        v1 = run_test(s1, s, b)
        v2 = run_test(s2, s, b)
        tested += 1
        if TestVerdict.BOUND_EXCEEDED in (v1, v2):
            exceeded += 1
            continue
        if v1 is TestVerdict.TOP and v2 is not TestVerdict.TOP:
            return LeqReport(False, b, s, tested, exceeded)
    return LeqReport(True, b, None, tested, exceeded)


@dataclass(frozen=True)
class LawCheck:
    law: str
    subject: str
    passed: bool
    detail: str = ""

    def to_json(self) -> dict:
        return {"law": self.law, "subject": self.subject,
                "passed": self.passed, "detail": self.detail}


@dataclass(frozen=True)
class LawsReport:
    bounds: Bounds
    checks: tuple[LawCheck, ...]

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "verdict": "ALL_LAWS_HOLD" if self.all_pass else "LAW_FAILURE",
            "bounds": self.bounds.to_json(),
            "checks": [c.to_json() for c in self.checks],
        }


def _interaction_bounds(b: Bounds) -> Bounds:
    # Composites built only to state a law get a widened interaction
    # budget: hiding must not eat the visible horizon the law is
    # stated at.  Plain compose() keeps the strict shared budget.
    return replace(b, max_play_len=2 * b.max_play_len + 4)


def _least_difference(x: ObservationalStrategy, y: ObservationalStrategy) -> frozenset[Play]:
    """The `viewset_key`-least view set observed on one side only; the
    two sides must differ in their sets."""
    return min(x.sets ^ y.sets, key=viewset_key)


def _min_distinguishing(x: ObservationalStrategy, y: ObservationalStrategy) -> str:
    if x.sets == y.sets:
        return ""
    views = [[m for m, _ in p.moves] for p in sorted_views(_least_difference(x, y))]
    return f"distinguishing view set: {views}"


def _law_strategies(b: Bounds) -> list[tuple[str, InnocentStrategy]]:
    return [
        ("numeral_2_thunk", as_thunk(denote(parse("2"), b))),
        ("succ", succ_strategy(b.max_nat)),
        ("add_LR", builtin("add_LR", b.max_nat)),
        ("proj_fst", proj_strategy("L", b.max_nat)),
    ]


def check_category_laws(b: Bounds) -> LawsReport:
    """Identity, associativity, and congruence checks over the
    built-in strategies, with a minimal distinguishing view set
    reported on failure."""
    wide = _interaction_bounds(b)
    checks: list[LawCheck] = []

    def observed_law(law, subject, x, y, premise=True):
        ok = premise and (x.sets, x.bound_exceeded) == (y.sets, y.bound_exceeded)
        checks.append(LawCheck(law, subject, ok, "" if ok else _min_distinguishing(x, y)))

    for name, sig in _law_strategies(b):
        src, dst = sig.arena.parts
        left = compose(copycat(src), sig, wide)
        right = compose(sig, copycat(dst), wide)
        base = explore(sig, b)
        for tag, comp in (("identity_left", left), ("identity_right", right)):
            got = explore(comp, b)
            ok = got.plays == base.plays and got.bound_exceeded == 0
            detail = ""
            if not ok:
                missing = len(base.plays - got.plays)
                extra = len(got.plays - base.plays)
                detail = f"missing={missing} extra={extra} exceeded={got.bound_exceeded}"
            checks.append(LawCheck(tag, name, ok, detail))

    f = as_thunk(denote(parse("2"), b))
    g = succ_strategy(b.max_nat)
    h = succ_strategy(b.max_nat)
    lhs = compose(compose(f, g, wide), h, wide)
    rhs = compose(f, compose(g, h, wide), wide)
    ox = observations(lhs, b)
    observed_law("associativity", "numeral_2_thunk;succ;succ", ox, observations(rhs, b))
    expected = min(2 + 2, b.max_nat)
    observed_law("associativity_value", f"equals numeral {expected}", ox,
                 observations(as_thunk(denote(parse(str(expected)), b)), b))

    pb = Bounds(max_nat=2, max_play_len=6, max_view_len=b.max_view_len,
                fix_depth=b.fix_depth)
    s1 = builtin("add_LR", pb.max_nat)
    s2 = builtin("add_RL", pb.max_nat)
    premise = observations(s1, pb).sets == observations(s2, pb).sets
    ctx = applier(pb.max_nat)
    c1 = observations(compose(as_thunk(s1), ctx, _interaction_bounds(pb)), pb)
    c2 = observations(compose(as_thunk(s2), ctx, _interaction_bounds(pb)), pb)
    observed_law("congruence", "add_LR~add_RL under applier", c1, c2, premise)

    return LawsReport(b, tuple(checks))
