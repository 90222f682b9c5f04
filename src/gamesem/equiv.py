"""Equivalence checking: observational comparison, a test-based
oracle, and the compositionality law checks.

Two strategies are compared either through their observational
representations (sets of Opponent-view sets) or by the paper's order
on tests: every closed deterministic view set that makes one side
converge must make the other converge too.  The oracle quantifies over
every such set but builds only the part of each test that a run
reaches, branching on an Opponent's entry where a run first reads it,
so it runs one test per leaf of that search rather than one per
candidate set.  Both roads are bounded and verdicts always carry the
bounds they were established at.  `enumerate_closed_odet_sets` lists
the candidate sets, smallest first, growing O-views as the oracle does.
A view set holds each O-view as its move tuple, as `observation` does,
and so does the witness; the oracle and the candidate list grow
O-views as move tuples too, by the one rule the view-set door checks
them by, `observation.oview_steps`.  The candidate list reads a view's
completeness off the open questions that rule carries; the oracle folds
`plays.open_questions` over an O-view where a run first stops at it.
The law checks import the strategies they take from `corpus` when
they run, so deciding equivalence never loads the test corpus.
"""
from __future__ import annotations

import functools
import heapq
import itertools
from dataclasses import dataclass, replace

from .arena import Arena
from .bounds import Bounds
from .observation import (
    _SUCCEED,
    ODetSet,
    ObservationalStrategy,
    TestVerdict,
    _play_against,
    observations,
    oview_steps,
    sorted_views,
    viewset_key,
)
from .pcf import denote, make_add, parse, succ_strategy
from .plays import open_questions
from .strategy import BudgetExhausted, InnocentStrategy, as_thunk, compose, copycat, explore


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


def enumerate_closed_odet_sets(arena: Arena, max_view_len: int) -> list[frozenset[tuple]]:
    """Every prefix-closed deterministic view set over the arena whose
    views respect the length cap, each view as its moves, in
    `viewset_key` order: the candidate list the tests quantify over,
    kept whole for the checks on `brute_force_leq`'s search and wrapped
    by name by the benchmark's tracer.  A set rooted at a view of even
    length (Opponent to move) takes at most one child's sets; at odd
    length (Proponent to move) it takes any choice of its children's
    sets, each child left out or taken once.  Views grow by
    `oview_steps`, each with its open questions."""
    def rooted(v: tuple, pending) -> list[frozenset[tuple]]:
        alone = frozenset({v})
        steps = oview_steps(arena, v, pending) if len(v) < max_view_len else {}
        kids = [rooted(v + (e,), p) for e, p in steps.items() if p is not None]
        if len(v) % 2 == 0:
            return [alone, *(alone | s for sets in kids for s in sets)]
        combos = [alone]
        for sets in kids:
            combos += [c | s for c in combos for s in sets]
        return combos

    return sorted([frozenset(), *rooted((), ())], key=viewset_key)


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


# Leaves brute_force_leq evaluates per direction before it gives up.
# The test suite, the oracle sweep and the benchmark need at most a few
# hundred; second-order arguments at long views need far more.
TEST_BUDGET = 20_000


def brute_force_leq(s1: InnocentStrategy, s2: InnocentStrategy, b: Bounds) -> LeqReport:
    """Test-based order: does every closed deterministic view set (views
    capped at max_view_len) that drives s1 to convergence also drive s2
    there?

    A test is its table from O-views to the next Opponent move, to
    success, or to nothing, and a run reads only the keys its play
    reaches.  So the tests are built lazily, as partial tables: s1, then
    s2, is played against one by `_play_against`, and where a run reaches
    an O-view with no entry the table branches on every entry a
    candidate set can give it.  Those are nothing; success, at a
    nonempty complete view within the cap; and each Opponent move that
    extends the view to a well-bracketed one within the cap.  They are
    listed once for each O-view, from its open questions,
    `plays.open_questions` of its moves.  A table
    where both runs end is a leaf: every candidate set extends exactly
    one leaf and gets its verdicts, so the quantifier is the brute
    force's over every candidate.

    Partial tables are expanded in `viewset_key` order of the view set
    their entries close to, the least candidate that extends them, so
    the first failing leaf (s1 converges, s2 does not) gives the
    `viewset_key`-least failing candidate as the witness.  `tested`
    counts leaves; leaves where either side exceeds the interaction
    budget are counted in `bound_exceeded` and neither confirm nor
    refute.  Raises BudgetExhausted when TEST_BUDGET leaves find no
    failure and another leaf is due.
    """
    if s1.arena != s2.arena:
        raise ValueError("strategies live on different arenas")
    arena = s1.arena
    cap = b.max_view_len

    @functools.cache
    def entries(key: tuple) -> list:
        # Every entry a candidate set's table can hold at the O-view key.
        n = len(key)
        pending = open_questions(arena.questions, key)
        got = [None, _SUCCEED] if 0 < n <= cap and pending == () else [None]
        steps = oview_steps(arena, key, pending) if n < cap else {}
        return got + [e for e, p in steps.items() if p is not None]

    seq = itertools.count()
    # (viewset_key of the closing set, tie-break, parent table, key,
    #  entry, s1's run, s2's run); a run is None before it starts, a
    #  TestVerdict once it ends, and otherwise stands at `key`.
    heap = [((0, 0, ()), next(seq), {}, None, None, None, None)]
    tested = exceeded = 0
    while heap:
        vkey, _, table, key, entry, r1, r2 = heapq.heappop(heap)
        if key is not None:
            table = {**table, key: entry}
        if not isinstance(r1, TestVerdict):
            r1 = _play_against(s1, table, b, r1)
        if isinstance(r1, TestVerdict) and not isinstance(r2, TestVerdict):
            r2 = _play_against(s2, table, b, r2)
        stuck = r2 if isinstance(r1, TestVerdict) else r1
        if not isinstance(stuck, TestVerdict):
            at = stuck[-1][3]
            for e in entries(at):
                heapq.heappush(heap, (_closing(vkey, at, e), next(seq), table, at, e, r1, r2))
            continue
        if tested == TEST_BUDGET:
            raise BudgetExhausted("oracle", tested, "tests")
        tested += 1
        if TestVerdict.BOUND_EXCEEDED in (r1, r2):
            exceeded += 1
        elif r1 is TestVerdict.TOP and r2 is not TestVerdict.TOP:
            witness = ODetSet.make(arena, [m for _, m in vkey[2]])
            return LeqReport(False, b, witness, tested, exceeded)
    return LeqReport(True, b, None, tested, exceeded)


def _closing(vkey: tuple, key: tuple, entry) -> tuple:
    """The `viewset_key` of the set a partial table closes to, once
    `entry` is set at the O-view `key`, from the one before.  Nothing
    adds no view.  Success adds the key, and an Opponent move adds the
    key and the key extended by it; the key's prefixes are in already."""
    if entry is None:
        return vkey
    n = len(key)
    new = [(n, key)] if entry is _SUCCEED else [(n, key), (n + 1, key + (entry,))]
    total, count, views = vkey
    return (total + sum(k for k, _ in new), count + len(new), tuple(sorted(views + tuple(new))))


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


def _least_difference(x: ObservationalStrategy, y: ObservationalStrategy) -> frozenset[tuple]:
    """The `viewset_key`-least view set observed on one side only; the
    two sides must differ in their sets.  `viewset_key` orders by total
    moves and view count first, so only the sets least on those two are
    given their whole key."""
    sizes = {vs: (sum(map(len, vs)), len(vs)) for vs in x.sets ^ y.sets}
    least = min(sizes.values())
    return min([vs for vs, size in sizes.items() if size == least], key=viewset_key)


def _min_distinguishing(x: ObservationalStrategy, y: ObservationalStrategy) -> str:
    if x.sets == y.sets:
        return ""
    views = [[m for m, _ in v] for v in sorted_views(_least_difference(x, y))]
    return f"distinguishing view set: {views}"


def _law_strategies(b: Bounds) -> list[tuple[str, InnocentStrategy]]:
    from .corpus import proj_strategy
    return [
        ("numeral_2_thunk", as_thunk(denote(parse("2"), b))),
        ("succ", succ_strategy(b.max_nat)),
        ("add_LR", make_add(("L", "R"), b.max_nat)),
        ("proj_fst", proj_strategy("L", b.max_nat)),
    ]


def check_category_laws(b: Bounds) -> LawsReport:
    """Identity, associativity, and congruence checks over the
    built-in strategies, with a minimal distinguishing view set
    reported on failure."""
    from .corpus import applier
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
                have, want = frozenset(got.plays), frozenset(base.plays)
                missing = len(want - have)
                extra = len(have - want)
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
    s1 = make_add(("L", "R"), pb.max_nat)
    s2 = make_add(("R", "L"), pb.max_nat)
    premise = observations(s1, pb).sets == observations(s2, pb).sets
    ctx = applier(pb.max_nat)
    c1 = observations(compose(as_thunk(s1), ctx, _interaction_bounds(pb)), pb)
    c2 = observations(compose(as_thunk(s2), ctx, _interaction_bounds(pb)), pb)
    observed_law("congruence", "add_LR~add_RL under applier", c1, c2, premise)

    return LawsReport(b, tuple(checks))
