"""Equivalence checking: observational comparison, a brute-force
test-based oracle, and the compositionality law checks.

Two strategies are compared either through their observational
representations (sets of Opponent-view sets) or by running every
closed deterministic view set as a test against both and demanding
the convergence verdicts agree.  Both roads are bounded and verdicts
always carry the bounds they were established at.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace

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
    viewset_key,
)
from .pcf import builtin, denote, parse, succ_strategy
from .plays import ROOT, Play, is_well_bracketed
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
    diff = x.sets ^ y.sets
    w = min(diff, key=viewset_key)
    side = "left" if w in x.sets else "right"
    return EquivReport(False, b, ODetSet.make(s1.arena, w), side, exceeded)


def enumerate_oviews(arena: Arena, max_view_len: int) -> list[Play]:
    """All well-bracketed Opponent-view-shaped plays up to the length cap.

    Shape invariant: a Proponent move always points at the move right
    before it, an Opponent move may point at any earlier Proponent
    move that enables it.  Bracketing violations are pruned eagerly;
    they can never be repaired by extension.
    """
    out: list[Play] = []
    frontier = [Play(arena, ())]
    while frontier:
        v = frontier.pop()
        if not is_well_bracketed(v):
            continue
        out.append(v)
        if len(v.moves) >= max_view_len:
            continue
        kids: list[Play] = []
        if len(v.moves) == 0:
            for m in sorted(arena.initials):
                kids.append(Play(arena, ((m, ROOT),)))
        elif len(v.moves) % 2 == 1:
            last, _ = v.moves[-1]
            for m in arena.enabled_from[last]:
                if arena.label(m).polarity == "P":
                    kids.append(Play(arena, v.moves + ((m, len(v.moves) - 1),)))
        else:
            for j in range(1, len(v.moves), 2):
                mj, _ = v.moves[j]
                for m in arena.enabled_from[mj]:
                    if arena.label(m).polarity == "O":
                        kids.append(Play(arena, v.moves + ((m, j),)))
        frontier.extend(kids)
    out.sort(key=play_key)
    return out


def enumerate_closed_odet_sets(arena: Arena, max_view_len: int) -> list[frozenset[Play]]:
    """Every prefix-closed deterministic view set over the arena whose
    views respect the length cap, smallest first."""
    views = enumerate_oviews(arena, max_view_len)
    children: dict[tuple, list[Play]] = {}
    for v in views:
        if len(v.moves) == 0:
            continue
        parent = v.moves[:-1]
        children.setdefault(parent, []).append(v)

    def rec(v: Play) -> list[frozenset[Play]]:
        kids = children.get(v.moves, [])
        if len(v.moves) % 2 == 0:
            # Opponent extends: at most one continuation may be present.
            opts = [frozenset({v})]
            for c in kids:
                opts.extend(frozenset({v}) | s for s in rec(c))
            return opts
        # Proponent extends: continuations are independent choices.
        combos = [frozenset({v})]
        for c in kids:
            subs = rec(c)
            combos = [base | extra
                      for base in combos
                      for extra in ([frozenset()] + subs)]
        return combos

    sets = [frozenset()] + rec(Play(arena, ()))
    sets.sort(key=viewset_key)
    return sets


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


def brute_force_leq(s1: InnocentStrategy, s2: InnocentStrategy, b: Bounds) -> LeqReport:
    """Test-based order: does every closed deterministic view set that
    drives s1 to convergence also drive s2 there?

    Enumerates all candidate sets (views capped at max_view_len),
    runs each as a test against both strategies, and fails on the
    first set where s1 converges but s2 does not.  Runs where either
    side exceeds the interaction budget are counted and excluded;
    they neither confirm nor refute.
    """
    if s1.arena != s2.arena:
        raise ValueError("strategies live on different arenas")
    tested = 0
    exceeded = 0
    for vs in enumerate_closed_odet_sets(s1.arena, b.max_view_len):
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


def _canon(x: ObservationalStrategy) -> str:
    return json.dumps(x.to_json(), sort_keys=True)


def _min_distinguishing(x: ObservationalStrategy, y: ObservationalStrategy) -> str:
    diff = x.sets ^ y.sets
    if not diff:
        return ""
    w = min(diff, key=viewset_key)
    views = [list(m for m, _ in p.moves) for p in sorted(w, key=play_key)]
    return f"distinguishing view set: {views}"


def _law_strategies(b: Bounds) -> list[tuple[str, InnocentStrategy]]:
    return [
        ("numeral_2_thunk", as_thunk(denote(parse("2"), b))),
        ("succ", succ_strategy(b.max_nat)),
        ("add_LR", builtin("add_LR", b.max_nat)),
        ("proj_fst", proj_strategy("L", b.max_nat)),
    ]


def check_category_laws(b: Bounds | None = None) -> LawsReport:
    """Identity, associativity, and congruence checks over the
    built-in strategies, with a minimal distinguishing view set
    reported on failure."""
    b = b or Bounds()
    wide = _interaction_bounds(b)
    checks: list[LawCheck] = []

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
    ox, oy = observations(lhs, b), observations(rhs, b)
    ok = _canon(ox) == _canon(oy)
    checks.append(LawCheck("associativity", "numeral_2_thunk;succ;succ", ok,
                           "" if ok else _min_distinguishing(ox, oy)))

    expected = min(2 + 2, b.max_nat)
    on = observations(as_thunk(denote(parse(str(expected)), b)), b)
    ok = _canon(ox) == _canon(on)
    checks.append(LawCheck("associativity_value", f"equals numeral {expected}", ok,
                           "" if ok else _min_distinguishing(ox, on)))

    pb = Bounds(max_nat=2, max_play_len=6, max_view_len=b.max_view_len,
                fix_depth=b.fix_depth)
    s1 = builtin("add_LR", pb.max_nat)
    s2 = builtin("add_RL", pb.max_nat)
    premise = observations(s1, pb).sets == observations(s2, pb).sets
    ctx = applier(pb.max_nat)
    c1 = observations(compose(as_thunk(s1), ctx, _interaction_bounds(pb)), pb)
    c2 = observations(compose(as_thunk(s2), ctx, _interaction_bounds(pb)), pb)
    ok = premise and _canon(c1) == _canon(c2)
    checks.append(LawCheck("congruence", "add_LR~add_RL under applier", ok,
                           "" if ok else _min_distinguishing(c1, c2)))

    return LawsReport(b, tuple(checks))
