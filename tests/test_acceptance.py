"""Acceptance battery.

Each test checks one headline property of the engine end to end and
prints a single pass/fail line on the real stdout, so the verdicts
survive pytest's capture in any run mode.  Bounds are pinned; every
expected number below was frozen from an independent computation
before the engine produced it.
"""
import json
import sys
from pathlib import Path

from gamesem.arena import arrow, make_nat_arena, make_sigma
from gamesem.bounds import Bounds
from gamesem.corpus import CORPUS, PAIRS, build_pair, entry
from gamesem.equiv import (
    brute_force_leq,
    check_category_laws,
    enumerate_closed_odet_sets,
    obs_equiv,
)
from gamesem.observation import (
    ODetSet,
    ObservationalStrategy,
    is_observational,
    obs_leq,
    observations,
    prefix_oviews,
    run_test,
)
from gamesem.observation import TestVerdict as Verdict
from gamesem.pcf import make_add
from gamesem.plays import (
    ROOT,
    Play,
    is_complete,
    oview,
    pview,
)
from gamesem.strategy import traces
from oracles import ref_enumerate_plays
from walks import innocent_explore, played

DATA = Path(__file__).parent / "data"


def report(n: int, ok: bool, desc: str) -> bool:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {desc}",
          file=sys.__stdout__)
    return ok


# -------------------------------------------------------------- 1


def test_criterion_1_orders_differ_in_traces_not_in_content():
    b = Bounds(max_nat=2, max_play_len=6)
    lr = make_add(("L", "R"), 2)
    rl = make_add(("R", "L"), 2)
    t1 = traces(lr, b)
    t2 = traces(rl, b)
    probe_l = Play(lr.arena, (("R.q", ROOT), ("L.L.q", 0)))
    probe_r = Play(lr.arena, (("R.q", ROOT), ("L.R.q", 0)))
    rep = obs_equiv(lr, rl, b)
    ok = (
        t1 != t2
        and len(t1) == 25
        and probe_l in t1 and probe_l not in t2
        and probe_r in t2 and probe_r not in t1
        and rep.equal
        and rep.verdict == "EQUIV_AT_BOUNDS"
        and len(observations(lr, b).sets) == 9
        and observations(lr, b).sets == observations(rl, b).sets
    )
    assert report(1, ok, "argument orders split the trace sets yet "
                         "share all observable content")


# -------------------------------------------------------------- 2


def _lift(s: Play, lifted) -> Play:
    moves = (("R.q", ROOT),)
    moves += tuple(("L." + m, 0 if p == ROOT else p + 1) for m, p in s.moves)
    return Play(lifted, moves)


def test_criterion_2_view_duality_under_lifting():
    stock = []
    for arena, cap in ((make_sigma(), 6),
                       (make_nat_arena(2), 6),
                       (arrow(make_nat_arena(2), make_nat_arena(2)), 10)):
        lifted = arrow(arena, make_sigma())
        for s in ref_enumerate_plays(arena, cap, single_threaded=True):
            stock.append((s, lifted))
    mismatches = [
        s for s, lifted in stock
        if pview(_lift(s, lifted)) != _lift(oview(s), lifted)
    ]
    ok = len(stock) == 614 and len(stock) >= 500 and not mismatches
    assert report(2, ok, f"Proponent view of the lifted play equals the "
                         f"lifted Opponent view on {len(stock)} plays, "
                         f"pointers included")


# -------------------------------------------------------------- 3


SET_COUNTS = {
    "add_LR": 9, "add_RL": 9, "add_LLR": 9,
    "proj_fst": 3, "proj_snd": 3, "applier": 28,
    "num_0": 1, "num_1": 1, "succ_0": 1,
    "bottom_nat": 0, "fix_succ": 0,
    "double": 3, "add_curried": 9, "add_curried_flip": 9,
    "succ_fun": 3, "pred_fun": 3, "iszero": 3,
    "strict_zero": 2, "rec_zero": 2,
}


def test_criterion_3_complete_traces_induce_deterministic_view_sets():
    got_counts = {}
    bad = []
    exceeded = 0
    for e in CORPUS:
        tr = innocent_explore(e.build(), e.bounds)
        exceeded += tr.bound_exceeded
        fams = set()
        for s in played(tr):
            if not is_complete(s):
                continue
            vs = prefix_oviews(s)
            fams.add(vs)
            try:
                ODetSet(tr.arena, vs)
            except ValueError:
                bad.append((e.name, s))
        got_counts[e.name] = len(fams)
    ok = not bad and exceeded == 0 and got_counts == SET_COUNTS
    assert report(3, ok, "every complete single-threaded trace of all "
                         f"{len(SET_COUNTS)} corpus strategies yields a "
                         "deterministic view set")


# -------------------------------------------------------------- 4


def test_criterion_4_verdicts_match_containment_exactly():
    b = Bounds(max_nat=1, max_play_len=8, max_view_len=4)
    names = ("num_0", "num_1", "succ_0", "bottom_nat")
    strategies = [(n, entry(n).build()) for n in names]
    arena = strategies[0][1].arena
    candidate_sets = enumerate_closed_odet_sets(arena, b.max_view_len)
    runs = 0
    mismatches = []
    exceeded = 0
    for name, sigma in strategies:
        content = observations(sigma, b)
        for vs in candidate_sets:
            s = ODetSet(arena, vs)
            v = run_test(sigma, s, b)
            runs += 1
            if v is Verdict.BOUND_EXCEEDED:
                exceeded += 1
                continue
            want_top = any(t <= vs for t in content.sets)
            if (v is Verdict.TOP) != want_top:
                mismatches.append((name, sorted(len(x) for x in vs)))
    ok = (len(candidate_sets) == 6 and runs == 24
          and exceeded == 0 and not mismatches)
    assert report(4, ok, f"convergence verdict equals view-set containment "
                         f"on all {runs} strategy/test runs")


# -------------------------------------------------------------- 5


def test_criterion_5_two_decision_methods_agree():
    disagreements = []
    excluded = 0
    for p in PAIRS:
        s1, s2 = build_pair(p)
        rep = obs_equiv(s1, s2, p.bounds)
        fwd = brute_force_leq(s1, s2, p.bounds)
        bwd = brute_force_leq(s2, s1, p.bounds)
        excluded += fwd.bound_exceeded + bwd.bound_exceeded
        excluded += sum(rep.bound_exceeded)
        oracle_equal = fwd.holds and bwd.holds
        if not (rep.equal == oracle_equal == p.expect_equal):
            disagreements.append((p.left, p.right, rep.equal, oracle_equal))
    ok = not disagreements and excluded == 0 and len(PAIRS) == 13
    assert report(5, ok, f"observational comparison and the brute-force "
                         f"test oracle agree on all {len(PAIRS)} pairs, "
                         "no run excluded")


# -------------------------------------------------------------- 6


def test_criterion_6_mutual_order_without_equality():
    sig = ObservationalStrategy.from_json(
        json.loads((DATA / "counterexample_sigma.json").read_text()))
    tau = ObservationalStrategy.from_json(
        json.loads((DATA / "counterexample_tau.json").read_text()))
    round1 = ObservationalStrategy.from_json(sig.to_json(include_arena=True))
    ok = (
        sig.arena == tau.arena
        and obs_leq(sig, tau) and obs_leq(tau, sig)
        and sig.sets != tau.sets
        and not is_observational(sig)
        and is_observational(tau)
        and round1.sets == sig.sets
    )
    assert report(6, ok, "stored counterexample: mutually below one another, "
                         "unequal, and only one side is realisable")


# -------------------------------------------------------------- 7


def test_criterion_7_observable_content_is_a_realisable_antichain():
    offenders = []
    for e in CORPUS:
        x = observations(e.build(), e.bounds)
        if not is_observational(x):
            offenders.append((e.name, "not realisable"))
        for s in x.sets:
            for t in x.sets:
                if s != t and s <= t:
                    offenders.append((e.name, "strict inclusion"))
    ok = not offenders
    assert report(7, ok, "every corpus strategy's observable content is a "
                         "realisable antichain")


# -------------------------------------------------------------- 8


def test_criterion_8_structural_laws_hold():
    rep = check_category_laws(Bounds())
    rep4 = check_category_laws(Bounds(max_nat=4))
    val4 = [c for c in rep4.checks if c.law == "associativity_value"]
    ok = (
        rep.all_pass and len(rep.checks) == 11
        and rep.to_json()["verdict"] == "ALL_LAWS_HOLD"
        and rep4.all_pass
        and val4[0].subject == "equals numeral 4"
    )
    assert report(8, ok, "identity, associativity, and congruence pass at "
                         "default and widened value bounds")


# -------------------------------------------------------------- 9


def test_criterion_9_verdicts_are_bound_relative():
    wide = Bounds(max_nat=2, max_play_len=8)
    narrow = Bounds(max_nat=2, max_play_len=6)
    llr = entry("add_LLR")
    lr = entry("add_LR")

    def at(b):
        from gamesem.corpus import CorpusEntry
        return (CorpusEntry(llr.name, llr.source, b).build(),
                CorpusEntry(lr.name, lr.source, b).build())

    s_wide = at(wide)
    s_narrow = at(narrow)
    rep_wide = obs_equiv(s_wide[0], s_wide[1], wide)
    rep_narrow = obs_equiv(s_narrow[0], s_narrow[1], narrow)
    starved = observations(s_narrow[0], narrow)
    ok = (
        rep_wide.equal
        and not rep_narrow.equal
        and rep_narrow.witness_side == "right"
        and starved.sets == frozenset()
    )
    assert report(9, ok, "three-question sum equals the two-question one "
                         "only once the play budget admits its interrogation")
