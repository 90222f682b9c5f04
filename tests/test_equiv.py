import importlib.util
import itertools
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from gamesem import equiv
from gamesem.arena import arrow, make_nat_arena, make_sigma, product
from gamesem.bounds import Bounds
from gamesem.corpus import PAIRS, CorpusEntry, build_pair, entry
from gamesem.equiv import (
    OracleIncomplete,
    brute_force_leq,
    check_category_laws,
    enumerate_closed_odet_sets,
    obs_equiv,
)
from gamesem.observation import ODetSet, ObservationalStrategy
from gamesem.observation import TestVerdict as Verdict
from gamesem.observation import oview_steps, run_test, viewset_key
from gamesem.pcf import denote, parse
from gamesem.plays import ROOT, Play
from gamesem.strategy import InnocentStrategy

from oracles import (
    ref_closed_odet_sets,
    ref_count_closed_odet_sets,
    ref_enumerate_oviews,
    ref_is_legal,
    ref_leq,
    ref_oview,
    ref_pending_questions,
)

REPO = Path(__file__).resolve().parent.parent

N1 = make_nat_arena(1)
N2 = make_nat_arena(2)
FLAT = Bounds(max_nat=1, max_play_len=8, max_view_len=4)


def _sigma_pair():
    sig = make_sigma()
    top = InnocentStrategy(
        sig, "converge",
        view_fn=lambda v: ("a", 0) if v == (("q", ROOT),) else None)
    bot = InnocentStrategy(sig, "diverge", view_fn=lambda v: None)
    return sig, top, bot


# ----------------------------------------------------- view enumeration


def enumerate_oviews(arena, cap):
    """Every well-bracketed O-view of at most `cap` moves that
    `oview_steps` grows from the empty view, in play_key order."""
    out, frontier = [], [((), ())]
    while frontier:
        v, pending = frontier.pop()
        out.append(Play(arena, v))
        if len(v) < cap:
            frontier += [(v + (e,), p) for e, p in oview_steps(arena, v, pending).items()
                         if p is not None]
    return sorted(out, key=lambda v: (len(v.moves), v.moves))


def test_enumerate_oviews_shape_and_cap():
    a = arrow(N1, N1)
    vs = enumerate_oviews(a, 4)
    assert all(ref_is_legal(v) and ref_oview(v) == v for v in vs)
    assert all(ref_pending_questions(v) is not None for v in vs)
    assert all(len(v.moves) <= 4 for v in vs)
    assert len(vs) == len(set(vs))
    assert Play(a, ()) in vs


def test_enumerate_oviews_flat():
    vs = enumerate_oviews(N1, 4)
    # empty, the question, and one view per answer
    assert len(vs) == 4


@pytest.mark.parametrize("arena,cap,size", [
    (N1, 4, 4),
    (arrow(N1, N1), 6, 7),
    (arrow(product(N1, N1), N1), 6, 10),
    (arrow(N1, arrow(N1, N1)), 6, 10),
    (arrow(arrow(N1, N1), N1), 8, 40),
    (arrow(arrow(N2, N2), N2), 6, 34),
    # third order: the only arena here with ill-bracketed O-views to prune
    (arrow(arrow(arrow(N1, N1), N1), N1), 8, 83),
])
def test_enumerate_oviews_matches_reference(arena, cap, size):
    vs = enumerate_oviews(arena, cap)
    assert len(vs) == size
    assert vs == ref_enumerate_oviews(arena, cap)


def test_closed_set_counts():
    counts = {
        "flat": (N1, 6),
        "first_order": (arrow(N1, N1), 18),
        "two_arguments": (arrow(product(N1, N1), N1), 66),
        "curried": (arrow(N1, arrow(N1, N1)), 66),
    }
    for _, (a, want) in counts.items():
        got = enumerate_closed_odet_sets(a, 4)
        assert len(got) == want
        assert len(set(got)) == want
    # The CLI defaults on (nat -> nat) -> nat: far too many sets to list.
    a = arrow(arrow(make_nat_arena(3), make_nat_arena(3)), make_nat_arena(3))
    assert ref_count_closed_odet_sets(a, 6) == 3_748_194


def test_closed_sets_are_all_deterministic():
    a = arrow(N1, N1)
    sets = enumerate_closed_odet_sets(a, 4)
    assert frozenset() in sets
    assert frozenset({()}) in sets
    for vs in sets:
        ODetSet(a, vs)


def _moves(sets):
    """The reference's view sets of `Play`s, each view as its moves."""
    return [frozenset(v.moves for v in vs) for vs in sets]


# Every arena and view cap the candidate list is checked on, element for
# element, against the reference.
REFERENCE_CASES = [
    ("N1", N1, 6),
    ("N1=>N1", arrow(N1, N1), 4),
    ("N1=>N1", arrow(N1, N1), 6),
    ("(N1xN1)=>N1", arrow(product(N1, N1), N1), 4),
    ("N1=>(N1=>N1)", arrow(N1, arrow(N1, N1)), 4),
    ("(N1=>N1)=>N1", arrow(arrow(N1, N1), N1), 6),
    ("(N1=>N1)=>N1", arrow(arrow(N1, N1), N1), 8),
    ("(N2=>N2)=>N2", arrow(arrow(N2, N2), N2), 6),
    ("((N1=>N1)=>N1)=>N1", arrow(arrow(arrow(N1, N1), N1), N1), 6),
]


@pytest.mark.parametrize("arena,cap", [(a, c) for _, a, c in REFERENCE_CASES],
                         ids=[f"{n}@{c}" for n, _, c in REFERENCE_CASES])
def test_closed_sets_stream_equals_eager_reference(arena, cap):
    got = enumerate_closed_odet_sets(arena, cap)
    assert got == _moves(ref_closed_odet_sets(arena, cap))
    assert ref_count_closed_odet_sets(arena, cap) == len(got)


def test_closed_sets_stream_handles_a_wide_view():
    # The question of nat 12 has 13 answers, each taken or left out.
    wide = make_nat_arena(12)
    got = enumerate_closed_odet_sets(wide, 2)
    assert len(got) == ref_count_closed_odet_sets(wide, 2) == 2 + 2 ** 13
    assert got == _moves(ref_closed_odet_sets(wide, 2))


@pytest.mark.parametrize("cap", [0, -1])
def test_closed_sets_at_a_cap_below_one(cap):
    # No view grows, so the empty view is the only one.
    assert enumerate_oviews(N1, cap) == [Play(N1, ())]
    assert enumerate_closed_odet_sets(N1, cap) == [frozenset(), frozenset({()})]


# ----------------------------------------------------------- obs_equiv


def test_obs_equiv_positive():
    b = Bounds(max_nat=2, max_play_len=6)
    r = obs_equiv(entry("add_LR").build(), entry("add_RL").build(), b)
    assert r.equal and r.witness is None and r.witness_side is None
    assert r.verdict == "EQUIV_AT_BOUNDS"
    assert r.to_json()["bound_exceeded_count"] == 0


def test_obs_equiv_negative_picks_smallest_witness():
    add = CorpusEntry("add_LR", None, FLAT).build()
    proj = CorpusEntry("proj_fst", None, FLAT).build()
    r = obs_equiv(add, proj, FLAT)
    assert not r.equal and r.verdict == "INEQUIV"
    # smallest separating behaviour: the projection answering 0 after
    # reading only its first argument
    assert r.witness_side == "right"
    got = sorted([tuple(m for m, _ in v) for v in r.witness.views],
                 key=lambda t: (len(t), t))
    assert got == [
        (),
        ("R.q",),
        ("R.q", "L.L.q"),
        ("R.q", "R.0"),
        ("R.q", "L.L.q", "L.L.0"),
    ]


def test_obs_equiv_rejects_arena_mismatch():
    b = FLAT
    with pytest.raises(ValueError):
        obs_equiv(CorpusEntry("num_0", "0", b).build(),
                  CorpusEntry("proj_fst", None, b).build(), b)


def test_obs_equiv_symmetric_verdict():
    add = CorpusEntry("add_LR", None, FLAT).build()
    proj = CorpusEntry("proj_fst", None, FLAT).build()
    r1 = obs_equiv(add, proj, FLAT)
    r2 = obs_equiv(proj, add, FLAT)
    assert r1.witness == r2.witness
    assert {r1.witness_side, r2.witness_side} == {"left", "right"}


def test_the_witness_is_the_viewset_key_least_among_sets_of_one_size():
    # sets that tie on (total moves, view count) are ordered by their
    # views, as `viewset_key` orders them; a tie at a larger size loses
    q = ("q", ROOT)

    def closed(*moves):
        return frozenset(moves[:k] for k in range(len(moves) + 1))

    two, one, zero = (closed(q, (n, 0)) for n in ("2", "1", "0"))
    wide = one | two
    x = ObservationalStrategy(N2, frozenset({two, one, wide}), FLAT)
    for y_sets, want in (({wide}, one), ({zero}, zero), ({wide, one}, two)):
        y = ObservationalStrategy(N2, frozenset(y_sets), FLAT)
        assert equiv._least_difference(x, y) == want
        assert want == min(x.sets ^ y.sets, key=viewset_key)
    # every pair of six sets of one size: a tie broken by the order the
    # sets are held in, not by their views, picks the wrong one somewhere
    n5 = make_nat_arena(5)
    tied = [closed(q, (str(n), 0)) for n in range(6)]
    for a, b in itertools.combinations(range(6), 2):
        x = ObservationalStrategy(n5, frozenset({tied[a], tied[b]}), FLAT)
        y = ObservationalStrategy(n5, frozenset(), FLAT)
        assert equiv._least_difference(x, y) == tied[a]


@pytest.mark.xfail(strict=True, reason=(
    "a wrong INEQUIV with no bound hit: L's longer plays are cut at the play cap "
    "without a count, so the witness from R's side runs BOUND_EXCEEDED against L "
    "(ROADMAP items 5 and 17)"))
def test_asking_g_twice_through_ifz_is_asking_it_once():
    # equivalent in PCF: an innocent g answers both calls alike
    b = Bounds(max_nat=1, max_play_len=16)
    arg = "g (fun x: nat -> x)"
    left = denote(parse(f"fun g: (nat -> nat) -> nat -> ifz {arg} then {arg} else {arg}"), b)
    right = denote(parse(f"fun g: (nat -> nat) -> nat -> {arg}"), b)
    r = obs_equiv(left, right, b)
    assert r.to_json()["bound_exceeded_count"] == 0
    assert r.equal, r.witness_side


@pytest.mark.xfail(strict=True, reason=(
    "a wrong INEQUIV with no bound hit, the witness on the left: the duplicate's "
    "plays are cut at the play cap without a count, at nat 1 and 2 and every even "
    "play_len from 12 to 24 (ROADMAP items 5, 16 and 23)"))
def test_asking_f_f_1_twice_through_ifz_is_asking_it_once():
    # equivalent in PCF: duplicating a term under `ifz` changes nothing
    b = Bounds(max_nat=1, max_play_len=12)
    twice = "f (f 1)"
    left = denote(parse(f"fun f: nat -> nat -> {twice}"), b)
    right = denote(parse(f"fun f: nat -> nat -> ifz {twice} then {twice} else {twice}"), b)
    r = obs_equiv(left, right, b)
    assert r.bound_exceeded == (0, 0)
    assert r.equal, r.witness_side


# ------------------------------------------------------ brute_force_leq


def test_brute_force_leq_on_observation_arena():
    sig, top, bot = _sigma_pair()
    b = Bounds(max_nat=1, max_play_len=6, max_view_len=4)
    r = brute_force_leq(bot, top, b)
    assert r.holds and r.verdict == "HOLDS_AT_BOUNDS"
    # three leaves: nothing at the empty view; the question, then
    # nothing or success at its answer
    assert r.tested == 3 and r.bound_exceeded == 0
    assert r.witness is None


def test_brute_force_leq_failure_witness():
    sig, top, bot = _sigma_pair()
    b = Bounds(max_nat=1, max_play_len=6, max_view_len=4)
    r = brute_force_leq(top, bot, b)
    assert not r.holds and r.verdict == "FAILS"
    got = sorted([tuple(m for m, _ in v) for v in r.witness.views],
                 key=len)
    assert got == [(), ("q",), ("q", "a")]
    doc = r.to_json()
    assert doc["verdict"] == "FAILS" and doc["tested"] == 3


def test_brute_force_agrees_with_obs_on_numerals():
    b = FLAT
    zero = CorpusEntry("num_0", "0", b).build()
    one = CorpusEntry("num_1", "1", b).build()
    assert not obs_equiv(zero, one, b).equal
    fwd = brute_force_leq(zero, one, b)
    bwd = brute_force_leq(one, zero, b)
    assert not (fwd.holds and bwd.holds)


def _views(witness):
    # Each view as its moves, a justified move written move@pointer.
    return [" ".join(m if p == ROOT else f"{m}@{p}" for m, p in v)
            for v in sorted(witness.views, key=lambda v: (len(v), v))]


def test_brute_force_leq_stops_at_the_first_witness():
    # 11 and 19 leaves, where the eager enumeration ran 44 and 128 of
    # 18,514 candidates; the witnesses are the ones it found.
    b = Bounds(max_nat=1, max_play_len=16, max_view_len=8)
    once = denote(parse("fun f: nat -> nat -> f 1"), b)
    twice = denote(parse("fun f: nat -> nat -> f (f 1)"), b)
    fwd = brute_force_leq(once, twice, b)
    bwd = brute_force_leq(twice, once, b)
    assert (fwd.holds, fwd.tested, fwd.bound_exceeded) == (False, 11, 0)
    assert (bwd.holds, bwd.tested, bwd.bound_exceeded) == (False, 19, 0)
    assert _views(fwd.witness) == [
        "", "R.q", "R.q L.R.q@0", "R.q R.0@0", "R.q L.R.q@0 L.L.q@1",
        "R.q L.R.q@0 L.L.q@1 L.L.1@2", "R.q L.R.q@0 L.L.q@1 L.L.1@2 L.R.0@1"]
    assert _views(bwd.witness) == [
        "", "R.q", "R.q L.R.q@0", "R.q R.1@0", "R.q L.R.q@0 L.L.q@1",
        "R.q L.R.q@0 L.L.q@1 L.L.0@2", "R.q L.R.q@0 L.L.q@1 L.L.1@2",
        "R.q L.R.q@0 L.L.q@1 L.L.0@2 L.R.1@1",
        "R.q L.R.q@0 L.L.q@1 L.L.1@2 L.R.0@1"]


def test_brute_force_leq_budget(monkeypatch):
    # bot <= top holds and evaluates all 3 leaves on the Sigma arena.
    sig, top, bot = _sigma_pair()
    b = Bounds(max_nat=1, max_play_len=6, max_view_len=4)
    monkeypatch.setattr(equiv, "TEST_BUDGET", 3)
    assert brute_force_leq(bot, top, b).tested == 3
    monkeypatch.setattr(equiv, "TEST_BUDGET", 2)
    with pytest.raises(OracleIncomplete) as e:
        brute_force_leq(bot, top, b)
    assert e.value.tested == 2
    assert str(e.value) == "oracle incomplete at bounds after 2 tests"
    # A failing test found at the last leaf the budget allows is reported.
    monkeypatch.setattr(equiv, "TEST_BUDGET", 3)
    r = brute_force_leq(top, bot, b)
    assert not r.holds and r.tested == 3


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _oracle_cases():
    """The sweep's pairs (the battery and four higher-order pairs); the
    battery again at play_len 4, where most pairs lose tests to the
    interaction budget, and at view_len 2, where the cap falls on the
    complete views; a third-order pair, whose arena has O-views that
    are not well-bracketed; and the benchmark's extra oracle pairs."""
    sweep = _load(REPO / "scripts" / "oracle_sweep.py")
    for left, right, s1, s2, b, _ in sweep.cases():
        yield pytest.param(s1, s2, b, id=f"{left}~{right}@{b.max_play_len}/{b.max_view_len}")
    for p in PAIRS:
        for b in (replace(p.bounds, max_play_len=4), replace(p.bounds, max_view_len=2)):
            q = replace(p, bounds=b)
            yield pytest.param(*build_pair(q), b,
                               id=f"{p.left}~{p.right}@{b.max_play_len}/{b.max_view_len}")
    b = Bounds(max_nat=1, max_play_len=12, max_view_len=6)
    s1, s2 = (denote(parse(f"fun F: (nat -> nat) -> nat -> F (fun x: nat -> {body})"), b)
              for body in ("x", "F (fun y: nat -> y)"))
    yield pytest.param(s1, s2, b, id="third-order@12/6")
    workloads = _load(REPO / "perfbench" / "workloads.py")
    for e in workloads.ORACLE_EXTRA:
        b = Bounds(**e.bounds.to_json())
        s1, s2 = (denote(parse(workloads.TERMS[t].format(f="f", x="x")), b)
                  for t in (e.left, e.right))
        yield pytest.param(s1, s2, b, id=f"bench:{e.name}")


@pytest.mark.parametrize("s1,s2,b", _oracle_cases())
def test_brute_force_leq_agrees_with_every_candidate_run(s1, s2, b):
    # The lazy search against the eager quantifier, both ways: the same
    # verdict, witness and bound hits, from no more leaves than tests.
    for x, y in ((s1, s2), (s2, s1)):
        got, want = brute_force_leq(x, y, b), ref_leq(x, y, b)
        assert got.holds == want.holds
        assert got.witness == want.witness
        assert (got.bound_exceeded > 0) == (want.bound_exceeded > 0)
        assert got.tested <= want.tested


def test_the_search_order_is_the_viewset_key_of_the_closing_set():
    # The search pops partial tables by this key; the witness is the
    # least failing candidate only if it is the set's `viewset_key`.
    q, asked = (("R.q", ROOT),), (("R.q", ROOT), ("L.q", 0))
    steps = [((), ("R.q", ROOT)), (q + (("L.q", 0),), ("L.1", 1)),
             (q + (("R.1", 0),), equiv._SUCCEED), (asked + (("L.1", 1), ("R.1", 0)), None)]
    key, views = viewset_key(()), set()
    for at, entry in steps:
        key = equiv._closing(key, at, entry)
        if entry is not None:
            views.add(at)
        if entry not in (None, equiv._SUCCEED):
            views.add(at + (entry,))
        assert key == viewset_key(views)


def test_brute_force_leq_beyond_the_candidate_list():
    # About 4.8e22 candidate sets: no list reaches the witness, the
    # search does.
    b = Bounds(max_nat=3, max_play_len=16, max_view_len=8)
    twice = denote(parse("fun f: nat -> nat -> f (f 1)"), b)
    thrice = denote(parse("fun f: nat -> nat -> f (f (f 1))"), b)
    r = brute_force_leq(twice, thrice, b)
    assert (r.holds, r.tested, r.bound_exceeded) == (False, 35, 3)
    assert run_test(twice, r.witness, b) is Verdict.TOP
    assert run_test(thrice, r.witness, b) is not Verdict.TOP


# ---------------------------------------------------------------- laws


def test_category_laws_hold_and_report():
    rep = check_category_laws(Bounds())
    assert rep.all_pass
    assert len(rep.checks) == 11
    laws = {c.law for c in rep.checks}
    assert laws == {"identity_left", "identity_right", "associativity",
                    "associativity_value", "congruence"}
    doc = rep.to_json()
    assert doc["verdict"] == "ALL_LAWS_HOLD"
    assert all(c["passed"] for c in doc["checks"])


def test_law_failures_are_reported_with_their_detail(monkeypatch):
    # Without the wider interaction budget the composites hit the play
    # bound: identities lose the plays that hit it, and the two
    # associations lose different view sets.
    monkeypatch.setattr(equiv, "_interaction_bounds", lambda b: b)
    rep = check_category_laws(Bounds(max_nat=2, max_play_len=4))
    assert rep.to_json()["verdict"] == "LAW_FAILURE"
    failed = [(c.law, c.subject, c.detail) for c in rep.checks if not c.passed]
    identity = "missing=3 extra=0 exceeded=3"
    assert failed == [
        *((law, name, identity) for name in ("succ", "add_LR", "proj_fst")
          for law in ("identity_left", "identity_right")),
        ("associativity", "numeral_2_thunk;succ;succ",
         "distinguishing view set: [[], ['R.q'], ['R.q', 'R.2']]"),
    ]


def test_associativity_value_names_the_sum():
    rep = check_category_laws(Bounds(max_nat=4))
    assert rep.all_pass
    (val,) = [c for c in rep.checks if c.law == "associativity_value"]
    assert val.subject == "equals numeral 4"
