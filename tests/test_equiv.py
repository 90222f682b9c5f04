import itertools
import time

import pytest

from gamesem import equiv
from gamesem.arena import arrow, make_nat_arena, make_sigma, product
from gamesem.bounds import Bounds
from gamesem.corpus import CorpusEntry, entry
from gamesem.equiv import (
    OracleIncomplete,
    brute_force_leq,
    check_category_laws,
    closed_odet_sets,
    count_closed_odet_sets,
    enumerate_closed_odet_sets,
    enumerate_oviews,
    obs_equiv,
)
from gamesem.observation import is_o_deterministic, is_oview_shaped, viewset_key
from gamesem.pcf import denote, parse
from gamesem.plays import ROOT, Play, is_well_bracketed
from gamesem.strategy import InnocentStrategy

from oracles import ref_closed_odet_sets, ref_enumerate_oviews

N1 = make_nat_arena(1)
N2 = make_nat_arena(2)
FLAT = Bounds(max_nat=1, max_play_len=8, max_view_len=4)


def _sigma_pair():
    sig = make_sigma()
    top = InnocentStrategy(
        sig, "converge",
        view_fn=lambda v: ("a", 0) if v.moves == (("q", ROOT),) else None)
    bot = InnocentStrategy(sig, "diverge", view_fn=lambda v: None)
    return sig, top, bot


# ----------------------------------------------------- view enumeration


def test_enumerate_oviews_shape_and_cap():
    a = arrow(N1, N1)
    vs = enumerate_oviews(a, 4)
    assert all(is_oview_shaped(v) for v in vs)
    assert all(is_well_bracketed(v) for v in vs)
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


def test_closed_sets_are_all_deterministic():
    a = arrow(N1, N1)
    sets = enumerate_closed_odet_sets(a, 4)
    assert frozenset() in sets
    assert frozenset({Play(a, ())}) in sets
    for vs in sets:
        assert is_o_deterministic(a, vs)


# Every arena and view cap the lazy stream is checked on, element for
# element, against the eager reference.
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
    got = list(closed_odet_sets(arena, cap))
    assert got == ref_closed_odet_sets(arena, cap)
    assert count_closed_odet_sets(arena, cap) == len(got)


def test_closed_sets_stream_is_lazy():
    # The CLI defaults on (nat -> nat) -> nat: far too many sets to list.
    a = arrow(arrow(make_nat_arena(3), make_nat_arena(3)), make_nat_arena(3))
    assert count_closed_odet_sets(a, 6) == 3_748_194
    t0 = time.perf_counter()
    first = list(itertools.islice(closed_odet_sets(a, 6), 1000))
    assert time.perf_counter() - t0 < 10
    assert len(first) == 1000
    keys = [viewset_key(vs) for vs in first]
    assert keys == sorted(keys)
    assert all(is_o_deterministic(a, vs) for vs in first)


def test_closed_sets_stream_handles_a_wide_view():
    # The question of nat 1500 has 1,501 answers, far more children
    # than the interpreter's default recursion limit of 1,000 frames.
    wide = make_nat_arena(1500)
    first = list(itertools.islice(closed_odet_sets(wide, 2), 1504))
    assert [len(vs) for vs in first] == [0, 1, 2] + [3] * 1501
    keys = [viewset_key(vs) for vs in first]
    assert keys == sorted(keys)
    assert {m for vs in first for v in vs for m, _ in v.moves} == set(wide.moves)
    # Those over the moves of nat 3 are the reference's sets up to 3 moves.
    small = make_nat_arena(3)
    ref = [sorted(v.moves for v in vs) for vs in ref_closed_odet_sets(small, 2)[:7]]
    got = [sorted(v.moves for v in vs) for vs in first
           if all(m in small.moves for v in vs for m, _ in v.moves)]
    assert got == ref


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
    got = sorted([tuple(m for m, _ in v.moves) for v in r.witness.views],
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


# ------------------------------------------------------ brute_force_leq


def test_brute_force_leq_on_observation_arena():
    sig, top, bot = _sigma_pair()
    b = Bounds(max_nat=1, max_play_len=6, max_view_len=4)
    r = brute_force_leq(bot, top, b)
    assert r.holds and r.verdict == "HOLDS_AT_BOUNDS"
    assert r.tested == 4 and r.bound_exceeded == 0
    assert r.witness is None


def test_brute_force_leq_failure_witness():
    sig, top, bot = _sigma_pair()
    b = Bounds(max_nat=1, max_play_len=6, max_view_len=4)
    r = brute_force_leq(top, bot, b)
    assert not r.holds and r.verdict == "FAILS"
    got = sorted([tuple(m for m, _ in v.moves) for v in r.witness.views],
                 key=len)
    assert got == [(), ("q",), ("q", "a")]
    doc = r.to_json()
    assert doc["verdict"] == "FAILS" and doc["tested"] == 4


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
    return [" ".join(m if p == ROOT else f"{m}@{p}" for m, p in v.moves)
            for v in sorted(witness.views, key=lambda v: (len(v.moves), v.moves))]


def test_brute_force_leq_stops_at_the_first_witness():
    # 44 and 128 of 18,514 candidates; the witnesses are the ones the
    # eager enumeration found.
    b = Bounds(max_nat=1, max_play_len=16, max_view_len=8)
    once = denote(parse("fun f: nat -> nat -> f 1"), b)
    twice = denote(parse("fun f: nat -> nat -> f (f 1)"), b)
    fwd = brute_force_leq(once, twice, b)
    bwd = brute_force_leq(twice, once, b)
    assert (fwd.holds, fwd.tested, fwd.bound_exceeded) == (False, 44, 0)
    assert (bwd.holds, bwd.tested, bwd.bound_exceeded) == (False, 128, 0)
    assert _views(fwd.witness) == [
        "", "R.q", "R.q L.R.q@0", "R.q R.0@0", "R.q L.R.q@0 L.L.q@1",
        "R.q L.R.q@0 L.L.q@1 L.L.1@2", "R.q L.R.q@0 L.L.q@1 L.L.1@2 L.R.0@1"]
    assert _views(bwd.witness) == [
        "", "R.q", "R.q L.R.q@0", "R.q R.1@0", "R.q L.R.q@0 L.L.q@1",
        "R.q L.R.q@0 L.L.q@1 L.L.0@2", "R.q L.R.q@0 L.L.q@1 L.L.1@2",
        "R.q L.R.q@0 L.L.q@1 L.L.0@2 L.R.1@1",
        "R.q L.R.q@0 L.L.q@1 L.L.1@2 L.R.0@1"]


def test_brute_force_leq_budget(monkeypatch):
    # bot <= top holds and runs all 4 candidates on the Sigma arena.
    sig, top, bot = _sigma_pair()
    b = Bounds(max_nat=1, max_play_len=6, max_view_len=4)
    monkeypatch.setattr(equiv, "TEST_BUDGET", 4)
    assert brute_force_leq(bot, top, b).tested == 4
    monkeypatch.setattr(equiv, "TEST_BUDGET", 3)
    with pytest.raises(OracleIncomplete) as e:
        brute_force_leq(bot, top, b)
    assert (e.value.tested, e.value.candidates) == (3, 4)
    assert str(e.value) == "oracle incomplete at bounds after 3 of 4 candidate tests"
    # A failing test found by the last test the budget allows is reported.
    monkeypatch.setattr(equiv, "TEST_BUDGET", 4)
    r = brute_force_leq(top, bot, b)
    assert not r.holds and r.tested == 4


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
