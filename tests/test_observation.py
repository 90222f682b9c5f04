import functools
import json
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gamesem.arena import arrow, make_nat_arena, make_sigma, product
from gamesem.bounds import Bounds
from gamesem.corpus import CORPUS, PAIRS, build_pair
from gamesem.equiv import brute_force_leq, enumerate_closed_odet_sets, obs_equiv
from gamesem.observation import (
    _SUCCEED,
    ODetSet,
    ObservationalStrategy,
    induced_test,
    is_observational,
    obs_leq,
    observations,
    prefix_oviews,
    run_test,
    sorted_views,
    viewset_key,
)
from gamesem.observation import TestVerdict as Verdict
from gamesem.pcf import denote, make_add, parse
from gamesem.plays import ROOT, Play
from gamesem.strategy import BoundExceeded, InnocentStrategy, as_thunk, compose
from mutations import mutated
from oracles import is_single_threaded, ref_is_legal, ref_oview, ref_pending_questions
from walks import innocent_explore, played

N2 = make_nat_arena(2)
ARROW = arrow(N2, N2)


def P(arena, *moves):
    return Play(arena, tuple(moves))


def V(*pairs):
    """The moves `pairs` and their prefixes, a view-set of move tuples."""
    return frozenset(pairs[:k] for k in range(len(pairs) + 1))


def test_prefix_oviews_of_interrogation():
    s = P(ARROW, ("R.q", ROOT), ("L.q", 0), ("L.1", 1), ("R.2", 0))
    got = prefix_oviews(s)
    want = {
        (),
        (("R.q", ROOT),),
        (("R.q", ROOT), ("L.q", 0)),
        (("R.q", ROOT), ("L.q", 0), ("L.1", 1)),
        (("R.q", ROOT), ("R.2", 0)),
    }
    assert got == want


def test_odet_accepts_interrogation_views():
    s = P(ARROW, ("R.q", ROOT), ("L.q", 0), ("L.1", 1), ("R.2", 0))
    ODetSet(ARROW, prefix_oviews(s))


def test_odet_rejects_unclosed_set():
    # two numeral answers with the shared one-move body missing
    views = frozenset({
        (("q", ROOT), ("2", 0)),
        (("q", ROOT), ("1", 0)),
    })
    with pytest.raises(ValueError, match="prefix"):
        ODetSet(N2, views)


def test_odet_rejects_opponent_branching():
    # two Opponent answers to the same argument question
    views = frozenset({
        (),
        (("R.q", ROOT),),
        (("R.q", ROOT), ("L.q", 0)),
        (("R.q", ROOT), ("L.q", 0), ("L.0", 1)),
        (("R.q", ROOT), ("L.q", 0), ("L.1", 1)),
    })
    with pytest.raises(ValueError, match="Opponent"):
        ODetSet(ARROW, views)


def test_odet_allows_proponent_answer_branching():
    # numeral answers are Proponent moves, so this set is fine
    views = frozenset({
        (),
        (("q", ROOT),),
        (("q", ROOT), ("2", 0)),
        (("q", ROOT), ("1", 0)),
    })
    ODetSet(N2, views)


def test_odet_allows_proponent_branching():
    # after the opening question both a left probe and a direct answer
    views = frozenset({
        (),
        (("R.q", ROOT),),
        (("R.q", ROOT), ("L.q", 0)),
        (("R.q", ROOT), ("L.q", 0), ("L.1", 1)),
        (("R.q", ROOT), ("R.0", 0)),
    })
    ODetSet(ARROW, views)


def test_odet_rejects_two_initials():
    # a product arena has two initial questions; a view-set may use one
    from gamesem.arena import product
    pa = product(N2, N2)
    bad = frozenset({(), (("L.q", ROOT),), (("R.q", ROOT),)})
    with pytest.raises(ValueError, match=r"two Opponent continuations after Play\[\]$"):
        ODetSet(pa, bad)


def test_odet_set_make_closes_prefixes():
    s = ODetSet.make(N2, [(("q", ROOT), ("1", 0))])
    assert len(s.views) == 3
    assert s.initial == "q"


def test_odet_set_make_rejects_opponent_branching():
    with pytest.raises(ValueError):
        ODetSet.make(ARROW, [
            (("R.q", ROOT), ("L.q", 0), ("L.0", 1)),
            (("R.q", ROOT), ("L.q", 0), ("L.1", 1)),
        ])


N1 = make_nat_arena(1)
# (((nat -> nat) -> nat) -> nat): its opener, the argument's question
# (P), that argument asking its own argument (O) and the question under
# that (P)
DEEP = arrow(arrow(arrow(N1, N1), N1), N1)
_DEEP_ASKED = [("R.q", ROOT), ("L.R.q", 0), ("L.L.R.q", 1), ("L.L.L.q", 2)]


@pytest.mark.parametrize("arena, element, reason", [
    # an element of nat 3's arena: its answer 3 is no move of nat 2's
    pytest.param(N2, (("q", ROOT), ("3", 0)), "element is not an O-view",
                 id="wrong-arena"),
    # the second question points at the opener, not at the move before it
    pytest.param(ARROW, (("R.q", ROOT), ("L.q", 0), ("L.1", 1), ("L.q", 0)),
                 "element is not an O-view", id="not-an-o-view"),
    pytest.param(N2, (("q", ROOT), ("1", 0), ("q", ROOT)),
                 "element has several initial moves", id="two-threads"),
    # the argument's answer while the two questions after it are open
    pytest.param(DEEP, (*_DEEP_ASKED, ("L.R.0", 1)),
                 "element is not well-bracketed", id="not-well-bracketed"),
])
def test_odet_set_make_refuses_a_bad_element(arena, element, reason):
    # Every proper prefix of each element is a good element, so the
    # element alone is refused, whatever order the set is walked in.
    with pytest.raises(ValueError, match=f"^not an O-deterministic view-set: {reason}"):
        ODetSet.make(arena, [element])


def test_odet_set_json_roundtrip():
    s = ODetSet.make(ARROW, prefix_oviews(
        P(ARROW, ("R.q", ROOT), ("L.q", 0), ("L.1", 1), ("R.2", 0))))
    doc = s.to_json(include_arena=True)
    assert ODetSet.from_json(doc) == s
    assert ODetSet.from_json(s.to_json(), arena=ARROW) == s
    assert ODetSet.from_json({**doc, "arena": N2.to_json()}, arena=ARROW) == s


def test_documents_without_an_arena_are_refused():
    b = Bounds(max_nat=2, max_play_len=6)
    docs = [(ODetSet, ODetSet.make(N2, [(("q", ROOT), ("1", 0))]).to_json()),
            (ObservationalStrategy, observations(make_add(("L", "R"), 2), b).to_json())]
    for cls, doc in docs:
        with pytest.raises(ValueError, match="^no arena given and none embedded"):
            cls.from_json(doc)


def test_induced_test_lifts_and_answers():
    s = ODetSet.make(N2, [(("q", ROOT), ("1", 0))])
    t = induced_test(s)
    opening = Play(t.arena, (("R.q", ROOT),))
    assert t.respond(opening) == ("L.q", 0)
    answered = opening.extend("L.q", 0).extend("L.1", 1)
    assert t.respond(answered) == ("R.a", 0)
    wrong = opening.extend("L.q", 0).extend("L.2", 1)
    assert t.respond(wrong) is None


def test_run_test_verdicts():
    b = Bounds(max_nat=2, max_play_len=8)
    one = denote(parse("succ 0"), b)
    s_good = ODetSet.make(one.arena, [(("q", ROOT), ("1", 0))])
    s_bad = ODetSet.make(one.arena, [(("q", ROOT), ("2", 0))])
    assert run_test(one, s_good, b) is Verdict.TOP
    assert run_test(one, s_bad, b) is Verdict.BOT
    bottom = denote(parse("fix (fun x: nat -> x)"), b)
    assert run_test(bottom, s_good, b) is Verdict.BOT


def test_run_test_empty_set_is_bot():
    b = Bounds(max_nat=1, max_play_len=8)
    one = denote(parse("0"), b)
    s = ODetSet(one.arena, frozenset())
    assert run_test(one, s, b) is Verdict.BOT


def test_observations_of_add():
    b = Bounds(max_nat=2, max_play_len=6)
    x = observations(make_add(("L", "R"), 2), b)
    assert len(x.sets) == 9  # one per answer pair (m, n) with m, n <= 2
    assert x.bound_exceeded == 0


def test_observations_of_bottom_empty():
    b = Bounds(max_nat=1, max_play_len=8)
    bot = denote(parse("fix (fun x: nat -> x)"), b)
    assert observations(bot, b).sets == frozenset()


@pytest.mark.parametrize("e", CORPUS, ids=lambda e: e.name)
def test_observations_are_the_reference_oviews_of_complete_plays(e):
    # observations reads the view-sets off walk's views, and grows a
    # play at the cap, which the walk yields with its parent's views and
    # open questions, by its last round; the reference reads each
    # complete play's prefixes afresh.  At the entry's cap, and at odd
    # and small ones.
    sigma = e.build()
    for cap in (e.bounds.max_play_len, 1, 2, 3, 5, 7, 9):
        b = replace(e.bounds, max_play_len=cap)
        plays = played(innocent_explore(sigma, b))
        want = {frozenset(ref_oview(p.prefix(k)).moves for k in range(len(p) + 1))
                for p in plays if p.moves and ref_pending_questions(p) == ()}
        assert observations(sigma, b).sets == want, cap


def test_observations_build_each_oview_once():
    # every view-set holds the one move tuple kept for each distinct O-view
    b = Bounds(max_nat=2, max_play_len=24)
    x = observations(denote(parse(
        "fun g: (nat -> nat) -> nat -> g (fun x: nat -> g (fun y: nat -> x))"), b), b)
    views = {v for vs in x.sets for v in vs}
    assert len(views) == 118
    assert len({id(v) for vs in x.sets for v in vs}) == len(views)


def test_observations_complete_plays_only():
    b = Bounds(max_nat=1, max_play_len=8)
    x = observations(denote(parse("0"), b), b)
    assert len(x.sets) == 1
    (s,) = x.sets
    assert (("q", ROOT), ("0", 0)) in s


def test_obs_leq_and_equality():
    b = Bounds(max_nat=2, max_play_len=6)
    x = observations(make_add(("L", "R"), 2), b)
    y = observations(make_add(("R", "L"), 2), b)
    assert obs_leq(x, y) and obs_leq(y, x)
    assert x.sets == y.sets


@pytest.mark.parametrize("left, right, holds", [
    ("num_0", "num_1", (False, False)),
    ("bottom_nat", "num_0", (True, False)),
])
def test_obs_leq_can_fail_and_hold_one_way_only(left, right, holds):
    # the order on observations agrees with the test order wherever no
    # side hit a bound
    entries = {e.name: e for e in CORPUS}
    b = entries[left].bounds
    s1, s2 = entries[left].build(), entries[right].build()
    x, y = observations(s1, b), observations(s2, b)
    assert (obs_leq(x, y), obs_leq(y, x)) == holds
    assert x.bound_exceeded == y.bound_exceeded == 0
    for (u, v), want in zip(((s1, s2), (s2, s1)), holds):
        report = brute_force_leq(u, v, b)
        assert report.bound_exceeded == 0
        assert report.holds == want


def test_is_observational_on_real_obs():
    b = Bounds(max_nat=2, max_play_len=6)
    for order in (("L", "R"), ("R", "L")):
        assert is_observational(observations(make_add(order, 2), b))


def test_is_observational_rejects_unseparated():
    # two sets sharing the even body [q] but extended by the same move
    # cannot be told apart by one Opponent move
    s1 = V(("q", ROOT), ("1", 0))
    s2 = frozenset(s1 | {(("q", ROOT), ("1", 0))})
    x = ObservationalStrategy(N2, frozenset({s1}), Bounds())
    assert is_observational(x)  # single set is trivially separated
    b2 = ObservationalStrategy(
        N2,
        frozenset({V(("q", ROOT), ("1", 0)), V(("q", ROOT))}),
        Bounds(),
    )
    # {eps, q} vs {eps, q, q1}: at body [q] only one of them answers
    assert not is_observational(b2)


def test_observational_strategy_json_roundtrip_and_order():
    b = Bounds(max_nat=2, max_play_len=6)
    x = observations(make_add(("L", "R"), 2), b)
    doc = x.to_json(include_arena=True)
    y = ObservationalStrategy.from_json(doc)
    assert y.sets == x.sets and y.arena == x.arena
    blob1 = json.dumps(doc, sort_keys=True)
    blob2 = json.dumps(observations(make_add(("L", "R"), 2), b).to_json(include_arena=True),
                       sort_keys=True)
    assert blob1 == blob2


def test_viewset_key_orders_by_total_size():
    small = V(("q", ROOT))
    big = V(("q", ROOT), ("1", 0))
    assert viewset_key(small) < viewset_key(big)


def test_top_like_strategy_absorbs_every_test():
    # the strategy answering the observation question immediately
    sig = make_sigma()
    top = InnocentStrategy(
        sig, "converge",
        view_fn=lambda v: ("a", 0) if v == (("q", ROOT),) else None)
    b = Bounds(max_nat=1, max_play_len=6, max_view_len=4)
    s = ODetSet.make(sig, [(("q", ROOT), ("a", 0))])
    assert run_test(top, s, b) is Verdict.TOP


def _composite_verdict(sigma, s, b):
    """run_test's verdict the long way: the thunk of sigma composed with
    the induced test, asked the Sigma question."""
    probe = compose(as_thunk(sigma), induced_test(s), b)
    try:
        r = probe.respond(Play(probe.arena, (("R.q", ROOT),)))
    except BoundExceeded:
        return Verdict.BOUND_EXCEEDED
    return Verdict.TOP if r is not None else Verdict.BOT


def _cross_check_cases():
    for p in PAIRS:
        for k in (p.bounds.max_play_len, 2, 3, 4, 5):
            q = replace(p, bounds=replace(p.bounds, max_play_len=k))
            yield from zip(build_pair(q), (q.bounds,) * 2)
    b = Bounds(max_nat=1, max_play_len=16, max_view_len=6)
    for body in ("f 1", "f (f 1)", "f (f (f 1))"):
        yield denote(parse(f"fun f: nat -> nat -> {body}"), b), b


def test_run_test_agrees_with_the_composite_on_every_candidate():
    seen = Counter()
    for sigma, b in _cross_check_cases():
        for vs in enumerate_closed_odet_sets(sigma.arena, b.max_view_len):
            s = ODetSet(sigma.arena, vs)
            got = run_test(sigma, s, b)
            assert got is _composite_verdict(sigma, s, b), (sigma.name, b, s)
            seen[got] += 1
    assert seen[Verdict.BOUND_EXCEEDED] > 0 and seen[Verdict.TOP] > 0


# Malformed sets over the identity on N1, as lists of views.  The
# constructor is the one door to an ODetSet, so each is refused there
# with its reason, and neither `run_test` nor the composite with its
# induced test is ever reached.
_ID = "fun x: nat -> x"
_Q = ("R.q", ROOT)
_ASKED = [_Q, ("L.q", 0)]


@pytest.mark.parametrize("views, reason", [
    pytest.param([[], [_Q], _ASKED, _ASKED + [("L.1", 0)]], "element is not an O-view",
                 id="answer-points-at-opener"),
    pytest.param([[], [_Q], _ASKED, _ASKED + [("L.1", 5)]], "element is not an O-view",
                 id="pointer-past-the-view"),
    pytest.param([[], [_Q], _ASKED, _ASKED + [("L.1", ROOT)]], "element is not an O-view",
                 id="answer-without-justifier"),
    pytest.param([[], [_Q], _ASKED, _ASKED + [("L.7", 1)]], "element is not an O-view",
                 id="unknown-move"),
    pytest.param([[], [_Q], _ASKED, _ASKED + [("R.1", 0)]], "element is not an O-view",
                 id="proponent-move-as-opponent"),
    pytest.param([[], [_Q], _ASKED, _ASKED + [("L.1", 1)], _ASKED + [("L.1", 1), ("R.1", 0)],
                  _ASKED + [("L.1", 1), ("R.1", 0), _Q]], "element is not an O-view",
                 id="complete-element-extended"),
    pytest.param([[], [_Q], [_Q, ("R.0", 0), _Q, ("R.0", 2)]],
                 "element has several initial moves", id="complete-element-two-threads"),
    # after a view the identity never shows
    pytest.param([[], [_Q], _ASKED, _ASKED + [("L.0", 1)], _ASKED + [("L.0", 1), ("L.q", 0)],
                  _ASKED + [("L.0", 1), ("L.q", 0), ("R.1", 0)]], "element is not an O-view",
                 id="proponent-move-after-an-unseen-view"),
    pytest.param([[], [_Q], _ASKED, _ASKED + [_Q]], "element has several initial moves",
                 id="second-thread"),
])
def test_door_refuses_malformed_sets(views, reason):
    arena = denote(parse(_ID), Bounds(max_nat=1)).arena
    with pytest.raises(ValueError, match=f"^not an O-deterministic view-set: {reason}"):
        ODetSet(arena, frozenset(map(tuple, views)))


def test_door_accepts_every_set_the_engine_makes():
    # the oracle's candidates, every observed set, and every witness
    for sigma, b in _cross_check_cases():
        for vs in enumerate_closed_odet_sets(sigma.arena, b.max_view_len):
            ODetSet(sigma.arena, vs)
    for e in CORPUS:
        sigma = e.build()
        for vs in observations(sigma, e.bounds).sets:
            ODetSet(sigma.arena, vs)
    for p in PAIRS:
        s1, s2 = build_pair(p)
        for rep in (obs_equiv(s1, s2, p.bounds), brute_force_leq(s1, s2, p.bounds),
                    brute_force_leq(s2, s1, p.bounds)):
            if rep.witness is not None:
                assert ODetSet(rep.witness.arena, rep.witness.views) == rep.witness


def test_door_names_the_shortest_faulty_element():
    # Three faults: an unknown answer after two moves, a second thread
    # after three and an unknown answer after four.  The door reads the
    # elements shortest first, so the reason does not hang on the order
    # a frozenset's hash gives them.
    arena = denote(parse(_ID), Bounds()).arena
    views = [[], [_Q], _ASKED, _ASKED + [("L.7", 1)], _ASKED + [_Q], [_Q, ("R.9", 0)]]
    with pytest.raises(ValueError) as e:
        ODetSet(arena, frozenset(map(tuple, views)))
    assert str(e.value) == ("not an O-deterministic view-set: "
                            "element is not an O-view: Play[R.q R.9<-0]")


def _ref_table(arena, views):
    """The Opponent table of the set `views` by the references alone, or
    None where the set is no O-deterministic view-set: each element is
    legal, its own O-view, single-threaded and well-bracketed; the set
    is closed under prefixes; and each element of even length has at
    most one one-move extension in the set."""
    for v in views:
        p = Play(arena, v)
        if not (ref_is_legal(p) and ref_oview(p) == p and is_single_threaded(p)
                and ref_pending_questions(p) is not None):
            return None
        if v and v[:-1] not in views:
            return None
    table = {}
    for v in views:
        if len(v) % 2 and table.setdefault(v[:-1], v[-1]) != v[-1]:
            return None
        if len(v) % 2 == 0 and v and ref_pending_questions(Play(arena, v)) == ():
            table[v] = _SUCCEED
    return table


def _check_door_against_reference(arena, views):
    """The door's reason for refusing `views`, its kind alone, or
    "accepted"; the door refuses where the references do, and
    otherwise builds their table."""
    want = _ref_table(arena, views)
    if want is None:
        with pytest.raises(ValueError, match="^not an O-deterministic view-set: ") as e:
            ODetSet(arena, views)
        return str(e.value).split(": ")[1]
    assert ODetSet(arena, views)._table == want
    return "accepted"


# The arenas the door is checked on against the references, each with
# the view cap its candidate sets are listed at.  Only the third-order
# arena has steps that break bracketing.  The candidates are listed by
# the engine, so they are built when a test first asks, not at import.
@functools.cache
def _door_cases():
    arenas = [
        (arrow(N1, N1), 6),
        (arrow(product(N1, N1), N1), 6),
        (arrow(arrow(N1, N1), N1), 6),
        (denote(parse("fun x: nat -> fun y: nat -> x + y"), Bounds(max_nat=1)).arena, 6),
        (DEEP, 5),
    ]
    return [(a, sorted_views(vs)) for a, cap in arenas
            for vs in enumerate_closed_odet_sets(a, cap)]


@functools.cache
def _door_views():
    """Every view of each arena's candidates."""
    views = {}
    for a, vs in _door_cases():
        views.setdefault(a, set()).update(vs)
    return {a: sorted_views(vs) for a, vs in views.items()}


def test_door_agrees_with_the_references_on_every_candidate():
    for arena, views in _door_cases():
        _check_door_against_reference(arena, frozenset(views))


def test_door_agrees_with_the_references_on_every_one_move_extension():
    # every view of a candidate, extended by every move of its arena
    # with every pointer, one out of range included, and its prefixes
    kinds = Counter()
    for arena, views in _door_views().items():
        for v in views:
            for m in sorted(arena.moves):
                for ptr in range(-1, len(v) + 1):
                    kinds[_check_door_against_reference(arena, V(*v, (m, ptr)))] += 1
    assert set(kinds) == {"accepted", "element is not an O-view",
                          "element has several initial moves", "element is not well-bracketed"}


@st.composite
def _mutated_sets(draw):
    """A candidate set of `_door_cases` after one to three mutations:
    drop a view; add one with its prefixes, a view of another candidate
    of the arena; add one alone, a view extended by a move of the arena
    (half the time one of the player due) with any pointer (half the
    time the last position); or re-point a move of a view in every view
    through it."""
    arena, views = draw(st.sampled_from(_door_cases()))
    views = set(views)
    moves = sorted(arena.moves)
    for _ in range(draw(st.integers(1, 3))):
        ordered = sorted_views(views)
        kind = draw(st.sampled_from(["drop", "graft", "add", "repoint"]))
        if kind == "drop" and views:
            views.discard(draw(st.sampled_from(ordered)))
        elif kind == "graft":
            views |= V(*draw(st.sampled_from(_door_views()[arena])))
        elif kind == "add" or not any(ordered):
            v = draw(st.sampled_from(ordered or [()]))
            due = [m for m in moves if arena.polarity[m] == "OP"[len(v) % 2]]
            m = draw(st.sampled_from(due if draw(st.booleans()) else moves))
            ptr = draw(st.one_of(st.just(len(v) - 1), st.integers(-1, len(v))))
            views.add(v + ((m, ptr),))
        else:
            v = draw(st.sampled_from([v for v in ordered if v]))
            i = draw(st.integers(0, len(v) - 1))
            moved = (v[i][0], draw(st.integers(-1, i)))
            views = {w[:i] + (moved,) + w[i + 1:] if w[:i + 1] == v[:i + 1] else w
                     for w in views}
    return arena, frozenset(views)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_mutated_sets())
def test_door_agrees_with_the_references_on_mutated_sets(case):
    _check_door_against_reference(*case)


def _obs_doc(name: str) -> dict:
    e = next(e for e in CORPUS if e.name == name)
    return observations(e.build(), e.bounds).to_json(include_arena=True)


@pytest.mark.parametrize("change, said", [
    pytest.param(lambda d: d["sets"][0].append({"moves": [{"m": "R.q", "ptr": ROOT}] * 2}),
                 "sets[0]: not an O-deterministic view-set: element is not an O-view: "
                 "Play[R.q R.q]", id="two-openings"),
    # the empty view, listed first, dropped
    pytest.param(lambda d: d["sets"][1].pop(0),
                 "sets[1]: not an O-deterministic view-set: set is not prefix-closed at Play[]",
                 id="not-prefix-closed"),
    pytest.param(lambda d: d.update(bound_exceeded=2.7),
                 "bound_exceeded: expected an integer, got a number", id="fractional-count"),
    pytest.param(lambda d: d.update(bounds={"max_nat": [1]}),
                 "bounds.max_nat: expected an integer, got an array of 1", id="array-bound"),
    pytest.param(lambda d: d.update(bounds=[]),
                 "bounds: expected an object, got an array of 0", id="bounds-not-an-object"),
    pytest.param(lambda d: d["bounds"].update(max_view_len=True),
                 "bounds.max_view_len: expected an integer, got a boolean", id="boolean-bound"),
    pytest.param(lambda d: d.update(bound_exceeded=-7),
                 "bound_exceeded: expected a count, got -7", id="negative-count"),
    # an unknown key, such as a misspelt field, would leave the field at
    # its default
    pytest.param(lambda d: d.update(bounds={"max_nat": 1, "bogus": 3}),
                 "bounds.bogus: expected one of max_nat, max_play_len, max_view_len, "
                 "fix_depth, got an unknown key", id="unknown-bound"),
    pytest.param(lambda d: d.update(bounds={"max_nat": 0}),
                 "bounds.max_nat: expected a positive integer, got 0", id="zero-bound"),
    pytest.param(lambda d: d["bounds"].update(fix_depth=-3),
                 "bounds.fix_depth: expected a positive integer, got -3", id="negative-bound"),
])
def test_observation_door_refuses_bad_documents(change, said):
    doc = _obs_doc("add_LR")
    change(doc)
    with pytest.raises(ValueError) as e:
        ObservationalStrategy.from_json(doc)
    assert str(e.value) == said


def test_observation_door_keeps_default_bounds():
    doc = _obs_doc("add_LR")
    del doc["bounds"], doc["bound_exceeded"]
    x = ObservationalStrategy.from_json({**doc, "bounds": {"max_nat": 2}})
    assert x.bounds == Bounds(max_nat=2) and x.bound_exceeded == 0


# The observation door, `ObservationalStrategy.from_json`, fuzzed on the
# documents of two corpus terms, observed when a test first asks: any
# part, the whole document included, is dropped or replaced by a move, a
# pointer, an object or a value of another type.  The door gives an
# observation of O-deterministic sets, or refuses the document with
# ValueError; nothing else escapes.
@functools.cache
def _obs_docs():
    return [_obs_doc("add_LR"), _obs_doc("iszero")]


_OBS_JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 6), st.integers(), st.floats(),
    st.text(max_size=4),
    st.sampled_from(["R.q", "R.0", "L.q", "L.1", [], {}, [[]], {"moves": []},
                     {"m": "L.q", "ptr": 0}, {"m": "R.q", "ptr": ROOT},
                     {"moves": [{"m": "R.q", "ptr": ROOT}]}, N1.to_json(), N2.to_json()]))


@st.composite
def _observation_docs(draw):
    # the sets' and bounds' parts three times as likely as the arena's
    return mutated(draw, draw(st.sampled_from(_obs_docs())), _OBS_JUNK,
                   lambda p: p[:1] != ("arena",))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_observation_docs())
def test_observation_door_reads_or_refuses_mutated_documents(doc):
    try:
        x = ObservationalStrategy.from_json(doc)
    except ValueError:
        return
    assert all(ODetSet(x.arena, vs).views == vs for vs in x.sets)
