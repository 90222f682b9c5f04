import json
from collections import Counter
from dataclasses import replace

import pytest

from gamesem.arena import arrow, make_nat_arena, make_sigma
from gamesem.bounds import Bounds
from gamesem.corpus import CORPUS, PAIRS, build_pair
from gamesem.equiv import enumerate_closed_odet_sets
from gamesem.observation import (
    ODetSet,
    ObservationalStrategy,
    induced_test,
    is_o_deterministic,
    is_observational,
    obs_leq,
    observations,
    odet_violation,
    prefix_oviews,
    run_test,
    viewset_key,
)
from gamesem.observation import TestVerdict as Verdict
from gamesem.pcf import builtin, denote, parse
from gamesem.plays import ROOT, Play, is_complete
from gamesem.strategy import (
    BoundExceeded,
    InnocentStrategy,
    StrategyError,
    as_thunk,
    compose,
    traces,
)
from oracles import ref_oview, ref_pending_questions
from walks import innocent_explore

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
    assert is_o_deterministic(ARROW, prefix_oviews(s))


def test_odet_rejects_unclosed_set():
    # two numeral answers with the shared one-move body missing
    views = frozenset({
        (("q", ROOT), ("2", 0)),
        (("q", ROOT), ("1", 0)),
    })
    reason = odet_violation(N2, views)
    assert reason is not None and "prefix" in reason


def test_odet_rejects_opponent_branching():
    # two Opponent answers to the same argument question
    views = frozenset({
        (),
        (("R.q", ROOT),),
        (("R.q", ROOT), ("L.q", 0)),
        (("R.q", ROOT), ("L.q", 0), ("L.0", 1)),
        (("R.q", ROOT), ("L.q", 0), ("L.1", 1)),
    })
    reason = odet_violation(ARROW, views)
    assert reason is not None and "Opponent" in reason


def test_odet_allows_proponent_answer_branching():
    # numeral answers are Proponent moves, so this set is fine
    views = frozenset({
        (),
        (("q", ROOT),),
        (("q", ROOT), ("2", 0)),
        (("q", ROOT), ("1", 0)),
    })
    assert odet_violation(N2, views) is None


def test_odet_allows_proponent_branching():
    # after the opening question both a left probe and a direct answer
    views = frozenset({
        (),
        (("R.q", ROOT),),
        (("R.q", ROOT), ("L.q", 0)),
        (("R.q", ROOT), ("L.q", 0), ("L.1", 1)),
        (("R.q", ROOT), ("R.0", 0)),
    })
    assert is_o_deterministic(ARROW, views)


def test_odet_rejects_two_initials():
    # a product arena has two initial questions; a view-set may use one
    from gamesem.arena import product
    pa = product(N2, N2)
    bad = frozenset({(), (("L.q", ROOT),), (("R.q", ROOT),)})
    assert odet_violation(pa, bad) is not None


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
            (ObservationalStrategy, observations(builtin("add_LR", 2), b).to_json())]
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
    x = observations(builtin("add_LR", 2), b)
    assert len(x.sets) == 9  # one per answer pair (m, n) with m, n <= 2
    assert x.bound_exceeded == 0


def test_observations_of_bottom_empty():
    b = Bounds(max_nat=1, max_play_len=8)
    bot = denote(parse("fix (fun x: nat -> x)"), b)
    assert observations(bot, b).sets == frozenset()


@pytest.mark.parametrize("e", CORPUS, ids=lambda e: e.name)
def test_observations_are_the_reference_oviews_of_complete_plays(e):
    # observations reads the view-sets off walk's views; the reference
    # reads each complete play's prefixes afresh
    sigma = e.build()
    plays = innocent_explore(sigma, e.bounds).plays
    want = {frozenset(ref_oview(p.prefix(k)).moves for k in range(len(p) + 1))
            for p in plays if p.moves and ref_pending_questions(p) == ()}
    assert observations(sigma, e.bounds).sets == want


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
    x = observations(builtin("add_LR", 2), b)
    y = observations(builtin("add_RL", 2), b)
    assert obs_leq(x, y) and obs_leq(y, x)
    assert x.sets == y.sets


def test_is_observational_on_real_obs():
    b = Bounds(max_nat=2, max_play_len=6)
    for name in ("add_LR", "add_RL"):
        assert is_observational(observations(builtin(name, 2), b))


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
    x = observations(builtin("add_LR", 2), b)
    doc = x.to_json(include_arena=True)
    y = ObservationalStrategy.from_json(doc)
    assert y.sets == x.sets and y.arena == x.arena
    blob1 = json.dumps(doc, sort_keys=True)
    blob2 = json.dumps(observations(builtin("add_LR", 2), b).to_json(include_arena=True),
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


# Raw sets (the dataclass constructor skips `make`'s checks) over the
# identity on N1: each fails, or not, where the composite with its
# induced test fails, and only once the bad entry is due to be played.
_ID = "fun x: nat -> x"
_Q = ("R.q", ROOT)
_ASKED = [_Q, ("L.q", 0)]


def _raw(arena, *views):
    return ODetSet(arena, frozenset(map(tuple, views)))


@pytest.mark.parametrize("views, outcome", [
    # the argument's answer pointing at the opening question
    ([[], [_Q], _ASKED, _ASKED + [("L.1", 0)]], StrategyError),
    # a pointer past the end of the O-view
    ([[], [_Q], _ASKED, _ASKED + [("L.1", 5)]], StrategyError),
    # a non-initial move with no justifier
    ([[], [_Q], _ASKED, _ASKED + [("L.1", ROOT)]], StrategyError),
    # a move the arena does not have
    ([[], [_Q], _ASKED, _ASKED + [("L.7", 1)]], StrategyError),
    # a Proponent move played as Opponent's
    ([[], [_Q], _ASKED, _ASKED + [("R.1", 0)]], StrategyError),
    # a complete element extended by an Opponent move
    ([[], [_Q], _ASKED, _ASKED + [("L.1", 1)], _ASKED + [("L.1", 1), ("R.1", 0)],
      _ASKED + [("L.1", 1), ("R.1", 0), _Q]], ValueError),
    # a complete element with two threads
    ([[], [_Q], [_Q, ("R.0", 0), _Q, ("R.0", 2)]], ValueError),
    # a Proponent move as Opponent's, after a view the identity never shows
    ([[], [_Q], _ASKED, _ASKED + [("L.0", 1)], _ASKED + [("L.0", 1), ("L.q", 0)],
      _ASKED + [("L.0", 1), ("L.q", 0), ("R.1", 0)]], Verdict.BOT),
    # a second thread: its O-view keys nothing, so the test never answers
    ([[], [_Q], _ASKED, _ASKED + [_Q]], Verdict.BOT),
])
def test_run_test_on_malformed_sets(views, outcome):
    b = Bounds(max_nat=1, max_play_len=10)
    sigma = denote(parse(_ID), b)
    s = _raw(sigma.arena, *views)
    if isinstance(outcome, Verdict):
        assert run_test(sigma, s, b) is outcome
        assert _composite_verdict(sigma, s, b) is outcome
    else:
        for route in (run_test, _composite_verdict):
            with pytest.raises(outcome):
                route(sigma, s, b)
