import hashlib
import random
import re
import sys
from collections import Counter

import pytest

from gamesem import equiv as equiv_module
from gamesem import pcf, strategy
from gamesem import plays as plays_module
from gamesem.arena import arrow, make_empty, make_nat_arena, product
from gamesem.bounds import Bounds
from gamesem.corpus import CORPUS
from gamesem.equiv import brute_force_leq
from gamesem.observation import TestVerdict as Verdict
from gamesem.observation import observations
from gamesem.pcf import (
    NAT,
    Lam,
    Num,
    TFun,
    Var,
    denote,
    denote_open,
    eval_strategy,
    interrogate,
    make_add,
    parse,
    pred_strategy,
    succ_strategy,
)
from gamesem.plays import (
    EMPTY_VIEWS,
    ROOT,
    Play,
    checked_views,
    is_complete,
    legal_extensions,
    open_questions,
    pview,
    pview_with_positions,
)
from gamesem.strategy import (
    BoundExceeded,
    BudgetExhausted,
    InnocentStrategy,
    StrategyError,
    as_thunk,
    compose,
    copycat,
    explore,
    from_view_table,
    last_round,
    mirror_strategy,
    pair_strategies,
    prefix_map,
    prefix_swap,
    rename_strategy,
    tabulate,
    traces,
    walk,
)
from oracles import (
    is_single_threaded,
    oview_positions,
    pview_positions,
    ref_compose_traces,
    ref_enumerate_plays,
    ref_is_legal,
    ref_is_o_innocent,
    ref_is_p_innocent,
    ref_legal_extensions,
    ref_oview,
    ref_pair,
    ref_pview,
    ref_rename,
    reindex,
)
from walks import innocent_explore, played

N2 = make_nat_arena(2)


def test_respond_rejects_wrong_arena():
    s = succ_strategy(2)
    with pytest.raises(ValueError):
        s.respond(Play(N2, (("q", ROOT),)))


def test_respond_rejects_even_position():
    s = succ_strategy(2)
    with pytest.raises(ValueError):
        s.respond(Play(s.arena, ()))


def test_respond_rejects_illegal_play():
    s = succ_strategy(2)
    bad = Play(s.arena, (("R.q", ROOT), ("R.q", ROOT), ("L.q", 0)))
    with pytest.raises(ValueError):
        s.respond(bad)


def test_respond_refuses_an_invisible_justifier():
    # A second thread opens at 2, so the P-view is that move alone: the
    # first thread's R.q enables R.0 but is not visible, and a pointer
    # into the view cannot name it.  Index 1 is past the view's end.
    arena = arrow(N2, N2)
    s = Play(arena, (("R.q", ROOT), ("L.q", 0), ("R.q", ROOT)))
    peek = InnocentStrategy(arena, "peek", play_fn=lambda node, v: ("R.0", 1))
    with pytest.raises(StrategyError):
        peek.respond(s)
    local = InnocentStrategy(arena, "local", play_fn=lambda node, v: ("R.0", 0))
    assert local.respond(s) == ("R.0", 2)


def test_respond_rejects_a_view_pointer_outside_the_view():
    arena = arrow(N2, N2)
    s = Play(arena, (("R.q", ROOT), ("L.q", 0), ("L.1", 1)))
    for j in (-3, 3):
        wild = InnocentStrategy(arena, "wild", view_fn=lambda v, j=j: ("R.1", j))
        with pytest.raises(StrategyError):
            wild.respond(s)


def test_succ_responds_by_view():
    s = succ_strategy(2)
    opening = Play(s.arena, (("R.q", ROOT),))
    assert s.respond(opening) == ("L.q", 0)
    mid = Play(s.arena, (("R.q", ROOT), ("L.q", 0), ("L.1", 1)))
    assert s.respond(mid) == ("R.2", 0)
    # saturating at the numeral cap
    top = Play(s.arena, (("R.q", ROOT), ("L.q", 0), ("L.2", 1)))
    assert s.respond(top) == ("R.2", 0)


def test_copycat_echoes():
    cc = copycat(N2)
    opening = Play(cc.arena, (("R.q", ROOT),))
    assert cc.respond(opening) == ("L.q", 0)
    back = Play(cc.arena, (("R.q", ROOT), ("L.q", 0), ("L.1", 1)))
    assert cc.respond(back) == ("R.1", 0)


def _swap_cases():
    """(arena, prefix pairs) of every swap the package builds, over a
    few component arenas: copycat's, `var`'s (second of three
    variables), `proj`'s, `eval`'s and the two of `ifz`."""
    n1 = make_nat_arena(1)
    f = arrow(n1, n1)
    for t in (n1, f, arrow(f, n1), arrow(n1, f)):
        yield arrow(t, t), [("L.", "R.")]
        env = product(product(product(make_empty(), f), t), n1)
        yield arrow(env, t), [("L.L.R.", "R.")]
        yield arrow(product(t, t), t), [("L.L.", "R.")]
        yield arrow(product(arrow(t, n1), t), n1), [("R.", "L.L.R."), ("L.L.L.", "L.R.")]
        yield arrow(product(arrow(f, t), f), t), [("R.", "L.L.R."), ("L.L.L.", "L.R.")]
        for branch in ("L.R.L.", "L.R.R."):
            yield arrow(product(n1, product(t, t)), t), [("R.", branch)]


def test_every_swap_echoes_onto_an_enabling_pair():
    # What lets `copycat_echo` skip an enabling check: an Opponent move
    # and its justifier echo onto an enabling pair, and an opener
    # enables its own echo.
    for arena, pairs in _swap_cases():
        swap = prefix_swap(pairs, arena.moves)
        for m, echo in swap.items():
            if arena.polarity[m] != "O":
                continue
            if m in arena.initials:
                assert arena.enables(m, echo)
            for x in swap:
                if arena.enables(x, m):
                    assert arena.enables(swap[x], echo), (arena.name, x, m)


def test_mirror_answers_only_views_that_keep_the_pairing_discipline():
    # R.L.q at 3 is a move copycat never plays: its partner L.L.q sits
    # at 2, not right before it.  The justifier's partner is read only
    # from the position right before it, so there is no echo.
    cc = copycat(arrow(make_nat_arena(1), make_nat_arena(1)))
    s = Play(cc.arena, (("R.R.q", ROOT), ("L.R.q", 0), ("L.L.q", 1), ("R.L.q", 0),
                        ("R.L.1", 3), ("R.L.q", 0), ("R.L.0", 5)))
    assert cc.respond(s) is None


def test_traces_even_prefix_closed_and_deterministic():
    b = Bounds(max_nat=2, max_play_len=6)
    t = traces(make_add(("L", "R"), 2), b)
    for p in t:
        assert len(p.moves) % 2 == 0
        if len(p.moves) >= 2:
            assert p.prefix(len(p.moves) - 2) in t


def test_all_traces_p_innocent():
    b = Bounds(max_nat=2, max_play_len=6)
    for order in (("L", "R"), ("R", "L")):
        for p in traces(make_add(order, 2), b):
            assert ref_is_p_innocent(p)


def test_single_threaded_traces_well_bracketed():
    # raw traces let Opponent interleave threads unbracketed; within a
    # single thread every built-in stays bracketed
    b = Bounds(max_nat=2, max_play_len=6)
    for order in (("L", "R"), ("R", "L")):
        for p in filter(is_single_threaded, traces(make_add(order, 2), b)):
            assert open_questions(p.arena.questions, p.moves) is not None


def _print_order(plays) -> tuple:
    """`plays` in the order the CLI prints them."""
    return tuple(sorted(plays, key=lambda p: (len(p.moves), p.moves)))


# Play caps, odd and small ones too: the walk yields a play at the cap
# from its parent's loop, at an odd cap the last round cannot fit, and
# below 2 not even the first.
CAPS = (1, 2, 3, 5, 7, 8, 9)


def test_explore_gives_the_reference_plays_in_print_order():
    # the reference: every legal even-length play, grown breadth first,
    # whose Proponent moves are the strategy's replies; each factor
    # keeps a wide interaction budget, so no reply hits a bound
    wide = Bounds(max_nat=1, max_play_len=20)
    for sigma in (make_add(("L", "R"), 1), copycat(make_nat_arena(1)),
                  denote(parse("fun f: nat -> nat -> f (f 1)"), wide),
                  denote(parse("fun x: nat -> ifz x then 1 else 0"), wide)):
        every = ref_enumerate_plays(sigma.arena, max(CAPS))
        for cap in CAPS:
            ref = [p for p in every
                   if len(p) <= cap and len(p) % 2 == 0
                   and all(sigma.respond(p.prefix(k)) == p.moves[k] for k in range(1, len(p), 2))]
            res = explore(sigma, Bounds(max_nat=1, max_play_len=cap))
            assert res.bound_exceeded == 0
            assert played(res) == _print_order(ref), (sigma.name, cap)


# rec_zero against every Opponent at the bounds of SMALL_TERMS below;
# at its corpus bounds that walk runs past the play budget
_REC_EVERY = Bounds(max_nat=1, max_play_len=14, fix_depth=2)


def _at_cap(moves, b: Bounds) -> bool:
    """Is the play `moves`, which `walk` yields at `b`, at the cap, so
    that it carries its parent's views and open questions?"""
    return bool(moves) and len(moves) + 2 > b.max_play_len


@pytest.mark.parametrize("innocent_opponent", [False, True])
def test_walk_carries_each_plays_open_questions_in_order_of_moves(innocent_opponent):
    # every play walk yields carries its own open questions, unless it
    # is a nonempty play at the cap, which carries its parent's
    kinds = Counter()
    for e in CORPUS:
        b = _REC_EVERY if e.name == "rec_zero" and not innocent_opponent else e.bounds
        sigma = e.build()
        walked = [step for step in walk(sigma, b, innocent_opponent) if step is not None]
        assert walked[0][0] == ()
        assert [moves for moves, _, _ in walked] == sorted(moves for moves, _, _ in walked)
        for moves, _, pending in walked:
            carried = moves[:-2] if _at_cap(moves, b) else moves
            assert pending == open_questions(sigma.arena.questions, carried), (e.name, moves)
            kinds[pending if pending in (None, ()) else "open"] += 1
    assert kinds[()] and kinds["open"]
    # an Opponent free to answer any question it sees breaks the brackets
    assert kinds[None] or innocent_opponent


def test_complete_only_reads_completeness_off_the_walk(monkeypatch):
    # `traces --complete-only` keeps exactly the plays is_complete
    # keeps, in the same order, and never asks is_complete
    kept = {}
    for e in CORPUS:
        b = _REC_EVERY if e.name == "rec_zero" else e.bounds
        res = explore(e.build(), b)
        kept[e.name] = (b, tuple(p for p in played(res) if is_complete(p)), res.bound_exceeded)
    # only the diverging terms complete no play
    assert [name for name, (_, want, _) in kept.items() if not want] == ["bottom_nat", "fix_succ"]

    def refuse(s):
        raise AssertionError("is_complete was asked")

    monkeypatch.setattr(plays_module, "is_complete", refuse)
    for e in CORPUS:
        b, want, exceeded = kept[e.name]
        res = explore(e.build(), b, complete_only=True)
        assert (played(res), res.bound_exceeded) == (want, exceeded), e.name


def test_explore_counts_bound_hits():
    # a strategy that burns interaction budget: compose at a tiny cap
    tight = Bounds(max_nat=2, max_play_len=4)
    comp = compose(copycat(N2), succ_strategy(2), tight)
    res = explore(comp, tight)
    assert res.bound_exceeded > 0


def _counted_leaf(sigma, b, asked, raising=None):
    """A `from_view_table` leaf on sigma's tabulated view function that
    records the moves of each view it is asked in `asked`, and raises
    BoundExceeded on the view whose moves are `raising`.  A node is
    handed a P-view as its move tuple, never as a Play."""
    leaf = from_view_table(sigma.arena, f"counted({sigma.name})",
                           {v.moves: r for v, r in tabulate(sigma, b)})
    lookup = leaf._view_fn

    def counted(v):
        assert type(v) is tuple, v
        asked.append(v)
        if v == raising:
            raise BoundExceeded(leaf.name)
        return lookup(v)

    leaf._view_fn = counted
    return leaf


def _ref_asks(plays, b, innocent_opponent=False):
    """The P-view moves at every position `explore` asks about, once per
    position: each Opponent extension of an explored play that leaves
    room for a reply within the play bound."""
    for p in plays:
        if len(p) + 2 > b.max_play_len:
            continue
        for so in ref_legal_extensions(p, single_threaded=innocent_opponent):
            if not innocent_opponent or ref_is_o_innocent(so):
                yield ref_pview(so).moves


@pytest.mark.parametrize("innocent_opponent", [False, True])
def test_explore_asks_each_p_view_once(innocent_opponent):
    # the leaf is asked by the walk's rounds, and, behind a renaming onto
    # its own arena, through its `view_fn` by the renaming's route, past
    # its memo
    b = Bounds(max_nat=1, max_play_len=10)
    sigma = denote(parse("fun f: nat -> nat -> f (f 1)"), b)
    for renamed in (False, True):
        asked = []
        node = leaf = _counted_leaf(sigma, b, asked)
        if renamed:
            node = rename_strategy(leaf, [("", "")], leaf.arena, "same")
        res = innocent_explore(node, b) if innocent_opponent else explore(node, b)
        reached = list(_ref_asks(played(res), b, innocent_opponent))
        assert sorted(asked) == sorted(set(reached))
        assert len(reached) > len(asked)


def test_brute_force_leq_asks_each_p_view_once():
    # the oracle's search plays through the same rounds; the P-views
    # each side reaches are read off every ask of its `_answer`
    b = Bounds(max_nat=1, max_play_len=16, max_view_len=8)
    sides = [denote(parse(src), b)
             for src in ("fun f: nat -> nat -> f 1", "fun f: nat -> nat -> f (f 1)")]
    asked, reached = ([], []), ([], [])
    leaves = [_counted_leaf(s, b, a) for s, a in zip(sides, asked)]
    for leaf, seen in zip(leaves, reached):
        def answer(key, positions, ask=leaf._answer, seen=seen, arena=leaf.arena):
            # each ask is keyed by its P-view's moves, itself a P-view
            assert ref_pview(Play(arena, key)).moves == key
            seen.append(key)
            return ask(key, positions)
        leaf._answer = answer
    assert brute_force_leq(*leaves, b) == brute_force_leq(*sides, b)
    for a, r in zip(asked, reached):
        assert sorted(a) == sorted(set(r))
        assert len(r) > len(a)


def test_a_bound_hit_is_asked_once_and_counted_at_every_position():
    b = Bounds(max_nat=1, max_play_len=8)
    sigma = make_add(("L", "R"), 1)
    counts = Counter(_ref_asks(played(explore(sigma, b)), b))
    # the longest P-view reached at more than one position
    view = max(counts, key=lambda v: (counts[v] > 1, len(v), v))
    asked = []
    leaf = _counted_leaf(sigma, b, asked, raising=view)
    res = explore(leaf, b)
    assert asked.count(view) == 1
    positions = Counter(_ref_asks(played(res), b))[view]
    assert res.bound_exceeded == positions > 1


def test_a_reply_that_fails_its_check_raises_on_every_ask():
    # R.q is an Opponent move: the check fails, and it is not memoised
    b = Bounds(max_nat=1, max_play_len=4)
    asked = []
    wrong = InnocentStrategy(arrow(N2, N2), "wrong",
                             view_fn=lambda v: asked.append(v) or ("R.q", 0))
    opening = Play(wrong.arena, (("R.q", ROOT),))
    for _ in range(2):
        with pytest.raises(StrategyError):
            wrong.respond(opening)
        with pytest.raises(StrategyError):
            explore(wrong, b)
    assert asked == [opening.moves] * 4


def test_a_reply_pointing_at_a_move_that_does_not_enable_it_raises():
    # L.q is a Proponent move and index 2 lies in the view, but only the
    # opening R.q enables L.q, not the answer L.0 at index 2
    astray = InnocentStrategy(arrow(N2, N2), "astray",
                              view_fn=lambda v: ("L.q", 0) if len(v) == 1 else ("L.q", 2))
    play = Play(astray.arena, (("R.q", ROOT), ("L.q", 0), ("L.0", 1)))
    want = r"^astray: move 'L.q' not enabled in the P-view at 2$"
    with pytest.raises(StrategyError, match=want):
        astray.respond(play)
    with pytest.raises(StrategyError, match=want):
        explore(astray, Bounds(max_nat=2, max_play_len=4))


def test_explore_stops_at_its_play_budget(monkeypatch):
    b = Bounds(max_nat=1, max_play_len=6)
    sigma = make_add(("L", "R"), 1)
    n = len(explore(sigma, b).plays)
    monkeypatch.setattr(strategy, "EXPLORE_BUDGET", n)
    assert len(explore(sigma, b).plays) == n
    monkeypatch.setattr(strategy, "EXPLORE_BUDGET", n - 1)
    with pytest.raises(BudgetExhausted) as e:
        explore(sigma, b)
    assert e.value.count == n - 1
    assert str(e.value) == f"exploration incomplete at bounds after {n - 1} plays"


def test_observations_stop_at_the_play_budget_as_explore_does(monkeypatch):
    # the innocent walk counts the plays it reaches, the empty one too
    b = Bounds(max_nat=1, max_play_len=6)
    sigma = make_add(("L", "R"), 1)
    want = observations(sigma, b)
    n = len(innocent_explore(sigma, b).plays)
    monkeypatch.setattr(strategy, "EXPLORE_BUDGET", n)
    assert observations(sigma, b) == want
    monkeypatch.setattr(strategy, "EXPLORE_BUDGET", n - 1)
    with pytest.raises(BudgetExhausted) as e:
        observations(sigma, b)
    assert e.value.count == n - 1
    assert str(e.value) == f"exploration incomplete at bounds after {n - 1} plays"


def test_tabulate_canonical_and_consistent():
    import json
    b = Bounds(max_nat=1, max_play_len=6)
    s = make_add(("L", "R"), 1)
    tab = tabulate(s, b)
    keys = [json.dumps(v.to_json(), sort_keys=True) for v, _ in tab]
    assert keys == sorted(keys)
    assert len(keys) == len(set(keys))


def _multi_threaded_table(sigma, b):
    # P-views by the reference recursion, which shares no view code
    # with the engine
    table = {}
    for sop in played(explore(sigma, b)):
        if sop.moves:
            positions = pview_positions(sop.arena, sop.moves[:-1])
            m, ptr = sop.moves[-1]
            table[reindex(sop, positions).moves] = (m, positions.index(ptr))
    return table


TABULATED_TERMS = [
    ("fun f: nat -> nat -> f (f 1)", Bounds(max_nat=2, max_play_len=10)),
    ("fun x: nat -> fun y: nat -> x + y", Bounds(max_nat=2, max_play_len=10)),
    ("fix (fun f: nat -> nat -> fun x: nat -> ifz x then 0 else f (pred x))",
     Bounds(max_nat=1, max_play_len=14, fix_depth=2)),
    ("fun x: nat -> ifz x then 0 else x", Bounds(max_nat=2, max_play_len=8)),
]


def test_tabulate_matches_multi_threaded_table():
    # tabulate walks P-views only; every P-view a multi-threaded play
    # reaches must already be in its table, and every view in the table
    # is its own P-view
    cases = [(e.build, e.bounds) for e in CORPUS if e.name != "rec_zero"]
    cases += [(lambda src=src, b=b: denote(parse(src), b), b) for src, b in TABULATED_TERMS]
    for build, b in cases:
        tab = tabulate(build(), b)
        assert all(ref_pview(v) == v for v, _ in tab)
        table = {v.moves: r for v, r in tab}
        assert table == _multi_threaded_table(build(), b)


# The corpus denotations, with rec_zero at bounds small enough for
# multi-threaded exploration, plus f (f 1).
SMALL_TERMS = [(e.source, e.bounds) for e in CORPUS
               if e.source is not None and e.name != "rec_zero"] + [
    ("fun f: nat -> nat -> f (f 1)", Bounds(max_nat=1, max_play_len=12)),
    ("fix (fun f: nat -> nat -> fun x: nat -> ifz x then 0 else f (pred x))",
     Bounds(max_nat=1, max_play_len=14, fix_depth=2)),
]


def test_o_innocent_exploration_prunes_exactly_the_non_o_innocent_plays():
    # explore checks O-innocence one move at a time against the map it
    # carries; the reference recomputes every O-view of the whole play
    cases = [(e.build, e.bounds) for e in CORPUS if e.source is None]
    cases += [(lambda src=src, b=b: denote(parse(src), b), b) for src, b in SMALL_TERMS]
    pruned_some = False
    for build, b in cases:
        every = played(explore(build(), b))
        assert all(ref_is_legal(p) for p in every)
        single = {p for p in every if is_single_threaded(p)}
        pruned = innocent_explore(build(), b)
        assert frozenset(played(pruned)) == {p for p in single if ref_is_o_innocent(p)}
        pruned_some |= frozenset(played(pruned)) != single
    assert pruned_some


ROUND_NODES = {
    "copycat": lambda b: copycat(make_nat_arena(1)),
    "add_LR": lambda b: make_add(("L", "R"), 1),
    "ifz": lambda b: denote(parse("fun x: nat -> ifz x then 1 else 0"), b),
    "twice": lambda b: denote(parse("fun f: nat -> nat -> f (f 1)"), b),
}


@pytest.mark.parametrize("build", ROUND_NODES.values(), ids=ROUND_NODES.keys())
def test_walk_and_each_test_run_carry_the_views_checked_views_gives(build, monkeypatch):
    # walk and run_test carry a play's views one round at a time: every
    # play walk yields carries the views of its prefixes, its own last,
    # unless it is a nonempty play at the cap, which carries its
    # parent's, those of the play two moves shorter; and every run
    # `_play_against` stops at is the views of its play's prefixes, the
    # play read back from them: each move is the last of its mover's own
    # view, its pointer read through that view's positions
    kinds = Counter()
    for cap in (3, 4, 7, 10):
        b = Bounds(max_nat=1, max_play_len=cap)
        sigma = build(b)
        for innocent_opponent in (False, True):
            walked = [step for step in walk(sigma, b, innocent_opponent) if step is not None]
            for moves, views, _ in walked:
                at_cap = _at_cap(moves, b)
                kinds[at_cap] += 1
                want = checked_views(Play(sigma.arena, moves[:-2] if at_cap else moves))
                assert views == tuple(want), (innocent_opponent, moves)
    assert kinds[True] > 2 and kinds[False] > 2
    runs = []

    def play_against(*args, play=equiv_module._play_against):
        got = play(*args)
        if not isinstance(got, Verdict):
            runs.append(got)
        return got

    monkeypatch.setattr(equiv_module, "_play_against", play_against)
    b = Bounds(max_nat=1, max_play_len=10)
    sigma = build(b)
    brute_force_leq(sigma, sigma, b)
    assert len(runs) > 2
    for views in runs:
        moves = []
        for k, (pv, ov, pvm, ovm) in enumerate(views[1:]):
            positions, own = (pv, pvm) if k % 2 else (ov, ovm)
            m, ptr = own[-1]
            moves.append((m, ROOT if ptr == ROOT else positions[ptr]))
        assert views == tuple(checked_views(Play(sigma.arena, tuple(moves))))


def test_the_last_round_grows_a_cap_play_to_its_own_views_and_open_questions():
    # `last_round` gives every play walk yields its own views and open
    # questions: a cap play grown by its last round, any other as it is
    grown = Counter()
    for build in ROUND_NODES.values():
        for cap in CAPS:
            b = Bounds(max_nat=1, max_play_len=cap)
            sigma = build(b)
            questions = sigma.arena.questions
            for innocent_opponent in (False, True):
                for step in filter(None, walk(sigma, b, innocent_opponent)):
                    moves = step[0]
                    own = (moves, tuple(checked_views(Play(sigma.arena, moves))),
                           open_questions(questions, moves))
                    got = last_round(questions, step, views=True)
                    assert got == own, (sigma.name, cap, moves)
                    assert last_round(questions, step)[::2] == got[::2]
                    if _at_cap(moves, b):
                        grown[cap] += 1
                    else:
                        assert last_round(questions, step) is step
    assert sorted(grown) == [2, 3, 5, 7, 8, 9]


def test_the_innocent_walk_plays_a_forced_opponent_move_without_search(monkeypatch):
    # where Opponent has moved at the play's O-view already, O-innocence
    # leaves it that move alone: no move is generated there
    b = Bounds(max_nat=1, max_play_len=16)
    sigma = denote(parse("fun f: nat -> nat -> f (f 1)"), b)
    searched = []

    def extensions(arena, moves, justifiers, generate=plays_module.legal_extensions):
        searched.append(moves)
        return generate(arena, moves, justifiers)

    monkeypatch.setattr(strategy, "legal_extensions", extensions)
    def oviews(moves):
        # the O-view of each prefix, by the reference
        p = Play(sigma.arena, moves)
        return [ref_oview(p.prefix(k)).moves for k in range(len(moves) + 1)]

    forced = 0
    for moves, _, _ in filter(None, walk(sigma, b, innocent_opponent=True)):
        seen = oviews(moves)
        for k in range(2, len(moves), 2):
            if seen[k] in seen[:k:2]:
                # the move read off the O-view after it is the one read
                # there at the first earlier prefix with that O-view
                first = 2 * seen[::2].index(seen[k])
                assert seen[k + 1][-1] == seen[first + 1][-1], moves
                forced += 1
    assert searched and forced
    for moves in searched:
        seen = oviews(moves)
        assert seen[-1] not in seen[:-1:2], moves


def _rename_nodes():
    """(node, inner node, pairs, bounds) for the den and top fun rename
    nodes of SMALL_TERMS, with the pairs `pcf` renames by."""
    for src, b in SMALL_TERMS:
        t = parse(src)
        yield denote(t, b), denote_open(t, (), b), [("R.", "")], b
        if isinstance(t, Lam):
            yield (denote_open(t, (), b), denote_open(t.body, ((t.var, t.ty),), b),
                   [("L.L.", "L."), ("L.R.", "R.L."), ("R.", "R.R.")], b)


def _outcome(respond, s):
    try:
        return respond(s)
    except BoundExceeded:
        return "bound"


def test_renaming_the_view_answers_as_renaming_the_play():
    # the node renames only the P-view; the reference renames the whole
    # play, asks the inner node and renames the reply back
    longest = 0
    for node, inner, pairs, b in _rename_nodes():
        fwd = prefix_map(pairs, inner.arena.moves)
        inv = prefix_map([(dst, src) for src, dst in pairs], node.arena.moves)

        def by_play(s):
            r = inner.respond(Play(inner.arena, tuple((inv[m], p) for m, p in s.moves)))
            return r and (fwd[r[0]], r[1])

        asked = {p.extend(*o) for p in played(explore(node, b)) if len(p) + 2 <= b.max_play_len
                 for o in legal_extensions(p.arena, p.moves,
                                           (ROOT, *oview_positions(p.arena, p.moves)))}
        for s in asked:
            assert _outcome(node.respond, s) == _outcome(by_play, s), (node.name, s)
            longest = max(longest, len(s))
    assert longest >= 9


# The corpus denotations (among them the curried sums of x and y and
# strict_zero) and the rest of the benchmark's term shapes: curried
# sums, f applied once to three times, the two recursions, and an
# argument that is a function, where a pairing is built over a renaming.
_SUM_BOUNDS = Bounds(max_nat=2, max_play_len=10)
_APPLY_BOUNDS = Bounds(max_nat=2, max_play_len=14)
_REC_BOUNDS = Bounds(max_nat=2, max_play_len=24, fix_depth=3)
FUSION_TERMS = [(e.source, e.bounds) for e in CORPUS if e.source is not None] + [
    ("fun x: nat -> fun y: nat -> x + x", _SUM_BOUNDS),
    ("fun x: nat -> fun y: nat -> fun z: nat -> z + x", _SUM_BOUNDS),
    ("fun x: nat -> fun y: nat -> fun z: nat -> y + z", _SUM_BOUNDS),
    ("fun f: nat -> nat -> f 1", _APPLY_BOUNDS),
    ("fun f: nat -> nat -> f (f 1)", _APPLY_BOUNDS),
    ("fun f: nat -> nat -> f (f (f 1))", _APPLY_BOUNDS),
    ("fix (fun f: nat -> nat -> fun x: nat -> ifz x then 0 else f (pred x))", _REC_BOUNDS),
    ("fix (fun f: nat -> nat -> fun x: nat -> ifz x then 0 else succ (f (pred x)))",
     _REC_BOUNDS),
    ("fun x: nat -> x", _SUM_BOUNDS),
    ("fun g: (nat -> nat) -> nat -> g (fun x: nat -> succ x)", _APPLY_BOUNDS),
]


@pytest.mark.parametrize("src, b", FUSION_TERMS, ids=[src for src, _ in FUSION_TERMS])
def test_fused_routes_tabulate_as_the_unfused_references(src, b, monkeypatch):
    # the engine's renamings and pairings ask across one fused table;
    # the references rewrite each move by prefix and ask every inner
    # node through `respond`
    t = parse(src)
    inner = denote_open(t, (), b)
    node = rename_strategy(inner, [("R.", "")], inner.arena.parts[1], "den")
    fused = tabulate(node, b)
    monkeypatch.setattr(pcf, "rename_strategy", ref_rename)
    monkeypatch.setattr(pcf, "pair_strategies", ref_pair)
    reference = denote(t, b)
    assert reference._routes is None
    assert fused == tabulate(reference, b)
    # a renaming, a pairing or a leaf under the top node is skipped; a
    # composite is asked through `respond`, into its own memo
    assert (inner._memo == {}) is (inner._view_fn is not None or inner._routes is not None)


@pytest.mark.parametrize("reply, error", [
    (("R.5", 0), "emitted move 'R.5' outside the inner arena"),
    (("R.1", 3), "pointer 3 outside the P-view"),
    (("R.q", 0), "emitted non-P move"),
], ids=["foreign move", "pointer outside", "opponent move"])
def test_a_bad_reply_behind_wrappers_raises_strategy_error_naming_a_node(reply, error):
    # a leaf behind a renaming, a pairing, and a renaming over a pairing:
    # the asking node checks the reply read back across its route
    leaf = InnocentStrategy(arrow(N2, N2), "wild", view_fn=lambda v: reply)
    b = Bounds(max_nat=2, max_play_len=4)
    for node, opening in ((rename_strategy(leaf, [("", "")], leaf.arena, "same"), "R.q"),
                          (pair_strategies(leaf, succ_strategy(2)), "R.L.q"),
                          (as_thunk(pair_strategies(succ_strategy(2), leaf)), "R.R.R.q")):
        want = f"^{re.escape(node.name)}: {re.escape(error)}"
        with pytest.raises(StrategyError, match=want):
            node.respond(Play(node.arena, ((opening, ROOT),)))
        with pytest.raises(StrategyError, match=want):
            explore(node, b)


def test_from_view_table_roundtrip():
    b = Bounds(max_nat=1, max_play_len=6)
    s = make_add(("L", "R"), 1)
    table = {v.moves: r for v, r in tabulate(s, b)}
    s2 = from_view_table(s.arena, "rebuilt", table)
    assert traces(s2, b) == traces(s, b)


def test_mirror_strategy_is_total_on_swapped_moves():
    a = arrow(N2, N2)
    swap = {m: ("R." if m.startswith("L.") else "L.") + m[2:] for m in a.moves}
    cc = mirror_strategy(a, swap, "cc")
    t = traces(cc, Bounds(max_nat=2, max_play_len=8))
    assert Play(a, (("R.q", ROOT), ("L.q", 0), ("L.2", 1), ("R.2", 0))) in t


def test_rename_strategy_rejects_a_renaming_that_is_no_bijection():
    s = succ_strategy(1)
    target = arrow(make_empty(), make_nat_arena(1))
    bad = [
        [("L.", "R."), ("R.", "R.")],   # onto, but merges L.q with R.q
        [("R.", "R.")],                 # leaves the L. moves unmatched
        [("L.", "X."), ("R.", "Y.")],   # misses every target move
    ]
    for pairs in bad:
        with pytest.raises(ValueError):
            rename_strategy(s, pairs, target, "bad")


def _fresh_table(pairs, moves) -> dict:
    """`prefix_map`'s table built anew, past the shared ones."""
    return strategy._tables.__wrapped__(tuple(pairs), frozenset(moves))[0]


def test_nodes_built_twice_share_their_tables_and_play_alike():
    # copycat, a renaming and a pairing, each built twice over one
    # arena: the two play the same traces, each keeps its own memo, and
    # the tables they share still equal fresh ones after every ask
    b = Bounds(max_nat=2, max_play_len=8)
    a = arrow(N2, N2)
    builds = {
        "copycat": (lambda: copycat(N2),
                    [([("L.", "R."), ("R.", "L.")], a.moves)]),
        "rename": (lambda: as_thunk(succ_strategy(2)),
                   [([("", "R.")], a.moves), ([("R.", "")], arrow(make_empty(), a).moves)]),
        "pair": (lambda: pair_strategies(copycat(N2), succ_strategy(2)),
                 [([("L.", "L."), ("R.", tag)], a.moves) for tag in ("R.L.", "R.R.")]),
    }
    for name, (build, tables) in builds.items():
        first, second = build(), build()
        assert first.arena is second.arena and first._memo is not second._memo
        assert traces(first, b) == traces(second, b), name
        assert first._memo and first._memo == second._memo, name
        for pairs, moves in tables:
            assert prefix_map(pairs, moves) is prefix_map(pairs, moves)
            assert prefix_map(pairs, moves) == _fresh_table(pairs, moves), (name, pairs)
    swap = prefix_swap([("L.", "R.")], a.moves)
    assert swap is prefix_map([("L.", "R."), ("R.", "L.")], a.moves)
    with pytest.raises(TypeError):
        swap["R.q"] = "R.q"
    # a denotation's three renamings fuse into one route per initial
    # move, down to the sum's leaf: two builds share its tables
    first, second = (denote(parse("fun x: nat -> fun y: nat -> x + y"), b) for _ in range(2))
    assert first._routes and first._routes.keys() == second._routes.keys()
    for m, (below, into, back, keys) in first._routes.items():
        below2, into2, back2, keys2 = second._routes[m]
        assert len(keys) == 3 and keys == keys2
        assert below._view_fn is not None and below is not below2
        assert into is into2 and back is back2
        assert (dict(into), dict(back)) == _fresh_fused(keys)
        for table in (into, back):
            with pytest.raises(TypeError):
                table[m] = m


def _fresh_fused(keys) -> tuple[dict, dict]:
    """A route's (into, back) tables composed anew from fresh tables,
    the outermost step first."""
    into = back = None
    for pairs, moves in keys:
        up = _fresh_table(pairs, moves)
        down = {v: k for k, v in up.items()}
        into = down if into is None else {m: down[x] for m, x in into.items() if x in down}
        back = up if back is None else {x: back[y] for x, y in up.items()}
    return into, back


def test_a_renaming_that_is_no_bijection_raises_on_every_ask():
    s, target = succ_strategy(1), arrow(make_empty(), make_nat_arena(1))
    for _ in range(2):
        with pytest.raises(ValueError, match="^renaming leaves a move unmatched$"):
            rename_strategy(s, [("R.", "R.")], target, "bad")
    assert rename_strategy(s, [("", "R.")], arrow(make_empty(), s.arena), "ok").arena.parts[1] \
        is s.arena


@pytest.mark.parametrize("left", [make_nat_arena(1), arrow(N2, N2)], ids=["nat1", "nat2->nat2"])
def test_pairing_refuses_sides_over_different_left_arenas(left):
    g = interrogate(arrow(left, N2), "zero", (), lambda ks: 0)
    with pytest.raises(ValueError, match="^paired strategies disagree on the left arena$"):
        pair_strategies(succ_strategy(2), g)


def test_pairing_answers_each_thread_through_its_side():
    # One thread under each side: f = succ plays the R.L. thread and
    # g = pred the R.R. one.  The pairing answers as its side does on
    # the P-view retagged by hand, with the pointer read through the
    # view's positions.
    f, g = succ_strategy(2), pred_strategy(2)
    pair = pair_strategies(f, g)
    s = Play(pair.arena, (("R.L.q", ROOT), ("L.q", 0), ("R.R.q", ROOT), ("L.q", 2),
                          ("L.0", 3), ("R.R.0", 2), ("L.1", 1)))
    for strat, tag, n, view, want in ((g, "R.R.", 5, (2, 3, 4), "R.0"),
                                      (f, "R.L.", 7, (0, 1, 6), "R.2")):
        assert pview_with_positions(s.prefix(n))[1] == view
        inner = Play(strat.arena, (("R.q", ROOT), ("L.q", 0), (s.moves[view[2]][0], 1)))
        move, ptr = strat.respond(inner)
        assert move == want
        assert pair.respond(s.prefix(n)) == (tag + move[2:], view[ptr])


def test_as_thunk_wraps_flat_strategy():
    b = Bounds(max_nat=2, max_play_len=4)
    two = denote(parse("2"), b)
    th = as_thunk(two)
    assert th.arena.parts[0] == make_empty()
    assert th.respond(Play(th.arena, (("R.q", ROOT),))) == ("R.2", 0)


def test_compose_type_checks():
    b = Bounds()
    with pytest.raises(ValueError):
        compose(succ_strategy(2), InnocentStrategy(N2, "flat", view_fn=lambda v: None), b)
    with pytest.raises(ValueError):
        compose(succ_strategy(2), succ_strategy(1), b)  # middles differ


def _interleaving_cases(wide):
    """(sigma, tau) pairs whose composite is checked against the
    interleaving oracle."""
    same = succ_strategy(2)
    ctx = (("f", TFun(NAT, NAT)),)
    return [
        (as_thunk(denote(parse("2"), wide)), succ_strategy(2)),
        (succ_strategy(2), succ_strategy(2)),
        (same, same),   # one strategy object on both sides
        (succ_strategy(2), copycat(N2)),
        (copycat(N2), succ_strategy(2)),
        # the shape application builds, `f 1` under f : nat -> nat: a
        # pairing against eval, with a higher-order middle arena; in
        # R.q L.R.R.q<-0 R.q L.R.R.q<-2 an A-initial surfaces at the
        # second C-initial
        (pair_strategies(denote_open(Var("f"), ctx, wide), denote_open(Num(1), ctx, wide)),
         eval_strategy(arrow(N2, N2))),
    ]


def test_compose_matches_interleaving_oracle():
    wide = Bounds(max_nat=2, max_play_len=12)
    for s, t in _interleaving_cases(wide):
        res = explore(compose(s, t, wide), Bounds(max_nat=2, max_play_len=4))
        assert res.bound_exceeded == 0
        ref = ref_compose_traces(s, t, wide, 4)
        assert played(res) == tuple(sorted(ref, key=lambda p: (len(p.moves), p.moves)))


def _associated(b):
    """f ; g ; h bracketed both ways, and every factor of either."""
    f = as_thunk(denote(parse("1"), b))
    g = succ_strategy(2)
    h = succ_strategy(2)
    fg, gh = compose(f, g, b), compose(g, h, b)
    return compose(fg, h, b), compose(f, gh, b), (f, g, h, fg, gh)


def test_compose_associates_on_traces():
    b = Bounds(max_nat=2, max_play_len=20)
    vis = Bounds(max_nat=2, max_play_len=6)
    lhs, rhs, _ = _associated(b)
    assert played(explore(lhs, vis)) == played(explore(rhs, vis))


def _projections(monkeypatch):
    """Patch `strategy.next_pview`, which compose's `append` calls once
    per move of a factor's projection, to record the moves of the play
    each entry it makes belongs to: those of the entry it extends, the
    last of the views it is handed, then the move.  Only `append`'s
    calls are recorded: `walk` asks the recurrence too, for a child at
    the cap, and that entry is no factor's.  Entries are keyed by their
    own ids, which a composite resuming from a copy of its lists of
    views keeps.  Compose nodes built afterwards use the patch.
    Returns a map from each entry made, and from the ids of its P-view
    moves and positions, to (the entry, the moves of the projection it
    was made for)."""
    made = {id(EMPTY_VIEWS): (EMPTY_VIEWS, ())}

    def recording(views, move, ptr, real=strategy.next_pview):
        entry = real(views, move, ptr)
        caller = sys._getframe(1)
        if caller.f_code.co_name != "append" or caller.f_globals is not vars(strategy):
            return entry
        last, moves = made[id(views[-1])]
        assert last is views[-1], "a list of views not grown by the recurrence"
        made[id(entry)] = made[id(entry[2]), id(entry[0])] = (entry, moves + ((move, ptr),))
        return entry

    monkeypatch.setattr(strategy, "next_pview", recording)
    return made


def _recorded(made, factors):
    """Patch each factor's `_answer` to record, per ask, its projection
    as a play and the views entry whose P-view it is handed; returns the
    record."""
    seen = []
    for strat in {id(x): x for x in factors}.values():
        def answer(key, positions, strat=strat, ask=strat._answer):
            entry, moves = made.get((id(key), id(positions)), (None, ()))
            assert entry is not None and entry[2] is key and entry[0] is positions, \
                "parts of an entry no projection's recurrence made"
            seen.append((Play(strat.arena, moves), entry))
            return ask(key, positions)
        strat._answer = answer
    return seen


def test_compose_hands_each_factor_a_legal_play_and_its_p_view(monkeypatch):
    # compose asks its factors unchecked, handing each the views entry
    # of its projection: that projection must be legal, and the entry
    # must hold its P-view, by its positions and by its moves
    made = _projections(monkeypatch)
    wide = Bounds(max_nat=2, max_play_len=12)
    asks = []
    for s, t in _interleaving_cases(wide):
        seen = _recorded(made, (s, t))
        explore(compose(s, t, wide), Bounds(max_nat=2, max_play_len=4))
        asks += seen
    b = Bounds(max_nat=2, max_play_len=20)
    lhs, rhs, factors = _associated(b)
    seen = _recorded(made, factors)
    for comp in (lhs, rhs):
        explore(comp, Bounds(max_nat=2, max_play_len=6))
    asks += seen
    assert len(asks) > 50
    for s, (positions, o_positions, moves, o_moves) in asks:
        assert o_positions is None and o_moves is None, "a factor's projection grew an O-view"
        assert ref_is_legal(s), s
        assert reindex(s, positions) == ref_pview(s), s
        assert moves == ref_pview(s).moves, s


def test_compose_asks_each_factor_p_view_once():
    b = Bounds(max_nat=2, max_play_len=8)
    asked = []
    leaf = _counted_leaf(succ_strategy(2), b, asked)
    counted = compose(copycat(N2), leaf, b)
    plain = compose(copycat(N2), succ_strategy(2), b)
    for fold in (explore, innocent_explore, tabulate):
        assert fold(counted, b) == fold(plain, b)
    assert asked and len(asked) == len(set(asked))


def test_a_cold_ask_leaves_each_p_view_prefix_it_needed_in_the_memo():
    # `respond` on a fresh composite's play with the longest P-view w
    # asks the composite itself, through `_answer`, about each P-view
    # prefix of w that it resumes from: each is left in the memo as a
    # reply that passed `_answer`'s checks, with the interaction after
    # it.  A warm ask of one more view then resumes from that memo, and
    # asks the factors only about views they were not asked before.
    b = Bounds(max_nat=1, max_play_len=40)

    def make():
        sigma, tau = denote(parse("fun f: nat -> nat -> f (f (f 1))"), b), succ_strategy(1)
        return compose(sigma, tau, b), sigma, tau

    plays = played(explore(make()[0], Bounds(max_nat=1, max_play_len=10)))
    s = max((Play(p.arena, p.moves[:-1]) for p in plays if p.moves),
            key=lambda s: (len(pview(s)), s.moves))
    comp, sigma, tau = make()
    asked = []
    for strat in (sigma, tau):
        def answer(key, positions, strat=strat, ask=strat._answer):
            asked.append((strat, key))
            return ask(key, positions)
        strat._answer = answer
    reply = comp.respond(s)
    w = pview(s).moves
    assert len(w) == 7 and set(comp._memo) == {w[:k] for k in range(1, len(w) + 1, 2)}
    for k in range(1, len(w) + 1, 2):
        m, ptr, _ = comp._memo[w[:k]]
        assert comp.arena.polarity[m] == "P" and 0 <= ptr < k
        assert comp.arena.enables(w[ptr][0], m)
        assert (m, ptr) == w[k] if k < len(w) else m == reply[0]
    warm = 0
    for k in range(1, len(w) + 1, 2):
        v = w[:k] + (comp._memo[w[:k]][:2],)
        for o in legal_extensions(comp.arena, v, (k,)):
            if v + (o,) in comp._memo:
                continue
            before, n = set(asked), len(asked)
            comp.respond(Play(comp.arena, v + (o,)))
            assert asked[n:] and not before & set(asked[n:]), v + (o,)
            warm += 1
    assert warm == 6


def test_compose_raises_inconsistent_on_foreign_play():
    # The composite (succ after the sum) asks x first; claim it asked y.
    # The false move is inside the P-view, so playing out that view
    # meets it, or resuming from its stored prefix checks it, whatever
    # the memo holds.
    b = Bounds(max_nat=2, max_play_len=12)
    t = parse("fun x: nat -> fun y: nat -> succ (x + y)")
    cold = denote(t, b)
    warm = denote(t, b)
    explore(warm, Bounds(max_nat=2, max_play_len=8))
    for comp in (cold, warm):
        lie = Play(comp.arena, (("R.R.q", ROOT), ("R.L.q", 0), ("R.L.1", 1)))
        with pytest.raises(StrategyError, match="where the play has"):
            comp.respond(lie)


def test_compose_raises_inconsistent_when_a_side_refuses():
    # tau never answers, so the composite has no move where the play
    # has one.
    n1 = make_nat_arena(1)
    never = InnocentStrategy(arrow(n1, n1), "never", view_fn=lambda v: None)
    comp = compose(copycat(n1), never, Bounds())
    play = Play(comp.arena, (("R.q", ROOT), ("L.q", 0), ("L.0", 1)))
    with pytest.raises(StrategyError, match="where the play has") as e:
        comp.respond(play)
    assert str(e.value) == "(copycat(N1) ; never): no response where the play has 'L.q'"


def test_compose_answers_a_lie_in_another_thread_from_its_view():
    # The composite answers 2, not 0; by innocence the false answer in
    # the first thread does not reach the second thread's P-view.
    b = Bounds(max_nat=2, max_play_len=12)
    comp = compose(as_thunk(denote(parse("2"), b)), succ_strategy(2), b)
    lie = Play(comp.arena, (("R.q", ROOT), ("R.0", 0), ("R.q", ROOT)))
    assert comp.respond(lie) == ("R.2", 2)
    assert comp.respond(Play(comp.arena, (("R.q", ROOT),))) == ("R.2", 0)


def test_compose_results_do_not_depend_on_exploration_order():
    # Multi-threaded plays reach the same P-views through longer plays;
    # exploring them first must not change what shorter plays see.
    b = Bounds(max_nat=2, max_play_len=10)
    t = parse("fun f: nat -> nat -> f (f 1)")
    fresh = innocent_explore(denote(t, b), b)
    s = denote(t, b)
    explore(s, b)
    assert innocent_explore(s, b) == fresh


def test_compose_bound_exceeded_is_not_none():
    tight = Bounds(max_nat=1, max_play_len=3)
    comp = compose(succ_strategy(1), succ_strategy(1), tight)
    opening = Play(comp.arena, (("R.q", ROOT),))
    assert comp.respond(opening) == ("L.q", 0)
    deeper = Play(comp.arena, (("R.q", ROOT), ("L.q", 0), ("L.0", 1)))
    with pytest.raises(BoundExceeded):
        comp.respond(deeper)


def _asked(node, play):
    """`node.respond(play)`, or the exception it raised, by type and text."""
    try:
        return node.respond(play)
    except (StrategyError, BoundExceeded) as e:
        return type(e).__name__, str(e)


def _extensions(s: Play) -> list[Play]:
    """The legal plays one move longer than s, by `legal_extensions`."""
    *_, (pv, ov, _, _) = checked_views(s)
    justifiers = pv if len(s.moves) % 2 else (ROOT, *ov)
    return [s.extend(*mj) for mj in legal_extensions(s.arena, s.moves, justifiers)]


def _kind(outcome) -> str:
    """An outcome's kind: a reply, a refusal, a bound hit, or a
    StrategyError by what it says the composite did."""
    if outcome is None:
        return "refusal"
    name, text = outcome
    if name == "StrategyError":
        return text.partition(" where")[0].split(": ")[-1]
    return name if name == "BoundExceeded" else "reply"


def _asks(sigma, b):
    """Odd-length plays to ask a node like sigma: each play sigma reaches
    at b, extended by each Opponent move; and each of those extended by
    a Proponent move sigma does not play there and an Opponent move
    pointing at it, a lie that stays in the P-view."""
    asks = []
    for s in played(explore(sigma, b)):
        for so in _extensions(s):
            asks.append(so)
            if len(so.moves) + 2 > b.max_play_len:
                continue
            r = _asked(sigma, so)
            for sop in _extensions(so):
                if sop.moves[-1] != r:
                    asks += [x for x in _extensions(sop) if x.moves[-1][1] == len(so.moves)][:2]
    return asks


def _cold_cases():
    """(name, a maker of fresh nodes, bounds): every corpus entry; each
    composite of the associativity factors, with room for its hidden
    moves and with too little; and a composite whose second factor
    never answers."""
    cases = [(e.name, e.build, _REC_EVERY if e.name == "rec_zero" else e.bounds)
             for e in CORPUS]
    for cap in (20, 5):
        for k, name in enumerate(("(f;g);h", "f;(g;h)", "f;g", "g;h")):
            def make(k=k, b=Bounds(max_nat=2, max_play_len=cap)):
                lhs, rhs, (_, _, _, fg, gh) = _associated(b)
                return (lhs, rhs, fg, gh)[k]
            cases.append((f"{name} at {cap}", make, Bounds(max_nat=2, max_play_len=6)))
    n1 = make_nat_arena(1)
    never = InnocentStrategy(arrow(n1, n1), "never", view_fn=lambda v: None)
    cases.append(("copycat;never", lambda: compose(copycat(n1), never, Bounds()),
                  Bounds(max_nat=1, max_play_len=6)))
    return cases


def test_a_cold_composite_answers_as_a_warm_one_in_any_order():
    # A composite resumes each asked P-view from the stored interaction
    # of the longest asked prefix, or from the empty one.  Asked cold, in
    # any order, through `respond`, every node answers as a warm one
    # does, and as one asked only that play, which plays it out from the
    # empty interaction: the same replies, and StrategyError and
    # BoundExceeded, with the same texts, on the same plays.
    rng = random.Random(0)
    kinds = Counter()
    digest = hashlib.sha256()
    for name, make, b in _cold_cases():
        asks = _asks(make(), b)
        warm = make()
        explore(warm, b)
        want = [_asked(warm, s) for s in asks]
        for order in (asks[::-1], rng.sample(asks, len(asks))):
            fresh = make()
            got = {s: _asked(fresh, s) for s in order}
            assert [got[s] for s in asks] == want, name
        longest = max((ref_pview(s) for s in asks), key=lambda v: (len(v), v.moves))
        assert _asked(make(), longest) == _asked(warm, longest), name
        for k in sorted(rng.sample(range(len(asks)), min(len(asks), 40))):
            assert _asked(make(), asks[k]) == want[k], (name, asks[k])
        kinds.update(map(_kind, want))
        digest.update(repr((name, [(s.moves, w) for s, w in zip(asks, want)])).encode())
    # the outcomes as a composite that played out each P-view from the
    # empty interaction on every miss gave them
    assert kinds == {"reply": 11472, "refusal": 253, "computed 'R.R.0'": 486,
                     "computed 'R.0'": 36, "computed 'R.1'": 18, "computed 'R.2'": 18,
                     "no response": 2, "BoundExceeded": 25}
    assert digest.hexdigest() == (
        "1a9d361c3523dad92b2bac3c0de3e154930e0feed587687e2e79118a1f08bfbb")


def test_strategy_responses_are_opponent_enabled_and_proponent():
    b = Bounds(max_nat=1, max_play_len=6)
    s = make_add(("R", "L"), 1)
    for p in traces(s, b):
        for i in range(1, len(p.moves), 2):
            m, ptr = p.moves[i]
            assert s.arena.label(m).polarity == "P"
            assert s.arena.enables(p.moves[ptr][0], m)
