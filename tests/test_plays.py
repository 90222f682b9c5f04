import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gamesem.arena import arrow, make_nat_arena, make_sigma, product
from gamesem.observation import prefix_oviews
from gamesem.plays import (
    ROOT,
    Play,
    checked_views,
    is_complete,
    is_o_innocent,
    legal_extensions,
    legality_violation,
    next_pview,
    open_questions,
    oview,
    oview_with_positions,
    pview,
    pview_with_positions,
)
from oracles import (
    is_single_threaded,
    prefixes,
    ref_enumerate_plays,
    ref_is_legal,
    ref_is_o_innocent,
    ref_is_p_innocent,
    ref_legal_extensions,
    ref_oview,
    ref_pending_questions,
    ref_pview,
    walk_view_positions,
)

N2 = make_nat_arena(2)
ARROW = arrow(N2, N2)


def P(arena, *moves):
    return Play(arena, tuple(moves))


def test_empty_play_is_legal():
    assert legality_violation(P(N2)) is None


def test_basic_legal_play():
    s = P(ARROW, ("R.q", ROOT), ("L.q", 0), ("L.1", 1), ("R.2", 0))
    assert legality_violation(s) is None
    assert is_complete(s)


def test_alternation_violation():
    s = P(N2, ("q", ROOT), ("q", ROOT))
    assert legality_violation(s) is not None


def test_initial_must_be_unjustified():
    s = P(ARROW, ("R.q", ROOT), ("L.q", 0), ("L.1", 1), ("R.q", 0))
    assert legality_violation(s) is not None


def test_justifier_must_enable():
    s = P(ARROW, ("R.q", ROOT), ("L.1", 0))
    assert legality_violation(s) is not None


def test_justifier_must_precede():
    s = P(N2, ("q", 0))
    assert legality_violation(s) is not None


def test_opening_move_must_be_initial():
    s = P(ARROW, ("L.q", ROOT))
    assert legality_violation(s) is not None


# The two view computations against the independent recursions, over
# every legal play of three differently shaped arenas.

ALL_PLAYS = (
    ref_enumerate_plays(make_sigma(), 6)
    + ref_enumerate_plays(N2, 6)
    + ref_enumerate_plays(ARROW, 8)
)


def test_view_corpus_is_substantial():
    assert len(ALL_PLAYS) > 3000


def test_pview_matches_reference_everywhere():
    for s in ALL_PLAYS:
        assert pview(s) == ref_pview(s)


def test_oview_matches_reference_everywhere():
    for s in ALL_PLAYS:
        assert oview(s) == ref_oview(s)


@settings(max_examples=300, derandomize=True)
@given(st.sampled_from(ALL_PLAYS))
def test_views_are_legal_and_idempotent(s):
    pv, ov = pview(s), oview(s)
    assert legality_violation(pv) is None and legality_violation(ov) is None
    assert pview(pv) == pv
    assert oview(ov) == ov


@settings(max_examples=300, derandomize=True)
@given(st.sampled_from(ALL_PLAYS))
def test_views_preserve_last_move(s):
    if s.moves:
        assert pview(s).moves[-1][0] == s.moves[-1][0]
        assert oview(s).moves[-1][0] == s.moves[-1][0]


def test_oview_shape_proponent_points_at_predecessor():
    # in an O-view every P move is justified by the move right before it
    for s in ALL_PLAYS:
        ov = oview(s)
        for i, (m, ptr) in enumerate(ov.moves):
            if ov.arena.label(m).polarity == "P":
                assert ptr == i - 1


# The forward recurrence and legal-by-construction extensions against
# the references: views by the backward walk, extensions generated and
# then checked afresh.  The last arena is third-order.

N1 = make_nat_arena(1)
EXT_ARENAS = [
    N2,
    arrow(N1, N1),
    arrow(product(N1, N1), N1),
    arrow(arrow(arrow(N1, N1), N1), N1),
]


@pytest.mark.parametrize("single_threaded", [False, True])
@pytest.mark.parametrize("arena", EXT_ARENAS, ids=lambda a: a.name)
def test_legal_extensions_match_generate_then_check(arena, single_threaded):
    # The justifiers are the mover's view, read off by the backward
    # walk, and ROOT unless a single-threaded play has begun.
    plays = ref_enumerate_plays(arena, 7, single_threaded)
    assert len(plays) > 1
    for s in plays:
        mover = "O" if len(s.moves) % 2 == 0 else "P"
        view = walk_view_positions(arena, s.moves, mover)
        justifiers = view if single_threaded and s.moves else [ROOT, *view]
        got = [s.extend(*e) for e in legal_extensions(arena, s.moves, justifiers)]
        assert got == ref_legal_extensions(s, single_threaded)


@pytest.mark.parametrize("arena", EXT_ARENAS, ids=lambda a: a.name)
def test_checked_views_match_backward_walk(arena):
    # positions by the backward walk, moves by the reference recursions
    for s in ref_enumerate_plays(arena, 7):
        for k, (pv, ov, pv_moves, ov_moves) in enumerate(checked_views(s)):
            t = s.prefix(k)
            assert list(pv) == walk_view_positions(arena, t.moves, "P")
            assert list(ov) == walk_view_positions(arena, t.moves, "O")
            assert pv_moves == ref_pview(t).moves
            assert ov_moves == ref_oview(t).moves


@pytest.mark.parametrize("arena", [arrow(arrow(N1, N1), N1), arrow(product(N1, N1), N1)],
                         ids=lambda a: a.name)
def test_next_pview_is_the_p_view_half_of_next_views(arena):
    # on every prefix of every play, from the full views of the prefixes
    # before it, as `next_views` asks it, and from a list grown by
    # `next_pview` alone, as compose's factor projections are, which
    # holds no O-view
    plays = ref_enumerate_plays(arena, 7)
    assert len(plays) > 100
    for s in plays:
        full = checked_views(s)
        alone = [full[0]]
        for k, (m, ptr) in enumerate(s.moves):
            pv, _, pvm, _ = full[k + 1]
            assert next_pview(full[:k + 1], m, ptr) == (pv, None, pvm, None), s.prefix(k + 1)
            alone.append(next_pview(alone, m, ptr))
            assert alone[-1] == (pv, None, pvm, None), s.prefix(k + 1)


_OPENED = (("R.q", ROOT), ("L.q", 0), ("L.1", 1), ("R.1", 0), ("R.q", ROOT))


def test_legality_stops_before_the_views_of_a_bad_move():
    # the recurrence never reads a move that failed its checks, so a bad
    # pointer with moves after it gives its message and raises nothing
    for moves, why in (
        (_OPENED[:1] + (("L.q", 5), ("L.1", 1)), "move 1: pointer 5 out of range"),
        (_OPENED + (("L.q", 0), ("L.1", 5)), "move 5: justifier 0 not in the P-view"),
    ):
        assert legality_violation(P(ARROW, *moves)) == why


# One bad play per check of the legality door, in the door's order, with
# the text it refuses the play with.
@pytest.mark.parametrize("arena, moves, why", [
    pytest.param(ARROW, (("R.q", ROOT), ("nonsense", 0)),
                 "move 1: unknown move 'nonsense'", id="unknown-move"),
    pytest.param(N2, (("q", ROOT), ("q", ROOT)),
                 "move 1: expected P-move, got 'q'", id="wrong-polarity"),
    pytest.param(ARROW, (("L.q", ROOT),),
                 "move 0: expected O-move, got 'L.q'", id="opening-with-a-P-move"),
    pytest.param(ARROW, (("R.q", ROOT), ("L.q", ROOT)),
                 "move 1: unjustified non-initial move 'L.q'", id="unjustified-non-initial"),
    pytest.param(ARROW, (("R.q", ROOT), ("L.q", 1)),
                 "move 1: pointer 1 out of range", id="pointer-at-itself"),
    pytest.param(ARROW, (("R.q", ROOT), ("L.q", -2)),
                 "move 1: pointer -2 out of range", id="pointer-below-root"),
    pytest.param(ARROW, _OPENED[:3] + (("R.1", 1),),
                 "move 3: 'L.q' does not enable 'R.1'", id="not-enabled"),
    pytest.param(ARROW, _OPENED + (("L.q", 0),),
                 "move 5: justifier 0 not in the P-view", id="outside-the-p-view"),
    pytest.param(ARROW, (("R.q", ROOT), ("L.q", 0), ("L.2", 1), ("L.q", 0), ("L.1", 1)),
                 "move 4: justifier 1 not in the O-view", id="outside-the-o-view"),
])
def test_legality_door_names_each_check(arena, moves, why):
    s = P(arena, *moves)
    assert legality_violation(s) == why
    with pytest.raises(ValueError) as e:
        pview(s)
    assert str(e.value) == f"illegal play: {why}"


@pytest.mark.parametrize("arena", EXT_ARENAS, ids=lambda a: a.name)
def test_legality_matches_reference_on_every_raw_extension(arena):
    for s in ref_enumerate_plays(arena, 5):
        for m in sorted(arena.moves) + ["nonsense"]:
            for ptr in (ROOT, *range(-2, len(s.moves) + 1)):
                c = s.extend(m, ptr)
                assert (legality_violation(c) is None) == ref_is_legal(c)


def test_views_require_legality():
    # every reader of a play's views asks the one door, which refuses
    bad = P(N2, ("q", ROOT), ("q", ROOT))
    for read in (pview, oview, pview_with_positions, oview_with_positions,
                 is_o_innocent, prefix_oviews):
        with pytest.raises(ValueError, match=r"^illegal play: move 1: expected P-move"):
            read(bad)


def test_prefixes():
    s = P(ARROW, ("R.q", ROOT), ("L.q", 0), ("L.1", 1), ("R.2", 0))
    ps = prefixes(s)
    assert len(ps) == 5
    assert ps[0] == P(ARROW)
    assert ps[-1] == s


def test_single_threaded():
    one = P(N2, ("q", ROOT), ("1", 0))
    two = P(N2, ("q", ROOT), ("1", 0), ("q", ROOT), ("1", 2))
    assert is_single_threaded(one)
    assert not is_single_threaded(two)


def test_bracketing_and_completeness():
    open_q = P(ARROW, ("R.q", ROOT), ("L.q", 0))
    assert open_questions(ARROW.questions, open_q.moves) == (0, 1)
    assert not is_complete(open_q)
    done = P(ARROW, ("R.q", ROOT), ("L.q", 0), ("L.1", 1), ("R.2", 0))
    assert is_complete(done)
    assert not is_complete(P(ARROW))


def test_bracketing_matches_reference_everywhere():
    ill = complete = 0
    for s in ALL_PLAYS:
        ref = ref_pending_questions(s)
        assert open_questions(s.arena.questions, s.moves) == ref, s
        assert is_complete(s) == (len(s.moves) > 0 and ref == ()), s
        ill += ref is None
        complete += len(s.moves) > 0 and ref == ()
    assert (len(ALL_PLAYS), ill, complete) == (3381, 375, 1332)


def test_answer_must_close_pending_question():
    # third-order arena: Proponent answers the outer question while two
    # inner questions are still pending
    a3 = arrow(arrow(make_nat_arena(1), make_nat_arena(1)), make_nat_arena(1))
    s = P(a3, ("R.q", ROOT), ("L.R.q", 0), ("L.L.q", 1), ("R.1", 0))
    assert legality_violation(s) is None
    assert open_questions(a3.questions, s.moves) is None


def test_innocence_filters():
    # the same question asked twice from the same Opponent view, answered
    # two different ways: O-innocence fails
    s = P(ARROW, ("R.q", ROOT), ("L.q", 0), ("L.1", 1), ("L.q", 0), ("L.2", 3))
    assert legality_violation(s) is None
    assert not is_o_innocent(s)
    t = P(ARROW, ("R.q", ROOT), ("L.q", 0), ("L.1", 1), ("L.q", 0), ("L.1", 3))
    assert is_o_innocent(t)
    assert ref_is_p_innocent(t)


@pytest.mark.parametrize("arena", [arrow(arrow(N1, N1), N1), arrow(product(N1, N1), N1)],
                         ids=lambda a: a.name)
def test_o_innocence_matches_reference_everywhere(arena):
    # every play, several threads included, and both verdicts among them
    verdicts = set()
    for s in ref_enumerate_plays(arena, 8):
        assert is_o_innocent(s) == ref_is_o_innocent(s), s
        verdicts.add(is_o_innocent(s))
    assert verdicts == {False, True}


def test_enumerate_plays_all_legal():
    plays = ref_enumerate_plays(ARROW, 6)
    assert all(legality_violation(s) is None for s in plays)
    lengths = {len(s.moves) for s in plays}
    assert 0 in lengths and 1 in lengths and 6 in lengths


def test_enumerate_plays_single_threaded_flag():
    sts = ref_enumerate_plays(N2, 8, single_threaded=True)
    assert all(is_single_threaded(s) for s in sts)
    assert len(sts) < len(ref_enumerate_plays(N2, 8))


def test_play_json_roundtrip():
    s = P(ARROW, ("R.q", ROOT), ("L.q", 0), ("L.1", 1), ("R.2", 0))
    doc = s.to_json()
    assert doc["arena"] == ARROW.name
    assert Play.from_json(doc, ARROW) == s
