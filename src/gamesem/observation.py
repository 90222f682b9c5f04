"""Observations: what a strategy looks like through O-views alone.

A single completed play is remembered only as the set of O-views of its
prefixes.  Collecting that set for every complete play a strategy can
produce (against innocent, single-threaded Opponents) yields the
strategy's observation: a set of view-sets, which `observations` reads
off the views `strategy.walk` yields with each complete play.  Each
view-set is O-deterministic, and such sets double as tests: an
O-deterministic set induces a probing strategy that walks the recorded
views against the strategy under test and reports success on an
auxiliary one-question arena (`induced_test`, the paper's
construction).  `run_test` gives
the verdict of that composite without building it: the set is read as
an Opponent, a table from O-views to the next Opponent move, and one
play over the strategy's own arena alternates that Opponent with the
strategy's rounds, the rounds `walk` plays.  That play is
`_play_against`, which takes any table, a partial one too: it stops at
the first O-view the table has no entry for, and the test oracle in
`equiv` branches there.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property

from .arena import Arena, arrow, make_sigma
from .bounds import Bounds
from .plays import (
    EMPTY_VIEWS,
    ROOT,
    Play,
    is_complete,
    is_single_threaded,
    is_well_bracketed,
    legality_violation,
    prefix_views,
    prefixes,
)
from .strategy import (
    BoundExceeded,
    InnocentStrategy,
    StrategyError,
    from_view_table,
    walk,
)


def prefix_oviews(s: Play) -> frozenset[Play]:
    """O-views of every prefix of the legal play s (the empty view included)."""
    return frozenset(Play(s.arena, views[3]) for views in prefix_views(s))


def is_oview_shaped(v: Play) -> bool:
    """True when v is legal and its own O-view.

    Equivalently: moves alternate starting with O, and every P-move
    points at the move immediately before it.
    """
    views: list = []
    return legality_violation(v, views) is None and len(views[1]) == len(v.moves)


def _doc_arena(doc: dict, arena: Arena | None) -> Arena:
    """The arena a document is read over: `arena` if given, else the one
    embedded in the document; ValueError if neither."""
    if arena is None and "arena" not in doc:
        raise ValueError("no arena given and none embedded in the document")
    return Arena.from_json(doc["arena"]) if arena is None else arena


def odet_violation(arena: Arena, views: frozenset[Play]):
    """Why `views` fails to be an O-deterministic view-set, or None.

    Conditions: every element is a single-threaded well-bracketed
    O-view over `arena`; the set is closed under prefixes; nonempty
    elements share one initial move; and an even-length element has at
    most one one-move extension in the set (Opponent branching is
    resolved, Proponent branching is free).
    """
    for v in views:
        if v.arena != arena:
            return f"element over wrong arena {v.arena.name}"
        if not is_oview_shaped(v):
            return f"element is not an O-view: {v!r}"
        if not is_single_threaded(v):
            return f"element has several initial moves: {v!r}"
        if not is_well_bracketed(v):
            return f"element is not well-bracketed: {v!r}"
        for t in prefixes(v):
            if t not in views:
                return f"set is not prefix-closed at {t!r}"
    firsts = {v.moves[0] for v in views if v.moves}
    if len(firsts) > 1:
        return f"several initial moves across the set: {sorted(m for m, _ in firsts)}"
    ochild: dict[tuple, Play] = {}
    for v in views:
        if len(v.moves) % 2 == 1:
            key = v.moves[:-1]
            if key in ochild and ochild[key] != v:
                return f"two Opponent continuations after {v.prefix(len(v.moves) - 1)!r}"
            ochild[key] = v
    return None


def is_o_deterministic(arena: Arena, views: frozenset[Play]) -> bool:
    return odet_violation(arena, views) is None


# The test's entry at a complete element: the test succeeds there.
_SUCCEED = "succeed"
# `_play_against`'s mark for an O-view the table has no entry for.
_UNSET = object()


@dataclass(frozen=True)
class ODetSet:
    """A prefix-closed, O-deterministic set of O-views over one arena."""
    arena: Arena
    views: frozenset[Play]

    @classmethod
    def make(cls, arena: Arena, views) -> "ODetSet":
        closed = set()
        for v in views:
            closed.update(prefixes(v))
        closed = frozenset(closed)
        bad = odet_violation(arena, closed)
        if bad is not None:
            raise ValueError(f"not an O-deterministic view-set: {bad}")
        return cls(arena, closed)

    @cached_property
    def _table(self) -> dict[tuple, object]:
        """The Opponent the set defines, as a view function over A.

        Maps the moves of an O-view to the set's next Opponent move
        there (move, pointer into the view or ROOT), or to _SUCCEED
        where the view is a complete element.  Only the views that key
        the table must be single-threaded: the body of an odd-length
        element and a complete element.  O-determinacy of the set is
        exactly what makes the table single-valued.  Built once, for
        every strategy the set tests.
        """
        table: dict[tuple, object] = {}

        def put(key: Play, entry):
            if not is_single_threaded(key):
                raise ValueError("only single-threaded plays lift to tests")
            if table.setdefault(key.moves, entry) != entry:
                raise ValueError("ill-formed test: a view is answered two ways")

        for v in self.views:
            if len(v.moves) % 2 == 1:
                put(v.prefix(len(v.moves) - 1), v.moves[-1])
            elif v.moves and is_complete(v):
                put(v, _SUCCEED)
        return table

    @cached_property
    def initial(self):
        firsts = {v.moves[0][0] for v in self.views if v.moves}
        return next(iter(firsts)) if firsts else None

    def to_json(self, include_arena: bool = False) -> dict:
        doc = {
            "initial": self.initial,
            "views": [v.to_json() for v in sorted_views(self.views)],
        }
        if include_arena:
            doc["arena"] = self.arena.to_json()
        return doc

    @classmethod
    def from_json(cls, doc: dict, arena: Arena | None = None) -> "ODetSet":
        arena = _doc_arena(doc, arena)
        views = [Play.from_json(v, arena) for v in doc["views"]]
        return cls.make(arena, views)

    def __repr__(self) -> str:
        return f"ODetSet({self.arena.name}, {len(self.views)} views)"


def play_key(p: Play):
    return (len(p.moves), p.moves)


def sorted_views(views) -> list[Play]:
    return sorted(views, key=play_key)


def viewset_key(views):
    vs = sorted_views(views)
    return (sum(len(v.moves) for v in vs), len(vs), tuple(play_key(v) for v in vs))


def induced_test(s: ODetSet) -> InnocentStrategy:
    """The probing strategy a view-set defines.

    Over arrow(A, Sigma): once the Sigma question is asked, replay the
    recorded Opponent moves of A on the left; whenever the replay
    completes one of the set's complete elements, answer the Sigma
    question instead.  This is the set's `_table` lifted onto the test
    arena; `run_test` plays the table directly.
    """
    test_arena = arrow(s.arena, make_sigma())
    table: dict[tuple, tuple[str, int]] = {}
    for key, entry in s._table.items():
        # the Sigma question opens; A-moves shift one place right, and
        # the A-initial now points at that question
        lifted = (("R.q", ROOT),) + tuple(("L." + m, 0 if ptr == ROOT else ptr + 1)
                                          for m, ptr in key)
        if entry is _SUCCEED:
            table[lifted] = ("R.a", 0)
        else:
            m, ptr = entry
            table[lifted] = ("L." + m, 0 if ptr == ROOT else ptr + 1)
    name = f"test[{len(s.views)} views on {s.arena.name}]"
    return from_view_table(test_arena, name, table)


class TestVerdict(enum.Enum):
    TOP = "top"
    BOT = "bot"
    BOUND_EXCEEDED = "bound_exceeded"


def run_test(sigma: InnocentStrategy, s: ODetSet, b: Bounds) -> TestVerdict:
    """Play sigma against the Opponent s defines; TOP if the test succeeds.

    The same verdict as composing sigma (as a thunk) with
    `induced_test(s)` and asking the composite the Sigma question, but
    played as one play over A by `_play_against`, which reads the
    Opponent's moves from the set's table.  An O-view the table has no
    entry for ends the test there: BOT.
    """
    if s.arena != sigma.arena:
        raise ValueError("view-set and strategy live on different arenas")
    got = _play_against(sigma, s._table, b)
    return got if isinstance(got, TestVerdict) else TestVerdict.BOT


def _play_against(sigma: InnocentStrategy, table: dict, b: Bounds, run=None):
    """Play sigma against the Opponent `table` defines, a map from O-view
    moves to the next Opponent move (move, pointer into the O-view or
    ROOT), to _SUCCEED, or to None, where the test gives up (BOT).

    Returns the TestVerdict where the play ends, or the run (the play
    and the views of each of its prefixes) as it stands at the first
    O-view that is not a key of the table; that O-view is
    `run[1][-1][3]`.  Given such a run, the play resumes from it.  The
    Opponent move is looked up by the play's O-view, sigma answers from
    its P-view, and the test succeeds when the table says so.  Each
    round is sigma's `_round`, the one `walk` plays, so both views
    are carried forward one move at a time and no play is checked.  As
    in the composite, the Sigma question and answer count against
    b.max_play_len with the moves of A, so a reply that would take the
    interaction past the cap gives BOUND_EXCEEDED; so does a bound hit
    inside sigma.  An Opponent move A does not allow raises
    StrategyError when it is due to be played.
    """
    arena = sigma.arena
    # The composite's interaction holds the Sigma question, the moves of
    # A and the next reply: a reply after i moves of A needs 2 + i <= cap.
    cap = b.max_play_len - 2
    play, views = run or (Play(arena), (EMPTY_VIEWS,))
    while True:
        i = len(play.moves)
        ov = views[i][1]
        entry = table.get(views[i][3], _UNSET)
        if entry is _UNSET:
            return play, views
        if entry is None:
            return TestVerdict.BOT
        if entry is _SUCCEED:
            return TestVerdict.BOUND_EXCEEDED if i > cap else TestVerdict.TOP
        o, ptr = entry
        if ptr == ROOT:
            j, enabled = ROOT, arena.is_initial(o)
        else:
            j = ov[ptr] if 0 <= ptr < len(ov) else None
            enabled = j is not None and arena.enables(play.moves[j][0], o)
        if arena.polarity.get(o) != "O" or not enabled:
            raise StrategyError(f"{o!r} is not an Opponent move enabled in "
                                f"the O-view {views[i][3]!r}")
        if i > cap:
            return TestVerdict.BOUND_EXCEEDED
        try:
            step = sigma._round(play.extend(o, j), views)
        except BoundExceeded:
            return TestVerdict.BOUND_EXCEEDED
        if step is None:
            return TestVerdict.BOT
        if i + 1 > cap:
            return TestVerdict.BOUND_EXCEEDED
        play, views = step


@dataclass(frozen=True)
class ObservationalStrategy:
    """A strategy's observation: its complete plays seen through O-views."""
    arena: Arena
    sets: frozenset[frozenset[Play]]
    bounds: Bounds = field(compare=False)
    bound_exceeded: int = field(default=0, compare=False)

    def to_json(self, include_arena: bool = False) -> dict:
        ordered = sorted(self.sets, key=viewset_key)
        doc = {
            "bounds": self.bounds.to_json(),
            "bound_exceeded": self.bound_exceeded,
            "sets": [[v.to_json() for v in sorted_views(vs)]
                     for vs in ordered],
        }
        if include_arena:
            doc["arena"] = self.arena.to_json()
        return doc

    @classmethod
    def from_json(cls, doc: dict, arena: Arena | None = None) -> "ObservationalStrategy":
        arena = _doc_arena(doc, arena)
        sets = frozenset(
            frozenset(Play.from_json(v, arena) for v in vs)
            for vs in doc["sets"])
        return cls(arena, sets, Bounds.from_json(doc.get("bounds", {})),
                   int(doc.get("bound_exceeded", 0)))

    def __repr__(self) -> str:
        return f"ObservationalStrategy({self.arena.name}, {len(self.sets)} sets)"


def observations(sigma: InnocentStrategy, b: Bounds) -> ObservationalStrategy:
    """The O-views of the prefixes of each of sigma's complete
    single-threaded traces, one view-set per play, read off the views
    `walk` carries with each play.

    Opponent is restricted to innocent, single-threaded behavior.  Plays
    cut short by the length bound contribute nothing, but positions
    where the strategy's own computation hit a bound are counted in
    bound_exceeded.  Each distinct O-view is built as a Play once.
    """
    sets, exceeded, oviews = set(), 0, {}   # oviews: O-view moves -> its Play
    for step in walk(sigma, b, innocent_opponent=True):
        if step is None:
            exceeded += 1
        elif is_complete(step[0]):
            keys = {v[3] for v in step[1]}
            oviews.update((k, Play(sigma.arena, k)) for k in keys - oviews.keys())
            sets.add(frozenset(map(oviews.__getitem__, keys)))
    return ObservationalStrategy(sigma.arena, frozenset(sets), b, exceeded)


def obs_leq(x: ObservationalStrategy, y: ObservationalStrategy) -> bool:
    """Every view-set of x contains some view-set of y."""
    if x.arena != y.arena:
        raise ValueError("observations over different arenas")
    return all(any(t <= s for t in y.sets) for s in x.sets)


def is_observational(x: ObservationalStrategy) -> bool:
    """Do the view-sets pairwise disagree on some Opponent move?

    For every two distinct sets there must be a shared even-length body
    that the two extend with different Opponent moves.  Observations of
    innocent strategies should have this property; sets built by hand
    need not.
    """
    sets = list(x.sets)
    for i, s in enumerate(sets):
        for t in sets[i + 1:]:
            if not _o_separated(s, t):
                return False
    return True


def _o_separated(s: frozenset[Play], t: frozenset[Play]) -> bool:
    ext_s = {v.moves[:-1]: v.moves[-1] for v in s if len(v.moves) % 2 == 1}
    ext_t = {v.moves[:-1]: v.moves[-1] for v in t if len(v.moves) % 2 == 1}
    return any(body in ext_t and ext_t[body] != last
               for body, last in ext_s.items())
