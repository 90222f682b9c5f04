"""Observations: what a strategy looks like through O-views alone.

A single completed play is remembered only as the set of O-views of its
prefixes.  Collecting that set for every complete play a strategy can
produce (against innocent, single-threaded Opponents) yields the
strategy's observation: a set of view-sets, which `observations` reads
off the views `strategy.walk` yields with each play whose open
questions, which the walk yields too, are none.  An O-view is held as
its moves, the tuple ((move, pointer into the view), ...) the walk
yields, since its set already names the arena; a `Play` is built only
where a view crosses the JSON door (`to_json`, `from_json`, which
checks the document's shape with `arena.json_check` first) and for the
legality and bracketing checks of a set's elements.  Each view-set is
O-deterministic, and such sets double as tests: an O-deterministic set
induces a probing strategy that walks the recorded views against the
strategy under test and reports success on an auxiliary one-question
arena (`induced_test`, the paper's construction).  `run_test` gives the
verdict of that composite without building it: the set is read as an
Opponent, a table from O-views to the next Opponent move, and one play
over the strategy's own arena alternates that Opponent with the
strategy's rounds, the rounds `walk` plays, on the play's moves.  That
play is `_play_against`, which takes any table, a partial one too: it
stops at the first O-view the table has no entry for, and the test
oracle in `equiv` branches there.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property

from .arena import Arena, arrow, json_check, make_sigma
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
)
from .strategy import (
    BoundExceeded,
    InnocentStrategy,
    StrategyError,
    from_view_table,
    walk,
)


def prefix_oviews(s: Play) -> frozenset[tuple]:
    """O-views of every prefix of the legal play s (the empty view
    included), each as its moves."""
    return frozenset(views[3] for views in prefix_views(s))


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


def odet_violation(arena: Arena, views: frozenset[tuple]):
    """Why `views`, a set of move tuples, fails to be an
    O-deterministic view-set over `arena`, or None.

    Conditions: every element is a single-threaded well-bracketed
    O-view over `arena`; the set is closed under prefixes; nonempty
    elements share one initial move; and an even-length element has at
    most one one-move extension in the set (Opponent branching is
    resolved, Proponent branching is free).  Each element is checked as
    a `Play` over `arena`, which also names it in the reason.
    """
    for v in views:
        p = Play(arena, v)
        if not is_oview_shaped(p):
            return f"element is not an O-view: {p!r}"
        if not is_single_threaded(p):
            return f"element has several initial moves: {p!r}"
        if not is_well_bracketed(p):
            return f"element is not well-bracketed: {p!r}"
        for k in range(len(v)):
            if v[:k] not in views:
                return f"set is not prefix-closed at {p.prefix(k)!r}"
    firsts = {v[0] for v in views if v}
    if len(firsts) > 1:
        return f"several initial moves across the set: {sorted(m for m, _ in firsts)}"
    ochild: dict[tuple, tuple] = {}
    for v in views:
        if len(v) % 2 == 1 and ochild.setdefault(v[:-1], v) != v:
            return f"two Opponent continuations after {Play(arena, v[:-1])!r}"
    return None


def is_o_deterministic(arena: Arena, views: frozenset[tuple]) -> bool:
    return odet_violation(arena, views) is None


# The test's entry at a complete element: the test succeeds there.
_SUCCEED = "succeed"
# `_play_against`'s mark for an O-view the table has no entry for.
_UNSET = object()


@dataclass(frozen=True)
class ODetSet:
    """A prefix-closed, O-deterministic set of O-views over one arena,
    each O-view held as its moves."""
    arena: Arena
    views: frozenset[tuple]

    @classmethod
    def make(cls, arena: Arena, views) -> "ODetSet":
        """The set of `views`, move tuples, closed under prefixes;
        ValueError if it is not O-deterministic over `arena`."""
        closed = frozenset(v[:k] for v in views for k in range(len(v) + 1))
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

        def put(key: tuple, entry):
            if not is_single_threaded(Play(self.arena, key)):
                raise ValueError("only single-threaded plays lift to tests")
            if table.setdefault(key, entry) != entry:
                raise ValueError("ill-formed test: a view is answered two ways")

        for v in self.views:
            if len(v) % 2 == 1:
                put(v[:-1], v[-1])
            elif v and is_complete(Play(self.arena, v)):
                put(v, _SUCCEED)
        return table

    @cached_property
    def initial(self):
        firsts = {v[0][0] for v in self.views if v}
        return next(iter(firsts)) if firsts else None

    def to_json(self, include_arena: bool = False) -> dict:
        doc = {
            "initial": self.initial,
            "views": [Play(self.arena, v).to_json() for v in sorted_views(self.views)],
        }
        if include_arena:
            doc["arena"] = self.arena.to_json()
        return doc

    @classmethod
    def from_json(cls, doc: dict, arena: Arena | None = None) -> "ODetSet":
        """The set `to_json` wrote, over `arena` or the embedded one;
        ValueError naming the part of the document at fault, or why the
        views are not an O-deterministic set."""
        json_check(doc, {"views": list})
        arena = _doc_arena(doc, arena)
        return cls.make(arena, [Play.from_json(v, arena, f"views[{k}]").moves
                                for k, v in enumerate(doc["views"])])

    def __repr__(self) -> str:
        return f"ODetSet({self.arena.name}, {len(self.views)} views)"


def sorted_views(views) -> list[tuple]:
    """Move tuples, shortest first, then in order."""
    return sorted(views, key=lambda v: (len(v), v))


def viewset_key(views):
    """A set of move tuples' place in the order of candidate tests:
    fewest moves in total, then fewest views, then the views in order."""
    keys = sorted((len(v), v) for v in views)
    return (sum(n for n, _ in keys), len(keys), tuple(keys))


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

    Returns the TestVerdict where the play ends, or the run (the play's
    moves and the views of each of its prefixes) as it stands at the
    first O-view that is not a key of the table; that O-view is
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
    moves, views = run or ((), (EMPTY_VIEWS,))
    while True:
        i = len(moves)
        ov = views[i][1]
        entry = table.get(views[i][3], _UNSET)
        if entry is _UNSET:
            return moves, views
        if entry is None:
            return TestVerdict.BOT
        if entry is _SUCCEED:
            return TestVerdict.BOUND_EXCEEDED if i > cap else TestVerdict.TOP
        o, ptr = entry
        if ptr == ROOT:
            j, enabled = ROOT, arena.is_initial(o)
        else:
            j = ov[ptr] if 0 <= ptr < len(ov) else None
            enabled = j is not None and arena.enables(moves[j][0], o)
        if arena.polarity.get(o) != "O" or not enabled:
            raise StrategyError(f"{o!r} is not an Opponent move enabled in "
                                f"the O-view {views[i][3]!r}")
        if i > cap:
            return TestVerdict.BOUND_EXCEEDED
        try:
            step = sigma._round(moves + ((o, j),), views)
        except BoundExceeded:
            return TestVerdict.BOUND_EXCEEDED
        if step is None:
            return TestVerdict.BOT
        if i + 1 > cap:
            return TestVerdict.BOUND_EXCEEDED
        moves, views = step


@dataclass(frozen=True)
class ObservationalStrategy:
    """A strategy's observation: its complete plays seen through O-views,
    one set of O-views per play, each O-view held as its moves."""
    arena: Arena
    sets: frozenset[frozenset[tuple]]
    bounds: Bounds = field(compare=False)
    bound_exceeded: int = field(default=0, compare=False)

    def to_json(self, include_arena: bool = False) -> dict:
        """The document `from_json` reads.  Each distinct O-view is
        written as one object, and every set that holds the view lists
        that same object, so the document shares them."""
        docs = {v: Play(self.arena, v).to_json() for v in frozenset().union(*self.sets)}
        doc = {
            "bounds": self.bounds.to_json(),
            "bound_exceeded": self.bound_exceeded,
            "sets": [[docs[v] for v in sorted_views(vs)]
                     for vs in sorted(self.sets, key=viewset_key)],
        }
        if include_arena:
            doc["arena"] = self.arena.to_json()
        return doc

    @classmethod
    def from_json(cls, doc: dict, arena: Arena | None = None) -> "ObservationalStrategy":
        json_check(doc, {"sets": [list]})
        arena = _doc_arena(doc, arena)
        sets = frozenset(
            frozenset(Play.from_json(v, arena, f"sets[{i}][{k}]").moves for k, v in enumerate(vs))
            for i, vs in enumerate(doc["sets"]))
        return cls(arena, sets, Bounds.from_json(doc.get("bounds", {})),
                   int(doc.get("bound_exceeded", 0)))

    def __repr__(self) -> str:
        return f"ObservationalStrategy({self.arena.name}, {len(self.sets)} sets)"


def observations(sigma: InnocentStrategy, b: Bounds) -> ObservationalStrategy:
    """The O-views of the prefixes of each of sigma's complete
    single-threaded traces, one view-set per play, read off the views
    `walk` carries with each play.  A play is complete when it is
    nonempty and the open questions `walk` carries with it are none.

    Opponent is restricted to innocent, single-threaded behavior.  Plays
    cut short by the length bound contribute nothing, but positions
    where the strategy's own computation hit a bound are counted in
    bound_exceeded.  An O-view is held as its moves, and the sets share
    one tuple per distinct O-view.
    """
    sets, exceeded, oviews = set(), 0, {}   # oviews: O-view moves -> themselves
    for step in walk(sigma, b, innocent_opponent=True):
        if step is None:
            exceeded += 1
        elif step[2] == () and step[0]:
            sets.add(frozenset(oviews.setdefault(v[3], v[3]) for v in step[1]))
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


def _o_separated(s: frozenset[tuple], t: frozenset[tuple]) -> bool:
    ext_s = {v[:-1]: v[-1] for v in s if len(v) % 2 == 1}
    ext_t = {v[:-1]: v[-1] for v in t if len(v) % 2 == 1}
    return any(body in ext_t and ext_t[body] != last
               for body, last in ext_s.items())
