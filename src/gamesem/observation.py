"""Observations: what a strategy looks like through O-views alone.

A single completed play is remembered only as the set of O-views of its
prefixes.  Collecting that set for every complete play a strategy can
produce (against innocent, single-threaded Opponents) yields the
strategy's observation: a set of view-sets, which `observations` reads
off the views `strategy.walk` yields with each play whose open
questions, which the walk yields too, are none; a play at the length
cap comes with its parent's views and open questions, and
`observations` grows it by its last round, its open questions and, for
a complete play, its views (`strategy.last_round`).  An O-view is held
as its moves, the tuple ((move, pointer into
the view), ...) the walk yields, since its set already names the arena;
a `Play` is built only where a view crosses the JSON door (`to_json`,
`from_json`, which checks the document's shape with `arena.json_check`
first) and to name a view in a refusal.  What an O-view is, the rule
says once:
`oview_steps` gives the moves that grow one O-view into another, with
the open questions of each, and the view-set door and the oracle and
candidate list in `equiv` all use it.  Each view-set is
O-deterministic, checked once, where it is made: by the `ODetSet`
constructor, which checks every element's steps by that rule, shortest
element first, and builds the set's Opponent table in the same pass;
`ObservationalStrategy.from_json` makes each set it reads through that
constructor.  No reader checks a set again.  Such sets double as
tests: an O-deterministic set induces a probing strategy that walks the
recorded views against the strategy under test and reports success on
an auxiliary one-question arena (`induced_test`, the paper's
construction).  `run_test` gives the verdict of that composite without
building it: the set is read as an Opponent, a table from O-views to
the next Opponent move, and one play over the strategy's own arena
alternates that Opponent with the strategy's replies, asked as `walk`
asks them.  That play is `_play_against`, which takes a valid set's
table or a partial one that the test oracle in `equiv` grows by
`oview_steps`, and plays the Opponent moves either gives unchecked: it
stops at the first O-view the table has no entry for, and the oracle
branches there.  A run is the views of its play's prefixes and nothing
else, from which the play's moves can be read back.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .arena import Arena, arrow, json_check, make_sigma
from .bounds import Bounds
from .plays import (
    EMPTY_VIEWS,
    ROOT,
    Play,
    checked_views,
    legal_extensions,
    next_pending,
    next_views,
    open_questions,
)
from .strategy import (
    BoundExceeded,
    InnocentStrategy,
    from_view_table,
    last_round,
    walk,
)


def prefix_oviews(s: Play) -> frozenset[tuple]:
    """O-views of every prefix of s (the empty view included), each as
    its moves; ValueError if s is not legal."""
    return frozenset(views[3] for views in checked_views(s))


def oview_steps(arena: Arena, v: tuple, pending) -> dict[tuple, tuple | None]:
    """The one rule that grows O-views: the moves (move, pointer into v)
    that extend the single-threaded well-bracketed O-view v over
    `arena`, whose open questions are `pending`, to a legal
    single-threaded O-view, each mapped to the open questions of the
    view it makes, or to None where that view is not well-bracketed,
    which no extension repairs.  The moves come from `legal_extensions`,
    in its order, at the positions the mover may point at: ROOT in the
    empty view, as only the first move opens a thread; every position at
    even length, as an Opponent move keeps the view its own O-view
    wherever it points; and the last at odd length, as a Proponent move
    in an O-view points at the move before it.  The view-set door checks
    each element's steps by it, and the oracle and the candidate list in
    `equiv` grow their views by it."""
    n = len(v)
    ptrs = (ROOT,) if n == 0 else range(n) if n % 2 == 0 else (n - 1,)
    return {e: next_pending(arena.questions, pending, n, *e)
            for e in legal_extensions(arena, v, ptrs)}


def _doc_arena(doc: dict, arena: Arena | None) -> Arena:
    """The arena a document is read over: `arena` if given, else the one
    embedded in the document; ValueError if neither."""
    if arena is None and "arena" not in doc:
        raise ValueError("no arena given and none embedded in the document")
    return Arena.from_json(doc["arena"]) if arena is None else arena


# The test's entry at a complete element: the test succeeds there.
_SUCCEED = "succeed"
# `_play_against`'s mark for an O-view the table has no entry for.
_UNSET = object()


def _opponent_table(arena: Arena, views: frozenset[tuple]):
    """The Opponent the set `views` of move tuples defines over `arena`,
    or, if it is not an O-deterministic view-set, the reason as a str.

    The elements are read shortest first, so a reason names the
    shortest element at fault.  Each element must be grown from the
    empty view by `oview_steps`, so it is a single-threaded
    well-bracketed O-view.  The steps at each prefix are computed once,
    from the prefix's open questions, `plays.open_questions` of its
    moves, and an element whose parent is in the set, and so was read
    first, has only its last step checked.
    A faulty step is named by what it breaks: it opens a second thread,
    breaks bracketing, or else is illegal or leaves the element no
    O-view.  Each element's parent must be an element too, so the set is
    closed under prefixes; and each element of even length may have at
    most one one-move extension in the set, so Opponent branching is
    resolved (Proponent branching is free), and at the empty view the
    set has one initial move.

    The table maps the moves of an O-view to the set's next Opponent
    move there (move, pointer into the view or ROOT), or to _SUCCEED
    where the view is a complete element, one with no open questions.
    O-determinacy makes it single-valued, every key is an element and
    so single-threaded, and a complete element, (q, a) with the answer
    pointing at q, has no Opponent extension to compete with its
    _SUCCEED."""
    steps, table = {}, {}
    for v in sorted_views(views - {()}):
        closed = v[:-1] in views
        for i in range(len(v) - 1 if closed else 0, len(v)):
            if v[:i] not in steps:
                steps[v[:i]] = oview_steps(arena, v[:i], open_questions(arena.questions, v[:i]))
            p = steps[v[:i]].get(v[i], _UNSET)
            if p is _UNSET or p is None:
                m, ptr = v[i]
                second_thread = ptr == ROOT and i % 2 == 0 and m in arena.initials
                why = ("has several initial moves" if second_thread else
                       "is not an O-view" if p is _UNSET else "is not well-bracketed")
                return f"element {why}: {Play(arena, v)!r}"
        if not closed:
            k = next(k for k in range(len(v)) if v[:k] not in views)
            return f"set is not prefix-closed at {Play(arena, v[:k])!r}"
        if len(v) % 2:
            if v[:-1] in table:
                return f"two Opponent continuations after {Play(arena, v[:-1])!r}"
            table[v[:-1]] = v[-1]
        elif p == ():
            table[v] = _SUCCEED
    return table


@dataclass(frozen=True)
class ODetSet:
    """A prefix-closed, O-deterministic set of O-views over one arena,
    each O-view held as its moves.  The constructor is the one door:
    ValueError with the reason `_opponent_table` gives if the set is
    not valid, so nothing that reads one checks it again.  The same
    pass builds `_table`, the Opponent the set defines, once for every
    strategy the set tests."""
    arena: Arena
    views: frozenset[tuple]
    _table: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        got = _opponent_table(self.arena, self.views)
        if isinstance(got, str):
            raise ValueError(f"not an O-deterministic view-set: {got}")
        object.__setattr__(self, "_table", got)

    @classmethod
    def make(cls, arena: Arena, views) -> "ODetSet":
        """The set of `views`, move tuples, closed under prefixes."""
        return cls(arena, frozenset(v[:k] for v in views for k in range(len(v) + 1)))

    @property
    def initial(self):
        """The set's initial move, its Opponent's entry at the empty
        view, or None if the set has no nonempty view."""
        return self._table.get((), (None,))[0]

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
    def lift(m, ptr):
        # an A-move one place right, as the Sigma question opens; the
        # A-initial now points at that question
        return "L." + m, 0 if ptr == ROOT else ptr + 1

    table = {(("R.q", ROOT), *(lift(*mv) for mv in key)):
             ("R.a", 0) if entry is _SUCCEED else lift(*entry)
             for key, entry in s._table.items()}
    name = f"test[{len(s.views)} views on {s.arena.name}]"
    return from_view_table(arrow(s.arena, make_sigma()), name, table)


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

    Returns the TestVerdict where the play ends, or the run as it stands
    at the first O-view that is not a key of the table.  A run is the
    views of its play's prefixes, shortest first, as `plays.next_views`
    gives them, and nothing else: each move is the last move of its
    mover's own view (an Opponent move of its O-view, a reply of its
    P-view), so the play is read back from them.  The O-view a run
    stopped at is `run[-1][3]`, and given such a run, the play resumes
    from it.  The Opponent move is looked up by the play's O-view, sigma
    answers from its P-view, and the test succeeds when the table says
    so.  Each round asks sigma's `_answer` as `walk` does, so both views
    are carried forward one move at a time and no play is checked; the
    views of the reply are added only where the play goes on.  As
    in the composite, the Sigma question and answer count against
    b.max_play_len with the moves of A, so a reply that would take the
    interaction past the cap gives BOUND_EXCEEDED; so does a bound hit
    inside sigma.  Every Opponent move is played as the table gives
    it, unchecked: the table is either a valid set's `_table` or one of
    the oracle's partial tables, whose entries come from `oview_steps`,
    so each move is legal in its O-view.
    """
    # The composite's interaction holds the Sigma question, the moves of
    # A and the next reply: a reply after i moves of A needs 2 + i <= cap.
    cap = b.max_play_len - 2
    views = run or (EMPTY_VIEWS,)
    while True:
        i = len(views) - 1
        entry = table.get(views[i][3], _UNSET)
        if entry is _UNSET:
            return views
        if entry is None:
            return TestVerdict.BOT
        if entry is _SUCCEED:
            return TestVerdict.BOUND_EXCEEDED if i > cap else TestVerdict.TOP
        o, ptr = entry
        if i > cap:
            return TestVerdict.BOUND_EXCEEDED
        # the O-view's pointer, as a position in the play
        j = ROOT if ptr == ROOT else views[i][1][ptr]
        e = next_views(views, o, j)
        views += (e,)
        try:
            r = sigma._answer(e[2], e[0])
        except BoundExceeded:
            return TestVerdict.BOUND_EXCEEDED
        if r is None:
            return TestVerdict.BOT
        if i + 1 > cap:
            return TestVerdict.BOUND_EXCEEDED
        views += (next_views(views, *r),)


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
        """The observation `to_json` wrote, over `arena` or the embedded
        one; ValueError naming the part of the document at fault (a
        negative count and an unknown key under "bounds" among them), or
        the set, `sets[i]`, that is not an O-deterministic view-set.  The
        sets need not be pairwise O-separated (`is_observational`), as
        sets built by hand may not be."""
        json_check(doc, {"sets": [list]})
        bounds = Bounds.from_json(doc.get("bounds", {}))
        exceeded = doc.get("bound_exceeded", 0)
        json_check(exceeded, int, "bound_exceeded")
        if exceeded < 0:
            raise ValueError(f"bound_exceeded: expected a count, got {exceeded}")
        arena = _doc_arena(doc, arena)
        sets = set()
        for i, vs in enumerate(doc["sets"]):
            views = frozenset(Play.from_json(v, arena, f"sets[{i}][{k}]").moves
                              for k, v in enumerate(vs))
            try:
                sets.add(ODetSet(arena, views).views)
            except ValueError as e:
                raise ValueError(f"sets[{i}]: {e}") from None
        return cls(arena, frozenset(sets), bounds, exceeded)

    def __repr__(self) -> str:
        return f"ObservationalStrategy({self.arena.name}, {len(self.sets)} sets)"


def observations(sigma: InnocentStrategy, b: Bounds) -> ObservationalStrategy:
    """The O-views of the prefixes of each of sigma's complete
    single-threaded traces, one view-set per play, read off the views
    `walk` carries with each play.  A play is complete when it is
    nonempty and the open questions `walk` carries with it are none.  A
    play at the cap comes with its parent's, so `last_round` grows its
    open questions by its last round, and, where it is complete, its
    views.

    Opponent is restricted to innocent, single-threaded behavior.  Plays
    cut short by the length bound contribute nothing, but positions
    where the strategy's own computation hit a bound are counted in
    bound_exceeded.  An O-view is held as its moves, and the sets share
    one tuple per distinct O-view.
    """
    sets, exceeded, oviews = set(), 0, {}   # oviews: O-view moves -> themselves
    questions = sigma.arena.questions
    for step in walk(sigma, b, innocent_opponent=True):
        if step is None:
            exceeded += 1
        elif step[0] and last_round(questions, step)[2] == ():
            views = last_round(questions, step, views=True)[1]
            sets.add(frozenset(oviews.setdefault(v[3], v[3]) for v in views))
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
