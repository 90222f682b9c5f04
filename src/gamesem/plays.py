"""Justified sequences, plays, and the two view functions.

A justified sequence is a list of move occurrences, each carrying a
pointer: either ROOT (the occurrence is unjustified, allowed only for
initial moves) or the index of an earlier occurrence whose move enables
this one.  A play is a justified sequence that is legal: it alternates
strictly starting with an Opponent move, every pointer is a genuine
justification, and visibility holds (a Proponent move points into the
P-view of the prefix before it, an Opponent move into the O-view).

Both views are defined incrementally (Hyland & Ong, "On full abstraction
for PCF", Inf. & Comp. 163, 2000), and `next_views` is the one view
recurrence: it extends the views of a play's prefixes by one move,
reading the mover from the play's parity.  Each entry carries both
views' positions and their moves, so no reader cuts a view out of the
play by its positions.  The legality check is the one loop over a
play's moves that grows its views with it, one checked move at a time,
and a round of play (in `strategy.walk` and
`observation._play_against`) extends a play's views with it, so the
legality check, the view functions, the O-innocence test, the memo
keys of strategies, exploration, test runs and the observation code
all read their views from it, one entry per prefix, the empty play
first.  Each view of s·m reads only the same view of prefixes of s,
so the recurrence's P-view half stands alone as `next_pview`, which
`next_views` calls and whose own entries leave the O-view parts None:
a composite grows its factors' projections with it, since a factor is
asked its P-view and nothing else.  `strategy.tabulate` needs neither:
it walks P-views, each its own P-view.

Legality is checked where plays enter, at one door: `checked_views`
returns the views of every prefix of a legal play or raises
ValueError, and `InnocentStrategy.respond`, the view functions,
`is_o_innocent` and `observation.prefix_oviews` pass every play they
are given through it.  A view-set is checked by the `ODetSet`
constructor, which an observation document's sets pass through too: it
builds no `Play`, but checks that each element grows from the empty
view by the O-view rule, `observation.oview_steps`.  Everything else
takes a legal play as given.  `legal_extensions`, the one move
generator, takes the moves of a legal play and the set of positions
the new move may point at: members of the mover's view, and ROOT where
a new thread may open.  That is visibility, so every (move, pointer) pair it returns extends
the play to a legal one, and exploration checks no play it built:
`walk` carries each play as its moves, with the views of its prefixes
one entry per move, and plays each round without a legality pass.  A
play at the length cap leaves the walk with the views and open
questions of its parent, two moves shorter, its last round having
built only the `next_pview` entry its reply is read off, and a forced
Opponent move, the one O-innocence leaves, is played without asking
`legal_extensions`.
`strategy.tabulate` and the O-view rule grow their move tuples
through it too.

Bracketing has one rule as well: `next_pending` gives the open
questions of a play from those of the play one move shorter, and
`open_questions` folds it over a move tuple, a play's or one view's;
`is_complete` reads it off a play's moves.  `walk` carries its result
with each play, one move at a time, so `observations` and `explore`
read completeness off the walk, growing a play at the cap by its last
round (`strategy.last_round`); the O-view rule carries it with each
view it grows, and
the view-set door and the oracle fold it over a view where they first
grow that view.

O-innocence has one rule too, read off the views: `innocent_o_move`
gives the move an O-innocent Opponent is bound to make at a play's
O-view, the one it made at the first earlier prefix with that O-view.
`is_o_innocent` checks each Opponent move of a play against it, and
`walk` asks it for an innocent Opponent's forced move.

Views are returned with their pointers re-indexed into the view itself.
"""
from __future__ import annotations

from dataclasses import dataclass

from .arena import Arena, json_check

ROOT = -1

# A play as `Play.to_json` writes it; the "arena" key is not read.
_PLAY_SHAPE = {"moves": [{"m": str, "ptr": int}]}


@dataclass(frozen=True)
class Play:
    """A justified sequence over an arena.

    The constructor does not check legality; `checked_views` does, and
    `legality_violation` names the first failure.  Moves are (move id,
    pointer) pairs with pointer ROOT (-1) for unjustified occurrences.
    """

    arena: Arena
    moves: tuple[tuple[str, int], ...] = ()

    def __len__(self) -> int:
        return len(self.moves)

    def extend(self, move: str, ptr: int) -> "Play":
        return Play(self.arena, self.moves + ((move, ptr),))

    def prefix(self, n: int) -> "Play":
        return Play(self.arena, self.moves[:n])

    def to_json(self) -> dict:
        """Serialize, naming the arena; the reader supplies it."""
        return {"arena": self.arena.name,
                "moves": [{"m": m, "ptr": p} for m, p in self.moves]}

    @classmethod
    def from_json(cls, doc: dict, arena: Arena, path: str = "play") -> "Play":
        """Load a play over `arena`, found at `path` in its document;
        the document's "arena" key is not read.  ValueError, naming the
        part, if a move is not an object with a string "m" and a JSON
        integer "ptr".  The play is not checked for legality."""
        json_check(doc, _PLAY_SHAPE, path)
        return cls(arena, tuple((m["m"], m["ptr"]) for m in doc["moves"]))

    def __repr__(self) -> str:
        if not self.moves:
            return "Play[]"
        body = " ".join(
            m if p == ROOT else f"{m}<-{p}" for m, p in self.moves
        )
        return f"Play[{body}]"


# The views of the empty play: no positions, no moves.
EMPTY_VIEWS = ((), (), (), ())


def next_views(views, move: str, ptr: int):
    """The views of the legal play s·m, (P-view positions, O-view
    positions, P-view moves, O-view moves), from those of every prefix
    of s (shortest first).  m is an Opponent move when s has even length.
    It appends itself to its own view; the other view is (m) when m is
    unjustified, and otherwise that view of the prefix ending with the
    justifier, then m.  Either view that holds the justifier agrees, up
    to it, with that prefix's view, so m points at that view's end.

    Each view of s·m reads only the same view of prefixes of s, so the
    P-view half is `next_pview`'s, and this adds the O-view half."""
    pv, _, pvm, _ = next_pview(views, move, ptr)
    i = len(views) - 1
    _, ov, _, ovm = views[i]
    if ptr == ROOT:   # an initial move, Opponent's
        return pv, ov + (i,), pvm, ovm + ((move, ROOT),)
    _, jov, _, jovm = views[ptr + 1]
    at_o = (move, len(jov) - 1)
    if i % 2:   # a Proponent move
        return pv, jov + (i,), pvm, jovm + (at_o,)
    return pv, ov + (i,), pvm, ovm + (at_o,)


def next_pview(views, move: str, ptr: int):
    """The P-view half of `next_views`: the entry of the legal play s·m
    with its P-view positions and moves and its O-view parts None, from
    the entries of every prefix of s, of which it reads only the P-view
    parts, so it grows a list of its own entries as well."""
    i = len(views) - 1
    if ptr == ROOT:   # an initial move, Opponent's
        return (i,), None, ((move, ROOT),), None
    jpv, _, jpvm, _ = views[ptr + 1]
    at_p = (move, len(jpv) - 1)
    if i % 2:   # a Proponent move
        pv, _, pvm, _ = views[i]
        return pv + (i,), None, pvm + (at_p,), None
    return jpv + (i,), None, jpvm + (at_p,), None


def legality_violation(s: Play, views: list | None = None) -> str | None:
    """Return a description of the first legality failure, or None.

    Checks, in order per occurrence: known move, strict OP alternation
    starting with Opponent, pointer sanity (ROOT only on initial moves,
    otherwise an earlier enabling occurrence), and visibility.  The
    views grow by `next_views` in `views`, an empty list if given, one
    entry per prefix of s, the empty play first; a prefix's entry is
    added only once its last move has passed, so a bad move is refused
    before the recurrence reads its pointer or its parity.  This is the
    one loop that grows a play's views.
    """
    arena = s.arena
    polarity, initials, enabling = arena.polarity, arena.initials, arena.enabling_pairs
    moves = s.moves
    if views is None:
        views = []
    views.append(EMPTY_VIEWS)
    for i, (m, ptr) in enumerate(moves):
        if m not in polarity:
            return f"move {i}: unknown move {m!r}"
        want = "O" if i % 2 == 0 else "P"
        if polarity[m] != want:
            return f"move {i}: expected {want}-move, got {m!r}"
        if ptr == ROOT:
            if m not in initials:
                return f"move {i}: unjustified non-initial move {m!r}"
        elif not 0 <= ptr < i:
            return f"move {i}: pointer {ptr} out of range"
        elif (moves[ptr][0], m) not in enabling:
            return f"move {i}: {moves[ptr][0]!r} does not enable {m!r}"
        elif ptr not in views[i][0 if i % 2 else 1]:   # the mover's view
            return f"move {i}: justifier {ptr} not in the {want}-view"
        views.append(next_views(views, m, ptr))
    return None


def checked_views(s: Play) -> list:
    """The views of every prefix of s, shortest first, as `next_views`
    gives them: positions ascend in s, and moves point into the view.
    ValueError if s is not legal.  The one door a play is checked at."""
    views: list = []
    bad = legality_violation(s, views)
    if bad is not None:
        raise ValueError(f"illegal play: {bad}")
    return views


def pview_with_positions(s: Play) -> tuple[Play, tuple[int, ...]]:
    """P-view of s and its positions in s; ValueError if s is not legal."""
    positions, _, moves, _ = checked_views(s)[-1]
    return Play(s.arena, moves), positions


def pview(s: Play) -> Play:
    return pview_with_positions(s)[0]


def oview_with_positions(s: Play) -> tuple[Play, tuple[int, ...]]:
    """O-view of s and its positions in s; ValueError if s is not legal."""
    _, positions, _, moves = checked_views(s)[-1]
    return Play(s.arena, moves), positions


def oview(s: Play) -> Play:
    return oview_with_positions(s)[0]


def next_pending(questions, pending: tuple[int, ...] | None, i: int, move: str,
                 ptr: int) -> tuple[int, ...] | None:
    """The open questions of the play s·m, as `open_questions` gives
    them, from those of s; `i` is m's position and `questions` the
    arena's.  None stays None, and an answer that does not answer the
    innermost open question gives None."""
    if pending is None:
        return None
    if move in questions:
        return pending + (i,)
    if pending and pending[-1] == ptr:
        return pending[:-1]
    return None


def open_questions(questions, moves) -> tuple[int, ...] | None:
    """The positions of the questions still unanswered in the move
    tuple `moves`, a legal play or one view of it with pointers into
    the view, over an arena whose questions are `questions`, innermost
    last; None if it is not well-bracketed, that is, as soon as an
    answer does not answer the innermost open question.  `next_pending`
    folded over its moves."""
    pending: tuple[int, ...] | None = ()
    for i, (m, ptr) in enumerate(moves):
        pending = next_pending(questions, pending, i, m, ptr)
    return pending


def is_complete(s: Play) -> bool:
    """Nonempty, well-bracketed, and with no pending questions.

    The empty play is not complete: completion means an interrogation
    actually happened and every question in it was answered.
    """
    return len(s.moves) > 0 and open_questions(s.arena.questions, s.moves) == ()


def innocent_o_move(views):
    """The one O-innocence rule: the move an O-innocent Opponent makes
    after the even-length legal play whose prefixes' views, as
    `checked_views` gives them, are `views`, its own last.  That is the
    move Opponent made at the first earlier even-length prefix with the
    same O-view, read off the end of the O-view after it as (move,
    pointer into the O-view), or None where no earlier prefix has that
    O-view."""
    key = views[-1][3]
    for k in range(0, len(views) - 1, 2):
        if views[k][3] == key:
            return views[k + 1][3][-1]
    return None


def is_o_innocent(s: Play) -> bool:
    """Opponent extends equal O-views identically (pointer-inclusive):
    each Opponent move of s is the one `innocent_o_move` gives, if any.
    ValueError if s is not legal."""
    views = checked_views(s)
    return all(innocent_o_move(views[:i + 1]) in (None, views[i + 1][3][-1])
               for i in range(0, len(s), 2))


def legal_extensions(arena: Arena, moves: tuple, justifiers) -> list[tuple[str, int]]:
    """The moves, as (move, pointer) pairs, that extend the legal play
    `moves` over `arena` to a legal play with a pointer in `justifiers`.

    Every member of `justifiers` must lie in the mover's view of the
    play (positions as `checked_views` gives them), or be ROOT, which
    opens a thread; neither precondition is checked.  ROOT offers the
    mover's initial moves, and a position j the mover's moves in
    `arena.enabled_from` of the move at j.  Visibility holds for every
    candidate, so none is checked.  Order: sorted by (move, justifier),
    ROOT first.

    Polarity is read off positions, not looked up per move: the arena
    must satisfy `Arena.validate`, whose initial moves are Opponent's
    and whose enabling alternates polarity (`arrow` and `product` keep
    both).  In a legal play the move at j has the polarity of j's
    parity, so the moves it enables are all the mover's when
    len(moves) - j is odd and none of them otherwise, and the initial
    moves are the mover's exactly when Opponent moves.
    """
    enabled_from = arena.enabled_from
    n = len(moves)
    cands = []
    for j in justifiers:
        if j == ROOT:
            if n % 2 == 0:
                cands += [(m, ROOT) for m in arena.initials]
        elif (n - j) % 2:
            cands += [(m, j) for m in enabled_from[moves[j][0]]]
    cands.sort()
    return cands
