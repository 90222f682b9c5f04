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
play by its positions.  `prefix_views` loops over it, and a strategy's
round of play (`InnocentStrategy._round`) and a composite's interaction
extend a play's views with it, so the legality check, the view
functions, the O-innocence test, the memo keys of strategies,
exploration, test runs, composition and the observation code all read
their views from it.  `strategy.tabulate` needs none: it walks
P-views, each its own P-view.

Legality is checked where plays enter, at one door: `checked_views`
returns the views of a legal play or raises ValueError, and
`InnocentStrategy.respond`, `pview` and `oview` pass every play they
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
one entry per move, and plays each round without a legality pass.
`strategy.tabulate` and the O-view rule grow their move tuples
through it too.

Bracketing has one rule as well: `next_pending` gives the open
questions of a play from those of the play one move shorter.
`pending_questions` folds it over a play, and `walk` carries its result
with each play, so `observations` reads completeness off the walk; the
O-view rule carries it with each view it grows, so the view-set door
and the oracle read completeness off the rule.

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

    The constructor does not check legality; use `is_legal` or
    `legality_violation`.  Moves are (move id, pointer) pairs with
    pointer ROOT (-1) for unjustified occurrences.
    """

    arena: Arena
    moves: tuple[tuple[str, int], ...] = ()

    def __len__(self) -> int:
        return len(self.moves)

    @property
    def last(self) -> tuple[str, int]:
        return self.moves[-1]

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
    to it, with that prefix's view, so m points at that view's end."""
    i = len(views) - 1
    pv, ov, pvm, ovm = views[i]
    if ptr == ROOT:   # an initial move, Opponent's
        return (i,), ov + (i,), ((move, ROOT),), ovm + ((move, ROOT),)
    jpv, jov, jpvm, jovm = views[ptr + 1]
    at_p, at_o = (move, len(jpv) - 1), (move, len(jov) - 1)
    if i % 2:   # a Proponent move
        return pv + (i,), jov + (i,), pvm + (at_p,), jovm + (at_o,)
    return jpv + (i,), ov + (i,), jpvm + (at_p,), ovm + (at_o,)


def prefix_views(s: Play):
    """The views of every prefix of s, shortest first, as `next_views`
    gives them: positions ascend in s, and moves point into the view.

    The entries come lazily, one move at a time, so `legality_violation`
    can stop at a bad move before the recurrence reads its pointer or
    its parity; other readers take a legal play.
    """
    views = [EMPTY_VIEWS]
    yield views[0]
    for m, ptr in s.moves:
        views.append(next_views(views, m, ptr))
        yield views[-1]


def legality_violation(s: Play, views: list | None = None) -> str | None:
    """Return a description of the first legality failure, or None.

    Checks, in order per occurrence: known move, strict OP alternation
    starting with Opponent, pointer sanity (ROOT only on initial moves,
    otherwise an earlier enabling occurrence), and visibility.  On a
    legal play the views of s, as `next_views` gives them, are appended
    to `views`.
    """
    arena = s.arena
    polarity = arena.polarity
    walk = prefix_views(s)
    for i, ((m, ptr), (pv, ov, _, _)) in enumerate(zip(s.moves, walk)):
        if m not in polarity:
            return f"move {i}: unknown move {m!r}"
        want = "O" if i % 2 == 0 else "P"
        if polarity[m] != want:
            return f"move {i}: expected {want}-move, got {m!r}"
        if ptr == ROOT:
            if not arena.is_initial(m):
                return f"move {i}: unjustified non-initial move {m!r}"
        elif not 0 <= ptr < i:
            return f"move {i}: pointer {ptr} out of range"
        elif not arena.enables(s.moves[ptr][0], m):
            return f"move {i}: {s.moves[ptr][0]!r} does not enable {m!r}"
        elif ptr not in (pv if want == "P" else ov):
            return f"move {i}: justifier {ptr} not in the {want}-view"
    if views is not None:
        views.extend(next(walk))
    return None


def is_legal(s: Play) -> bool:
    return legality_violation(s) is None


def pview_with_positions(s: Play) -> tuple[Play, tuple[int, ...]]:
    """P-view of the legal play s, unchecked, and its positions in s."""
    *_, (positions, _, moves, _) = prefix_views(s)
    return Play(s.arena, moves), positions


def checked_views(s: Play) -> list:
    """The views of s, as `next_views` gives them; ValueError if s is
    not legal.  The one door a play is checked at."""
    views: list = []
    bad = legality_violation(s, views)
    if bad is not None:
        raise ValueError(f"illegal play: {bad}")
    return views


def pview(s: Play) -> Play:
    return Play(s.arena, checked_views(s)[2])


def oview_with_positions(s: Play) -> tuple[Play, tuple[int, ...]]:
    """O-view of the legal play s, unchecked, and its positions in s."""
    *_, (_, positions, _, moves) = prefix_views(s)
    return Play(s.arena, moves), positions


def oview(s: Play) -> Play:
    return Play(s.arena, checked_views(s)[3])


def next_pending(questions, pending: tuple[int, ...] | None, i: int, move: str,
                 ptr: int) -> tuple[int, ...] | None:
    """The open questions of the play s·m, as `pending_questions` gives
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


def pending_questions(s: Play) -> tuple[int, ...] | None:
    """Positions of the questions of s still unanswered, innermost last;
    None if s is not well-bracketed, that is, as soon as an answer does
    not answer the innermost open question.  `next_pending` one move at
    a time, which is how `strategy.walk` carries them."""
    questions = s.arena.questions
    pending: tuple[int, ...] | None = ()
    for i, (m, ptr) in enumerate(s.moves):
        pending = next_pending(questions, pending, i, m, ptr)
        if pending is None:
            return None
    return pending


def is_complete(s: Play) -> bool:
    """Nonempty, well-bracketed, and with no pending questions.

    The empty play is not complete: completion means an interrogation
    actually happened and every question in it was answered.
    """
    return len(s.moves) > 0 and pending_questions(s) == ()


def is_o_innocent(s: Play) -> bool:
    """Opponent extends equal O-views identically (pointer-inclusive):
    each Opponent move, keyed by the O-view before it and read off the
    end of the O-view after it, agrees with every earlier one."""
    seen: dict[tuple, tuple] = {}
    views = list(prefix_views(s))
    for before, after in zip(views[::2], views[1::2]):
        if seen.setdefault(before[3], after[3][-1]) != after[3][-1]:
            return False
    return True


def legal_extensions(arena: Arena, moves: tuple, justifiers) -> list[tuple[str, int]]:
    """The moves, as (move, pointer) pairs, that extend the legal play
    `moves` over `arena` to a legal play with a pointer in `justifiers`.

    Every member of `justifiers` must lie in the mover's view of the
    play (positions as `prefix_views` yields them), or be ROOT, which
    opens a thread; neither precondition is checked.  ROOT offers the
    mover's initial moves, and a position j the mover's moves in
    `arena.enabled_from` of the move at j.  Visibility holds for every
    candidate, so none is checked.  Order: sorted by (move, justifier),
    ROOT first.
    """
    polarity = arena.polarity
    enabled_from = arena.enabled_from
    mover = "O" if len(moves) % 2 == 0 else "P"
    cands = []
    for j in justifiers:
        enabled = arena.initials if j == ROOT else enabled_from[moves[j][0]]
        cands += [(m, j) for m in enabled if polarity[m] == mover]
    cands.sort()
    return cands
