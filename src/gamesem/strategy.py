"""Innocent strategies: deterministic P-view functions, queried on demand.

A strategy answers the question "given this legal play ending with an
Opponent move, what does Proponent do next?".  Innocence means the
answer depends only on the P-view of the play, so every strategy node
here is a function from P-views, given by their moves as the key
`plays.next_views` carries, to a response: (move, index into the
P-view) or None.  Leaves give it as `view_fn`; wrappers that ask an
inner strategy (renamings, pairings, composites) give it as `play_fn`,
which differs in name only, so a tracer can tell the node kinds apart.

Every node keeps one memo of its checked replies, one entry per P-view,
written only by `_answer`: an innocent strategy is its view function,
so reaching a view again costs a lookup.  On a miss `_answer` runs
the node's function and checks the response against the arena and the
view, so the extended play is legal again; a bound hit is stored too
and raised again on later asks.  A reply may go on after its move and
pointer: the memo keeps the rest, a composite's interaction, and
`_answer` hands it to no caller.  A node is asked with the P-view it
keys on: `_answer(key, positions)` takes the P-view's moves, its memo
key, and their positions in the play, through which the reply's
pointer is read.  No play is built for it.  `respond` hands it the
P-view of the play's own entry, the last, of `plays.checked_views`,
after one legality pass; a round of play (an Opponent move and the
reply) in `walk` and in `observation._play_against` (test runs and the
oracle) extends the play's views through `plays.next_views` by the
Opponent move, hands it that entry's P-view, and adds the reply's views
only where the play goes on; and compose carries each factor's P-view
the same way, by `plays.next_pview`, the recurrence's P-view half,
which is all `walk` builds for a round at the cap.
`tabulate`, and a composite asking itself a shorter P-view, hand it a
P-view as its own play, at positions `range(len(key))`, so only
`_answer` runs a node's function.
Renamings and pairings translate the view alone (a prefix renaming is
an arena isomorphism, so it commutes with the P-view), and the pointer
of the reply into that view is already view-relative.

`walk` is the one exploration of a strategy's plays, a generator that
keeps none: it yields each play it reaches as its moves, with the views
of its prefixes and its open questions, in order of the moves.  It
builds only what a reader reads: a play at the length cap is yielded
straight from its parent's loop, with its parent's views and open
questions and no stack entry, its last round having built only the
P-view its reply is read off; and a forced Opponent move, the one
O-innocence leaves where Opponent has moved at that O-view already, is
played without generating the moves.  That move is read off the play's
views by `plays.innocent_o_move`, so a play on the walk's stack is the
triple it is yielded as and nothing more.  `last_round` is the one
rule that grows a play at the cap by its last round, for a reader that
needs its own open questions or views.
`explore` folds the walk into the plays against every Opponent, kept as
their moves and ordered shortest first with one stable sort by length,
and builds no `Play`: the CLI writes each play straight from its moves,
and `traces` wraps them at its own door.  `observation.observations`
folds the walk into the O-view sets of the complete plays against an
innocent one.

Renamings are move tables: `prefix_map` applies the longest matching
(source, target) prefix to each move of an arena, and `prefix_swap`
tables the involution a mirror (copycat-style) strategy echoes
through.  Each table and its inverse is built once for each (pairs,
moves) key and shared by every node that reads it, so it is read
only; `rename_strategy`'s bijection checks run once for each distinct
renaming.  No prefix is scanned when a strategy is asked.  Nodes share
no memo: each keeps its own.  `copycat_echo` is the one copycat rule:
the mirror answers with it, and so does `pcf.ifz_strategy` once its
condition is answered.

A renaming or a pairing relabels moves and leaves the view function
alone, so it asks across one move table whatever lies below it.  One
constructor, `_wrapper`, builds both.  Its node holds a route for each
initial move of its arena, built with the node: the first node below it
that is no renaming or pairing, and the tables `into` it and `back`.
Over another wrapper the route is that wrapper's route, with this
node's tables fused onto its own: the fused `into` is this node's
followed by the inner one, and the fused `back` the inner one followed
by this node's.  Each fused table is built once for each chain of
(pairs, moves) keys and shared, read only.  The node's `play_fn` is the
whole ask, so it is decided in one place: the view is read down `into`,
the node below is asked it, a view-function leaf through its `view_fn`
and any other node, a composite, through `respond`, where the
benchmark's tracer counts compose asks, and the reply's move is read
back up `back`.  The asking node's `_answer` checks the translated
reply, which is the leaf's own check read across the tables: a renaming
is an arena isomorphism, and a pairing embeds each side's arena keeping
polarity and enabling.  The wrappers in between are skipped, so their
memos stay empty.

Composition runs the standard parallel interaction: the two strategies
exchange moves in the shared middle component, which is hidden from the
outside.  A composite plays out only the P-view it is asked about (the
P-view of a legal play is a legal play, and the composite is innocent),
so its reply is a function of that view and is memoised by its node
like any other, with the interaction after it.  It resumes from the
memo entry of the P-view two moves shorter: a P-view asked in a play is
an earlier asked P-view, Proponent's reply and one Opponent move, so a
miss plays only that move and the hidden moves up to the next visible
one.  One turn rule says who moves next, and each move the interaction
appends lands in two of its three projections, read from one table by
the move's component: sigma's and tau's, which grow their P-views and
no O-view, since a factor is asked its P-view alone, and the outer one
the reply is read off, which grows its moves.  One justifier rule
points them all.  Interactions are capped at
`bounds.max_play_len` occurrences counting hidden moves; hitting the
cap raises BoundExceeded, which is deliberately distinct from a
genuine refusal to respond.
"""
from __future__ import annotations

import functools
import json
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

from .arena import Arena, arrow, make_empty, product
from .bounds import Bounds
from .plays import (
    EMPTY_VIEWS,
    ROOT,
    Play,
    checked_views,
    innocent_o_move,
    legal_extensions,
    next_pending,
    next_pview,
    next_views,
)


class BoundExceeded(Exception):
    """An exploration or interaction hit its configured bound."""


class StrategyError(Exception):
    """A strategy emitted a response its arena does not allow."""


class InconsistentPlay(Exception):
    """A composite was asked about a play it would never have produced."""


# Plays `walk` reaches before it gives up.  A benchmark op explores
# at most a few thousand; against every Opponent,
# `fun f: nat -> nat -> f (f (f 1))` at nat 2 / play_len 18 has over
# 700,000, at about 500 bytes a play.
EXPLORE_BUDGET = 500_000


class ExplorationIncomplete(Exception):
    """The play budget ran out before the exploration did."""

    def __init__(self, plays: int):
        super().__init__(f"exploration incomplete at bounds after {plays} plays")
        self.plays = plays


# The markers of `_answer`'s memo: a view not asked yet, a view whose
# reply hit an interaction bound.
_UNASKED = object()
_BOUND = object()


class InnocentStrategy:
    """A node over `arena` answering P-views: exactly one of `view_fn`
    (a leaf) or `play_fn` (a wrapper) maps the P-view's moves to
    (move, index into the view), which may go on with items the memo
    keeps and no reader sees, or None."""

    def __init__(self, arena: Arena, name: str, view_fn=None, play_fn=None):
        if (view_fn is None) == (play_fn is None):
            raise ValueError("exactly one of view_fn / play_fn required")
        self.arena = arena
        self.name = name
        self._view_fn = view_fn
        self._play_fn = play_fn
        self._memo: dict[tuple, object] = {}   # `_answer`'s, by P-view moves
        # a renaming's or a pairing's, by initial move: (the node below,
        # into, back, the `_tables` keys fused into them); None on any
        # other node
        self._routes: dict[str, tuple] | None = None

    def respond(self, s: Play):
        """Proponent's reply to a legal odd-length play, or None.

        The one checked entry point: one legality pass over s, whose
        P-view is handed to `_answer`.  Returns (move, justifier index
        into s) for a P-move enabled by a move of that P-view; raises
        StrategyError for any other reply, BoundExceeded if computing
        the reply hit an interaction bound.
        """
        if s.arena != self.arena:
            raise ValueError(f"play is over {s.arena.name}, strategy over {self.arena.name}")
        positions, _, key, _ = checked_views(s)[-1]
        if len(s.moves) % 2 != 1:
            raise ValueError("can only respond to odd-length plays")
        return self._answer(key, positions)

    def _answer(self, key: tuple, positions):
        """`respond`'s reply to a legal odd-length play, unchecked, from
        the moves `key` of its P-view and their `positions` in the play.
        Memoised by `key`: on a miss the node's function is asked the
        view and its reply checked, once: (P-move, index into the view
        of a move enabling it), or None, and StrategyError for any other
        reply.  A bound hit is stored and raised again on every later
        ask, and any other exception is never stored.  The caller gets
        the memo's move and its pointer read through `positions`."""
        r = self._memo.get(key, _UNASKED)
        if r is _UNASKED:
            try:
                r = (self._view_fn or self._play_fn)(key)
                if r is not None:
                    move, j = r[0], r[1]
                    if not 0 <= j < len(key):
                        raise StrategyError(f"{self.name}: pointer {j} outside the P-view")
                    if self.arena.polarity.get(move) != "P":
                        raise StrategyError(f"{self.name}: emitted non-P move {move!r}")
                    if not self.arena.enables(key[j][0], move):
                        raise StrategyError(
                            f"{self.name}: move {move!r} not enabled in the P-view at {j}")
            except BoundExceeded:
                r = _BOUND
            self._memo[key] = r
        if r is _BOUND:
            raise BoundExceeded(self.name)
        return None if r is None else (r[0], positions[r[1]])

    def __repr__(self) -> str:
        return f"InnocentStrategy({self.name} : {self.arena.name})"


@dataclass(frozen=True)
class TraceResult:
    """`explore`'s plays over `arena`, each as its moves, shortest first
    and then in order of their moves, the order the CLI prints, and its
    count of bound hits.  No `Play` is built: `Play(arena, moves)` is
    the play of each."""
    arena: Arena
    plays: tuple[tuple[tuple[str, int], ...], ...]
    bound_exceeded: int


def walk(sigma: InnocentStrategy, b: Bounds, innocent_opponent: bool = False):
    """Every even-length play reachable against sigma within the bounds,
    the empty play first, yielded as (its moves, the views of its
    prefixes, its open questions), and None for each position where
    sigma's reply hit an interaction bound.  The open questions are
    `plays.open_questions` of the play's moves: a tuple of positions, or
    None once the play is not well-bracketed.  No play is kept:
    `explore` and `observation.observations` are two folds over this
    walk.

    The views are those of `plays.checked_views`, one entry per prefix,
    shortest first.  A play the walk may extend, one of at most
    b.max_play_len - 2 moves, and the empty play carry their own views
    and open questions, their own views last.  A longer play is at the
    cap: it carries its parent's, those of the play two moves shorter,
    so `len(views) == len(moves) - 1`, and a reader that needs its own
    grows it by its last round with `last_round`.

    Opponent ranges over every legal choice, or with `innocent_opponent`
    over the single-threaded, O-innocent ones; Proponent plays sigma's
    response.  Raises ExplorationIncomplete when the plays reached, the
    empty play included, come to EXPLORE_BUDGET and another is due.

    A depth-first walk in preorder: a play is yielded when it is taken
    off the stack, and its children are pushed in reverse order of
    their Opponent moves, so the plays come out in the order of their
    moves, each before its extensions.  Each child is played when its
    parent is taken off, so every play is extended once.  A child at
    the cap is never extended, so it is yielded straight from its
    parent's loop, in the same order, and never stacked, and its round
    builds only what sigma reads: the P-view entry of its Opponent move,
    by `plays.next_pview`, and no O-view, views tuple or open questions.

    No play is checked: each stacked play carries the views of its
    prefixes, so `legal_extensions` builds its legal extensions from the
    O-view it is handed, with ROOT unless a single-threaded Opponent has
    begun, and each round extends the views by `plays.next_views` and
    asks sigma's `_answer` without a legality pass.  The open questions
    grow by `plays.next_pending`, one move at a time.  With
    `innocent_opponent` the walk asks `plays.innocent_o_move`, the rule
    `is_o_innocent` checks, of each play's views: where Opponent has
    moved at the play's O-view already, that move is forced and played
    without a search.  So a stacked entry is the triple it is yielded
    as.
    """
    arena = sigma.arena
    questions = arena.questions
    cap = b.max_play_len
    # A tree walk: no play is reached twice.
    reached = 1   # the empty play
    stack = [((), (EMPTY_VIEWS,), ())]
    while stack:
        s, views, pending = step = stack.pop()
        yield step
        n = len(s)
        if n + 2 > cap:   # the empty play alone: a child at the cap is never stacked
            continue
        at_cap = n + 4 > cap
        ov = views[-1][1]
        forced = innocent_o_move(views) if innocent_opponent else None
        if forced is None:
            extensions = legal_extensions(arena, s, ov if innocent_opponent and s else (ROOT, *ov))
        else:
            # forced at a nonempty O-view, by an Opponent that opens no
            # second thread: k points into the view, never at ROOT
            o, k = forced
            extensions = ((o, ov[k]),)
        # a child at the cap needs only the P-view its reply is read off
        grow = next_pview if at_cap else next_views
        children = []
        for o, j in extensions:
            e = grow(views, o, j)
            try:
                r = sigma._answer(e[2], e[0])
            except BoundExceeded:
                yield None
                continue
            if r is None:
                continue
            if reached == EXPLORE_BUDGET:
                raise ExplorationIncomplete(reached)
            reached += 1
            sop = s + ((o, j), r)
            if at_cap:
                yield sop, views, pending
                continue
            so_views = views + (e,)
            children.append((sop, so_views + (next_views(so_views, *r),),
                             next_pending(questions, next_pending(questions, pending, n, o, j),
                                          n + 1, *r)))
        stack += reversed(children)


def last_round(questions, step, views: bool = False):
    """The play `step`, as `walk` yields it, over an arena whose
    questions are `questions`, with its own open questions, and with
    `views` its own views too.  A nonempty play at the cap comes with
    those of its parent, two moves shorter, and is grown here by its
    last round, the Opponent move and the reply: its open questions by
    `plays.next_pending` and its views by `plays.next_views`.  This is
    the one rule for it; any other play is handed back as it is."""
    moves, vs, pending = step
    if len(vs) > len(moves):
        return step
    for i in (len(moves) - 2, len(moves) - 1):
        pending = next_pending(questions, pending, i, *moves[i])
        if views:
            vs += (next_views(vs, *moves[i]),)
    return moves, vs, pending


def explore(sigma: InnocentStrategy, b: Bounds, complete_only: bool = False) -> TraceResult:
    """Even-length plays reachable against sigma within the bounds,
    against every Opponent, the empty play included: `walk`'s plays, as
    their moves, shortest first and then in order of their moves.  The
    walk gives them in order of their moves, so a stable sort by length
    alone puts them in that order.  No `Play` is built.  With
    `complete_only`, only the complete plays are kept: nonempty, with
    no open question by the walk's count, which `last_round` grows by
    the last round of a play at the cap.  Positions where the response
    computation hit an interaction bound are counted, not silently
    dropped."""
    plays, exceeded, questions = [], 0, sigma.arena.questions
    for step in walk(sigma, b):
        if step is None:
            exceeded += 1
        elif not complete_only or (step[0] and last_round(questions, step)[2] == ()):
            plays.append(step[0])
    plays.sort(key=len)
    return TraceResult(sigma.arena, tuple(plays), exceeded)


def traces(sigma: InnocentStrategy, b: Bounds) -> frozenset[Play]:
    """The even-length-prefix-closed trace set of sigma at the bounds,
    against every Opponent, as `Play`s."""
    arena = sigma.arena
    return frozenset([Play(arena, m) for m in explore(sigma, b).plays])


def tabulate(sigma: InnocentStrategy, b: Bounds) -> list[tuple[Play, tuple[str, int]]]:
    """The reachable part of sigma's view function, canonically ordered.

    Walks sigma's P-views, as their moves, no longer than the play
    bound, from the empty play.  A P-view of a play of sigma is itself a
    play of sigma and its own P-view: Opponent points at the move just
    before it, or at nothing in the empty view, and sigma's reply
    extends it to the next P-view.  So `legal_extensions` is handed that
    one justifier, and each view vo is asked once through `_answer` as
    its own play, whose positions are its indices, so the pointer is
    already an index into vo.  A view whose reply hit an interaction
    bound is left out.
    """
    arena = sigma.arena
    entries: dict[tuple, tuple[str, int]] = {}
    stack = [()]
    while stack:
        v = stack.pop()
        if len(v) + 2 > b.max_play_len:
            continue
        for o in legal_extensions(arena, v, (len(v) - 1,) if v else (ROOT,)):
            vo = v + (o,)
            try:
                r = sigma._answer(vo, range(len(vo)))
            except BoundExceeded:
                continue
            if r is not None:
                entries[vo] = r
                stack.append(vo + (r,))
    out = [(Play(arena, k), e) for k, e in entries.items()]
    out.sort(key=lambda ve: json.dumps(ve[0].to_json(), sort_keys=True))
    return out


def from_view_table(arena: Arena, name: str, table: dict[tuple, tuple[str, int]]) -> InnocentStrategy:
    """Strategy backed by a finite map from view move-tuples to responses."""
    return InnocentStrategy(arena, name, view_fn=table.get)


def prefix_map(pairs: list[tuple[str, str]], moves) -> Mapping[str, str]:
    """Each of `moves` with its longest matching source prefix replaced
    by that prefix's target; a move no prefix matches is left out.  The
    table is shared, so it is a read-only mapping."""
    return _tables(tuple(pairs), frozenset(moves))[0]


@functools.cache
def _tables(pairs: tuple, moves: frozenset) -> tuple[Mapping[str, str], Mapping[str, str]]:
    """`prefix_map`'s table of `pairs` over `moves` and its inverse,
    built once for each key and shared, read only, by every node that
    reads them."""
    rules = sorted(pairs, key=lambda r: -len(r[0]))
    out = {}
    for m in moves:
        for src, dst in rules:
            if m.startswith(src):
                out[m] = dst + m[len(src):]
                break
    return MappingProxyType(out), MappingProxyType({dst: src for src, dst in out.items()})


def prefix_swap(pairs: list[tuple[str, str]], moves) -> Mapping[str, str]:
    """The involution on `moves` swapping each (left, right) prefix pair."""
    return prefix_map(pairs + [(y, x) for x, y in pairs], moves)


def copycat_echo(swap: Mapping[str, str], moves):
    """The copycat reply to a P-view, given by its moves: the last
    Opponent move echoed through `swap`, as (move, index into the view),
    or None.

    `swap` is a `prefix_swap` exchanging two copies of one component of
    the view's arena; a move it does not list has no echo.  The echo's
    justifier is found by the pairing discipline of copycat views: the
    partner of the justifier sits immediately before it, with an
    unjustified opener echoed by a move pointing at the opener itself.
    Every view copycat produced keeps it: an Opponent move in a P-view
    points at the move before it, and each Proponent move there is an
    echo.  Other views get no echo.  An echo is always enabled where it
    points: the swap maps an enabling pair inside a copy to one, an
    Opponent move is never enabled across the copies, and an opener
    enables its echo, a left initial.
    """
    m, ptr = moves[-1]
    mm = swap.get(m)
    if mm is None:
        return None
    if ptr == ROOT:
        j = len(moves) - 1
    else:
        j = ptr - 1
        if j < 0 or moves[j][0] != swap.get(moves[ptr][0]):
            return None
    return mm, j


def mirror_strategy(arena: Arena, swap: Mapping[str, str], name: str) -> InnocentStrategy:
    """Copycat-style strategy: answer each P-view with `copycat_echo`."""
    return InnocentStrategy(arena, name,
                            view_fn=lambda v: copycat_echo(swap, v))


def copycat(a: Arena) -> InnocentStrategy:
    """The identity strategy on arrow(a, a)."""
    cc_arena = arrow(a, a)
    swap = prefix_swap([("L.", "R.")], cc_arena.moves)
    return mirror_strategy(cc_arena, swap, f"copycat({a.name})")


def rename_strategy(sigma: InnocentStrategy, pairs: list[tuple[str, str]],
                    new_arena: Arena, name: str) -> InnocentStrategy:
    """Transport sigma onto an isomorphic arena along a prefix renaming.

    `pairs` lists (source, target) prefixes for sigma's moves.  The
    renaming is tabled once, `prefix_map` over sigma's moves, and must
    be a bijection onto `new_arena`'s moves: a renaming that leaves a
    move unmatched, merges two moves or misses a target move raises
    ValueError.  The node is `_wrapper`'s: P-views over `new_arena` are
    read down through the inverse table, fused with sigma's route when
    sigma is a renaming or a pairing itself, to the node below.
    """
    key = (tuple(pairs), sigma.arena.moves)
    _check_renaming(*key, new_arena.moves)
    return _wrapper(new_arena, name, _routes_over(sigma, key, new_arena.initials))


@functools.cache
def _check_renaming(pairs: tuple, source: frozenset, target: frozenset) -> None:
    """Check once that `_tables` of `pairs` over `source` is a bijection
    onto `target`; ValueError if it is not."""
    fwd, inv = _tables(pairs, source)
    if len(fwd) != len(source):
        raise ValueError("renaming leaves a move unmatched")
    if len(inv) != len(fwd):
        raise ValueError("renaming merges two moves")
    if inv.keys() != target:
        raise ValueError("renaming does not map onto the target arena")


def pair_strategies(f: InnocentStrategy, g: InnocentStrategy) -> InnocentStrategy:
    """Tupling: from f : arrow(X, B) and g : arrow(X, C), the strategy
    on arrow(X, product(B, C)) that plays f inside threads rooted at a
    B-initial and g inside threads rooted at a C-initial.

    Every move of a P-view is hereditarily justified by its first,
    initial move, so the view lies inside one thread and is read down
    whole to that side's strategy.  Each side's move tables are built
    once, as in `rename_strategy`: X moves keep their tags, and the
    side's "R." moves gain "L." or "R." after the outer "R.".  The node
    is `_wrapper`'s: each initial move's route goes through its side's
    tables, fused with that side's route when the side is a renaming or
    a pairing itself, to the node below.
    """
    x = f.arena.parts[0]
    if g.arena.parts[0] != x:
        raise ValueError("paired strategies disagree on the left arena")
    outer = arrow(x, product(f.arena.parts[1], g.arena.parts[1]))
    routes = {}
    for strat, tag in ((f, "R.L."), (g, "R.R.")):
        routes.update(_routes_over(strat, ((("L.", "L."), ("R.", tag)), strat.arena.moves),
                                   outer.initials))
    return _wrapper(outer, f"<{f.name}, {g.name}>", routes)


def _wrapper(arena: Arena, name: str, routes: dict) -> InnocentStrategy:
    """A renaming's or a pairing's node over `arena`, asking what lies
    below it along `routes`, one for each initial move it reads down.
    Its `play_fn` is the whole ask: the view is read down the route's
    `into` table, the node below is asked it, a leaf through its
    `view_fn` and a composite through `respond`, where the benchmark's
    tracer counts compose asks, and the reply's move is read back up
    `back`.  The translated view is its own P-view, so the pointer is
    already an index into the view; the node's `_answer` checks the
    translated reply."""
    def play_fn(view: tuple):
        below, into, back, _ = routes[view[0][0]]
        inner = tuple([(into[m], p) for m, p in view])
        if below._view_fn is not None:
            r = below._view_fn(inner)
        else:
            r = below.respond(Play(below.arena, inner))
        if r is None:
            return None
        try:
            return back[r[0]], r[1]
        except KeyError:
            raise StrategyError(f"{name}: emitted move {r[0]!r} outside the inner arena") from None

    node = InnocentStrategy(arena, name, play_fn=play_fn)
    node._routes = routes
    return node


def _routes_over(inner: InnocentStrategy, key: tuple, initials: frozenset) -> dict:
    """The routes of one wrapper step over `inner`, for each of
    `initials` that the step's inverse table reads down to inner's
    arena.  The step is `_tables` of `key`, which maps inner's moves to
    the wrapper's.  A route is (the node below, into, back, the keys
    fused into them): over a renaming or a pairing it is inner's own,
    with `key` fused onto its keys and the same node below, and over
    any other node, a leaf or a composite, inner is the node below."""
    down = _tables(*key)[1]
    routes = {}
    for m in initials:
        if m not in down:
            continue
        if inner._routes is not None:
            below, _, _, keys = inner._routes[down[m]]
        else:
            below, keys = inner, ()
        keys = (key, *keys)
        routes[m] = (below, *_fused(keys), keys)
    return routes


@functools.cache
def _fused(keys: tuple) -> tuple[Mapping[str, str], Mapping[str, str]]:
    """The move tables of a chain of wrapper steps, outermost first,
    each step given by its `_tables` key: `into` reads a move down the
    chain and `back` reads one up it.  Built once for each chain and
    shared, read only."""
    up, down = _tables(*keys[0])
    if len(keys) == 1:
        return down, up
    into, back = _fused(keys[1:])
    return (MappingProxyType({m: into[x] for m, x in down.items() if x in into}),
            MappingProxyType({m: up[x] for m, x in back.items()}))


def as_thunk(sigma: InnocentStrategy) -> InnocentStrategy:
    """View a strategy on A as a strategy on arrow(Empty, A)."""
    outer = arrow(make_empty(), sigma.arena)
    return rename_strategy(sigma, [("", "R.")], outer, f"thunk({sigma.name})")


# The layout of a composite's interaction: the (left, right) components
# of its three projections, sigma's, tau's and the outer one, and the
# two projections each component's moves land in, with the move's tag
# there.
_SIDES = (("A", "B"), ("B", "C"), ("A", "C"))
_LANDS_IN = {c: tuple((k, "L." if c == left else "R.")
                      for k, (left, right) in enumerate(_SIDES) if c in (left, right))
             for c in "ABC"}


def compose(sigma: InnocentStrategy, tau: InnocentStrategy, b: Bounds,
            name: str | None = None) -> InnocentStrategy:
    """Sequential composition of sigma : arrow(A, B) with tau : arrow(B, C).

    The composite answers a play over arrow(A, C) by playing out its
    P-view as the unique interaction over the three components: visible
    moves are laid down as given, and between them sigma and tau
    ping-pong in B until one of them surfaces.  The turn rule: sigma
    answers an outer move in A, tau one in C, and a move in B is
    answered by the side that did not play it.  The interaction, hidden
    moves included, may not grow past b.max_play_len.  A P-move of the
    view that the composite would not have played raises
    InconsistentPlay.

    Each reply comes with the interaction after it, so the node's memo
    keeps both.  A P-view w resumes from the memo entry of w[:-2], whose
    reply is checked to be w[-2]; its interaction, the justifiers and
    the three projections' nine containers, is copied and grown by w[-1]
    and the hidden moves after it.  Where w[:-2] has no reply in
    the memo, as when `respond` is asked an arbitrary play, the node
    first asks itself w[:-2] through `_answer`, which recurses down to
    the longest prefix in the memo, or to the empty interaction.  The
    moves played, and so the replies, the bound hits and the
    InconsistentPlay texts, are those of playing out w from the empty
    interaction.

    Component bookkeeping: the interaction records the justifier of
    each occurrence, in A, B or C, and has three projections: sigma's
    (A, B), tau's (B, C) and the outer (A, C), which is the P-view
    played out, followed by the reply.  Each move lands in the two
    projections that hold its component, read from one table by
    component: an A move in sigma's and the outer, a B move in sigma's
    and tau's, a C move in tau's and the outer.  Each projection holds
    the interaction index of each of its positions, the position of
    each of its interaction indices, and per move sigma's and tau's
    P-views, entries of `plays.next_pview` with no O-view, or the outer
    move, tagged "L."/"R.".  One rule points every projection's moves:
    a justifier outside its components is replaced by its own justifier,
    and by ROOT if that is outside too.  So sigma's B-initials, justified
    by C initials, are unjustified on sigma's side, and an A-initial,
    which points at a B-initial, surfaces pointing at that move's C
    justifier.  The projections are indexed by position, never by
    strategy, since sigma and tau may be one object.

    A factor's projection is a legal play, so the factor is asked
    through `_answer` with its P-view, unchecked, and no play is built.
    The composite's reply depends on its P-view alone; its node
    memoises it with the interaction, which is the composite's own.
    """
    if sigma.arena.kind != "arrow" or tau.arena.kind != "arrow":
        raise ValueError("compose needs arrow-shaped arenas")
    a, b_mid = sigma.arena.parts
    b_mid2, c = tau.arena.parts
    if b_mid != b_mid2:
        raise ValueError(
            f"middle arenas differ: {b_mid.name} vs {b_mid2.name}")
    outer = arrow(a, c)
    cap = b.max_play_len
    cname = name or f"({sigma.name} ; {tau.name})"
    strats = (sigma, tau)

    def append(u: list, proj: tuple, comp: str, mv: str, up: int) -> None:
        ui = len(u)
        if ui >= cap:
            raise BoundExceeded(cname)
        u.append(up)
        for k, tag in _LANDS_IN[comp]:
            idx, pos, grown = proj[k]
            ptr = pos[up] if up in pos else pos.get(u[up], ROOT)
            pos[ui] = len(idx)
            idx.append(ui)
            # the outer projection grows its moves, the factors' their P-views
            grown.append((tag + mv, ptr) if k == 2 else next_pview(grown, tag + mv, ptr))

    def play_fn(view: tuple):
        n = len(view)
        if n == 1:
            # per projection: position -> u index, u index -> position
            # (and ROOT -> ROOT), and the entries its moves add
            u = []   # the justifier of each occurrence
            proj = (([], {ROOT: ROOT}, [EMPTY_VIEWS]), ([], {ROOT: ROOT}, [EMPTY_VIEWS]),
                    ([], {ROOT: ROOT}, []))
        else:
            # the memo entry of view[:-2]: its reply, checked against
            # view[-2], and the interaction after it; asked first unless
            # it is a reply
            key = view[:-2]
            r = node._memo.get(key)
            if type(r) is not tuple:
                node._answer(key, range(n - 2))
                r = node._memo[key]
            m, ptr = view[-2]
            if r is None:
                raise InconsistentPlay(f"{cname}: no response where the play has {m!r}")
            if r[0] != m or r[1] != ptr:
                raise InconsistentPlay(f"{cname}: computed {r[0]!r} where the play has {m!r}")
            u, ((si, sp, sg), (ti, tp, tg), (oi, op, og)) = r[2]
            u, proj = u.copy(), ((si.copy(), sp.copy(), sg.copy()),
                                 (ti.copy(), tp.copy(), tg.copy()),
                                 (oi.copy(), op.copy(), og.copy()))
        m, ptr = view[-1]
        side = 1 if m.startswith("R.") else 0   # C is tau's, A sigma's
        append(u, proj, "AC"[side], m[2:], ROOT if ptr == ROOT else proj[2][0][ptr])
        # the factors play until a move surfaces in A or C, or one refuses
        while True:
            idx, _, views = proj[side]
            e = views[-1]
            r = strats[side]._answer(e[2], e[0])
            if r is None:
                return None
            m, pptr = r
            comp = _SIDES[side][0 if m.startswith("L.") else 1]
            append(u, proj, comp, m[2:], idx[pptr])
            if comp != "B":
                return (*proj[2][2][-1], (u, proj))
            side = 1 - side

    node = InnocentStrategy(outer, cname, play_fn=play_fn)
    return node
