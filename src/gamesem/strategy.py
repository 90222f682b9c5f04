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
so reaching a view again costs a lookup.  On a miss `_reply` runs the
node and checks the response against the arena and the view, so the
extended play is legal again; a bound hit is stored too and raised
again on later asks.  A reply may go on after its move and pointer:
the memo keeps the rest, a composite's interaction, and `_answer`
hands it to no caller.  Three callers hand `_answer` a play's views,
whose P-view moves key the memo, and no play is built for it:
`respond`, after one legality pass at `plays.checked_views`; `_round`,
one round of play (an Opponent move and the reply) for `walk` and
`observation._play_against` (test runs and the oracle), which takes
and returns the play's moves and carries its views through
`plays.next_views`; and compose, which carries each factor's views the
same way.  `tabulate`, and a composite asking itself a shorter P-view,
hand `_answer` a P-view as its own play, so only it calls `_reply`.
Renamings and pairings translate the view alone (a prefix renaming is
an arena isomorphism, so it commutes with the P-view), and the pointer
of the reply into that view is already view-relative.

`walk` is the one exploration of a strategy's plays, a generator that
keeps none: it yields each play it reaches as its moves, with the views
of its prefixes and its open questions, in order of the moves.
`explore` folds it into the plays against every Opponent, builds each
`Play` once and orders them shortest first with one stable sort by
length; `observation.observations` folds it into the O-view sets of the
complete plays against an innocent one.

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
alone, so it asks across one move table whatever lies below it.  Its
node holds a route for each initial move of its arena, built with the
node: the first node below it that is no renaming or pairing, how to
ask it, and the tables `into` it and `back`.  Over another wrapper the
route is that wrapper's route, with this node's tables fused onto its
own: the fused `into` is this node's followed by the inner one, and the
fused `back` the inner one followed by this node's.  Each fused table
is built once for each chain of (pairs, moves) keys and shared, read
only.  A view-function leaf is asked through its `view_fn`, and the
asking node's `_reply` checks the translated reply, which is the
leaf's own check read across the tables: a renaming is an arena
isomorphism, and a pairing embeds each side's arena keeping polarity
and enabling.  Any other node, a composite, is asked through `respond`,
where the benchmark's tracer counts compose asks.  The wrappers in
between are skipped, so their memos stay empty.

Composition runs the standard parallel interaction: the two strategies
exchange moves in the shared middle component, which is hidden from the
outside.  A composite plays out only the P-view it is asked about (the
P-view of a legal play is a legal play, and the composite is innocent),
so its reply is a function of that view and is memoised by its node
like any other, with the interaction after it.  It resumes from the
memo entry of the P-view two moves shorter: a P-view asked in a play is
an earlier asked P-view, Proponent's reply and one Opponent move, so a
miss plays only that move and the hidden moves up to the next visible
one.  One turn rule says who moves next, and the interaction grows three
projections with each move it appends: sigma's and tau's, by their
views, and the outer one the reply is read off, by its moves, all
pointed by one justifier rule.  Interactions are capped at
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
    legal_extensions,
    next_pending,
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
        # a renaming's or a pairing's, by initial move: (ask, into, back,
        # the `_tables` keys fused into them); None on any other node
        self._routes: dict[str, tuple] | None = None

    def respond(self, s: Play):
        """Proponent's reply to a legal odd-length play, or None.

        The one checked entry point: one legality pass over s, whose
        views are handed to `_answer`.  Returns (move, justifier index
        into s) for a P-move enabled by a move of that P-view; raises
        StrategyError for any other reply, BoundExceeded if computing
        the reply hit an interaction bound.
        """
        if s.arena != self.arena:
            raise ValueError(f"play is over {s.arena.name}, strategy over {self.arena.name}")
        views = checked_views(s)
        if len(s.moves) % 2 != 1:
            raise ValueError("can only respond to odd-length plays")
        return self._answer(views)

    def _answer(self, views):
        """`respond`'s reply to a legal odd-length play, unchecked, from
        its views as `plays.next_views` gives them.  Memoised by the
        P-view's moves: each view is asked through `_reply`, and its
        reply checked, once; a bound hit is stored and raised again on
        every later ask, and any other exception is never stored.  The
        caller gets (move, pointer) of the memo's whole reply."""
        positions, _, key, _ = views
        r = self._memo.get(key, _UNASKED)
        if r is _UNASKED:
            try:
                r = self._reply(key)
            except BoundExceeded:
                r = _BOUND
            self._memo[key] = r
        if r is _BOUND:
            raise BoundExceeded(self.name)
        return None if r is None else (r[0], positions[r[1]])

    def _reply(self, view: tuple):
        """The node's reply to the moves `view` of a P-view over this
        arena, checked: (P-move, index into the view of a move enabling
        it), or None.  Raises StrategyError for any other reply."""
        r = (self._view_fn or self._play_fn)(view)
        if r is None:
            return None
        move, j = r[0], r[1]
        if not 0 <= j < len(view):
            raise StrategyError(f"{self.name}: pointer {j} outside the P-view")
        if self.arena.polarity.get(move) != "P":
            raise StrategyError(f"{self.name}: emitted non-P move {move!r}")
        if not self.arena.enables(view[j][0], move):
            raise StrategyError(f"{self.name}: move {move!r} not enabled in the P-view at {j}")
        return r

    def _round(self, so: tuple, views: tuple):
        """One round: this strategy's reply p to the legal play s·o,
        given by its moves.  `views` holds the views of every prefix of
        s, as `plays.prefix_views` yields them.  Returns (the moves of
        s·o·p, the views of every prefix of s·o·p), or None where the
        strategy does not answer.  s·o is asked through `_answer`,
        unchecked.
        """
        views += (next_views(views, *so[-1]),)
        r = self._answer(views[-1])
        if r is None:
            return None
        return so + (r,), views + (next_views(views, *r),)

    def __repr__(self) -> str:
        return f"InnocentStrategy({self.name} : {self.arena.name})"


@dataclass(frozen=True)
class TraceResult:
    """`explore`'s plays, shortest first and then in order of their
    moves, the order the CLI prints, and its count of bound hits."""
    plays: tuple[Play, ...]
    bound_exceeded: int


def walk(sigma: InnocentStrategy, b: Bounds, innocent_opponent: bool = False):
    """Every even-length play reachable against sigma within the bounds,
    the empty play first, yielded as (its moves, the views of each of
    its prefixes, its open questions), and None for each position where
    sigma's reply hit an interaction bound.  The open questions are
    `plays.pending_questions` of the play: a tuple of positions, or None
    once the play is not well-bracketed.  No play is kept: `explore` and
    `observation.observations` are two folds over this walk.

    Opponent ranges over every legal choice, or with `innocent_opponent`
    over the single-threaded, O-innocent ones; Proponent plays sigma's
    response.  Raises ExplorationIncomplete when the plays reached, the
    empty play included, come to EXPLORE_BUDGET and another is due.

    A depth-first walk in preorder: a play is yielded when it is taken
    off the stack, and its children are pushed in reverse order of
    their Opponent moves, so the plays come out in the order of their
    moves, each before its extensions.  Each child is played when its
    parent is taken off, so every play is extended once.

    No play is checked: each stacked play carries the views of its
    prefixes that sigma's `_round` returned with it, so
    `legal_extensions` builds its legal extensions from the O-view it
    is handed, with ROOT unless a single-threaded Opponent has begun,
    and each round asks sigma without a legality pass.  The open
    questions grow by `plays.next_pending`, one move at a time.  With
    `innocent_opponent` the walk also carries the O-innocence map of
    its Opponent moves (O-view -> move and pointer); a candidate whose
    O-view is mapped to another move is pruned, which is
    `is_o_innocent` one move at a time.
    """
    arena = sigma.arena
    questions = arena.questions
    # A tree walk: no play is reached twice.
    reached = 1   # the empty play
    # (moves, their prefixes' views, open questions, O-innocence map)
    stack = [((), (EMPTY_VIEWS,), (), {})]
    while stack:
        s, views, pending, omap = stack.pop()
        yield s, views, pending
        n = len(s)
        if n + 2 > b.max_play_len:
            continue
        _, ov, _, okey = views[-1]
        children = []
        for o, j in legal_extensions(arena, s, ov if innocent_opponent and s else (ROOT, *ov)):
            if innocent_opponent:
                oval = (o, ROOT if j == ROOT else ov.index(j))
                if omap.get(okey, oval) != oval:
                    continue
            try:
                step = sigma._round(s + ((o, j),), views)
            except BoundExceeded:
                yield None
                continue
            if step is not None:
                if reached == EXPLORE_BUDGET:
                    raise ExplorationIncomplete(reached)
                reached += 1
                sop, sop_views = step
                asked = next_pending(questions, pending, n, o, j)
                pending_sop = next_pending(questions, asked, n + 1, *sop[-1])
                children.append((sop, sop_views, pending_sop,
                                  {**omap, okey: oval} if innocent_opponent else omap))
        stack += reversed(children)


def explore(sigma: InnocentStrategy, b: Bounds, complete_only: bool = False) -> TraceResult:
    """Even-length plays reachable against sigma within the bounds,
    against every Opponent, the empty play included: `walk`'s plays,
    shortest first and then in order of their moves.  The walk gives
    them in order of their moves, so a stable sort by length alone puts
    them in that order, and each `Play` is built once, here.  With
    `complete_only`, only the complete plays are kept: nonempty, with
    no open question by the walk's count.  Positions where the response
    computation hit an interaction bound are counted, not silently
    dropped."""
    plays, exceeded = [], 0
    for step in walk(sigma, b):
        if step is None:
            exceeded += 1
        elif not complete_only or (step[2] == () and step[0]):
            plays.append(step[0])
    plays.sort(key=len)
    arena = sigma.arena
    return TraceResult(tuple([Play(arena, m) for m in plays]), exceeded)


def traces(sigma: InnocentStrategy, b: Bounds) -> frozenset[Play]:
    """The even-length-prefix-closed trace set of sigma at the bounds,
    against every Opponent."""
    return frozenset(explore(sigma, b).plays)


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
                r = sigma._answer((range(len(vo)), None, vo, None))
            except BoundExceeded:
                continue
            if r is not None:
                entries[vo] = r
                stack.append(vo + (r,))
    out = [(Play(arena, k), e) for k, e in entries.items()]
    out.sort(key=lambda ve: json.dumps(ve[0].to_json(), sort_keys=True))
    return out


def tabulation_to_json(sigma: InnocentStrategy, b: Bounds) -> list[dict]:
    return [
        {"view": v.to_json(), "response": {"m": m, "ptr": p}}
        for v, (m, p) in tabulate(sigma, b)
    ]


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
    ValueError.  P-views over `new_arena` are read down through the
    inverse table, fused with sigma's route when sigma is a renaming or
    a pairing itself.
    """
    key = (tuple(pairs), sigma.arena.moves)
    _check_renaming(*key, new_arena.moves)
    routes = _routes_over(sigma, key, new_arena.initials)

    def play_fn(view: tuple):
        return _ask(routes[view[0][0]], view, name)

    node = InnocentStrategy(new_arena, name, play_fn=play_fn)
    node._routes = routes
    return node


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
    side's "R." moves gain "L." or "R." after the outer "R.".  Each
    initial move's route goes through its side's tables, fused with
    that side's route when the side is a renaming or a pairing itself.
    """
    x = f.arena.parts[0]
    if g.arena.parts[0] != x:
        raise ValueError("paired strategies disagree on the left arena")
    outer = arrow(x, product(f.arena.parts[1], g.arena.parts[1]))
    name = f"<{f.name}, {g.name}>"
    routes = {}
    for strat, tag in ((f, "R.L."), (g, "R.R.")):
        routes.update(_routes_over(strat, ((("L.", "L."), ("R.", tag)), strat.arena.moves),
                                   outer.initials))

    def play_fn(view: tuple):
        return _ask(routes[view[0][0]], view, name)

    node = InnocentStrategy(outer, name, play_fn=play_fn)
    node._routes = routes
    return node


def _routes_over(inner: InnocentStrategy, key: tuple, initials: frozenset) -> dict:
    """The routes of one wrapper step over `inner`, for each of
    `initials` that the step's inverse table reads down to inner's
    arena.  The step is `_tables` of `key`, which maps inner's moves to
    the wrapper's.  Over a renaming or a pairing, the route is inner's
    own, with `key` fused onto its keys."""
    down = _tables(*key)[1]
    routes = {}
    for m in initials:
        if m not in down:
            continue
        if inner._routes is not None:
            ask, _, _, keys = inner._routes[down[m]]
        else:
            ask, keys = inner._view_fn or functools.partial(_respond, inner), ()
        keys = (key, *keys)
        routes[m] = (ask, *_fused(keys), keys)
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


def _respond(node: InnocentStrategy, view: tuple):
    # a composite is asked through `respond`: the benchmark's tracer
    # counts compose asks there
    return node.respond(Play(node.arena, view))


def _ask(route: tuple, view: tuple, name: str):
    """The reply of the node `route` reaches to `view` read down through
    the route's `into` table, with its move read back up through `back`;
    the asking node `name` checks it.  The translated view is its own
    P-view, so the pointer is already an index into `view`."""
    ask, into, back, _ = route
    r = ask(tuple([(into[m], p) for m, p in view]))
    if r is None:
        return None
    try:
        return back[r[0]], r[1]
    except KeyError:
        raise StrategyError(f"{name}: emitted move {r[0]!r} outside the inner arena") from None


def as_thunk(sigma: InnocentStrategy) -> InnocentStrategy:
    """View a strategy on A as a strategy on arrow(Empty, A)."""
    outer = arrow(make_empty(), sigma.arena)
    return rename_strategy(sigma, [("", "R.")], outer, f"thunk({sigma.name})")


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
    reply is checked to be w[-2]; its interaction is copied and grown by
    w[-1] and the hidden moves after it.  Where w[:-2] has no reply in
    the memo, as when `respond` is asked an arbitrary play, the node
    first asks itself w[:-2] through `_answer`, which recurses down to
    the longest prefix in the memo, or to the empty interaction.  The
    moves played, and so the replies, the bound hits and the
    InconsistentPlay texts, are those of playing out w from the empty
    interaction.

    Component bookkeeping: the interaction records the justifier of
    each occurrence, in A, B or C, and grows three projections of it
    with each move: sigma's (A, B), tau's (B, C) and the outer (A, C),
    which is the P-view played out, followed by the reply.  Each projection
    holds the interaction index of each of its positions, the position
    of each of its interaction indices, and per move sigma's and tau's
    views, or the outer move, tagged "L."/"R.".  One rule
    points every projection's moves: a justifier outside its components
    is replaced by its own justifier, and by ROOT if that is outside
    too.  So sigma's B-initials, justified by C initials, are
    unjustified on sigma's side, and an A-initial, which points at a
    B-initial, surfaces pointing at that move's C justifier.  The
    projections are indexed by position, never by strategy, since sigma
    and tau may be one object.

    A factor's projection is a legal play, so the factor is asked
    through `_answer` with its views, unchecked, and no play is built.
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
    # each projection's (left, right) components, and the entry a move
    # adds: sigma's and tau's views, the outer projection's move
    comps = (("A", "B", next_views), ("B", "C", next_views),
             ("A", "C", lambda moves, m, ptr: (m, ptr)))

    def append(u: list, proj: tuple, comp: str, mv: str, up: int) -> None:
        ui = len(u)
        if ui >= cap:
            raise BoundExceeded(cname)
        u.append(up)
        for (left, right, entry), (idx, pos, grown) in zip(comps, proj):
            if comp == left or comp == right:
                ptr = pos[up] if up in pos else pos.get(u[up], ROOT)
                pos[ui] = len(idx)
                idx.append(ui)
                grown.append(entry(grown, ("L." if comp == left else "R.") + mv, ptr))

    def run_until_visible(u: list, proj: tuple, side: int) -> bool:
        # True once a move surfaces in A or C, False on a refusal
        while True:
            idx, _, views = proj[side]
            r = strats[side]._answer(views[-1])
            if r is None:
                return False
            m, pptr = r
            comp = comps[side][0 if m.startswith("L.") else 1]
            append(u, proj, comp, m[2:], idx[pptr])
            if comp != "B":
                return True
            side = 1 - side

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
            r = node._memo.get(view[:-2])
            if type(r) is not tuple:
                node._answer((range(n - 2), None, view[:-2], None))
                r = node._memo[view[:-2]]
            if r is None:
                raise InconsistentPlay(f"{cname}: no response where the play has {view[-2][0]!r}")
            if r[:2] != view[-2]:
                raise InconsistentPlay(
                    f"{cname}: computed {r[0]!r} where the play has {view[-2][0]!r}")
            u, proj = r[2]
            u, proj = u.copy(), tuple((idx.copy(), pos.copy(), grown.copy())
                                      for idx, pos, grown in proj)
        m, ptr = view[-1]
        side = 1 if m.startswith("R.") else 0   # C is tau's, A sigma's
        append(u, proj, "AC"[side], m[2:], ROOT if ptr == ROOT else proj[2][0][ptr])
        if not run_until_visible(u, proj, side):
            return None
        return (*proj[2][2][-1], (u, proj))

    node = InnocentStrategy(outer, cname, play_fn=play_fn)
    return node
