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
read and written only by `_answer`: an innocent strategy is its view
function, so reaching a view again costs a lookup.  On a miss `_reply`
runs the node and checks the response against the arena and the view,
so the extended play is legal again; a bound hit is stored too and
raised again on later asks.  Three callers hand `_answer` a play's
views, whose P-view moves key the memo, and no play is built for it:
`respond`, after one legality pass at `plays.checked_views`; `_round`,
one round of play (an Opponent move and the reply) for `explore` and
`observation._play_against` (test runs and the oracle), which carries
the play's views through `plays.next_views`; and compose, which carries each factor's views the
same way.  `tabulate` walks P-views alone and asks `_reply` once per
view.  Wrappers translate the view alone for their inner strategy (a
prefix renaming is an arena isomorphism, so it commutes with the
P-view), and the inner pointer into that view is already view-relative.

Renamings are move tables, built once per node: `prefix_map` applies
the longest matching (source, target) prefix to each move of an arena,
`prefix_swap` tables the involution a mirror (copycat-style) strategy
echoes through, and `rename_strategy` and `pair_strategies` invert
their tables to read views back.  No prefix is scanned when a strategy
is asked.  `copycat_echo` is the one copycat rule: the mirror answers
with it, and so does `pcf.ifz_strategy` once its condition is answered.

Composition runs the standard parallel interaction: the two strategies
exchange moves in the shared middle component, which is hidden from the
outside.  A composite replays only the P-view it is asked about (the
P-view of a legal play is a legal play, and the composite is innocent),
so its reply is a function of that view and is memoised by its node
like any other.  One turn rule says who moves next, and the replay
grows three projections of the interaction with each move it appends:
sigma's and tau's, by their views, and the outer one the reply is read
off, by its moves, all pointed by one justifier rule.  Interactions are
capped at `bounds.max_play_len` occurrences counting hidden moves;
hitting the cap raises BoundExceeded, which is deliberately distinct
from a genuine refusal to respond.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

from .arena import Arena, arrow, make_empty, product
from .bounds import Bounds
from .plays import (
    EMPTY_VIEWS,
    ROOT,
    Play,
    checked_views,
    is_complete,
    legal_extensions,
    next_views,
)


class BoundExceeded(Exception):
    """An exploration or interaction hit its configured bound."""


class StrategyError(Exception):
    """A strategy emitted a response its arena does not allow."""


class InconsistentPlay(Exception):
    """A composite was asked about a play it would never have produced."""


# Plays `explore` collects before it gives up.  A benchmark op explores
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
    (move, index into the view) or None."""

    def __init__(self, arena: Arena, name: str, view_fn=None, play_fn=None):
        if (view_fn is None) == (play_fn is None):
            raise ValueError("exactly one of view_fn / play_fn required")
        self.arena = arena
        self.name = name
        self._view_fn = view_fn
        self._play_fn = play_fn
        self._memo: dict[tuple, object] = {}   # `_answer`'s, by P-view moves

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
        every later ask, and any other exception is never stored."""
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
        move, j = r
        if not 0 <= j < len(view):
            raise StrategyError(f"{self.name}: pointer {j} outside the P-view")
        if self.arena.polarity.get(move) != "P":
            raise StrategyError(f"{self.name}: emitted non-P move {move!r}")
        if not self.arena.enables(view[j][0], move):
            raise StrategyError(f"{self.name}: move {move!r} not enabled in the P-view at {j}")
        return r

    def _round(self, so: Play, views: tuple):
        """One round: this strategy's reply p to the legal play s·o.
        `views` holds the views of every prefix of s, as
        `plays.prefix_views` yields them.  Returns (s·o·p, the same for
        every prefix of s·o·p), or None where the strategy does not
        answer.  s·o is asked through `_answer`, unchecked.
        """
        views += (next_views(views, *so.moves[-1]),)
        r = self._answer(views[-1])
        if r is None:
            return None
        return so.extend(*r), views + (next_views(views, *r),)

    def __repr__(self) -> str:
        return f"InnocentStrategy({self.name} : {self.arena.name})"


@dataclass(frozen=True)
class TraceResult:
    plays: frozenset[Play]
    bound_exceeded: int
    # with an innocent Opponent, each complete play's prefixes' O-views
    oview_sets: frozenset[frozenset[Play]] = frozenset()


def explore(sigma: InnocentStrategy, b: Bounds, innocent_opponent: bool = False) -> TraceResult:
    """Even-length plays reachable against sigma within the bounds.

    Opponent ranges over every legal choice, or with `innocent_opponent`
    over the single-threaded, O-innocent ones; Proponent plays sigma's
    response.  Positions where the response computation hit an
    interaction bound are counted, not silently dropped.  Raises
    ExplorationIncomplete when the plays found reach EXPLORE_BUDGET and
    another is due.

    No play is checked: each stacked play carries the views of its
    prefixes that sigma's `_round` returned with it, so
    `legal_extensions` builds its legal extensions from the O-view it
    is handed, with ROOT unless a single-threaded Opponent has begun,
    and each round asks sigma without a legality pass.  With
    `innocent_opponent` it also carries the O-innocence map of its
    Opponent moves (O-view -> move and pointer); a candidate whose
    O-view is mapped to another move is pruned, which is
    `is_o_innocent` one move at a time.  It also carries the O-views of
    its prefixes, each built once as a Play and shared with every play
    that extends it, and records them as a set at each complete play.
    """
    empty = Play(sigma.arena)
    # A tree walk: no play is reached twice.
    result = [empty]
    oview_sets = set()
    # (play, its prefixes' views, O-innocence map, its prefixes' O-views)
    stack = [(empty, (EMPTY_VIEWS,), {}, (empty,))]
    exceeded = 0
    while stack:
        s, views, omap, oviews = stack.pop()
        if len(s.moves) + 2 > b.max_play_len:
            continue
        ov = views[-1][1]
        okey = views[-1][3]
        for so in legal_extensions(s, ov if innocent_opponent and s.moves else (ROOT, *ov)):
            if innocent_opponent:
                o, j = so.last
                oval = (o, ROOT if j == ROOT else ov.index(j))
                if omap.get(okey, oval) != oval:
                    continue
            try:
                step = sigma._round(so, views)
            except BoundExceeded:
                exceeded += 1
                continue
            if step is not None:
                if len(result) == EXPLORE_BUDGET:
                    raise ExplorationIncomplete(len(result))
                result.append(step[0])
                seen = oviews
                if innocent_opponent:
                    seen += tuple(Play(s.arena, v[3]) for v in step[1][-2:])
                    if is_complete(step[0]):
                        oview_sets.add(frozenset(seen))
                stack.append((*step, {**omap, okey: oval} if innocent_opponent else omap, seen))
    return TraceResult(frozenset(result), exceeded, frozenset(oview_sets))


def traces(sigma: InnocentStrategy, b: Bounds) -> frozenset[Play]:
    """The even-length-prefix-closed trace set of sigma at the bounds,
    against every Opponent."""
    return explore(sigma, b).plays


def tabulate(sigma: InnocentStrategy, b: Bounds) -> list[tuple[Play, tuple[str, int]]]:
    """The reachable part of sigma's view function, canonically ordered.

    Walks sigma's P-views, no longer than the play bound, from the
    empty play.  A P-view of a play of sigma is itself a play of sigma
    and its own P-view: Opponent points at the move just before it, or
    at nothing in the empty view, and sigma's reply extends it to the
    next P-view.  So `legal_extensions` is handed that one justifier,
    and each view vo is asked once through `_reply` by its moves, whose
    pointer is already an index into vo.  A view whose reply hit an
    interaction bound is left out.
    """
    entries: dict[tuple, tuple[str, int]] = {}
    stack = [Play(sigma.arena)]
    while stack:
        v = stack.pop()
        if len(v.moves) + 2 > b.max_play_len:
            continue
        for vo in legal_extensions(v, (len(v.moves) - 1,) if v.moves else (ROOT,)):
            try:
                r = sigma._reply(vo.moves)
            except BoundExceeded:
                continue
            if r is not None:
                entries[vo.moves] = r
                stack.append(vo.extend(*r))
    out = [(Play(sigma.arena, k), e) for k, e in entries.items()]
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


def prefix_map(pairs: list[tuple[str, str]], moves) -> dict[str, str]:
    """Each of `moves` with its longest matching source prefix replaced
    by that prefix's target; a move no prefix matches is left out."""
    rules = sorted(pairs, key=lambda r: -len(r[0]))
    out = {}
    for m in moves:
        for src, dst in rules:
            if m.startswith(src):
                out[m] = dst + m[len(src):]
                break
    return out


def prefix_swap(pairs: list[tuple[str, str]], moves) -> dict[str, str]:
    """The involution on `moves` swapping each (left, right) prefix pair."""
    return prefix_map(pairs + [(y, x) for x, y in pairs], moves)


def copycat_echo(swap: dict[str, str], moves):
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


def mirror_strategy(arena: Arena, swap: dict[str, str], name: str) -> InnocentStrategy:
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
    ValueError.  P-views over `new_arena` are read back through the
    inverse table.
    """
    fwd = prefix_map(pairs, sigma.arena.moves)
    inv = {dst: src for src, dst in fwd.items()}
    if len(fwd) != len(sigma.arena.moves):
        raise ValueError("renaming leaves a move unmatched")
    if len(inv) != len(fwd):
        raise ValueError("renaming merges two moves")
    if inv.keys() != new_arena.moves:
        raise ValueError("renaming does not map onto the target arena")

    def play_fn(view: tuple):
        return _ask(sigma, inv, fwd, view)

    return InnocentStrategy(new_arena, name, play_fn=play_fn)


def pair_strategies(f: InnocentStrategy, g: InnocentStrategy) -> InnocentStrategy:
    """Tupling: from f : arrow(X, B) and g : arrow(X, C), the strategy
    on arrow(X, product(B, C)) that plays f inside threads rooted at a
    B-initial and g inside threads rooted at a C-initial.

    Every move of a P-view is hereditarily justified by its first,
    initial move, so the view lies inside one thread and is read back
    whole to that side's strategy.  Each side's move tables are built
    once, as in `rename_strategy`: X moves keep their tags, and the
    side's "R." moves gain "L." or "R." after the outer "R.".
    """
    x = f.arena.parts[0]
    if g.arena.parts[0] != x:
        raise ValueError("paired strategies disagree on the left arena")
    outer = arrow(x, product(f.arena.parts[1], g.arena.parts[1]))
    sides = []
    for strat, tag in ((f, "R.L."), (g, "R.R.")):
        out = prefix_map([("L.", "L."), ("R.", tag)], strat.arena.moves)
        sides.append((strat, {o: m for m, o in out.items()}, out))
    left, right = sides

    def play_fn(view: tuple):
        strat, into, back = left if view[0][0] in left[1] else right
        return _ask(strat, into, back, view)

    return InnocentStrategy(outer, f"<{f.name}, {g.name}>", play_fn=play_fn)


def _ask(inner: InnocentStrategy, into: dict[str, str], back: dict[str, str], view: tuple):
    """`inner`'s reply to `view` read through the move table `into`,
    with its move read back through `back`.  The translated view is its
    own P-view, so the inner pointer is already an index into `view`."""
    # through `respond`: the benchmark's tracer counts compose nodes there
    r = inner.respond(Play(inner.arena, tuple((into[m], p) for m, p in view)))
    return None if r is None else (back[r[0]], r[1])


def as_thunk(sigma: InnocentStrategy) -> InnocentStrategy:
    """View a strategy on A as a strategy on arrow(Empty, A)."""
    outer = arrow(make_empty(), sigma.arena)
    return rename_strategy(sigma, [("", "R.")], outer, f"thunk({sigma.name})")


def compose(sigma: InnocentStrategy, tau: InnocentStrategy, b: Bounds,
            name: str | None = None) -> InnocentStrategy:
    """Sequential composition of sigma : arrow(A, B) with tau : arrow(B, C).

    The composite answers a play over arrow(A, C) by replaying its
    P-view as the unique interaction over the three components: visible
    moves are laid down as given, and between them sigma and tau
    ping-pong in B until one of them surfaces.  The turn rule: sigma
    answers an outer move in A, tau one in C, and a move in B is
    answered by the side that did not play it.  The interaction, hidden
    moves included, may not grow past b.max_play_len.  A P-move of the
    view that the composite would not have played raises
    InconsistentPlay.

    Component bookkeeping: the interaction records the justifier of
    each occurrence, in A, B or C, and grows three projections of it
    with each move: sigma's (A, B), tau's (B, C) and the outer (A, C),
    which is the replayed play followed by the reply.  Each projection
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
    The composite's reply depends on its P-view alone; its node memoises it.
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

    def play_fn(view: tuple):
        u: list[int] = []   # the justifier of each occurrence
        # per projection: position -> u index, u index -> position (and
        # ROOT -> ROOT), and the entries its moves add
        proj = (([], {ROOT: ROOT}, [EMPTY_VIEWS]), ([], {ROOT: ROOT}, [EMPTY_VIEWS]),
                ([], {ROOT: ROOT}, []))
        outer_idx, _, outer_moves = proj[2]

        def append(comp: str, mv: str, up: int) -> None:
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

        def run_until_visible(side: int) -> bool:
            # True once a move surfaces in A or C, False on a refusal
            while True:
                idx, _, views = proj[side]
                r = strats[side]._answer(views[-1])
                if r is None:
                    return False
                m, pptr = r
                comp = comps[side][0 if m.startswith("L.") else 1]
                append(comp, m[2:], idx[pptr])
                if comp != "B":
                    return True
                side = 1 - side

        for k, (m, ptr) in enumerate(view):
            if k % 2 == 0:
                side = 1 if m.startswith("R.") else 0   # C is tau's, A sigma's
                append("AC"[side], m[2:], ROOT if ptr == ROOT else outer_idx[ptr])
            elif not run_until_visible(side):
                raise InconsistentPlay(f"{cname}: no response where the play has {m!r}")
            elif outer_moves[-1] != (m, ptr):
                raise InconsistentPlay(
                    f"{cname}: computed {outer_moves[-1][0]!r} where the play has {m!r}")
        return outer_moves[-1] if run_until_visible(side) else None

    return InnocentStrategy(outer, cname, play_fn=play_fn)
