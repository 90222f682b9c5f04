"""Independent reference implementations the engine is checked against.

Everything here is written from the defining recursions, as directly
and naively as possible, sharing no code with the package internals:
views by structural recursion on the sequence and by a backward walk,
legality and innocence with every prefix's view recomputed,
bracketing by searching for each answer's question afresh, one-move
extensions by generating candidates and checking each, plays by
growing those extensions breadth first, O-views by
keeping the one-move extensions that are their own O-view, candidate
test sets by one eager recursion over those O-views and one sort,
the test-based order by running each of those sets as a test,
composition by enumerating raw interaction sequences and
projecting, renamings and pairings as leaves that rewrite each move by
its prefix and ask the inner node through `respond`.
"""
from __future__ import annotations

from gamesem.arena import Arena, arrow, product
from gamesem.bounds import Bounds
from gamesem.equiv import LeqReport
from gamesem.observation import ODetSet, TestVerdict, run_test
from gamesem.plays import ROOT, Play
from gamesem.strategy import InnocentStrategy, explore


# ------------------------------------------------------- view recursions

def pview_positions(arena: Arena, moves) -> list[int]:
    """Positions kept by the Proponent view, by the textbook recursion:
    a P move is kept and the recursion continues on the rest; an
    unjustified O move ends the view; a justified O move is kept and
    the recursion resumes at its justifier."""
    if not moves:
        return []
    i = len(moves) - 1
    m, ptr = moves[i]
    if arena.label(m).polarity == "P":
        return pview_positions(arena, moves[:i]) + [i]
    if ptr == ROOT:
        return [i]
    return pview_positions(arena, moves[:ptr + 1]) + [i]


def oview_positions(arena: Arena, moves) -> list[int]:
    """Dual recursion: every O move is kept and the recursion continues;
    a P move is kept and the recursion resumes at its justifier.  There
    is no initial-move case because initial moves belong to Opponent."""
    if not moves:
        return []
    i = len(moves) - 1
    m, ptr = moves[i]
    if arena.label(m).polarity == "O":
        return oview_positions(arena, moves[:i]) + [i]
    return oview_positions(arena, moves[:ptr + 1]) + [i]


def is_single_threaded(s: Play) -> bool:
    """At most one unjustified occurrence (the empty play qualifies)."""
    return sum(1 for _, p in s.moves if p == ROOT) <= 1


def prefixes(s: Play) -> list[Play]:
    """All prefixes of s, shortest first, including empty and s itself."""
    return [s.prefix(k) for k in range(len(s.moves) + 1)]


def reindex(s: Play, positions: list[int]) -> Play:
    """Extract the subsequence at `positions`, remapping justifiers."""
    where = {p: k for k, p in enumerate(positions)}
    out = []
    for p in positions:
        m, ptr = s.moves[p]
        out.append((m, ROOT if ptr == ROOT else where[ptr]))
    return Play(s.arena, tuple(out))


def ref_pview(s: Play) -> Play:
    return reindex(s, pview_positions(s.arena, s.moves))


def ref_oview(s: Play) -> Play:
    return reindex(s, oview_positions(s.arena, s.moves))


def walk_view_positions(arena: Arena, moves, player: str) -> list[int]:
    """Positions of the `player`-view of `moves` by a backward walk: a
    move of `player` is kept and the walk steps to the move before it;
    a move of the other player is kept with its justifier and the walk
    resumes just before that justifier, or ends if it has none."""
    pos = []
    i = len(moves) - 1
    while i >= 0:
        m, ptr = moves[i]
        pos.append(i)
        if arena.label(m).polarity == player:
            i -= 1
        elif ptr == ROOT:
            break
        else:
            pos.append(ptr)
            i = ptr - 1
    pos.reverse()
    return pos


# ------------------------------------------------ legality, checked afresh

def ref_is_legal(s: Play) -> bool:
    """Legality with every prefix's view recomputed by the backward walk."""
    arena = s.arena
    for i, (m, ptr) in enumerate(s.moves):
        if m not in arena.moves:
            return False
        player = arena.label(m).polarity
        if player != ("O" if i % 2 == 0 else "P"):
            return False
        if ptr == ROOT:
            if m not in arena.initials:
                return False
        elif not (0 <= ptr < i and (s.moves[ptr][0], m) in arena.enabling
                  and ptr in walk_view_positions(arena, s.moves[:i], player)):
            return False
    return True


def ref_is_o_innocent(s: Play) -> bool:
    """Opponent extends equal O-views identically: each Opponent move,
    keyed by the O-view before it (by the recursion) and read with its
    pointer into that view, agrees with every earlier one."""
    seen = {}
    for i in range(0, len(s.moves), 2):
        positions = oview_positions(s.arena, s.moves[:i])
        m, ptr = s.moves[i]
        reply = (m, ROOT if ptr == ROOT else positions.index(ptr))
        if seen.setdefault(reindex(s, positions).moves, reply) != reply:
            return False
    return True


def ref_is_p_innocent(s: Play) -> bool:
    """Proponent extends equal P-views identically: each Proponent move,
    keyed by the P-view before it (by the recursion) and read with its
    pointer into that view, agrees with every earlier one."""
    seen = {}
    for i in range(1, len(s.moves), 2):
        positions = pview_positions(s.arena, s.moves[:i])
        m, ptr = s.moves[i]
        reply = (m, ROOT if ptr == ROOT else positions.index(ptr))
        if seen.setdefault(reindex(s, positions).moves, reply) != reply:
            return False
    return True


# ------------------------------------------------------------- bracketing

def ref_pending_questions(s: Play) -> tuple[int, ...] | None:
    """The questions of s that no answer points at, or None if s is not
    well-bracketed: each answer must point at the latest question before
    it that is still unanswered."""
    asked = [i for i, (m, _) in enumerate(s.moves) if s.arena.label(m).is_question]
    answered = set()
    for i, (m, ptr) in enumerate(s.moves):
        if i in asked:
            continue
        unanswered = [q for q in asked if q < i and q not in answered]
        if not unanswered or ptr != unanswered[-1]:
            return None
        answered.add(ptr)
    return tuple(q for q in asked if q not in answered)


def ref_legal_extensions(s: Play, single_threaded: bool = False) -> list[Play]:
    """Generate then check: every extension by a move of the player due,
    unjustified if initial and then from each earlier enabler in order,
    kept when `ref_is_legal` accepts it."""
    arena = s.arena
    due = "O" if len(s.moves) % 2 == 0 else "P"
    cands = []
    for m in sorted(arena.moves):
        if arena.label(m).polarity != due:
            continue
        if m in arena.initials and not (single_threaded and s.moves):
            cands.append(s.extend(m, ROOT))
        cands.extend(s.extend(m, j) for j, (mj, _) in enumerate(s.moves)
                     if (mj, m) in arena.enabling)
    return [c for c in cands if ref_is_legal(c)]


def ref_enumerate_plays(arena: Arena, max_len: int,
                        single_threaded: bool = False) -> list[Play]:
    """Every legal play of length at most max_len, breadth first: each
    length is the `ref_legal_extensions` of the one before, in order."""
    out = [Play(arena)]
    frontier = out[:]
    for _ in range(max_len):
        frontier = [c for s in frontier for c in ref_legal_extensions(s, single_threaded)]
        out += frontier
    return out


# ------------------------------------------------- candidate test sets

def ref_enumerate_oviews(arena: Arena, max_view_len: int) -> list[Play]:
    """Every well-bracketed single-threaded play up to the cap that is
    its own O-view, sorted by (length, moves).  Plays grow by
    `ref_legal_extensions`; a prefix of an O-view is an O-view and a
    prefix of a well-bracketed play is well-bracketed, so every other
    extension is dropped at once."""
    out = []
    frontier = [Play(arena, ())]
    while frontier:
        v = frontier.pop()
        out.append(v)
        if len(v.moves) < max_view_len:
            frontier.extend(c for c in ref_legal_extensions(v, single_threaded=True)
                            if ref_oview(c) == c and ref_pending_questions(c) is not None)
    return sorted(out, key=lambda v: (len(v.moves), v.moves))


def ref_closed_odet_sets(arena: Arena, max_view_len: int) -> list[frozenset[Play]]:
    """Every prefix-closed O-deterministic view set, built eagerly by
    recursion on the view tree and sorted once: by total moves, then
    number of views, then the views sorted by (length, moves).  The
    capped O-views come from `ref_enumerate_oviews`."""
    views = ref_enumerate_oviews(arena, max_view_len)
    children: dict[tuple, list[Play]] = {}
    for v in views:
        if v.moves:
            children.setdefault(v.moves[:-1], []).append(v)

    def rec(v: Play) -> list[frozenset[Play]]:
        kids = children.get(v.moves, [])
        if len(v.moves) % 2 == 0:
            # Opponent extends: at most one continuation may be present.
            opts = [frozenset({v})]
            for c in kids:
                opts.extend(frozenset({v}) | s for s in rec(c))
            return opts
        # Proponent extends: continuations are independent choices.
        combos = [frozenset({v})]
        for c in kids:
            subs = rec(c)
            combos = [base | extra
                      for base in combos
                      for extra in ([frozenset()] + subs)]
        return combos

    def key(vs):
        ordered = sorted((len(v.moves), v.moves) for v in vs)
        return (sum(n for n, _ in ordered), len(ordered), tuple(ordered))

    sets = [frozenset()] + rec(Play(arena, ()))
    sets.sort(key=key)
    return sets


def ref_count_closed_odet_sets(arena: Arena, max_view_len: int) -> int:
    """How many sets `ref_closed_odet_sets` builds, without building
    them: by the same recursion, a view of even length roots itself
    alone or with one child's sets, one of odd length itself with each
    child's sets left out or taken once; the empty set comes on top."""
    views = ref_enumerate_oviews(arena, max_view_len)
    children: dict[tuple, list[Play]] = {}
    for v in views:
        if v.moves:
            children.setdefault(v.moves[:-1], []).append(v)

    def rec(v: Play) -> int:
        kids = [rec(c) for c in children.get(v.moves, [])]
        if len(v.moves) % 2 == 0:
            return 1 + sum(kids)
        n = 1
        for k in kids:
            n *= 1 + k
        return n

    return 1 + rec(Play(arena, ()))


def ref_leq(s1: InnocentStrategy, s2: InnocentStrategy, b: Bounds) -> LeqReport:
    """The test-based order by brute force: run every candidate set of
    `ref_closed_odet_sets`, smallest first, as a test against both sides,
    and fail on the first where s1 converges and s2 does not.  Runs where
    either side exceeds the interaction budget are counted and excluded.
    `tested` counts the candidates run.  Each run is the public
    `run_test`, so this checks the quantifier of `brute_force_leq`, not
    the play; test_observation checks the play against the composite."""
    if s1.arena != s2.arena:
        raise ValueError("strategies live on different arenas")
    tested = 0
    exceeded = 0
    for vs in ref_closed_odet_sets(s1.arena, b.max_view_len):
        s = ODetSet(s1.arena, frozenset(v.moves for v in vs))
        v1 = run_test(s1, s, b)
        v2 = run_test(s2, s, b)
        tested += 1
        if TestVerdict.BOUND_EXCEEDED in (v1, v2):
            exceeded += 1
            continue
        if v1 is TestVerdict.TOP and v2 is not TestVerdict.TOP:
            return LeqReport(False, b, s, tested, exceeded)
    return LeqReport(True, b, None, tested, exceeded)


# --------------------------------------------- composition by interleaving

def _prefix_set(plays) -> set:
    out = set()
    for p in plays:
        for k in range(len(p.moves) + 1):
            out.add(p.moves[:k])
    return out


def ref_compose_traces(sigma: InnocentStrategy, tau: InnocentStrategy,
                       wide: Bounds, visible_len: int) -> frozenset[Play]:
    """Composite trace set by brute force.

    Enumerates every interaction sequence u over the three components
    (left input, shared middle, right output) whose two projections are
    prefixes of the factor strategies' traces, and keeps the outer
    projection (clipped to `visible_len`) of those u where both factors
    sit at even length.  `wide` caps the raw interaction and the factor
    trace exploration; pick it large enough that nothing is clipped,
    or the comparison is not apples-to-apples.
    Middle-component initials project to unjustified moves on the left
    factor; left-component initials find their outer justifier through
    the middle initial they point at.
    """
    a, mid = sigma.arena.parts
    _, c = tau.arena.parts
    comp_arena = arrow(a, c)
    cap = wide.max_play_len

    t_sigma = explore(sigma, wide).plays
    t_tau = explore(tau, wide).plays
    pre_sigma = _prefix_set(t_sigma)
    pre_tau = _prefix_set(t_tau)
    full_sigma = {p.moves for p in t_sigma}
    full_tau = {p.moves for p in t_tau}

    def proj(u, comps, tags, init_root):
        """Project u to the components in `comps`, tagging moves and
        remapping pointers; initials of `init_root` become unjustified."""
        keep = [i for i, (comp, _, _) in enumerate(u) if comp in comps]
        where = {p: k for k, p in enumerate(keep)}
        out = []
        for i in keep:
            comp, m, up = u[i]
            if comp == init_root[0] and m in init_root[1]:
                out.append((tags[comp] + m, ROOT))
            elif up in where:
                out.append((tags[comp] + m, where[up]))
            else:
                return None
        return tuple(out)

    def proj_sigma(u):
        return proj(u, ("A", "B"), {"A": "L.", "B": "R."}, ("B", mid.initials))

    def proj_tau(u):
        return proj(u, ("B", "C"), {"B": "L.", "C": "R."}, ("C", c.initials))

    def proj_outer(u):
        keep = [i for i, (comp, _, _) in enumerate(u) if comp in ("A", "C")]
        where = {p: k for k, p in enumerate(keep)}
        out = []
        for i in keep:
            comp, m, up = u[i]
            tag = "L." if comp == "A" else "R."
            if comp == "C" and m in c.initials:
                out.append((tag + m, ROOT))
            elif comp == "A" and m in a.initials:
                # climb: the middle initial this points at, then its own
                # justifier over on the right
                _, _, up2 = u[up]
                out.append((tag + m, where[up2]))
            else:
                out.append((tag + m, where[up]))
        return tuple(out)

    component_moves = [("A", m) for m in sorted(a.moves)] + \
                      [("B", m) for m in sorted(mid.moves)] + \
                      [("C", m) for m in sorted(c.moves)]

    results = {Play(comp_arena, ())}
    frontier = [()]
    seen = {()}
    while frontier:
        u = frontier.pop()
        if len(u) >= cap:
            continue
        for comp, m in component_moves:
            ptrs = [ROOT] if (comp == "C" and m in c.initials) \
                else range(len(u))
            for up in ptrs:
                u2 = u + ((comp, m, up),)
                ps = proj_sigma(u2)
                if ps is None or ps not in pre_sigma:
                    continue
                pt = proj_tau(u2)
                if pt is None or pt not in pre_tau:
                    continue
                # all three projections must be legal: without this the
                # environment could move out of turn (e.g. open a new
                # thread while a factor is due to respond)
                out = proj_outer(u2)
                if not ref_is_legal(Play(comp_arena, out)):
                    continue
                if u2 in seen:
                    continue
                seen.add(u2)
                frontier.append(u2)
                if ps in full_sigma and pt in full_tau and len(out) <= visible_len:
                    results.add(Play(comp_arena, out))
    return frozenset(results)


# ------------------------------------------ renamings and pairings, unfused

def _rewrite(rules, m: str) -> str:
    """m with its longest matching source prefix replaced by the target."""
    for src, dst in sorted(rules, key=lambda r: -len(r[0])):
        if m.startswith(src):
            return dst + m[len(src):]
    raise ValueError(f"no prefix of {m!r} is renamed")


def ref_rename(sigma: InnocentStrategy, pairs, new_arena: Arena, name: str) -> InnocentStrategy:
    """`rename_strategy` by its definition, as a view-function leaf: each
    move of the view is rewritten back by the pairs read right to left,
    sigma answers the rewritten view through `respond`, and its move is
    rewritten forward.  The view is its own P-view, so the pointer
    stands."""
    back = [(dst, src) for src, dst in pairs]

    def view_fn(view):
        r = sigma.respond(Play(sigma.arena, tuple((_rewrite(back, m), p) for m, p in view)))
        return None if r is None else (_rewrite(pairs, r[0]), r[1])

    return InnocentStrategy(new_arena, name, view_fn=view_fn)


def ref_pair(f: InnocentStrategy, g: InnocentStrategy) -> InnocentStrategy:
    """`pair_strategies` by its definition, as a view-function leaf: a
    view opened under R.L. is f's and one opened under R.R. is g's; the
    side's tag is cut from the view's result moves, the side answers
    through `respond`, and its result move gets the tag back."""
    outer = arrow(f.arena.parts[0], product(f.arena.parts[1], g.arena.parts[1]))

    def view_fn(view):
        tag = view[0][0][:4]
        side = f if tag == "R.L." else g
        down = tuple(("R." + m[4:] if m.startswith(tag) else m, p) for m, p in view)
        r = side.respond(Play(side.arena, down))
        if r is None:
            return None
        m, j = r
        return (tag + m[2:] if m.startswith("R.") else m), j

    return InnocentStrategy(outer, f"<{f.name}, {g.name}>", view_fn=view_fn)
