"""Justified sequences, plays, and the two view functions.

A justified sequence is a list of move occurrences, each carrying a
pointer: either ROOT (the occurrence is unjustified, allowed only for
initial moves) or the index of an earlier occurrence whose move enables
this one.  A play is a justified sequence that is legal: it alternates
strictly starting with an Opponent move, every pointer is a genuine
justification, and visibility holds (a Proponent move points into the
P-view of the prefix before it, an Opponent move into the O-view).

Both views are computed by one backward recursion, parameterised by
the player whose view it is.  For the P-view: a Proponent move is kept
and the walk steps to the move before it; an unjustified Opponent move
ends the walk; a justified Opponent move is kept together with its
justifier, and the walk resumes just before that justifier.  The O-view
swaps the roles.  Initial moves are Opponent moves, so on a legal play
the O-view walk never meets an unjustified move of the other player and
can cross thread boundaries in multi-threaded plays; no extra
normalisation is applied.

Views are returned with their pointers re-indexed into the view itself.
On legal plays this never fails; views of non-visible sequences can be
ill-justified, which is why both view functions insist on legality.
"""
from __future__ import annotations

from dataclasses import dataclass

from .arena import Arena, MoveLabel

ROOT = -1


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

    def to_json(self, arena_ref: str = "inline") -> dict:
        """Serialize; `arena_ref` is "inline" for the full arena or "name"."""
        arena = self.arena.to_json() if arena_ref == "inline" else self.arena.name
        return {"arena": arena, "moves": [{"m": m, "ptr": p} for m, p in self.moves]}

    @classmethod
    def from_json(cls, doc: dict, arena: Arena | None = None,
                  registry: dict[str, Arena] | None = None) -> "Play":
        """Load a play; the document's "arena" key is read only when no
        `arena` is passed in."""
        if arena is None:
            ref = doc["arena"]
            if isinstance(ref, dict):
                arena = Arena.from_json(ref)
            elif registry is not None and ref in registry:
                arena = registry[ref]
            else:
                raise ValueError(f"cannot resolve arena reference {ref!r}")
        moves = tuple((m["m"], int(m["ptr"])) for m in doc["moves"])
        return cls(arena, moves)

    def __repr__(self) -> str:
        if not self.moves:
            return "Play[]"
        body = " ".join(
            m if p == ROOT else f"{m}<-{p}" for m, p in self.moves
        )
        return f"Play[{body}]"


def legality_violation(s: Play) -> str | None:
    """Return a description of the first legality failure, or None.

    Checks, in order per occurrence: known move, strict OP alternation
    starting with Opponent, pointer sanity (ROOT only on initial moves,
    otherwise an earlier enabling occurrence), and visibility.
    """
    arena = s.arena
    for i, (m, ptr) in enumerate(s.moves):
        if m not in arena.moves:
            return f"move {i}: unknown move {m!r}"
        lab = arena.label(m)
        want = "O" if i % 2 == 0 else "P"
        if lab.polarity != want:
            return f"move {i}: expected {want}-move, got {m!r}"
        if ptr == ROOT:
            if not arena.is_initial(m):
                return f"move {i}: unjustified non-initial move {m!r}"
        else:
            if not 0 <= ptr < i:
                return f"move {i}: pointer {ptr} out of range"
            if not arena.enables(s.moves[ptr][0], m):
                return f"move {i}: {s.moves[ptr][0]!r} does not enable {m!r}"
            if ptr not in _view_positions(arena, s.moves[:i], lab.polarity):
                return f"move {i}: justifier {ptr} not in the {lab.polarity}-view"
    return None


def is_legal(s: Play) -> bool:
    return legality_violation(s) is None


def _require_legal(s: Play) -> None:
    v = legality_violation(s)
    if v is not None:
        raise ValueError(f"illegal play: {v}")


def _view_positions(arena: Arena, moves, player: str) -> list[int]:
    """Positions of the `player`-view of `moves`, ascending.

    A move of `player` is kept and the walk steps to the move before
    it; a move of the other player is kept with its justifier and the
    walk resumes just before that justifier, or ends if it has none.
    """
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


def _extract(s: Play, positions: list[int]) -> Play:
    index = {p: k for k, p in enumerate(positions)}
    out = []
    for p in positions:
        m, ptr = s.moves[p]
        if ptr == ROOT:
            out.append((m, ROOT))
        elif ptr in index:
            out.append((m, index[ptr]))
        else:
            raise ValueError("view is ill-justified (justifier elided)")
    return Play(s.arena, tuple(out))


def pview_with_positions(s: Play) -> tuple[Play, list[int]]:
    """P-view together with the retained positions of `s` (ascending)."""
    _require_legal(s)
    positions = _view_positions(s.arena, s.moves, "P")
    return _extract(s, positions), positions


def pview(s: Play) -> Play:
    return pview_with_positions(s)[0]


def oview_with_positions(s: Play) -> tuple[Play, list[int]]:
    _require_legal(s)
    positions = _view_positions(s.arena, s.moves, "O")
    return _extract(s, positions), positions


def oview(s: Play) -> Play:
    return oview_with_positions(s)[0]


def prefixes(s: Play) -> list[Play]:
    """All prefixes of s, shortest first, including empty and s itself."""
    return [s.prefix(k) for k in range(len(s.moves) + 1)]


def is_single_threaded(s: Play) -> bool:
    """At most one unjustified occurrence (the empty play qualifies)."""
    return sum(1 for _, p in s.moves if p == ROOT) <= 1


def is_well_bracketed(s: Play) -> bool:
    """Every answer answers the most recently asked unanswered question."""
    stack: list[int] = []
    for i, (m, ptr) in enumerate(s.moves):
        if s.arena.label(m).is_question:
            stack.append(i)
        else:
            if not stack or stack[-1] != ptr:
                return False
            stack.pop()
    return True


def pending_questions(s: Play) -> list[int]:
    stack: list[int] = []
    for i, (m, ptr) in enumerate(s.moves):
        if s.arena.label(m).is_question:
            stack.append(i)
        elif stack and stack[-1] == ptr:
            stack.pop()
    return stack


def is_complete(s: Play) -> bool:
    """Nonempty, well-bracketed, and with no pending questions.

    The empty play is not complete: completion means an interrogation
    actually happened and every question in it was answered.
    """
    return len(s.moves) > 0 and is_well_bracketed(s) and not pending_questions(s)


def _innocence_map(s: Play, polarity: str):
    """Map view-of-prefix -> (move, justifier position within that view).

    Returns None as soon as two occurrences of the given polarity extend
    equal views differently; otherwise returns the map.
    """
    arena = s.arena
    start = 0 if polarity == "O" else 1
    seen: dict[tuple, tuple] = {}
    for i in range(start, len(s.moves), 2):
        m, ptr = s.moves[i]
        positions = _view_positions(arena, s.moves[:i], polarity)
        key = tuple(_extract(s.prefix(i), positions).moves)
        if ptr == ROOT:
            val = (m, ROOT)
        else:
            val = (m, positions.index(ptr))
        if key in seen and seen[key] != val:
            return None
        seen[key] = val
    return seen


def is_o_innocent(s: Play) -> bool:
    """Opponent extends equal O-views identically (pointer-inclusive)."""
    return _innocence_map(s, "O") is not None


def is_p_innocent(s: Play) -> bool:
    """Proponent extends equal P-views identically (pointer-inclusive)."""
    return _innocence_map(s, "P") is not None


def lift_to_test(s: Play, sigma_arena: Arena, test_arena: Arena) -> Play:
    """Embed a single-threaded play of A into (A => Sigma).

    The image starts with the Sigma question; every A-move is retagged
    "L." and shifted one place right, formerly unjustified moves now
    point at the opening question.
    """
    if not is_single_threaded(s):
        raise ValueError("only single-threaded plays lift to tests")
    _require_legal(s)
    moves = [("R.q", ROOT)]
    for m, ptr in s.moves:
        moves.append(("L." + m, 0 if ptr == ROOT else ptr + 1))
    return Play(test_arena, tuple(moves))


def enumerate_plays(arena: Arena, max_len: int, single_threaded: bool = False) -> list[Play]:
    """All legal plays of length at most max_len, breadth first."""
    out = [Play(arena)]
    frontier = [Play(arena)]
    while frontier:
        nxt = []
        for s in frontier:
            if len(s.moves) >= max_len:
                continue
            for cand in legal_extensions(s, single_threaded=single_threaded):
                out.append(cand)
                nxt.append(cand)
        frontier = nxt
    return out


def legal_extensions(s: Play, single_threaded: bool = False) -> list[Play]:
    """All one-move legal extensions of a legal play."""
    arena = s.arena
    want = "O" if len(s.moves) % 2 == 0 else "P"
    cands = []
    for m in sorted(arena.moves):
        if arena.label(m).polarity != want:
            continue
        if arena.is_initial(m) and not (single_threaded and len(s.moves) > 0):
            cands.append(s.extend(m, ROOT))
        for j in range(len(s.moves)):
            if arena.enables(s.moves[j][0], m):
                cands.append(s.extend(m, j))
    return [c for c in cands if is_legal(c)]
