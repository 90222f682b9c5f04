"""Arenas: the move vocabularies on which games are played.

An arena is a finite set of moves, each labelled as an Opponent or
Proponent question or answer, together with an enabling relation saying
which moves may justify which, and a set of initial moves (those enabled
by nothing, conventionally written as enabled by the root).

Compound arenas are built with `product` and `arrow`.  Nesting tags every
move with a component path, so the left argument's question in
((N x N) => N) is the move id "L.L.q".  The `arrow` construction flips
the polarity of left-component moves and hangs the left component's
initial moves under the right component's initial moves.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Iterable


class MoveLabel(Enum):
    """Move polarity (Opponent/Proponent) fused with kind (question/answer)."""

    OQ = "OQ"
    OA = "OA"
    PQ = "PQ"
    PA = "PA"

    @property
    def polarity(self) -> str:
        return self.value[0]

    @property
    def is_question(self) -> bool:
        return self.value[1] == "Q"

    def flip(self) -> "MoveLabel":
        other = {"O": "P", "P": "O"}[self.value[0]]
        return MoveLabel(other + self.value[1])


@dataclass(frozen=True)
class Arena:
    """Immutable arena value.

    Equality and hashing are structural: two arenas are equal when they
    have the same labelled moves, the same enabling pairs and the same
    initial moves, however they were built.  `name`, `kind` and `parts`
    are construction metadata (`parts` lets `compose` split an arrow
    arena back into its operands).
    """

    labels: tuple[tuple[str, MoveLabel], ...]
    enabling: tuple[tuple[str, str], ...]
    initials: frozenset[str]
    name: str = field(default="arena", compare=False)
    kind: str = field(default="custom", compare=False)
    parts: tuple["Arena", ...] = field(default=(), compare=False, repr=False)

    @cached_property
    def _hash(self) -> int:
        return hash((self.labels, self.enabling, self.initials))

    def __hash__(self) -> int:
        # The structural hash, computed once: every hash(Play) asks for it.
        return self._hash

    def __getstate__(self) -> dict:
        # String hashes differ between processes; never ship a cached one.
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    @cached_property
    def label_of(self) -> dict[str, MoveLabel]:
        return dict(self.labels)

    @cached_property
    def polarity(self) -> dict[str, str]:
        return {m: lab.polarity for m, lab in self.labels}

    @cached_property
    def moves(self) -> frozenset[str]:
        return frozenset(m for m, _ in self.labels)

    @cached_property
    def enabling_pairs(self) -> frozenset[tuple[str, str]]:
        return frozenset(self.enabling)

    @cached_property
    def enabled_from(self) -> dict[str, tuple[str, ...]]:
        out: dict[str, list[str]] = {m: [] for m in self.moves}
        for a, b in self.enabling:
            out[a].append(b)
        return {m: tuple(sorted(v)) for m, v in out.items()}

    def label(self, move: str) -> MoveLabel:
        return self.label_of[move]

    def enables(self, enabler: str, enabled: str) -> bool:
        return (enabler, enabled) in self.enabling_pairs

    def is_initial(self, move: str) -> bool:
        return move in self.initials

    def validate(self) -> None:
        """Check the arena invariants, raising ValueError on violation."""
        ids = [m for m, _ in self.labels]
        if len(ids) != len(set(ids)):
            raise ValueError("duplicate move ids")
        for m in self.initials:
            if m not in self.moves:
                raise ValueError(f"initial move {m!r} not in arena")
            if self.label(m) is not MoveLabel.OQ:
                raise ValueError(f"initial move {m!r} is not an Opponent question")
        for a, b in self.enabling:
            if a not in self.moves or b not in self.moves:
                raise ValueError(f"enabling pair ({a!r}, {b!r}) mentions unknown move")
            if self.label(a).polarity == self.label(b).polarity:
                raise ValueError(f"enabling pair ({a!r}, {b!r}) does not alternate polarity")
            if not self.label(a).is_question:
                raise ValueError(f"answers enable nothing, but {a!r} enables {b!r}")
        enabled = {b for _, b in self.enabling}
        for m in self.moves:
            if m not in self.initials and m not in enabled:
                raise ValueError(f"non-initial move {m!r} has no enabler")

    def to_json(self) -> dict:
        return {
            "moves": [{"id": m, "label": lab.value} for m, lab in sorted(self.labels)],
            "enabling": [[a, b] for a, b in sorted(self.enabling)],
            "initials": sorted(self.initials),
        }

    @classmethod
    def from_json(cls, doc: dict, name: str = "loaded") -> "Arena":
        labels = tuple(
            sorted((m["id"], MoveLabel(m["label"])) for m in doc["moves"])
        )
        enabling = tuple(sorted((a, b) for a, b in doc["enabling"]))
        arena = cls(labels, enabling, frozenset(doc["initials"]), name=name, kind="loaded")
        arena.validate()
        return arena

    def __repr__(self) -> str:
        return f"Arena({self.name})"


def _tag(prefix: str, move: str) -> str:
    return prefix + move


def _retag(labels: Iterable[tuple[str, MoveLabel]], prefix: str, flip: bool):
    for m, lab in labels:
        yield _tag(prefix, m), (lab.flip() if flip else lab)


def make_empty() -> Arena:
    """The arena with no moves; unit for `product`."""
    return Arena((), (), frozenset(), name="Empty", kind="empty")


def make_nat_arena(max_nat: int) -> Arena:
    """Flat natural-number arena: one question, answers 0 .. max_nat."""
    if max_nat < 0:
        raise ValueError("max_nat must be >= 0")
    labels = [("q", MoveLabel.OQ)]
    enabling = []
    for k in range(max_nat + 1):
        labels.append((str(k), MoveLabel.PA))
        enabling.append(("q", str(k)))
    return Arena(
        tuple(sorted(labels)),
        tuple(sorted(enabling)),
        frozenset({"q"}),
        name=f"N{max_nat}",
        kind="nat",
    )


def make_sigma() -> Arena:
    """The one-question one-answer observation arena."""
    return Arena(
        (("a", MoveLabel.PA), ("q", MoveLabel.OQ)),
        (("q", "a"),),
        frozenset({"q"}),
        name="Sigma",
        kind="sigma",
    )


def product(a: Arena, b: Arena) -> Arena:
    """Side-by-side juxtaposition. Components keep their polarity."""
    labels = tuple(sorted(
        list(_retag(a.labels, "L.", flip=False)) + list(_retag(b.labels, "R.", flip=False))
    ))
    enabling = [( _tag("L.", x), _tag("L.", y)) for x, y in a.enabling]
    enabling += [(_tag("R.", x), _tag("R.", y)) for x, y in b.enabling]
    initials = frozenset({_tag("L.", m) for m in a.initials} | {_tag("R.", m) for m in b.initials})
    return Arena(
        labels,
        tuple(sorted(enabling)),
        initials,
        name=f"({a.name} x {b.name})",
        kind="product",
        parts=(a, b),
    )


def arrow(a: Arena, b: Arena) -> Arena:
    """Function-space arena.

    Left-component moves flip polarity.  Initial moves of the left
    component lose their initial status and become enabled by every
    initial move of the right component.
    """
    labels = tuple(sorted(
        list(_retag(a.labels, "L.", flip=True)) + list(_retag(b.labels, "R.", flip=False))
    ))
    enabling = [(_tag("L.", x), _tag("L.", y)) for x, y in a.enabling]
    enabling += [(_tag("R.", x), _tag("R.", y)) for x, y in b.enabling]
    for bi in b.initials:
        for ai in a.initials:
            enabling.append((_tag("R.", bi), _tag("L.", ai)))
    initials = frozenset(_tag("R.", m) for m in b.initials)
    return Arena(
        labels,
        tuple(sorted(enabling)),
        initials,
        name=f"({a.name} => {b.name})",
        kind="arrow",
        parts=(a, b),
    )


def rename_arena(arena: Arena, rename, name: str, kind: str = "renamed") -> Arena:
    """Arena with every move id passed through `rename` (a bijection)."""
    labels = tuple(sorted(((rename(m), lab) for m, lab in arena.labels),
                          key=lambda x: x[0]))
    enabling = tuple(sorted((rename(a), rename(b)) for a, b in arena.enabling))
    initials = frozenset(rename(m) for m in arena.initials)
    out = Arena(labels, enabling, initials, name=name, kind=kind)
    if len(out.moves) != len(arena.moves):
        raise ValueError("rename is not injective on moves")
    return out
