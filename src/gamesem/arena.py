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

An arena is immutable, so the constructors share them: `arrow`,
`product` and `make_nat_arena` return one arena for each value and
name of what they are built from, and `make_empty` and `make_sigma`
one arena each.  An arrow over an arena `Arena.from_json` read, named
"loaded", is another arena from the arrow over the equal built one,
and keeps its own name.  The move tables of `strategy`'s renamings,
pairings and mirrors are shared the same way and are read only.  What
is not shared is a strategy node and its memo of replies: each
denotation builds its own.

`json_check` is the shape check of the JSON door: the readers of
arenas, plays and view-sets run it on each part before they read it,
so bad input is named by its path in the document.  `_Record` is the
base of the package's value classes.
"""
from __future__ import annotations

from enum import Enum
from functools import cached_property


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
        return _FLIPPED[self._name_]


_FLIPPED = {"OQ": MoveLabel.PQ, "OA": MoveLabel.PA, "PQ": MoveLabel.OQ, "PA": MoveLabel.OA}


# The names of the JSON types, for `json_check`'s messages.
_JSON_NAMES = {type(None): "null", bool: "a boolean", int: "an integer", float: "a number",
               str: "a string", list: "an array", dict: "an object"}


def _expected(shape) -> tuple[type, str]:
    """The type a part of `shape` has, and how a message names it."""
    if isinstance(shape, frozenset):
        return str, "one of " + ", ".join(sorted(shape))
    if isinstance(shape, tuple):
        return list, f"an array of {len(shape)}"
    kind = dict if isinstance(shape, dict) else list if isinstance(shape, list) else shape
    return kind, _JSON_NAMES[kind]


def json_check(value, shape, path: str = "") -> None:
    """Check `value`, the part of a JSON document at `path` ("" for the
    whole document), against `shape`: a type, which the value must have
    (a bool is no int); a dict of shapes, an object with those keys; a
    list [shape], an array of such parts; a tuple of shapes, an array of
    exactly those; a frozenset of strings, one of them.  ValueError
    names the first part that does not fit, by its path, and what was
    expected there."""
    kind, want = _expected(shape)
    if type(value) is not kind or (
            value not in shape if isinstance(shape, frozenset)
            else isinstance(shape, tuple) and len(value) != len(shape)):
        if type(value) is str and len(value) <= 40:
            got = repr(value)
        elif type(value) is list:
            got = f"an array of {len(value)}"
        else:
            got = _JSON_NAMES.get(type(value), "another type")
        raise ValueError(f"{path or 'document'}: expected {want}, got {got}")
    if isinstance(shape, dict):
        for key, part in shape.items():
            at = f"{path}.{key}" if path else key
            if key not in value:
                raise ValueError(f"{at}: expected {_expected(part)[1]}, got nothing")
            json_check(value[key], part, at)
    elif isinstance(shape, (list, tuple)):
        for k, v in enumerate(value):
            json_check(v, shape[0] if isinstance(shape, list) else shape[k], f"{path}[{k}]")


class _Record:
    """An immutable value with named fields, written out rather than made
    by `dataclasses`, whose import and per-class code generation cost a
    fresh process more than a small command does.  A subclass's
    `__init__` stores its fields through `__dict__`, in the order `repr`
    shows them (a field whose name starts with "_" is not shown), and
    its `_key` gives the fields equality reads, by default all of them.
    Two values are equal when they are of the same class and their keys
    are equal; equal values hash alike.  Assigning or deleting an
    attribute raises AttributeError."""

    def _key(self) -> tuple:
        return tuple(vars(self).values())

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in vars(self).items() if k[0] != "_")
        return f"{type(self).__qualname__}({fields})"


_ARENA_SHAPE = {"moves": [{"id": str, "label": frozenset(lab.value for lab in MoveLabel)}],
                "enabling": [(str, str)], "initials": [str]}


class Arena(_Record):
    """Immutable arena value.

    Equality and hashing are structural: two arenas are equal when they
    have the same labelled moves, the same enabling pairs and the same
    initial moves, however they were built.  `name`, `kind` and `parts`
    are construction metadata (`parts` lets `compose` split an arrow
    arena back into its operands).
    """

    def __init__(self, labels: tuple[tuple[str, MoveLabel], ...],
                 enabling: tuple[tuple[str, str], ...], initials: frozenset[str],
                 name: str = "arena", kind: str = "custom", parts: tuple[Arena, ...] = ()):
        self.__dict__.update(labels=labels, enabling=enabling, initials=initials,
                             name=name, kind=kind, parts=parts)

    def _key(self) -> tuple:
        return self.labels, self.enabling, self.initials

    @cached_property
    def _hash(self) -> int:
        return hash(self._key())

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
    def questions(self) -> frozenset[str]:
        return frozenset(m for m, lab in self.labels if lab.is_question)

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

    def validate(self) -> None:
        """Check the arena invariants, raising ValueError on violation.
        An initial move is enabled by the root alone (Hyland & Ong
        2000, axiom (e1)), so no move enables one."""
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
            if b in self.initials:
                raise ValueError(f"initial move {b!r} is enabled by {a!r}")
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
    def from_json(cls, doc: dict, path: str = "arena") -> "Arena":
        """The arena `doc` describes, found at `path` in its document;
        ValueError if it is not of the shape `to_json` writes or the
        arena it describes is not valid."""
        json_check(doc, _ARENA_SHAPE, path)
        # Sorted by id alone: labels do not order, and a duplicate id
        # is for `validate` to report.
        labels = tuple(sorted(((m["id"], MoveLabel(m["label"])) for m in doc["moves"]),
                              key=lambda ml: ml[0]))
        enabling = tuple(sorted((a, b) for a, b in doc["enabling"]))
        arena = cls(labels, enabling, frozenset(doc["initials"]), name="loaded", kind="loaded")
        arena.validate()
        return arena

    def __repr__(self) -> str:
        return f"Arena({self.name})"


# The arenas `make_nat_arena`, `product` and `arrow` have built, by
# what they were built from: the operands' values, names and kinds, so
# an arrow over an arena `Arena.from_json` read keeps its own name.
# Each is built once and shared; an arena is immutable.
_BUILT: dict[tuple, Arena] = {}


def _shared(key: tuple, build, *args) -> Arena:
    """The arena built for `key`, by `build(*args)` the first time."""
    arena = _BUILT.get(key)
    if arena is None:
        arena = _BUILT[key] = build(*args)
    return arena


_EMPTY = Arena((), (), frozenset(), name="Empty", kind="empty")
_SIGMA = Arena((("a", MoveLabel.PA), ("q", MoveLabel.OQ)), (("q", "a"),), frozenset({"q"}),
               name="Sigma", kind="sigma")


def make_empty() -> Arena:
    """The arena with no moves; unit for `product`."""
    return _EMPTY


def make_nat_arena(max_nat: int) -> Arena:
    """Flat natural-number arena: one question, answers 0 .. max_nat."""
    if max_nat < 0:
        raise ValueError("max_nat must be >= 0")
    name = f"N{max_nat}"
    return _shared(("nat", name), _nat, max_nat, name)


def _nat(max_nat: int, name: str) -> Arena:
    labels = [("q", MoveLabel.OQ)]
    enabling = []
    for k in range(max_nat + 1):
        labels.append((str(k), MoveLabel.PA))
        enabling.append(("q", str(k)))
    return Arena(tuple(sorted(labels)), tuple(sorted(enabling)), frozenset({"q"}),
                 name=name, kind="nat")


def make_sigma() -> Arena:
    """The one-question one-answer observation arena."""
    return _SIGMA


def _compound(build, a: Arena, b: Arena) -> Arena:
    """The shared arena `build(a, b)` makes."""
    return _shared((build, a, a.name, a.kind, b, b.name, b.kind), build, a, b)


def _juxtapose(a: Arena, b: Arena, flip_left: bool):
    """The labels and enabling pairs of `a` tagged "L." beside those of
    `b` tagged "R.", with the left side's polarity flipped if asked."""
    labels = [("L." + m, lab.flip() if flip_left else lab) for m, lab in a.labels]
    labels += [("R." + m, lab) for m, lab in b.labels]
    enabling = [("L." + x, "L." + y) for x, y in a.enabling]
    enabling += [("R." + x, "R." + y) for x, y in b.enabling]
    return labels, enabling


def product(a: Arena, b: Arena) -> Arena:
    """Side-by-side juxtaposition. Components keep their polarity."""
    return _compound(_product, a, b)


def _product(a: Arena, b: Arena) -> Arena:
    labels, enabling = _juxtapose(a, b, flip_left=False)
    initials = frozenset(["L." + m for m in a.initials] + ["R." + m for m in b.initials])
    return Arena(tuple(sorted(labels)), tuple(sorted(enabling)), initials,
                 name=f"({a.name} x {b.name})", kind="product", parts=(a, b))


def arrow(a: Arena, b: Arena) -> Arena:
    """Function-space arena.

    Left-component moves flip polarity.  Initial moves of the left
    component lose their initial status and become enabled by every
    initial move of the right component.
    """
    return _compound(_arrow, a, b)


def _arrow(a: Arena, b: Arena) -> Arena:
    labels, enabling = _juxtapose(a, b, flip_left=True)
    enabling += [("R." + bi, "L." + ai) for bi in b.initials for ai in a.initials]
    initials = frozenset("R." + m for m in b.initials)
    return Arena(tuple(sorted(labels)), tuple(sorted(enabling)), initials,
                 name=f"({a.name} => {b.name})", kind="arrow", parts=(a, b))
