"""Exploration bounds.

Everything here is finite on purpose: arenas for natural numbers carry
numerals 0..max_nat, plays are explored up to max_play_len moves
(interactions count their hidden moves against the same figure), the
O-views in the test oracle's tests are capped at max_view_len, and
recursion is unrolled fix_depth times.  Results are only meaningful
relative to a Bounds value, so reports carry the bounds they were
computed at.
"""
from __future__ import annotations

from dataclasses import dataclass, asdict

from .arena import json_check


@dataclass(frozen=True)
class Bounds:
    max_nat: int = 3
    max_play_len: int = 8
    max_view_len: int = 6
    fix_depth: int = 4

    def __post_init__(self):
        for f, v in asdict(self).items():
            if v < 1:
                raise ValueError(f"{f} must be positive, got {v}")

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, doc: dict) -> "Bounds":
        """The bounds `to_json` wrote under an observation's "bounds"
        key, each field a positive JSON integer; a field left out keeps
        its default.  ValueError names a part out of shape, a key that is
        no field or a field that is not positive, by its path."""
        json_check(doc, dict, "bounds")
        fields = asdict(cls())
        for k in doc:
            if k not in fields:
                raise ValueError(f"bounds.{k}: expected one of {', '.join(fields)}, "
                                 "got an unknown key")
        json_check(doc, dict.fromkeys(doc, int), "bounds")
        for k, v in doc.items():
            if v < 1:
                raise ValueError(f"bounds.{k}: expected a positive integer, got {v}")
        return cls(**doc)
