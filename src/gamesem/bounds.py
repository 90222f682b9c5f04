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

from .arena import _Record, json_check


class Bounds(_Record):
    # the defaults, which the CLI reads off the class
    max_nat = 3
    max_play_len = 8
    max_view_len = 6
    fix_depth = 4

    def __init__(self, max_nat: int = max_nat, max_play_len: int = max_play_len,
                 max_view_len: int = max_view_len, fix_depth: int = fix_depth):
        self.__dict__.update(max_nat=max_nat, max_play_len=max_play_len,
                             max_view_len=max_view_len, fix_depth=fix_depth)
        for f, v in vars(self).items():
            if v < 1:
                raise ValueError(f"{f} must be positive, got {v}")

    def to_json(self) -> dict:
        return dict(vars(self))

    @classmethod
    def from_json(cls, doc: dict) -> "Bounds":
        """The bounds `to_json` wrote under an observation's "bounds"
        key, each field a positive JSON integer; a field left out keeps
        its default.  ValueError names a part out of shape, a key that is
        no field or a field that is not positive, by its path."""
        json_check(doc, dict, "bounds")
        fields = vars(cls())
        for k in doc:
            if k not in fields:
                raise ValueError(f"bounds.{k}: expected one of {', '.join(fields)}, "
                                 "got an unknown key")
        json_check(doc, dict.fromkeys(doc, int), "bounds")
        for k, v in doc.items():
            if v < 1:
                raise ValueError(f"bounds.{k}: expected a positive integer, got {v}")
        return cls(**doc)
