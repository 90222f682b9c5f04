"""Built-in strategies the test batteries and the law checker run on.

Each entry carries its own bounds: interaction-heavy denotations
(fixpoints, nested applications) need a larger interaction budget than
the flat arithmetic strategies, and enumeration-heavy oracle runs want
small numeral caps.  Pairs additionally record the expected
equivalence verdict, worked out by hand from the strategies' complete
plays and frozen here.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

from .arena import arrow, make_nat_arena, product
from .bounds import Bounds
from .pcf import denote, make_add, parse
from .plays import ROOT
from .strategy import InnocentStrategy, mirror_strategy, prefix_swap


def proj_strategy(side: str, max_nat: int) -> InnocentStrategy:
    """First or second projection on arrow(product(N, N), N)."""
    if side not in ("L", "R"):
        raise ValueError(side)
    n = make_nat_arena(max_nat)
    a = arrow(product(n, n), n)
    return mirror_strategy(a, prefix_swap([(f"L.{side}.", "R.")], a.moves), f"proj_{side}")


def applier(max_nat: int) -> InnocentStrategy:
    """Context strategy on arrow(arrow(product(N,N),N), N): call the
    given function, answer its first pair question with 1 and its
    second with 2, and forward the result."""
    if max_nat < 2:
        raise ValueError("applier feeds the argument 2")
    n = make_nat_arena(max_nat)
    f = arrow(product(n, n), n)
    a = arrow(f, n)

    def view_fn(ms: tuple):
        m, _ = ms[-1]
        if len(ms) == 1:
            return ("L.R.q", 0) if ms[0] == ("R.q", ROOT) else None
        if m == "L.L.L.q":
            return ("L.L.L.1", len(ms) - 1)
        if m == "L.L.R.q":
            return ("L.L.R.2", len(ms) - 1)
        if m.startswith("L.R.") and m != "L.R.q":
            return ("R." + m[4:], 0)
        return None

    return InnocentStrategy(a, "apply_to_1_2", view_fn=view_fn)


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    source: str | None        # surface syntax, when the entry is a denotation
    bounds: Bounds

    def build(self) -> InnocentStrategy:
        b = self.bounds
        if self.source is not None:
            s = denote(parse(self.source), b)
            s.name = self.name
            return s
        builders = {
            "add_LR": lambda: make_add(("L", "R"), b.max_nat),
            "add_RL": lambda: make_add(("R", "L"), b.max_nat),
            "add_LLR": lambda: make_add(("L", "L", "R"), b.max_nat),
            "proj_fst": lambda: proj_strategy("L", b.max_nat),
            "proj_snd": lambda: proj_strategy("R", b.max_nat),
            "applier": lambda: applier(b.max_nat),
        }
        return builders[self.name]()


_FLAT = Bounds(max_nat=1, max_play_len=8, max_view_len=4)
_REC = Bounds(max_nat=1, max_play_len=24, max_view_len=4, fix_depth=2)

CORPUS: tuple[CorpusEntry, ...] = (
    CorpusEntry("add_LR", None, Bounds(max_nat=2, max_play_len=6)),
    CorpusEntry("add_RL", None, Bounds(max_nat=2, max_play_len=6)),
    CorpusEntry("add_LLR", None, Bounds(max_nat=2, max_play_len=8)),
    CorpusEntry("proj_fst", None, Bounds(max_nat=2, max_play_len=6)),
    CorpusEntry("proj_snd", None, Bounds(max_nat=2, max_play_len=6)),
    CorpusEntry("applier", None, Bounds(max_nat=3, max_play_len=8)),
    CorpusEntry("num_0", "0", _FLAT),
    CorpusEntry("num_1", "1", _FLAT),
    CorpusEntry("succ_0", "succ 0", _FLAT),
    CorpusEntry("bottom_nat", "fix (fun x: nat -> x)", _FLAT),
    CorpusEntry("fix_succ", "fix (fun x: nat -> succ x)",
                Bounds(max_nat=1, max_play_len=12, max_view_len=4, fix_depth=3)),
    CorpusEntry("double", "fun x: nat -> x + x",
                Bounds(max_nat=2, max_play_len=8)),
    CorpusEntry("add_curried", "fun x: nat -> fun y: nat -> x + y",
                Bounds(max_nat=2, max_play_len=8)),
    CorpusEntry("add_curried_flip", "fun x: nat -> fun y: nat -> y + x",
                Bounds(max_nat=2, max_play_len=8)),
    CorpusEntry("succ_fun", "fun x: nat -> succ x",
                Bounds(max_nat=2, max_play_len=8)),
    CorpusEntry("pred_fun", "fun x: nat -> pred x",
                Bounds(max_nat=2, max_play_len=8)),
    CorpusEntry("iszero", "fun x: nat -> ifz x then 1 else 0",
                Bounds(max_nat=2, max_play_len=8)),
    CorpusEntry("strict_zero", "fun x: nat -> ifz x then 0 else 0",
                Bounds(max_nat=1, max_play_len=8, max_view_len=4)),
    CorpusEntry("rec_zero",
                "fix (fun f: nat -> nat -> fun x: nat -> ifz x then 0 else f (pred x))",
                _REC),
)


def entry(name: str) -> CorpusEntry:
    for e in CORPUS:
        if e.name == name:
            return e
    raise KeyError(name)


@dataclass(frozen=True)
class CorpusPair:
    left: str
    right: str
    bounds: Bounds
    expect_equal: bool


PAIRS: tuple[CorpusPair, ...] = (
    CorpusPair("add_LR", "add_RL", _FLAT, True),
    CorpusPair("add_LR", "add_LLR",
               Bounds(max_nat=1, max_play_len=10, max_view_len=4), True),
    CorpusPair("add_LR", "proj_fst", _FLAT, False),
    CorpusPair("proj_fst", "proj_snd", _FLAT, False),
    CorpusPair("num_0", "num_1", _FLAT, False),
    CorpusPair("num_1", "succ_0", _FLAT, True),
    CorpusPair("bottom_nat", "num_0", _FLAT, False),
    CorpusPair("bottom_nat", "fix_succ",
               Bounds(max_nat=1, max_play_len=12, max_view_len=4, fix_depth=3), True),
    CorpusPair("rec_zero", "strict_zero", _REC, True),
    CorpusPair("succ_fun", "pred_fun", Bounds(max_nat=2, max_play_len=8), False),
    CorpusPair("iszero", "pred_fun", Bounds(max_nat=1, max_play_len=8, max_view_len=4), False),
    CorpusPair("add_curried", "add_curried_flip", _FLAT, True),
    CorpusPair("double", "succ_fun", Bounds(max_nat=2, max_play_len=8), False),
)


def build_pair(p: CorpusPair) -> tuple[InnocentStrategy, InnocentStrategy]:
    return tuple(replace(entry(name), bounds=p.bounds).build() for name in (p.left, p.right))
