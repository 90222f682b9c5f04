"""The package's value classes are records: built twice from the same
fields they are equal and hash alike, a field left out of equality
does not change it, equality reads the class, and no field can be
assigned or deleted."""
import copy

import pytest

from gamesem.arena import Arena, make_nat_arena
from gamesem.bounds import Bounds
from gamesem.equiv import EquivReport, LawCheck, LawsReport, LeqReport
from gamesem.observation import ObservationalStrategy, ODetSet
from gamesem.pcf import (
    NAT,
    Add,
    App,
    Fix,
    Ifz,
    Lam,
    Num,
    Pred,
    Succ,
    TFun,
    TNat,
    Token,
    Var,
)
from gamesem.plays import ROOT, Play
from gamesem.strategy import TraceResult

N1 = make_nat_arena(1)
Q = (("q", ROOT),)
VIEWS = frozenset({(), Q, Q + (("1", 0),)})

# each class, a function that builds a value of it, the fields
# equality reads, and the fields it leaves out
RECORDS = [
    (Arena, lambda: Arena(N1.labels, N1.enabling, N1.initials, "N", "nat", (N1,)),
     ("labels", "enabling", "initials"), ("name", "kind", "parts")),
    (Bounds, lambda: Bounds(2, 5), ("max_nat", "max_play_len", "max_view_len", "fix_depth"), ()),
    (Play, lambda: Play(N1, Q), ("arena", "moves"), ()),
    (TraceResult, lambda: TraceResult(N1, ((), Q), 1), ("arena", "plays", "bound_exceeded"), ()),
    (TNat, TNat, (), ()),
    (TFun, lambda: TFun(NAT, TFun(NAT, NAT)), ("arg", "res"), ()),
    (Num, lambda: Num(1, pos=(1, 2)), ("n",), ("pos",)),
    (Var, lambda: Var("x", pos=(1, 2)), ("name",), ("pos",)),
    (Lam, lambda: Lam("x", NAT, Var("x"), pos=(1, 2)), ("var", "ty", "body"), ("pos",)),
    (App, lambda: App(Var("f"), Num(0), pos=(1, 2)), ("fn", "arg"), ("pos",)),
    (Succ, lambda: Succ(Num(0), pos=(1, 2)), ("t",), ("pos",)),
    (Pred, lambda: Pred(Num(0), pos=(1, 2)), ("t",), ("pos",)),
    (Ifz, lambda: Ifz(Num(0), Num(1), Num(2), pos=(1, 2)), ("cond", "then", "els"), ("pos",)),
    (Fix, lambda: Fix(Var("f"), pos=(1, 2)), ("t",), ("pos",)),
    (Add, lambda: Add(Num(0), Num(1), pos=(1, 2)), ("left", "right"), ("pos",)),
    (Token, lambda: Token("num", "1", (1, 2)), ("kind", "text", "pos"), ()),
    (ODetSet, lambda: ODetSet(N1, VIEWS), ("arena", "views"), ("_table",)),
    (ObservationalStrategy, lambda: ObservationalStrategy(N1, frozenset({VIEWS}), Bounds(), 1),
     ("arena", "sets"), ("bounds", "bound_exceeded")),
    (EquivReport, lambda: EquivReport(False, Bounds(), ODetSet(N1, VIEWS), "left", (0, 1)),
     ("equal", "bounds", "witness", "witness_side", "bound_exceeded"), ()),
    (LeqReport, lambda: LeqReport(True, Bounds(), None, 3, 0),
     ("holds", "bounds", "witness", "tested", "bound_exceeded"), ()),
    (LawCheck, lambda: LawCheck("identity", "succ", True, "ok"),
     ("law", "subject", "passed", "detail"), ()),
    (LawsReport, lambda: LawsReport(Bounds(), (LawCheck("identity", "succ", True),)),
     ("bounds", "checks"), ()),
]


def _changed(value, field: str):
    """A copy of `value` with `field` set to a value no field holds."""
    c = copy.copy(value)
    vars(c)[field] = "changed"
    return c


@pytest.mark.parametrize("cls,build,compared,excluded", RECORDS,
                         ids=[cls.__name__ for cls, *_ in RECORDS])
def test_a_record_is_a_value(cls, build, compared, excluded):
    a, b = build(), build()
    assert type(a) is cls and a is not b and a == b and hash(a) == hash(b)
    assert not a != b
    for f in excluded:
        assert _changed(a, f) == a and hash(_changed(a, f)) == hash(a), f
    for f in compared:
        assert _changed(a, f) != a, f
    for f in compared + excluded:
        with pytest.raises(AttributeError):
            setattr(a, f, getattr(b, f))
        with pytest.raises(AttributeError):
            delattr(a, f)
    assert a == b and hash(a) == hash(b)


def test_a_terms_class_is_part_of_its_value_and_its_pos_is_not():
    prefixed = [Succ(Num(0)), Pred(Num(0)), Fix(Num(0))]
    assert [s == t for s in prefixed for t in prefixed] == [
        True, False, False, False, True, False, False, False, True]
    assert Num(1, pos=(2, 3)) == Num(1)
    with pytest.raises(TypeError):
        Num(1, (2, 3))
