import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gamesem import arena as arena_module
from gamesem.arena import Arena, arrow, make_nat_arena
from gamesem.bounds import Bounds
from gamesem.pcf import (
    MAX_NESTING,
    NAT,
    Add,
    App,
    Ifz,
    Lam,
    Num,
    PcfError,
    PcfParseError,
    PcfTypeError,
    Succ,
    TFun,
    Var,
    arena_type,
    denote,
    ifz_strategy,
    make_add,
    parse,
    pragmas,
    term_to_json,
    tokenize,
    type_arena,
    typecheck,
)
from gamesem.plays import ROOT, Play
from gamesem.strategy import traces


# ------------------------------------------------------------ lexing


def test_tokenize_skips_comments_and_tracks_positions():
    toks = tokenize("succ 0 # trailing note\n+ 1")
    assert [t.text for t in toks] == ["succ", "0", "+", "1", ""]
    assert toks[0].pos == (1, 1)
    assert toks[1].pos == (1, 6)
    assert toks[2].pos == (2, 1)


def test_tokenize_identifier_charset():
    toks = tokenize("fun x': nat -> x_2")
    assert [t.text for t in toks if t.kind == "ident"] == ["x'", "x_2"]


def test_tokenize_rejects_stray_character():
    with pytest.raises(PcfParseError) as e:
        tokenize("0 ? 1")
    assert "1:3" in str(e.value)


def test_numerals_are_decimal_digits():
    # int() reads any Unicode decimal digit; a superscript is a digit
    # but not a decimal one, so it is a stray character
    assert parse("\u0663") == Num(3)
    with pytest.raises(PcfParseError) as e:
        parse("1 + \u00b2")
    assert "1:5" in str(e.value)


def test_a_numeral_past_the_int_digit_limit_is_a_parse_error():
    with pytest.raises(PcfParseError) as e:
        parse("succ " + "9" * 5000)
    assert "1:6" in str(e.value)


# The grammar's characters, some keywords whole, and three numeric
# characters outside ASCII: a digit that is not decimal (²), a numeric
# that is not a digit (½) and an Arabic-Indic decimal digit (٣).
_CHARS = "funxyzsccpredfi0129 :->()+#\n\u00b2\u00bd\u0663"
_WORDS = ["fun", "fix", "succ", "pred", "ifz", "then", "else", "nat", "x", "f",
          "0", "12", "->", ":", "(", ")", "+", "\u00b2", "\u00bd", "\u0663"]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(st.text(alphabet=_CHARS, max_size=24),
                 st.lists(st.sampled_from(_WORDS), max_size=12).map(" ".join)))
@example("\u00b2")
def test_parse_and_typecheck_fail_only_with_pcf_errors(source):
    try:
        typecheck(parse(source))
    except PcfError:
        pass


def test_pragma_lines_lex_as_comments():
    src = "#pragma add_rl\n1 + 2"
    assert pragmas(src) == frozenset({"add_rl"})
    assert parse(src) == Add(Num(1), Num(2))
    assert pragmas("succ 0") == frozenset()


# ----------------------------------------------------------- parsing


def test_application_binds_tighter_than_sum():
    t = parse("f x + g y")
    assert t == Add(App(Var("f"), Var("x")), App(Var("g"), Var("y")))


def test_sum_and_application_are_left_associative():
    assert parse("1 + 2 + 3") == Add(Add(Num(1), Num(2)), Num(3))
    assert parse("f x y") == App(App(Var("f"), Var("x")), Var("y"))


def test_prefix_forms_extend_to_the_right():
    assert parse("succ 0 + 1") == Succ(Add(Num(0), Num(1)))
    assert parse("(succ 0) + 1") == Add(Succ(Num(0)), Num(1))


def test_ifz_branches_take_whole_terms():
    t = parse("ifz x then 1 + 1 else f 0")
    assert t == Ifz(Var("x"), Add(Num(1), Num(1)), App(Var("f"), Num(0)))


def test_binder_type_stops_before_body_arrow():
    t = parse("fun f: nat -> nat -> f")
    assert t == Lam("f", TFun(NAT, NAT), Var("f"))
    assert typecheck(t) == TFun(TFun(NAT, NAT), TFun(NAT, NAT))


def test_parenthesised_binder_type():
    t = parse("fun f: (nat -> nat) -> f 0")
    assert t == Lam("f", TFun(NAT, NAT), App(Var("f"), Num(0)))


def test_parse_type_right_associative():
    # a binder annotation, the one place a type is written
    assert parse("fun f: nat -> nat -> nat -> f").ty == TFun(NAT, TFun(NAT, NAT))
    assert parse("fun f: (nat -> nat) -> nat -> f").ty == TFun(TFun(NAT, NAT), NAT)


def test_parse_error_reports_position():
    with pytest.raises(PcfParseError) as e:
        parse("fun x nat -> x")
    assert "1:7" in str(e.value)
    with pytest.raises(PcfParseError) as e:
        parse("succ 0)")
    assert "trailing" in str(e.value)


@pytest.mark.parametrize("source", ["succ " * 3000 + "0", "(" * 300 + "0" + ")" * 300,
                                    "fun x: " + "(" * 1000 + "nat" + ")" * 1000 + " -> x"],
                         ids=["succ", "parentheses", "type"])
def test_deep_nesting_is_a_parse_error(source):
    # at the token the parser had reached when its recursion ran out
    with pytest.raises(PcfParseError) as e:
        parse(source)
    line, col = e.value.pos
    assert line == 1 and 1 < col < len(source)
    assert str(e.value) == f"1:{col}: term nested too deeply"


@pytest.mark.parametrize("inner, outer, pos", [
    ("0", "succ {}", (1, 5 * MAX_NESTING + 1)),
    ("x", "fun x: nat -> {}", (1, 14 * MAX_NESTING + 1)),
    # left-nested, as the parser builds a sum by a loop: the leftmost
    # numeral is the first term too deep
    ("0", "{} + 0", (1, 1)),
    ("f", "{} 0", (1, 1)),
], ids=["succ", "fun", "sum", "app"])
def test_nesting_past_the_limit_is_a_parse_error(inner, outer, pos):
    # MAX_NESTING terms, one inside another, parse; one more level does not
    source = inner
    for _ in range(MAX_NESTING - 1):
        source = outer.format(source)
    assert parse(source)
    with pytest.raises(PcfParseError) as e:
        parse(outer.format(source))
    assert e.value.pos == pos
    assert str(e.value) == f"{pos[0]}:{pos[1]}: term nested too deeply"


def test_parse_error_on_empty_input():
    with pytest.raises(PcfParseError):
        parse("   # nothing here")


@pytest.mark.parametrize("source, where", [
    ("fun x: nat -> # note", "1:15"),   # a trailing comment ends the input where it starts
    ("1 +\r\n# only\n", "3:1"),         # CR is a column, a newline starts a line
    ("succ\t# c\n  (", "2:4"),          # a tab is one column
])
def test_end_of_input_position(source, where):
    with pytest.raises(PcfParseError) as e:
        parse(source)
    assert str(e.value) == f"{where}: expected a term, found 'end of input'"


# ------------------------------------------------------------ typing


def test_typecheck_basics():
    assert typecheck(parse("succ (pred 0)")) == NAT
    assert typecheck(parse("fun x: nat -> x + x")) == TFun(NAT, NAT)
    assert typecheck(parse("fix (fun x: nat -> x)")) == NAT


def test_type_errors_carry_positions():
    with pytest.raises(PcfTypeError) as e:
        typecheck(parse("y"))
    assert "unbound" in str(e.value) and "1:1" in str(e.value)
    with pytest.raises(PcfTypeError):
        typecheck(parse("0 1"))
    with pytest.raises(PcfTypeError):
        typecheck(parse("(fun f: nat -> nat -> f) 0"))
    with pytest.raises(PcfTypeError):
        typecheck(parse("ifz (fun x: nat -> x) then 0 else 0"))
    with pytest.raises(PcfTypeError):
        typecheck(parse("ifz 0 then 0 else fun x: nat -> x"))
    with pytest.raises(PcfTypeError):
        typecheck(parse("fix 0"))
    with pytest.raises(PcfTypeError):
        typecheck(parse("0 + (fun x: nat -> x)"))


@pytest.mark.parametrize("source", ["succ (fun x: nat -> x)", "pred (fun x: nat -> x)"])
def test_arithmetic_on_a_function_is_a_type_error(source):
    with pytest.raises(PcfTypeError, match=r"^1:1: arithmetic on type nat -> nat$"):
        typecheck(parse(source))


def test_shadowing_uses_innermost_binding():
    t = parse("fun x: nat -> fun x: nat -> nat -> x")
    assert typecheck(t) == TFun(NAT, TFun(TFun(NAT, NAT), TFun(NAT, NAT)))


# ------------------------------------------------------- term_to_json


def test_term_to_json_shape():
    doc = term_to_json(parse("fun x: nat -> ifz x then 0 else succ x"))
    assert doc["node"] == "fun" and doc["ty"] == "nat"
    body = doc["body"]
    assert body["node"] == "ifz"
    assert body["cond"] == {"node": "var", "name": "x"}
    assert body["else"] == {"node": "succ", "arg": {"node": "var", "name": "x"}}


# --------------------------------------------------------- denotation


def _value(src: str, b: Bounds, rl_add: bool = False):
    """Answer the opening question of a closed ground-type program."""
    d = denote(parse(src), b, rl_add=rl_add)
    r = d.respond(Play(d.arena, (("q", ROOT),)))
    return None if r is None else int(r[0])


def test_numerals_clamp_to_max_nat():
    b = Bounds(max_nat=3)
    assert _value("2", b) == 2
    assert _value("7", b) == 3


def test_arithmetic_saturates():
    b = Bounds(max_nat=3)
    assert _value("succ 2", b) == 3
    assert _value("succ 3", b) == 3
    assert _value("pred 0", b) == 0
    assert _value("pred 2", b) == 1
    assert _value("2 + 2", b) == 3
    assert _value("1 + 2", b) == 3


def test_ifz_selects_branch():
    b = Bounds(max_nat=2)
    assert _value("ifz 0 then 1 else 2", b) == 1
    assert _value("ifz 2 then 1 else 0", b) == 0


def test_ifz_answers_only_views_it_produced():
    # The condition answered 0, so ifz opens the then branch (L.R.L.);
    # a view whose else branch (L.R.R.) was opened is none of its own,
    # and neither is one that opens a branch before the condition.
    sigma = ifz_strategy(make_nat_arena(1), 1)
    opened = (("R.q", ROOT), ("L.L.q", 0), ("L.L.0", 1))
    for branch, want in (("L.R.L.", ("R.1", 0)), ("L.R.R.", None)):
        view = opened + ((branch + "q", 0), (branch + "1", 3))
        assert sigma.respond(Play(sigma.arena, view)) == want
    early = (("R.q", ROOT), ("L.R.L.q", 0), ("L.R.L.1", 1))
    assert sigma.respond(Play(sigma.arena, early)) is None


def test_fix_of_identity_diverges():
    b = Bounds(max_nat=1)
    d = denote(parse("fix (fun x: nat -> x)"), b)
    assert d.respond(Play(d.arena, (("q", ROOT),))) is None


def test_fix_computes_recursive_zero():
    b = Bounds(max_nat=1, max_play_len=24, max_view_len=4, fix_depth=2)
    src = "(fix (fun f: nat -> nat -> fun x: nat -> ifz x then 0 else f (pred x))) 1"
    assert _value(src, b) == 0


@pytest.mark.parametrize("fix_depth", [2, 3])
def test_fix_unrolls_fix_depth_times(fix_depth):
    # The k-th call recurses k times, so it answers exactly when the
    # fix_depth-th approximant reaches its base case.
    b = Bounds(max_nat=3, max_play_len=80, fix_depth=fix_depth)
    body = "fun f: nat -> nat -> fun x: nat -> ifz x then 0 else succ (f (pred x))"
    got = [_value(f"(fix ({body})) {k}", b) for k in range(4)]
    assert got == [k if k < fix_depth else None for k in range(4)]


def test_a_denotation_builds_as_many_arenas_however_deep_fix_unrolls(monkeypatch):
    # Each unrolling asks for the arenas of one application again; the
    # constructors hand back the ones built, so denoting the recursive
    # zero builds 21 arenas at every depth, from empty intern tables.
    built = []
    init = Arena.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Arena, "__init__", counting)
    t = parse("fix (fun f: nat -> nat -> fun x: nat -> ifz x then 0 else f (pred x))")
    counts = []
    for fix_depth in (4, 10, 30):
        monkeypatch.setattr(arena_module, "_BUILT", {})
        built.clear()
        denote(t, Bounds(fix_depth=fix_depth))
        counts.append(len(built))
    assert counts == [21, 21, 21]
    assert len({(a, a.name) for a in built}) == len(built)


def test_denoted_arena_follows_the_type():
    b = Bounds(max_nat=2)
    d = denote(parse("fun x: nat -> x"), b)
    assert d.arena == arrow(make_nat_arena(2), make_nat_arena(2))


@pytest.mark.parametrize("text", ["nat", "nat -> nat", "nat -> nat -> nat",
                                  "(nat -> nat) -> nat"])
def test_arena_type_inverts_type_arena(text):
    ty = parse(f"fun x: {text} -> x").ty
    assert arena_type(type_arena(ty, 2)) == ty


@pytest.mark.parametrize("source", [
    "succ 0",
    "fun f: nat -> nat -> f (f 1)",
    "fun x: nat -> fun y: nat -> ifz x then y else x + y",
    "(fun g: (nat -> nat) -> nat -> g) (fun h: nat -> nat -> h 0)",
    "fix (fun f: nat -> nat -> fun x: nat -> ifz x then 0 else f (pred x))",
])
def test_the_type_reads_back_off_the_denoted_arena(source):
    t = parse(source)
    assert arena_type(denote(t, Bounds(max_nat=1, fix_depth=2)).arena) == typecheck(t)


def test_double_interrogates_argument_twice():
    b = Bounds(max_nat=2, max_play_len=8)
    d = denote(parse("fun x: nat -> x + x"), b)
    a = d.arena
    s = Play(a, (("R.q", ROOT), ("L.q", 0), ("L.1", 1),
                 ("L.q", 0), ("L.1", 3), ("R.2", 0)))
    assert s in traces(d, b)


def test_curried_sum_asks_left_argument_first():
    b = Bounds(max_nat=2, max_play_len=8)
    d = denote(parse("fun x: nat -> fun y: nat -> x + y"), b)
    opening = Play(d.arena, (("R.R.q", ROOT),))
    assert d.respond(opening) == ("L.q", 0)
    after_x = opening.extend("L.q", 0).extend("L.1", 1)
    assert d.respond(after_x) == ("R.L.q", 0)
    after_y = after_x.extend("R.L.q", 0).extend("R.L.1", 3)
    assert d.respond(after_y) == ("R.R.2", 0)


def test_add_rl_pragma_flips_interrogation_order():
    b = Bounds(max_nat=2, max_play_len=8)
    d = denote(parse("fun x: nat -> fun y: nat -> x + y"), b, rl_add=True)
    opening = Play(d.arena, (("R.R.q", ROOT),))
    assert d.respond(opening) == ("R.L.q", 0)


def test_flipped_sum_under_pragma_is_trace_identical():
    # y + x evaluated right-to-left asks x first, like x + y does
    b = Bounds(max_nat=2, max_play_len=8)
    lr = denote(parse("fun x: nat -> fun y: nat -> x + y"), b)
    rl = denote(parse("fun x: nat -> fun y: nat -> y + x"), b, rl_add=True)
    assert traces(lr, b) == traces(rl, b)


def test_builtin_add_orders():
    b = Bounds(max_nat=2, max_play_len=6)
    lr, rl = make_add(("L", "R"), 2), make_add(("R", "L"), 2)
    assert (lr.name, rl.name) == ("add_LR", "add_RL")
    opening = Play(lr.arena, (("R.q", ROOT),))
    assert lr.respond(opening) == ("L.L.q", 0)
    assert rl.respond(opening) == ("L.R.q", 0)
    # a view that asked the right summand first is none of add_LR's own
    right_first = Play(lr.arena, (("R.q", ROOT), ("L.R.q", 0), ("L.R.1", 1)))
    assert lr.respond(right_first) is None


@pytest.mark.parametrize("order", [("L",), ("R", "R"), (), ("L", "R", "M")])
def test_add_order_must_draw_on_both_summands_alone(order):
    with pytest.raises(ValueError, match=r"^order must draw on both of L and R: "):
        make_add(order, 2)


def test_repeated_question_sums_the_latest_answer():
    add = make_add(("L", "L", "R"), 3)
    view = Play(add.arena, (("R.q", ROOT), ("L.L.q", 0), ("L.L.1", 1), ("L.L.q", 0),
                            ("L.L.2", 3), ("L.R.q", 0), ("L.R.1", 5)))
    assert add.respond(view) == ("R.3", 0)
