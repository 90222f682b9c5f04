"""A small call-by-name functional language and its strategy semantics.

Surface syntax (one term per file, # starts a comment):

    term ::= "fun" ident ":" type "->" term
           | "fix" term | "succ" term | "pred" term
           | "ifz" term "then" term "else" term
           | sum
    sum  ::= app ("+" app)*
    app  ::= atom atom*
    atom ::= numeral | ident | "(" term ")"
    type ::= "nat" | type "->" type          (right associative)

The prefix forms extend as far right as possible, like the binder.  In
a binder annotation the type grabs arrows greedily, backtracking so the
final "->" before the body is left alone ("fun f: nat -> nat -> f"
annotates f with nat -> nat).

A comment of the form "#pragma add_rl" flips the evaluation order of
"+" from left-first to right-first; pragmas are collected separately
from parsing so the AST stays order-neutral.

Denotation maps a typed term to an innocent strategy over the arena of
its type: numerals answer immediately, arithmetic goes through small
interrogation strategies, lambda is a retagging of moves, application
pairs the function with its argument and cuts against the evaluation
copycat, and fixpoints unfold syntactically a bounded number of times
(the unfolding bottoms out in a strategy with no responses).
Arithmetic saturates at max_nat and pred 0 = 0.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .arena import Arena, arrow, make_empty, make_nat_arena, product
from .bounds import Bounds
from .plays import ROOT, Play, subsequence
from .strategy import (
    InnocentStrategy,
    compose,
    from_view_table,
    mirror_strategy,
    prefix_swap,
    rename_strategy,
)


# ---------------------------------------------------------------- types

class Ty:
    pass


@dataclass(frozen=True)
class TNat(Ty):
    def __str__(self):
        return "nat"


@dataclass(frozen=True)
class TFun(Ty):
    arg: Ty
    res: Ty

    def __str__(self):
        a = f"({self.arg})" if isinstance(self.arg, TFun) else str(self.arg)
        return f"{a} -> {self.res}"


NAT = TNat()


# ---------------------------------------------------------------- terms

@dataclass(frozen=True)
class Term:
    pass


@dataclass(frozen=True)
class Num(Term):
    n: int
    pos: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Var(Term):
    name: str
    pos: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Lam(Term):
    var: str
    ty: Ty
    body: Term
    pos: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class App(Term):
    fn: Term
    arg: Term
    pos: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Succ(Term):
    t: Term
    pos: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Pred(Term):
    t: Term
    pos: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Ifz(Term):
    cond: Term
    then: Term
    els: Term
    pos: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Fix(Term):
    t: Term
    pos: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Add(Term):
    left: Term
    right: Term
    pos: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Bottom(Term):
    """No-response placeholder; result of exhausting the fix budget."""
    ty: Ty
    pos: tuple = field(default=(0, 0), compare=False)


class PcfError(Exception):
    def __init__(self, msg: str, pos: tuple = (0, 0)):
        self.pos = pos
        line, col = pos
        super().__init__(f"{line}:{col}: {msg}" if line else msg)


class PcfParseError(PcfError):
    pass


class PcfTypeError(PcfError):
    pass


# ---------------------------------------------------------------- lexer

KEYWORDS = {"fun", "fix", "succ", "pred", "ifz", "then", "else", "nat"}
PUNCT = ["->", "(", ")", ":", "+"]


@dataclass(frozen=True)
class Token:
    kind: str     # num | ident | keyword | punct | eof
    text: str
    pos: tuple


def tokenize(source: str) -> list[Token]:
    toks = []
    line, col = 1, 1
    i = 0
    n = len(source)
    while i < n:
        c = source[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and source[i] != "\n":
                i += 1
            continue
        pos = (line, col)
        if c.isdigit():
            j = i
            while j < n and source[j].isdigit():
                j += 1
            toks.append(Token("num", source[i:j], pos))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] in "_'"):
                j += 1
            text = source[i:j]
            toks.append(Token("keyword" if text in KEYWORDS else "ident", text, pos))
            col += j - i
            i = j
            continue
        for p in PUNCT:
            if source.startswith(p, i):
                toks.append(Token("punct", p, pos))
                col += len(p)
                i += len(p)
                break
        else:
            raise PcfParseError(f"unexpected character {c!r}", pos)
    toks.append(Token("eof", "", (line, col)))
    return toks


def pragmas(source: str) -> frozenset[str]:
    """Collect #pragma directives (they lex as plain comments)."""
    out = set()
    for ln in source.splitlines():
        stripped = ln.strip()
        if stripped.startswith("#pragma"):
            out.update(stripped[len("#pragma"):].split())
    return frozenset(out)


# --------------------------------------------------------------- parser

class _Parser:
    def __init__(self, toks: list[Token]):
        self.toks = toks
        self.i = 0

    def peek(self) -> Token:
        return self.toks[self.i]

    def next(self) -> Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, text: str) -> Token:
        t = self.next()
        if t.text != text:
            raise PcfParseError(f"expected {text!r}, found {t.text or 'end of input'!r}", t.pos)
        return t

    def term(self) -> Term:
        t = self.peek()
        if t.text == "fun":
            self.next()
            v = self.next()
            if v.kind != "ident":
                raise PcfParseError(f"expected a variable name, found {v.text!r}", v.pos)
            self.expect(":")
            ty = self.type_greedy()
            self.expect("->")
            body = self.term()
            return Lam(v.text, ty, body, t.pos)
        if t.text == "fix":
            self.next()
            return Fix(self.term(), t.pos)
        if t.text == "succ":
            self.next()
            return Succ(self.term(), t.pos)
        if t.text == "pred":
            self.next()
            return Pred(self.term(), t.pos)
        if t.text == "ifz":
            self.next()
            cond = self.term()
            self.expect("then")
            then = self.term()
            self.expect("else")
            return Ifz(cond, then, self.term(), t.pos)
        return self.sum()

    def sum(self) -> Term:
        left = self.app()
        while self.peek().text == "+":
            pos = self.next().pos
            right = self.app()
            left = Add(left, right, pos)
        return left

    def app(self) -> Term:
        f = self.atom()
        while self.starts_atom(self.peek()):
            arg = self.atom()
            f = App(f, arg, f.pos)
        return f

    @staticmethod
    def starts_atom(t: Token) -> bool:
        return t.kind in ("num", "ident") or t.text == "("

    def atom(self) -> Term:
        t = self.next()
        if t.kind == "num":
            return Num(int(t.text), t.pos)
        if t.kind == "ident":
            return Var(t.text, t.pos)
        if t.text == "(":
            inner = self.term()
            self.expect(")")
            return inner
        raise PcfParseError(f"expected a term, found {t.text or 'end of input'!r}", t.pos)

    def type_greedy(self) -> Ty:
        """Right-associated arrow type; an arrow whose right side fails
        to parse as a type is left for the binder body."""
        left = self.type_atom()
        if self.peek().text == "->":
            save = self.i
            self.next()
            try:
                return TFun(left, self.type_greedy())
            except PcfParseError:
                self.i = save
        return left

    def type_atom(self) -> Ty:
        t = self.next()
        if t.text == "nat":
            return NAT
        if t.text == "(":
            inner = self.type_greedy()
            self.expect(")")
            return inner
        raise PcfParseError(f"expected a type, found {t.text or 'end of input'!r}", t.pos)


def parse(source: str) -> Term:
    p = _Parser(tokenize(source))
    t = p.term()
    tail = p.peek()
    if tail.kind != "eof":
        raise PcfParseError(f"trailing input starting at {tail.text!r}", tail.pos)
    return t


def parse_type(source: str) -> Ty:
    p = _Parser(tokenize(source))
    ty = p.type_greedy()
    tail = p.peek()
    if tail.kind != "eof":
        raise PcfParseError(f"trailing input starting at {tail.text!r}", tail.pos)
    return ty


# ----------------------------------------------------------- typechecker

def typecheck(t: Term, ctx: tuple = ()) -> Ty:
    """Type of t in ctx (a tuple of (name, type), innermost last)."""
    if isinstance(t, Num):
        return NAT
    if isinstance(t, Var):
        for name, ty in reversed(ctx):
            if name == t.name:
                return ty
        raise PcfTypeError(f"unbound variable {t.name!r}", t.pos)
    if isinstance(t, Lam):
        return TFun(t.ty, typecheck(t.body, ctx + ((t.var, t.ty),)))
    if isinstance(t, App):
        fty = typecheck(t.fn, ctx)
        aty = typecheck(t.arg, ctx)
        if not isinstance(fty, TFun):
            raise PcfTypeError(f"applied a non-function of type {fty}", t.pos)
        if fty.arg != aty:
            raise PcfTypeError(f"argument has type {aty}, function wants {fty.arg}", t.pos)
        return fty.res
    if isinstance(t, (Succ, Pred)):
        ity = typecheck(t.t, ctx)
        if ity != NAT:
            raise PcfTypeError(f"arithmetic on type {ity}", t.pos)
        return NAT
    if isinstance(t, Ifz):
        cty = typecheck(t.cond, ctx)
        if cty != NAT:
            raise PcfTypeError(f"ifz condition has type {cty}, wanted nat", t.pos)
        tty = typecheck(t.then, ctx)
        ety = typecheck(t.els, ctx)
        if tty != ety:
            raise PcfTypeError(f"branch types differ: {tty} vs {ety}", t.pos)
        return tty
    if isinstance(t, Fix):
        ity = typecheck(t.t, ctx)
        if not isinstance(ity, TFun) or ity.arg != ity.res:
            raise PcfTypeError(f"fix needs type T -> T, got {ity}", t.pos)
        return ity.res
    if isinstance(t, Add):
        for side in (t.left, t.right):
            sty = typecheck(side, ctx)
            if sty != NAT:
                raise PcfTypeError(f"+ on type {sty}", t.pos)
        return NAT
    if isinstance(t, Bottom):
        return t.ty
    raise PcfTypeError(f"unknown term {t!r}", getattr(t, "pos", (0, 0)))


def type_arena(ty: Ty, max_nat: int) -> Arena:
    if isinstance(ty, TNat):
        return make_nat_arena(max_nat)
    return arrow(type_arena(ty.arg, max_nat), type_arena(ty.res, max_nat))


def term_to_json(t: Term) -> dict:
    if isinstance(t, Num):
        return {"node": "num", "n": t.n}
    if isinstance(t, Var):
        return {"node": "var", "name": t.name}
    if isinstance(t, Lam):
        return {"node": "fun", "var": t.var, "ty": str(t.ty), "body": term_to_json(t.body)}
    if isinstance(t, App):
        return {"node": "app", "fn": term_to_json(t.fn), "arg": term_to_json(t.arg)}
    if isinstance(t, Succ):
        return {"node": "succ", "arg": term_to_json(t.t)}
    if isinstance(t, Pred):
        return {"node": "pred", "arg": term_to_json(t.t)}
    if isinstance(t, Ifz):
        return {"node": "ifz", "cond": term_to_json(t.cond),
                "then": term_to_json(t.then), "else": term_to_json(t.els)}
    if isinstance(t, Fix):
        return {"node": "fix", "arg": term_to_json(t.t)}
    if isinstance(t, Add):
        return {"node": "add", "left": term_to_json(t.left), "right": term_to_json(t.right)}
    if isinstance(t, Bottom):
        return {"node": "bottom", "ty": str(t.ty)}
    raise ValueError(f"unknown term {t!r}")


# ------------------------------------------------- primitive strategies

def _nat_unop(name: str, f, max_nat: int) -> InnocentStrategy:
    """One-question strategy on arrow(N, N): ask, then answer f(k)."""
    n = make_nat_arena(max_nat)
    a = arrow(n, n)
    table = {(("R.q", ROOT),): ("L.q", 0)}
    for k in range(max_nat + 1):
        key = (("R.q", ROOT), ("L.q", 0), (f"L.{k}", 1))
        table[key] = (f"R.{f(k)}", 0)
    return from_view_table(a, name, table)


def succ_strategy(max_nat: int) -> InnocentStrategy:
    return _nat_unop("succ", lambda k: min(k + 1, max_nat), max_nat)


def pred_strategy(max_nat: int) -> InnocentStrategy:
    return _nat_unop("pred", lambda k: max(k - 1, 0), max_nat)


def make_add(order: tuple[str, ...], max_nat: int) -> InnocentStrategy:
    """Addition on arrow(product(N, N), N), interrogating per `order`.

    `order` lists pair components ("L"/"R") to question in turn; both
    must occur.  The answer is the saturating sum of the latest answer
    seen from each component, so repeated questions are allowed and an
    inconsistent Opponent simply gets a sum of its latest stories.
    """
    if not {"L", "R"} <= set(order) or set(order) - {"L", "R"}:
        raise ValueError(f"order must draw on both of L and R: {order!r}")
    n = make_nat_arena(max_nat)
    a = arrow(product(n, n), n)

    def view_fn(v: Play):
        if v.moves[0] != ("R.q", ROOT):
            return None
        seen = {}
        for step, (m, ptr) in enumerate(v.moves[1:]):
            if step // 2 >= len(order):
                return None
            if step % 2 == 0:
                want = f"L.{order[step // 2]}.q"
                if m != want or ptr != 0:
                    return None
            else:
                comp = order[step // 2]
                if not m.startswith(f"L.{comp}.") or ptr != step:
                    return None
                seen[comp] = int(m.split(".")[-1])
        asked = len(v.moves) // 2
        if asked < len(order):
            return (f"L.{order[asked]}.q", 0)
        return (f"R.{min(seen['L'] + seen['R'], max_nat)}", 0)

    return InnocentStrategy(a, f"add_{''.join(order)}", view_fn=view_fn)


def builtin(name: str, max_nat: int) -> InnocentStrategy:
    if name == "add_LR":
        return make_add(("L", "R"), max_nat)
    if name == "add_RL":
        return make_add(("R", "L"), max_nat)
    raise ValueError(f"unknown builtin {name!r}")


def eval_strategy(fn_arena: Arena) -> InnocentStrategy:
    """The application copycat on arrow(product(arrow(B,C), B), C).

    Pairs the outer C with the function's result copy and the
    function's argument copy with the paired B.
    """
    pair = product(fn_arena, fn_arena.parts[0])
    a = arrow(pair, fn_arena.parts[1])
    swap = prefix_swap([("R.", "L.L.R."), ("L.L.L.", "L.R.")])
    return mirror_strategy(a, swap, "eval")


def ifz_strategy(res_arena: Arena, max_nat: int) -> InnocentStrategy:
    """Branching on arrow(product(N, product(T, T)), T).

    Ask the number; open the matching branch copy of T; thereafter
    mirror the outer T against the opened branch.
    """
    n = make_nat_arena(max_nat)
    a = arrow(product(n, product(res_arena, res_arena)), res_arena)

    def view_fn(v: Play):
        first, fptr = v.moves[0]
        if fptr != ROOT or not first.startswith("R."):
            return None
        if len(v.moves) == 1:
            return ("L.L.q", 0)
        if v.moves[1] != ("L.L.q", 0):
            return None
        if len(v.moves) == 3:
            m, ptr = v.moves[2]
            if ptr != 1 or not m.startswith("L.L."):
                return None
            branch = "L.R.L." if int(m[4:]) == 0 else "L.R.R."
            return (branch + first[2:], 0)
        branch = v.moves[3][0]
        for b in ("L.R.L.", "L.R.R."):
            if branch.startswith(b):
                swap = prefix_swap([("R.", b)])
                break
        else:
            return None
        m, ptr = v.moves[-1]
        mm = swap(m)
        if mm is None or ptr == ROOT:
            return None
        j = 0 if ptr == 3 else ptr - 1
        if j < 0 or swap(v.moves[ptr][0]) != v.moves[j][0]:
            return None
        return (mm, j)

    return InnocentStrategy(a, "ifz", view_fn=view_fn)


# ------------------------------------------------------------ pairing

def pair_strategies(f: InnocentStrategy, g: InnocentStrategy,
                    name: str | None = None) -> InnocentStrategy:
    """Tupling: from f : arrow(X, B) and g : arrow(X, C), the strategy
    on arrow(X, product(B, C)) that plays f inside threads rooted at a
    B-initial and g inside threads rooted at a C-initial.

    By innocence each response is computed on the P-view, which lies
    inside the thread of the last Opponent move (every move in it is
    hereditarily justified by the view's first, initial move); the view
    is retagged to the component strategy's arena.
    """
    x = f.arena.parts[0]
    if g.arena.parts[0] != x:
        raise ValueError("paired strategies disagree on the left arena")
    pair = product(f.arena.parts[1], g.arena.parts[1])
    outer = arrow(x, pair)

    def play_fn(s: Play, positions: tuple[int, ...]):
        view = subsequence(s, positions)
        side = "L" if view.moves[0][0].startswith("R.L.") else "R"
        strat = f if side == "L" else g
        inner = Play(strat.arena, tuple(("R." + m[4:] if m.startswith("R.") else m, ptr)
                                        for m, ptr in view.moves))
        r = strat.respond(inner)
        if r is None:
            return None
        m, ptr = r
        om = f"R.{side}." + m[2:] if m.startswith("R.") else m
        return om, positions[ptr]

    return InnocentStrategy(outer, name or f"<{f.name}, {g.name}>", play_fn=play_fn)


# ---------------------------------------------------------- denotation

def _ctx_arena(ctx: tuple, max_nat: int) -> Arena:
    a = make_empty()
    for _, ty in ctx:
        a = product(a, type_arena(ty, max_nat))
    return a


def _var_path(ctx: tuple, name: str) -> str:
    """Move prefix of a variable's component inside the context arena."""
    for rev, (nm, _) in enumerate(reversed(ctx)):
        if nm == name:
            return "L." * rev + "R."
    raise ValueError(f"unbound variable {name!r}")


def denote(t: Term, b: Bounds, rl_add: bool = False) -> InnocentStrategy:
    """Strategy of a closed well-typed term, on the arena of its type."""
    ty = typecheck(t)
    open_strat = denote_open(t, (), b, rl_add)
    target = type_arena(ty, b.max_nat)
    return rename_strategy(open_strat, [("R.", "")], target, f"den[{_short(t)}]")


def _short(t: Term) -> str:
    s = repr(t)
    return s if len(s) <= 40 else s[:37] + "..."


def denote_open(t: Term, ctx: tuple, b: Bounds, rl_add: bool = False) -> InnocentStrategy:
    """Strategy on arrow(context arena, type arena).

    ctx is a tuple of (name, type) pairs, innermost binding last; the
    context arena nests products to the left, so the innermost variable
    sits under R. and each enclosing one under one more L..
    """
    ca = _ctx_arena(ctx, b.max_nat)
    ty = typecheck(t, ctx)

    if isinstance(t, Num):
        target = arrow(ca, make_nat_arena(b.max_nat))
        k = min(t.n, b.max_nat)

        def const_view(v: Play):
            if v.moves == (("R.q", ROOT),):
                return (f"R.{k}", 0)
            return None

        return InnocentStrategy(target, f"num[{k}]", view_fn=const_view)

    if isinstance(t, Bottom):
        target = arrow(ca, type_arena(t.ty, b.max_nat))
        return InnocentStrategy(target, "bottom", view_fn=lambda v: None)

    if isinstance(t, Var):
        va = type_arena(ty, b.max_nat)
        target = arrow(ca, va)
        path = "L." + _var_path(ctx, t.name)
        swap = prefix_swap([(path, "R.")])
        return mirror_strategy(target, swap, f"var[{t.name}]")

    if isinstance(t, Lam):
        inner = denote_open(t.body, ctx + ((t.var, t.ty),), b, rl_add)
        res_ty = typecheck(t.body, ctx + ((t.var, t.ty),))
        target = arrow(ca, arrow(type_arena(t.ty, b.max_nat),
                                 type_arena(res_ty, b.max_nat)))
        pairs = [("L.L.", "L."), ("L.R.", "R.L."), ("R.", "R.R.")]
        return rename_strategy(inner, pairs, target, f"fun[{t.var}]")

    if isinstance(t, App):
        fty = typecheck(t.fn, ctx)
        df = denote_open(t.fn, ctx, b, rl_add)
        dg = denote_open(t.arg, ctx, b, rl_add)
        ev = eval_strategy(type_arena(fty, b.max_nat))
        return compose(pair_strategies(df, dg), ev, b, name="app")

    if isinstance(t, Succ):
        return compose(denote_open(t.t, ctx, b, rl_add), succ_strategy(b.max_nat), b,
                       name="succ")

    if isinstance(t, Pred):
        return compose(denote_open(t.t, ctx, b, rl_add), pred_strategy(b.max_nat), b,
                       name="pred")

    if isinstance(t, Ifz):
        dc = denote_open(t.cond, ctx, b, rl_add)
        dt = denote_open(t.then, ctx, b, rl_add)
        de = denote_open(t.els, ctx, b, rl_add)
        prim = ifz_strategy(type_arena(ty, b.max_nat), b.max_nat)
        return compose(pair_strategies(dc, pair_strategies(dt, de)), prim, b,
                       name="ifz")

    if isinstance(t, Fix):
        fty = typecheck(t.t, ctx)
        unrolled: Term = Bottom(fty.res, t.pos)
        for _ in range(b.fix_depth):
            unrolled = App(t.t, unrolled, t.pos)
        return denote_open(unrolled, ctx, b, rl_add)

    if isinstance(t, Add):
        first, second = (t.right, t.left) if rl_add else (t.left, t.right)
        if isinstance(t.left, Var) and isinstance(t.right, Var):
            return _add_of_vars(ctx, first.name, second.name, ca, b)
        order = ("R", "L") if rl_add else ("L", "R")
        prim = make_add(order, b.max_nat)
        dl = denote_open(t.left, ctx, b, rl_add)
        dr = denote_open(t.right, ctx, b, rl_add)
        return compose(pair_strategies(dl, dr), prim, b, name="add")

    raise ValueError(f"cannot denote {t!r}")


def _add_of_vars(ctx: tuple, first: str, second: str, ca: Arena, b: Bounds) -> InnocentStrategy:
    """Sum of two variables, by direct interrogation of the context.

    Kept separate from the compose route so the denotation of a curried
    sum is move-for-move the classic interrogation strategy, with no
    hidden traffic.
    """
    target = arrow(ca, make_nat_arena(b.max_nat))
    q1 = "L." + _var_path(ctx, first) + "q"
    q2 = "L." + _var_path(ctx, second) + "q"
    p1 = q1[:-1]
    p2 = q2[:-1]

    def view_fn(v: Play):
        ms = v.moves
        if ms[0] != ("R.q", ROOT):
            return None
        if len(ms) == 1:
            return (q1, 0)
        if ms[1] != (q1, 0):
            return None
        if len(ms) == 3:
            m, ptr = ms[2]
            if ptr == 1 and m.startswith(p1):
                return (q2, 0)
            return None
        if (len(ms) == 5 and ms[3] == (q2, 0)
                and ms[2][1] == 1 and ms[2][0].startswith(p1)
                and ms[4][1] == 3 and ms[4][0].startswith(p2)):
            k1 = int(ms[2][0].rsplit(".", 1)[-1])
            k2 = int(ms[4][0].rsplit(".", 1)[-1])
            return (f"R.{min(k1 + k2, b.max_nat)}", 0)
        return None

    return InnocentStrategy(target, f"add_vars[{first},{second}]", view_fn=view_fn)
