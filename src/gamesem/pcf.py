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
its type: numerals and arithmetic are small interrogation strategies
(a numeral asks no question), `ifz` asks its condition and then plays
copycat with a branch, lambda is a retagging of moves, application
pairs the function with its argument and cuts against the evaluation
copycat, and a fixpoint denotes its fix_depth-th approximant: the
strategy of its body applied fix_depth times to the strategy with no
responses.
Arithmetic saturates at max_nat and pred 0 = 0.
"""
from __future__ import annotations

from .arena import Arena, _Record, arrow, make_empty, make_nat_arena, product
from .bounds import Bounds
from .strategy import (
    InnocentStrategy,
    compose,
    copycat_echo,
    mirror_strategy,
    pair_strategies,
    prefix_swap,
    rename_strategy,
)


# ---------------------------------------------------------------- types

class Ty(_Record):
    pass


class TNat(Ty):
    def __str__(self):
        return "nat"


class TFun(Ty):
    def __init__(self, arg: Ty, res: Ty):
        self.__dict__.update(arg=arg, res=res)

    def __str__(self):
        # along the result spine in a loop, so a long chain of arrows
        # costs no frame per arrow
        parts, t = [], self
        while isinstance(t, TFun):
            parts.append(f"({t.arg})" if isinstance(t.arg, TFun) else str(t.arg))
            t = t.res
        return " -> ".join([*parts, str(t)])


NAT = TNat()


# ---------------------------------------------------------------- terms

class Term(_Record):
    """A node of a term.  Its `pos`, (line, column) where it starts in
    its source, is given by keyword, shown first and not compared; its
    `_key` is its other fields, so its subterms are among them."""


class Num(Term):
    def __init__(self, n: int, *, pos: tuple = (0, 0)):
        self.__dict__.update(pos=pos, n=n)

    def _key(self) -> tuple:
        return (self.n,)


class Var(Term):
    def __init__(self, name: str, *, pos: tuple = (0, 0)):
        self.__dict__.update(pos=pos, name=name)

    def _key(self) -> tuple:
        return (self.name,)


class Lam(Term):
    def __init__(self, var: str, ty: Ty, body: Term, *, pos: tuple = (0, 0)):
        self.__dict__.update(pos=pos, var=var, ty=ty, body=body)

    def _key(self) -> tuple:
        return self.var, self.ty, self.body


class App(Term):
    def __init__(self, fn: Term, arg: Term, *, pos: tuple = (0, 0)):
        self.__dict__.update(pos=pos, fn=fn, arg=arg)

    def _key(self) -> tuple:
        return self.fn, self.arg


class _Prefix(Term):
    """A prefix form, `fix`, `succ` or `pred`, and its one subterm."""

    def __init__(self, t: Term, *, pos: tuple = (0, 0)):
        self.__dict__.update(pos=pos, t=t)

    def _key(self) -> tuple:
        return (self.t,)


class Succ(_Prefix):
    pass


class Pred(_Prefix):
    pass


class Ifz(Term):
    def __init__(self, cond: Term, then: Term, els: Term, *, pos: tuple = (0, 0)):
        self.__dict__.update(pos=pos, cond=cond, then=then, els=els)

    def _key(self) -> tuple:
        return self.cond, self.then, self.els


class Fix(_Prefix):
    pass


class Add(Term):
    def __init__(self, left: Term, right: Term, *, pos: tuple = (0, 0)):
        self.__dict__.update(pos=pos, left=left, right=right)

    def _key(self) -> tuple:
        return self.left, self.right


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
# the prefix forms: keyword -> node, and node -> its JSON name
PREFIX_FORMS = {"fix": Fix, "succ": Succ, "pred": Pred}
PREFIX_NAMES = {cls: kw for kw, cls in PREFIX_FORMS.items()}


class Token(_Record):
    def __init__(self, kind: str, text: str, pos: tuple):
        # kind is num, ident, keyword, punct or eof
        self.__dict__.update(kind=kind, text=text, pos=pos)


def tokenize(source: str) -> list[Token]:
    """The tokens of `source`, then an "eof" token.  A position is
    (line, column), both from 1, a column counting characters from the
    start of its line; a comment that runs to the end of the input ends
    it where the comment starts."""
    toks = []
    line, start = 1, 0     # the current line and the offset it begins at
    i, n = 0, len(source)
    while True:
        pos = (line, i - start + 1)
        if i == n:
            toks.append(Token("eof", "", pos))
            return toks
        c = source[i]
        j = i + 1
        if c == "\n":
            line, start = line + 1, j
        elif c == "#":
            j = source.find("\n", i)
            if j < 0:   # a trailing comment: the input ends where it starts
                n = j = i
        elif c.isdecimal():
            while j < n and source[j].isdecimal():
                j += 1
            toks.append(Token("num", source[i:j], pos))
        elif c.isalpha() or c == "_":
            while j < n and (source[j].isalnum() or source[j] in "_'"):
                j += 1
            text = source[i:j]
            toks.append(Token("keyword" if text in KEYWORDS else "ident", text, pos))
        elif c not in " \t\r":
            p = next((p for p in PUNCT if source.startswith(p, i)), None)
            if p is None:
                raise PcfParseError(f"unexpected character {c!r}", pos)
            j = i + len(p)
            toks.append(Token("punct", p, pos))
        i = j


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
            return Lam(v.text, ty, body, pos=t.pos)
        if t.text in PREFIX_FORMS:
            self.next()
            return PREFIX_FORMS[t.text](self.term(), pos=t.pos)
        if t.text == "ifz":
            self.next()
            cond = self.term()
            self.expect("then")
            then = self.term()
            self.expect("else")
            return Ifz(cond, then, self.term(), pos=t.pos)
        return self.sum()

    def sum(self) -> Term:
        left = self.app()
        while self.peek().text == "+":
            pos = self.next().pos
            right = self.app()
            left = Add(left, right, pos=pos)
        return left

    def app(self) -> Term:
        f = self.atom()
        while self.starts_atom(self.peek()):
            arg = self.atom()
            f = App(f, arg, pos=f.pos)
        return f

    @staticmethod
    def starts_atom(t: Token) -> bool:
        return t.kind in ("num", "ident") or t.text == "("

    def atom(self) -> Term:
        t = self.next()
        if t.kind == "num":
            try:
                return Num(int(t.text), pos=t.pos)
            except ValueError:   # past the interpreter's int-string digit limit
                raise PcfParseError(f"numeral of {len(t.text)} digits is too long",
                                    t.pos) from None
        if t.kind == "ident":
            return Var(t.text, pos=t.pos)
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


# The most terms a parsed term may nest one inside another, the term
# itself and its leaves included.  The CLI's JSON writer recurses once
# per level, so it writes every term this lets through within Python's
# default limit of 1,000 frames, with room to spare for a caller.
# `denote` recurses once per level too, and asking a composite costs
# two frames, but a sum or an `ifz` level costs five (a pairing's
# `_answer` and `play_fn`, then `respond`, `_answer` and `play_fn` of
# the composite below), so such a chain can still run out below it.
MAX_NESTING = 400


def parse(source: str) -> Term:
    """The term the whole of `source` holds; PcfParseError if it does
    not parse or nests more than MAX_NESTING terms deep, the latter at
    the first term too deep in source order.  A term nested deeper than
    the parser's recursion can follow is refused at the last token it
    read."""
    p = _Parser(tokenize(source))
    try:
        term = p.term()
    except RecursionError:
        raise PcfParseError("term nested too deeply", p.toks[p.i - 1].pos) from None
    tail = p.peek()
    if tail.kind != "eof":
        raise PcfParseError(f"trailing input starting at {tail.text!r}", tail.pos)
    depth, level = 0, [term]   # the terms at one depth, in source order
    while level:
        depth += 1
        if depth > MAX_NESTING:
            raise PcfParseError("term nested too deeply", level[0].pos)
        level = [c for t in level for c in t._key() if isinstance(c, Term)]
    return term


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
    raise PcfTypeError(f"unknown term {t!r}", getattr(t, "pos", (0, 0)))


def type_arena(ty: Ty, max_nat: int) -> Arena:
    if isinstance(ty, TNat):
        return make_nat_arena(max_nat)
    return arrow(type_arena(ty.arg, max_nat), type_arena(ty.res, max_nat))


def arena_type(a: Arena) -> Ty:
    """The type whose arena `a` is: the inverse of `type_arena`."""
    if a.kind == "nat":
        return NAT
    return TFun(arena_type(a.parts[0]), arena_type(a.parts[1]))


def term_to_json(t: Term) -> dict:
    if isinstance(t, Num):
        return {"node": "num", "n": t.n}
    if isinstance(t, Var):
        return {"node": "var", "name": t.name}
    if isinstance(t, Lam):
        return {"node": "fun", "var": t.var, "ty": str(t.ty), "body": term_to_json(t.body)}
    if isinstance(t, App):
        return {"node": "app", "fn": term_to_json(t.fn), "arg": term_to_json(t.arg)}
    if type(t) in PREFIX_NAMES:
        return {"node": PREFIX_NAMES[type(t)], "arg": term_to_json(t.t)}
    if isinstance(t, Ifz):
        return {"node": "ifz", "cond": term_to_json(t.cond),
                "then": term_to_json(t.then), "else": term_to_json(t.els)}
    if isinstance(t, Add):
        return {"node": "add", "left": term_to_json(t.left), "right": term_to_json(t.right)}
    raise ValueError(f"unknown term {t!r}")


# ------------------------------------------------- primitive strategies

def interrogate(arena: Arena, name: str, questions: tuple[str, ...], f) -> InnocentStrategy:
    """Ask `questions` in turn, then answer R.{f(replies)}.

    `arena` is arrow(X, N) and each question is the question of a nat
    component of X, justified by the opening R.q.  `f` maps the numeric
    replies, in the order asked, to the answer.  In a P-view every
    Opponent move is justified by the move just before it, so the reply
    to the i-th question sits right after it.
    """
    def view_fn(ms: tuple):
        asked = len(ms) // 2
        if asked > len(questions) or any(
                ms[2 * i + 1] != (q, 0) for i, q in enumerate(questions[:asked])):
            return None
        if asked < len(questions):
            return (questions[asked], 0)
        return (f"R.{f([int(m.rsplit('.', 1)[1]) for m, _ in ms[2::2]])}", 0)

    return InnocentStrategy(arena, name, view_fn=view_fn)


def succ_strategy(max_nat: int) -> InnocentStrategy:
    n = make_nat_arena(max_nat)
    return interrogate(arrow(n, n), "succ", ("L.q",), lambda ks: min(ks[0] + 1, max_nat))


def pred_strategy(max_nat: int) -> InnocentStrategy:
    n = make_nat_arena(max_nat)
    return interrogate(arrow(n, n), "pred", ("L.q",), lambda ks: max(ks[0] - 1, 0))


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
    return interrogate(arrow(product(n, n), n), f"add_{''.join(order)}",
                       tuple(f"L.{c}.q" for c in order),
                       lambda ks: min(sum(dict(zip(order, ks)).values()), max_nat))


def eval_strategy(fn_arena: Arena) -> InnocentStrategy:
    """The application copycat on arrow(product(arrow(B,C), B), C).

    Pairs the outer C with the function's result copy and the
    function's argument copy with the paired B.
    """
    pair = product(fn_arena, fn_arena.parts[0])
    a = arrow(pair, fn_arena.parts[1])
    swap = prefix_swap([("R.", "L.L.R."), ("L.L.L.", "L.R.")], a.moves)
    return mirror_strategy(a, swap, "eval")


def ifz_strategy(res_arena: Arena, max_nat: int) -> InnocentStrategy:
    """Branching on arrow(product(N, product(T, T)), T).

    Ask the number, then answer with `copycat_echo` between the outer T
    and the branch copy of T that the answer picks, on the P-view with
    the condition's question and answer (positions 1 and 2) cut out.
    Echoing the opening question opens the branch; a view with moves in
    the other branch gets no answer.
    """
    n = make_nat_arena(max_nat)
    a = arrow(product(n, product(res_arena, res_arena)), res_arena)
    # the outer T against each branch copy: then for 0, else otherwise
    then_swap, else_swap = (prefix_swap([("R.", b)], a.moves) for b in ("L.R.L.", "L.R.R."))

    def view_fn(ms: tuple):
        if len(ms) == 1:
            return ("L.L.q", 0)
        if ms[1] != ("L.L.q", 0):
            return None
        cut = ms[:1] + tuple((m, p - 2 if p >= 3 else p) for m, p in ms[3:])
        r = copycat_echo(then_swap if ms[2][0] == "L.L.0" else else_swap, cut)
        if r is None:
            return None
        return r[0], (r[1] + 2 if r[1] > 0 else 0)

    return InnocentStrategy(a, "ifz", view_fn=view_fn)


# ---------------------------------------------------------- denotation

def denote(t: Term, b: Bounds, rl_add: bool = False) -> InnocentStrategy:
    """Strategy of a closed well-typed term, on the arena of its type."""
    open_strat = denote_open(t, (), b, rl_add)
    return rename_strategy(open_strat, [("R.", "")], open_strat.arena.parts[1], "den")


def denote_open(t: Term, ctx: tuple, b: Bounds, rl_add: bool = False) -> InnocentStrategy:
    """Strategy on arrow(context arena, type arena).

    ctx is a tuple of (name, type) pairs, innermost binding last; the
    context arena nests products to the left, so the innermost variable
    sits under R. and each enclosing one under one more L..  The term
    is typechecked here, once; below it every subterm's type is read
    off the arena of its strategy.  The pass, `_strat`, recurses one
    frame per subterm.
    """
    typecheck(t, ctx)
    env = tuple((name, type_arena(ty, b.max_nat)) for name, ty in ctx)
    ca = make_empty()
    for _, va in env:
        ca = product(ca, va)
    return _strat(t, env, ca, b, rl_add, {})


def _strat(t: Term, env: tuple, ca: Arena, b: Bounds, rl_add: bool,
           evals: dict[Arena, InnocentStrategy]) -> InnocentStrategy:
    """`denote_open`'s pass over t, one frame per subterm: env pairs
    each variable in scope with its arena, innermost last, ca is their
    product, and `evals` holds `_apply`'s eval nodes, shared by the
    whole term and freed with it."""
    if isinstance(t, Num):
        k = min(t.n, b.max_nat)
        return interrogate(arrow(ca, make_nat_arena(b.max_nat)), f"num[{k}]", (),
                           lambda ks: k)

    if isinstance(t, Var):
        path, va = _var(env, t.name)
        a = arrow(ca, va)
        return mirror_strategy(a, prefix_swap([("L." + path, "R.")], a.moves),
                               f"var[{t.name}]")

    if isinstance(t, Lam):
        va = type_arena(t.ty, b.max_nat)
        inner = _strat(t.body, env + ((t.var, va),), product(ca, va), b, rl_add, evals)
        target = arrow(ca, arrow(va, inner.arena.parts[1]))
        pairs = [("L.L.", "L."), ("L.R.", "R.L."), ("R.", "R.R.")]
        return rename_strategy(inner, pairs, target, f"fun[{t.var}]")

    if isinstance(t, App):
        return _apply(_strat(t.fn, env, ca, b, rl_add, evals),
                      _strat(t.arg, env, ca, b, rl_add, evals), b, evals)

    if isinstance(t, (Succ, Pred)):
        prim = (succ_strategy if isinstance(t, Succ) else pred_strategy)(b.max_nat)
        return compose(_strat(t.t, env, ca, b, rl_add, evals), prim, b, name=prim.name)

    if isinstance(t, Ifz):
        dt = _strat(t.then, env, ca, b, rl_add, evals)
        prim = ifz_strategy(dt.arena.parts[1], b.max_nat)
        cond = _strat(t.cond, env, ca, b, rl_add, evals)
        branches = pair_strategies(dt, _strat(t.els, env, ca, b, rl_add, evals))
        return compose(pair_strategies(cond, branches), prim, b, name="ifz")

    if isinstance(t, Fix):
        # the fix_depth-th approximant: the body applied that many
        # times to the strategy with no responses.  The list holds every
        # approximant, so a build that runs out of memory frees them top
        # down, one at a time: the last alone would free the chain by
        # one nested deallocation per approximant, and the C stack that
        # takes cannot grow when the address space is full.
        body = _strat(t.t, env, ca, b, rl_add, evals)
        approxes = [InnocentStrategy(arrow(ca, body.arena.parts[1].parts[1]), "bottom",
                                     view_fn=lambda ms: None)]
        for _ in range(b.fix_depth):
            approxes.append(_apply(body, approxes[-1], b, evals))
        return approxes[-1]

    if isinstance(t, Add):
        first, second = (t.right, t.left) if rl_add else (t.left, t.right)
        if isinstance(first, Var) and isinstance(second, Var):
            # Ask the context directly, not through compose: no hidden
            # moves count against max_play_len, and a curried sum is
            # move-for-move the classic interrogation strategy.
            qs = tuple("L." + _var(env, v.name)[0] + "q" for v in (first, second))
            return interrogate(arrow(ca, make_nat_arena(b.max_nat)),
                               f"add_vars[{first.name},{second.name}]", qs,
                               lambda ks: min(sum(ks), b.max_nat))
        prim = make_add(("R", "L") if rl_add else ("L", "R"), b.max_nat)
        return compose(pair_strategies(_strat(t.left, env, ca, b, rl_add, evals),
                                       _strat(t.right, env, ca, b, rl_add, evals)),
                       prim, b, name="add")

    raise ValueError(f"cannot denote {t!r}")


def _var(env: tuple, name: str) -> tuple[str, Arena]:
    """Move prefix and arena of a variable's component of the context."""
    rev = next(i for i, (nm, _) in enumerate(reversed(env)) if nm == name)
    return "L." * rev + "R.", env[-1 - rev][1]


def _apply(f: InnocentStrategy, x: InnocentStrategy, b: Bounds,
           evals: dict[Arena, InnocentStrategy]) -> InnocentStrategy:
    """f : arrow(X, arrow(A, B)) applied to x : arrow(X, A).

    `evals` holds one eval strategy per function arena: a mirror node
    holds no state, so every application at one type shares it (each
    approximant of a `fix`, say).
    """
    fn_arena = f.arena.parts[1]
    if fn_arena not in evals:
        evals[fn_arena] = eval_strategy(fn_arena)
    return compose(pair_strategies(f, x), evals[fn_arena], b, name="app")
