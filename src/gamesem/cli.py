"""Command line front end.

Exit codes: 0 for success (including an EQUIV verdict), 1 for an
INEQUIV verdict or a failed law check.  Each failure is reported on one
stderr line, and each class of failure is one exception:
- 2, `error:`, for bad input, `_InputError` (unreadable file, parse
  error, type error, mismatched arenas, a view-set file that is not a
  view set or is nested deeper than `json.loads` can follow), with any
  line break in it escaped;
- 3, `internal error:`, for a broken engine contract, `StrategyError`
  (a strategy emits a move its arena does not allow, or a composite is
  asked about a play it would not have produced), and for the two
  decision methods disagreeing although neither hit a bound and no
  witness view is longer than max_view_len (after the report);
- 3, `resource limit:`, for a spent search budget, `BudgetExhausted`
  (the oracle's tests or the exploration's plays), or the interpreter's
  RecursionError or MemoryError, reported once the failed computation
  is let go: no strategy node holds itself, so letting go frees it;
- 3, `output closed:`, for a stdout closed by its reader before the
  output was written.
A disagreement the bounds explain adds "bounds_explain": true to the
oracle report and exits with the obs_equiv verdict.

All output is canonical JSON: keys sorted, two-space indent, stable
element ordering, so repeated runs are byte-identical.  One encoder,
`_encode`, writes it for every subcommand; its bytes are those of
`json.dumps(doc, indent=2, sort_keys=True)`, which on Python 3.13 and
older runs the stdlib's pure-Python encoder once it is given an indent.
The writer builds each piece of text once.  `traces` hands it
`explore`'s `TraceResult`, whose plays are move tuples: each is written
as its `Play.to_json()` would be, from a per-depth table of move texts
formatted straight from each move, so no `Play` and no dict per move is
built, and a play is its parent's text plus its last round, as the
walk hands out siblings together.  A dict the document shares, such as
an O-view that `obs` lists in thousands of sets, is written once per
depth and document.  `_emit` streams the document through one
generator, `_pieces`, which yields the text of a container down two
levels member by member, and of a `TraceResult` play by play, each
with its separator, so `obs` and `traces` never hold the whole text.

A run loads only the modules its subcommand calls.  `parse`, `denote`
and `traces` load `bounds`, `pcf` and the engine under it (`arena`,
`plays`, `strategy`); `obs` and `test` add `observation`; `equiv`, with
or without `--oracle`, adds `observation` and `equiv`; `laws` adds
those and `corpus`, the one module that builds its classes with
`dataclasses`, so only `laws` imports that.  Each `cmd_*` that calls
`observation` or `equiv` imports it as its first statement, before any
file is read or term denoted, so a MemoryError or RecursionError never
lands inside an import.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from json.encoder import encode_basestring_ascii as _str

from .bounds import Bounds
from .pcf import PcfError, arena_type, denote, parse, pragmas, term_to_json, typecheck
from .strategy import BudgetExhausted, StrategyError, TraceResult, explore, tabulate


class _InputError(Exception):
    pass


def _bounds(ns) -> Bounds:
    try:
        return Bounds(max_nat=ns.max_nat, max_play_len=ns.max_play_len,
                      max_view_len=ns.max_view_len, fix_depth=ns.fix_depth)
    except ValueError as e:
        raise _InputError(str(e)) from e


def _emit(doc) -> None:
    """Write `_encode(doc, 0, {})` and a line break to stdout, a piece
    at a time as `_pieces` yields them down two levels, with one memo,
    so the whole text is never held."""
    write = sys.stdout.write
    for piece in _pieces(doc, 0, {}, 2):
        write(piece)
    write("\n")
    sys.stdout.flush()


class _MoveTexts(dict):
    """The texts of moves at one nesting depth, keyed by (move,
    pointer): each is the text `_encode` gives the move's {"m", "ptr"}
    dict at that depth, formatted from the move's string and the
    pointer's int on its first ask, with no dict built."""

    def __init__(self, depth: int):
        super().__init__()
        inner = "\n" + "  " * (depth + 1)
        self._parts = "{" + inner + '"m": ', "," + inner + '"ptr": ', inner[:-2] + "}"

    def __missing__(self, move):
        head, sep, tail = self._parts
        text = self[move] = head + _str(move[0]) + sep + int.__repr__(move[1]) + tail
        return text


def _pieces(o, depth: int, memo: dict, levels: int):
    """`_encode(o, depth, memo)` in pieces, each member with the
    separator before it: a nonempty dict, list or tuple member by member
    down to `levels` levels, and a `TraceResult` play by play at any
    level.  A play is written as `Play.to_json()` would be at depth + 1,
    without building a `Play` or a dict: its constant pieces and a table
    of move texts are made once per document, depth and arena name and
    kept in `memo`.  A play is its parent's text plus its last round:
    the text of the last stem, `moves[:-2]`, is kept with its
    separators and rebuilt only when the stem changes, and each play of
    two or more moves is one join of the lead, that text, its last two
    move texts and the tail.  The walk hands out a capped play with its
    siblings and `explore` sorts by length stably, so a run of plays
    that differ only in their last round builds its stem text once.
    Each play is one piece, and no piece holds two plays."""
    inner = "\n" + "  " * (depth + 1)
    if isinstance(o, TraceResult):
        if not o.plays:
            yield "[]"
            return
        key = (TraceResult, depth, o.arena.name)
        parts = memo.get(key)
        if parts is None:
            play = inner + "  "
            arena = "{" + play + '"arena": ' + _str(o.arena.name) + "," + play + '"moves": '
            parts = memo[key] = (arena + "[" + play + "  ", "," + play + "  ",
                                 play + "]" + inner + "}", arena + "[]" + inner + "}",
                                 _MoveTexts(depth + 3))
        head, sep, tail, empty, texts = parts
        lead = "[" + inner
        stem = stem_text = None
        for moves in o.plays:
            if len(moves) > 1:
                if moves[:-2] != stem:
                    stem = moves[:-2]
                    stem_text = head + "".join([texts[m] + sep for m in stem])
                yield "".join((lead, stem_text, texts[moves[-2]], sep, texts[moves[-1]], tail))
            elif moves:
                yield lead + head + texts[moves[0]] + tail
            else:
                yield lead + empty
            lead = "," + inner
        yield inner[:-2] + "]"
        return
    if not (levels and o and isinstance(o, (dict, list, tuple))):
        yield _encode(o, depth, memo)
        return
    if isinstance(o, dict):
        lead, close = "{" + inner, "}"
        members = ((_str(k) + ": ", v) for k, v in sorted(o.items()))
    else:
        lead, close = "[" + inner, "]"
        members = (("", v) for v in o)
    for label, v in members:
        rest = _pieces(v, depth + 1, memo, levels - 1)
        yield lead + label + next(rest)
        yield from rest
        lead = "," + inner
    yield inner[:-2] + close


_LEAF_TYPES = frozenset((str, int))


def _encode(o, depth: int, memo: dict) -> str:
    """`json.dumps(o, indent=2, sort_keys=True)` at nesting `depth`, byte
    for byte, for dicts with str keys, lists, tuples, str, int, bool,
    None and `TraceResult`s; anything else raises TypeError.  A
    TraceResult is written as the list of its plays' `Play.to_json()`,
    by `_pieces`.  `memo` maps (depth, items) of a dict whose values are
    all str or exact int to its text, so a move repeated through a
    document is written once per depth.  A bool is kept out of it:
    True == 1, so it would share 1's entry.  Any other dict is keyed by
    (depth, id(dict)), so a dict the document shares, such as an O-view
    every set that holds it lists, is written once per depth.  An id
    names one dict only while that dict lives; this is sound because
    the document holds every dict in it for the whole write, and `memo`
    lives no longer than one document.  Such a dict's text is kept only
    from the second time it is met: the first time, the memo marks it
    with "", which no JSON text is, so a dict the document holds once,
    such as each node of a parsed term, costs the memo no text, and the
    memo of a term's nested dicts does not grow with the square of its
    depth.  Containers are built in plain loops, not comprehensions, so
    the writer recurses one frame per level on every Python version."""
    if isinstance(o, dict):
        leaves = _LEAF_TYPES.issuperset(map(type, o.values()))
        key = (depth, *o.items()) if leaves else (depth, id(o))
        known = memo.get(key)
        if known:
            return known
        if o:
            inner = "\n" + "  " * (depth + 1)
            parts = []
            for k, v in sorted(o.items()):
                parts.append(_str(k) + ": " + _encode(v, depth + 1, memo))
            text = "{" + inner + ("," + inner).join(parts) + inner[:-2] + "}"
        else:
            text = "{}"
        memo[key] = text if leaves or known is not None else ""
        return text
    if isinstance(o, str):
        return _str(o)
    if o is None or o is True or o is False:
        return "null" if o is None else "true" if o else "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if not isinstance(o, (list, tuple)):
        if isinstance(o, TraceResult):
            return "".join(_pieces(o, depth, memo, 0))
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
    if not o:
        return "[]"
    inner = "\n" + "  " * (depth + 1)
    parts = []
    for v in o:
        parts.append(_encode(v, depth + 1, memo))
    return "[" + inner + ("," + inner).join(parts) + inner[:-2] + "]"


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except OSError as e:
        raise _InputError(f"cannot read {path}: {e.strerror}") from e
    except UnicodeDecodeError as e:
        raise _InputError(f"cannot read {path}: not UTF-8 text ({e.reason} "
                          f"at byte {e.start})") from e


def _pcf(path: str, fn, *args, **kwargs):
    """fn(*args, **kwargs), with a PcfError reported as bad input in `path`."""
    try:
        return fn(*args, **kwargs)
    except PcfError as e:
        raise _InputError(f"{path}: {e}") from e


def _load_term(path: str):
    source = _read(path)
    return _pcf(path, parse, source), "add_rl" in pragmas(source)


def _denote_file(path: str, b: Bounds):
    """Strategy and type of a file; `denote` typechecks it, once."""
    t, rl = _load_term(path)
    sigma = _pcf(path, denote, t, b, rl_add=rl)
    return sigma, arena_type(sigma.arena)


def cmd_parse(ns) -> int:
    t, _ = _load_term(ns.file)
    ty = _pcf(ns.file, typecheck, t)
    _emit({"term": term_to_json(t), "type": str(ty)})
    return 0


def cmd_denote(ns) -> int:
    b = _bounds(ns)
    sigma, ty = _denote_file(ns.file, b)
    _emit({
        "arena": sigma.arena.to_json(),
        "bounds": b.to_json(),
        "type": str(ty),
        "views": [{"view": v.to_json(), "response": {"m": m, "ptr": p}}
                  for v, (m, p) in tabulate(sigma, b)],
    })
    return 0


def cmd_traces(ns) -> int:
    b = _bounds(ns)
    sigma, _ = _denote_file(ns.file, b)
    tr = explore(sigma, b, complete_only=ns.complete_only)
    _emit({
        "arena": sigma.arena.to_json(),
        "bound_exceeded": tr.bound_exceeded,
        "bounds": b.to_json(),
        "count": len(tr.plays),
        "plays": tr,
    })
    return 0


def cmd_obs(ns) -> int:
    from .observation import observations
    b = _bounds(ns)
    sigma, _ = _denote_file(ns.file, b)
    _emit(observations(sigma, b).to_json(include_arena=True))
    return 0


def cmd_equiv(ns) -> int:
    from .equiv import brute_force_leq, obs_equiv
    b = _bounds(ns)
    s1, ty1 = _denote_file(ns.file1, b)
    s2, ty2 = _denote_file(ns.file2, b)
    if s1.arena != s2.arena:
        raise _InputError(f"type mismatch: {ty1} vs {ty2}")
    report = obs_equiv(s1, s2, b)
    doc = report.to_json()
    if ns.oracle:
        fwd = brute_force_leq(s1, s2, b)
        bwd = brute_force_leq(s2, s1, b)
        agrees = (fwd.holds and bwd.holds) == report.equal
        doc["oracle"] = {
            "agrees": agrees,
            "left_leq_right": fwd.to_json(),
            "right_leq_left": bwd.to_json(),
        }
        if not agrees:
            if not _bounds_explain(report, fwd, bwd, b):
                _emit(doc)
                print("internal error: obs_equiv and the oracle disagree, and the bounds "
                      "do not explain it", file=sys.stderr)
                return 3
            doc["oracle"]["bounds_explain"] = True
    _emit(doc)
    return 0 if report.equal else 1


def _bounds_explain(report, fwd, bwd, b: Bounds) -> bool:
    """Can the bounds account for a disagreement?  They can when either
    route hit a bound, or when the witness has a view longer than
    max_view_len, which the oracle's search cannot reach."""
    hits = sum(report.bound_exceeded) + fwd.bound_exceeded + bwd.bound_exceeded
    long_view = report.witness is not None and any(
        len(v) > b.max_view_len for v in report.witness.views)
    return hits > 0 or long_view


def cmd_test(ns) -> int:
    from .observation import ODetSet, run_test
    b = _bounds(ns)
    sigma, _ = _denote_file(ns.file, b)
    try:
        doc = json.loads(_read(ns.set))
        # a witness as `equiv` prints it names no arena: read it over the term's
        embedded = isinstance(doc, dict) and "arena" in doc
        s = ODetSet.from_json(doc, None if embedded else sigma.arena)
    except (ValueError, KeyError, TypeError, RecursionError) as e:
        raise _InputError(f"bad view-set file {ns.set}: {e}") from e
    if s.arena != sigma.arena:
        raise _InputError("view-set arena does not match the term's arena")
    verdict = run_test(sigma, s, b)
    _emit({"bounds": b.to_json(), "verdict": verdict.name})
    return 0


def cmd_laws(ns) -> int:
    from .equiv import check_category_laws
    report = check_category_laws(_bounds(ns))
    _emit(report.to_json())
    return 0 if report.all_pass else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser, built once per process: parsing leaves it as it was."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--max-nat", type=int, default=Bounds.max_nat,
                        help="largest numeral distinguished (default %(default)s)")
    common.add_argument("--max-play-len", type=int, default=Bounds.max_play_len,
                        help="play and interaction length cap; bound_exceeded counts "
                             "interactions cut at it, not plays (default %(default)s)")
    common.add_argument("--max-view-len", type=int, default=Bounds.max_view_len,
                        help="longest O-view in the test oracle's tests (default %(default)s)")
    common.add_argument("--fix-depth", type=int, default=Bounds.fix_depth,
                        help="fixpoint unrolling depth (default %(default)s)")

    p = argparse.ArgumentParser(
        prog="gamesem",
        description="Bounded game-semantics engine for a small functional language")
    sub = p.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("parse", parents=[common], help="type-check and dump the AST")
    sp.add_argument("file")
    sp.set_defaults(fn=cmd_parse)

    sp = sub.add_parser("denote", parents=[common],
                        help="tabulate the term's strategy as a view table")
    sp.add_argument("file")
    sp.set_defaults(fn=cmd_denote)

    sp = sub.add_parser("traces", parents=[common],
                        help="enumerate the strategy's plays within bounds")
    sp.add_argument("file")
    sp.add_argument("--complete-only", action="store_true",
                    help="keep only completed plays")
    sp.set_defaults(fn=cmd_traces)

    sp = sub.add_parser("obs", parents=[common],
                        help="observational representation of the term")
    sp.add_argument("file")
    sp.set_defaults(fn=cmd_obs)

    sp = sub.add_parser("equiv", parents=[common],
                        help="decide bounded observational equivalence of two terms")
    sp.add_argument("file1")
    sp.add_argument("file2")
    sp.add_argument("--oracle", action="store_true",
                    help="cross-check with the brute-force test oracle")
    sp.set_defaults(fn=cmd_equiv)

    sp = sub.add_parser("test", parents=[common],
                        help="run one deterministic view-set as a test")
    sp.add_argument("file")
    sp.add_argument("--set", required=True, help="view-set JSON file")
    sp.set_defaults(fn=cmd_test)

    sp = sub.add_parser("laws", parents=[common],
                        help="check identity, associativity, and congruence laws")
    sp.set_defaults(fn=cmd_laws)

    return p


# What `main` reports as a resource limit.  A tuple written in the
# `except` clause is built each time the clause is tried, while memory
# is still exhausted; on CPython 3.13 that allocation raised a second
# MemoryError in up to half the runs that ran out of memory.  This one
# is built once, at import.
_RESOURCE_LIMITS = (RecursionError, MemoryError, BudgetExhausted)


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        return ns.fn(ns)
    except BrokenPipeError:
        # stdout's reader is gone: what is still buffered, flushed at
        # exit, goes to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("output closed: stdout's reader exited before the output was written",
              file=sys.stderr)
        return 3
    except _InputError as e:
        # a line break in a file name or a move name stays on the one line
        print("error: " + "\\n".join(str(e).splitlines()), file=sys.stderr)
        return 2
    except StrategyError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 3
    except _RESOURCE_LIMITS as e:
        limit = "out of memory" if isinstance(e, MemoryError) else str(e)
    # Reported once the handler has let go of the traceback, which
    # frees what the failed computation built: a report inside the
    # handler can run out of memory again.
    print(f"resource limit: {limit}", file=sys.stderr)
    return 3


if __name__ == "__main__":
    sys.exit(main())
