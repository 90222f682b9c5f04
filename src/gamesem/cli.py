"""Command line front end.

Exit codes: 0 for success (including an EQUIV verdict), 1 for an
INEQUIV verdict or a failed law check, 2 for bad input (unreadable
file, parse error, type error, mismatched arenas, a view-set file that
is not a view set or is nested deeper than `json.loads` can follow),
reported on one stderr line with any line break in it escaped, 3 for
an internal consistency failure (the engine rejects its own play, or
the two decision methods disagree although neither hit a bound and no
witness view is longer than max_view_len) or a resource limit
(recursion depth, memory, the oracle's test budget running out before
it decides, or the exploration's play budget running out before it
ends) or a stdout closed by its reader before the output was written,
reported on one stderr line.  A disagreement the bounds explain adds
"bounds_explain": true to the oracle report and exits with the
obs_equiv verdict.

All output is canonical JSON: keys sorted, two-space indent, stable
element ordering, so repeated runs are byte-identical.  One encoder,
`_encode`, writes it for every subcommand; its bytes are those of
`json.dumps(doc, indent=2, sort_keys=True)`, which on Python 3.13 and
older runs the stdlib's pure-Python encoder once it is given an indent.
A `Play` is written as its `to_json()` would be, from a per-depth table
of move texts, so `traces` builds no dict per move.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from json.encoder import encode_basestring_ascii as _str

from .bounds import Bounds
from .equiv import OracleIncomplete, brute_force_leq, check_category_laws, obs_equiv
from .observation import ODetSet, observations, run_test
from .pcf import PcfError, arena_type, denote, parse, pragmas, term_to_json, typecheck
from .plays import Play, is_complete
from .strategy import (
    ExplorationIncomplete,
    InconsistentPlay,
    StrategyError,
    explore,
    tabulation_to_json,
)


class _InputError(Exception):
    pass


def _bounds(ns) -> Bounds:
    try:
        return Bounds(max_nat=ns.max_nat, max_play_len=ns.max_play_len,
                      max_view_len=ns.max_view_len, fix_depth=ns.fix_depth)
    except ValueError as e:
        raise _InputError(str(e)) from e


def _emit(doc) -> None:
    print(_encode(doc, 0, {}), flush=True)


_LEAF_TYPES = frozenset((str, int))


def _encode(o, depth: int, memo: dict) -> str:
    """`json.dumps(o, indent=2, sort_keys=True)` at nesting `depth`, byte
    for byte, for dicts with str keys, lists, tuples, str, int, bool,
    None and `Play`s; anything else raises TypeError.  A Play is written
    as its `to_json()` would be, without building that dict: its moves'
    texts come from a per-depth table in `memo`.  `memo` also maps
    (depth, items) of a dict whose values are all str or exact int to
    its text, so a move repeated through a document is written once per
    depth.  A bool is kept out of it: True == 1, so it would share 1's
    entry."""
    if isinstance(o, Play):
        texts = memo.setdefault((Play, depth), {})
        moves = [texts.get(mv) or texts.setdefault(mv, _encode({"m": mv[0], "ptr": mv[1]},
                                                                 depth + 2, memo))
                 for mv in o.moves]
        inner = "\n" + "  " * (depth + 1)
        listed = ("[" + inner + "  " + ("," + inner + "  ").join(moves) + inner
                  + "]") if moves else "[]"
        return ("{" + inner + '"arena": ' + _str(o.arena.name) + "," + inner
                + '"moves": ' + listed + inner[:-2] + "}")
    if isinstance(o, dict):
        key = None
        if _LEAF_TYPES.issuperset(map(type, o.values())):
            key = (depth, *o.items())
            text = memo.get(key)
            if text is not None:
                return text
        inner = "\n" + "  " * (depth + 1)
        text = ("{" + inner + ("," + inner).join([_str(k) + ": " + _encode(v, depth + 1, memo)
                                                   for k, v in sorted(o.items())])
                + inner[:-2] + "}") if o else "{}"
        if key is not None:
            memo[key] = text
        return text
    if isinstance(o, str):
        return _str(o)
    if o is None or o is True or o is False:
        return "null" if o is None else "true" if o else "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if not isinstance(o, (list, tuple)):
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
    inner = "\n" + "  " * (depth + 1)
    return ("[" + inner + ("," + inner).join([_encode(v, depth + 1, memo) for v in o])
            + inner[:-2] + "]") if o else "[]"


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
        "views": tabulation_to_json(sigma, b),
    })
    return 0


def cmd_traces(ns) -> int:
    b = _bounds(ns)
    sigma, _ = _denote_file(ns.file, b)
    tr = explore(sigma, b)
    plays = tr.plays
    if ns.complete_only:
        plays = [p for p in plays if is_complete(p)]
    plays = sorted(plays, key=lambda p: (len(p.moves), p.moves))
    _emit({
        "arena": sigma.arena.to_json(),
        "bound_exceeded": tr.bound_exceeded,
        "bounds": b.to_json(),
        "count": len(plays),
        "plays": plays,
    })
    return 0


def cmd_obs(ns) -> int:
    b = _bounds(ns)
    sigma, _ = _denote_file(ns.file, b)
    _emit(observations(sigma, b).to_json(include_arena=True))
    return 0


def cmd_equiv(ns) -> int:
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
    b = _bounds(ns)
    sigma, _ = _denote_file(ns.file, b)
    try:
        doc = json.loads(_read(ns.set))
        # a witness as `equiv` prints it names no arena: read it over the term's
        s = ODetSet.from_json(doc, None if "arena" in doc else sigma.arena)
    except (ValueError, KeyError, TypeError, RecursionError) as e:
        raise _InputError(f"bad view-set file {ns.set}: {e}") from e
    if s.arena != sigma.arena:
        raise _InputError("view-set arena does not match the term's arena")
    verdict = run_test(sigma, s, b)
    _emit({"bounds": b.to_json(), "verdict": verdict.name})
    return 0


def cmd_laws(ns) -> int:
    report = check_category_laws(_bounds(ns))
    _emit(report.to_json())
    return 0 if report.all_pass else 1


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--max-nat", type=int, default=Bounds.max_nat,
                        help="largest numeral distinguished (default %(default)s)")
    common.add_argument("--max-play-len", type=int, default=Bounds.max_play_len,
                        help="play and interaction length cap (default %(default)s)")
    common.add_argument("--max-view-len", type=int, default=Bounds.max_view_len,
                        help="view length cap for enumeration (default %(default)s)")
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
    except (StrategyError, InconsistentPlay) as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 3
    except (RecursionError, OracleIncomplete, ExplorationIncomplete) as e:
        print(f"resource limit: {e}", file=sys.stderr)
        return 3
    except MemoryError:
        print("resource limit: out of memory", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
