"""Run the tier-1 tests against named mutants of the engine's rules.

    python scripts/mutants.py [--only NAME ...]

Each mutant is one exact source replacement in one file under
src/gamesem, which must apply exactly once.  For each, the repository
is copied to a temporary directory, the replacement applied there, and
`python -m pytest -x` run on the copy with PYTHONHASHSEED=0 and at
most MEMORY_BYTES of address space, so the checkout itself is never
changed and a mutant that makes a search explode fails with
MemoryError rather than taking the host's memory.  One line per mutant
is printed, in the list's order: killed, with the first test that
failed (or the test module whose collection failed); survived; or
timed out after TIMEOUT_S seconds.  A survivor is either
killed by a new test or explained as equivalent in CHANGES.md; no
mutant is dropped to make the report pass.  Exits 2 if a mutant does
not apply exactly once, and 0 otherwise, whatever the report says: CI
diffs the report against tests/data/mutants.txt.
"""
from __future__ import annotations

import argparse
import os
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Tier-1 takes under a minute on a 2-core host: only a mutant that
# never ends runs this long.
TIMEOUT_S = 600
# Tier-1 passes within this; a mutant that lets the oracle's
# candidate sets multiply would otherwise grow until the host kills it.
MEMORY_BYTES = 2 << 30

# (name, file under src/gamesem, the source, its replacement)
MUTANTS = [
    # the arena door
    ("arena: an initial move some move enables", "arena.py",
     "if b in self.initials:", "if False:"),
    # a node is asked with the P-view it keys on
    ("answer: reply pointer not read through positions", "strategy.py",
     "return None if r is None else (r[0], positions[r[1]])",
     "return None if r is None else (r[0], r[1])"),
    ("answer: the enabling check dropped", "strategy.py",
     "if not self.arena.enables(key[j][0], move):", "if False:"),
    # a wrapper asks what lies below it
    ("wrapper: the reply's move not read back", "strategy.py",
     "return back[r[0]], r[1]", "return r[0], r[1]"),
    # a test run is the views of its prefixes
    ("run: moves counted one short", "observation.py",
     "i = len(views) - 1", "i = len(views) - 2"),
    # the writer
    ("pieces: first separator of a container is a comma", "cli.py",
     'lead, close = "[" + inner, "]"', 'lead, close = "," + inner, "]"'),
    ("pieces: first separator of a play list is a comma", "cli.py",
     'lead = "[" + inner\n        for moves in o.plays:',
     'lead = "," + inner\n        for moves in o.plays:'),
    ("emit: streams zero levels", "cli.py",
     "_pieces(doc, 0, {}, 2)", "_pieces(doc, 0, {}, 0)"),
    ("emit: streams one level", "cli.py",
     "_pieces(doc, 0, {}, 2)", "_pieces(doc, 0, {}, 1)"),
    ("encode: memo key without depth", "cli.py",
     "key = (depth, *o.items())", "key = (*o.items(),)"),
    ("encode: bools share the memo", "cli.py",
     "_LEAF_TYPES = frozenset((str, int))", "_LEAF_TYPES = frozenset((str, int, bool))"),
    # the exit lines
    ("cli: a spent budget reported as an internal error", "cli.py",
     "except StrategyError as e:", "except (StrategyError, BudgetExhausted) as e:"),
    ("cli: out of memory not a resource limit", "cli.py",
     "_RESOURCE_LIMITS = (RecursionError, MemoryError, BudgetExhausted)",
     "_RESOURCE_LIMITS = (RecursionError, BudgetExhausted)"),
    # a run loads only the modules its subcommand calls
    ("cli: `equiv` imported at module level", "cli.py",
     "from .bounds import Bounds\n",
     "from .bounds import Bounds\nfrom .equiv import brute_force_leq, obs_equiv\n"),
    ("package: an unknown name resolves to None", "__init__.py",
     'raise AttributeError(f"module {__name__!r} has no attribute {name!r}")',
     "return None"),
    # the walk's two cap tests
    ("walk: room check n + 1 >", "strategy.py",
     "if n + 2 > cap:", "if n + 1 > cap:"),
    ("walk: room check n + 3 >", "strategy.py",
     "if n + 2 > cap:", "if n + 3 > cap:"),
    ("walk: room check n + 2 >=", "strategy.py",
     "if n + 2 > cap:", "if n + 2 >= cap:"),
    ("walk: cap leaf n + 3 >", "strategy.py",
     "at_cap = n + 4 > cap", "at_cap = n + 3 > cap"),
    ("walk: cap leaf n + 5 >", "strategy.py",
     "at_cap = n + 4 > cap", "at_cap = n + 5 > cap"),
    ("walk: cap leaf n + 4 >=", "strategy.py",
     "at_cap = n + 4 > cap", "at_cap = n + 4 >= cap"),
    # the walk's Opponent
    ("walk: O-innocence pruning off", "strategy.py",
     "forced = innocent_o_move(views) if innocent_opponent else None", "forced = None"),
    ("O-innocence rule: scans only the first prefix", "plays.py",
     "for k in range(0, len(views) - 1, 2):", "for k in range(0, min(len(views) - 1, 1), 2):"),
    # a play at the cap, grown by its last round
    ("observations: a play at the cap without its last O-view", "strategy.py",
     "        if views:\n", "        if views and i == len(moves) - 2:\n"),
    ("observations: a cap play's open questions are its parent's", "observation.py",
     "elif step[0] and last_round(questions, step)[2] == ():",
     "elif step[0] and step[2] == ():"),
    ("explore: a cap play's open questions are its parent's", "strategy.py",
     "elif not complete_only or (step[0] and last_round(questions, step)[2] == ()):",
     "elif not complete_only or (step[0] and step[2] == ()):"),
    # the view and bracketing recurrences and the move generator
    ("next_views: a Proponent move keeps the O-view before it", "plays.py",
     "return pv, jov + (i,), pvm, jovm + (at_o,)",
     "return pv, ov + (i,), pvm, ovm + (at_o,)"),
    ("next_pview: an Opponent move extends the P-view before it", "plays.py",
     "return jpv + (i,), None, jpvm + (at_p,), None",
     "return views[i][0] + (i,), None, views[i][2] + (at_p,), None"),
    ("legality: visibility unchecked", "plays.py",
     "elif ptr not in views[i][0 if i % 2 else 1]:", "elif False:"),
    # the one door's form, and a reader of it
    ("checked_views: the empty play's entry dropped", "plays.py",
     'raise ValueError(f"illegal play: {bad}")\n    return views',
     'raise ValueError(f"illegal play: {bad}")\n    return views[1:]'),
    ("oview_with_positions: reads the P-view half", "plays.py",
     "_, positions, _, moves = checked_views(s)[-1]",
     "positions, _, moves, _ = checked_views(s)[-1]"),
    ("next_pending: an answer closes the innermost question wherever it points", "plays.py",
     "if pending and pending[-1] == ptr:", "if pending:"),
    ("legal_extensions: a justifier of the mover's parity", "plays.py",
     "elif (n - j) % 2:", "elif (n - j) % 2 == 0:"),
    ("oview_steps: a Proponent move points anywhere in the view", "observation.py",
     "ptrs = (ROOT,) if n == 0 else range(n) if n % 2 == 0 else (n - 1,)",
     "ptrs = (ROOT,) if n == 0 else range(n)"),
    ("copycat_echo: an opener's echo points before it", "strategy.py",
     "j = len(moves) - 1", "j = len(moves) - 2"),
    # compose's two rules
    ("compose: a hidden move answered by the side that played it", "strategy.py",
     "side = 1 - side", "side = side"),
    ("compose: a justifier outside the components points at ROOT", "strategy.py",
     "ptr = pos[up] if up in pos else pos.get(u[up], ROOT)",
     "ptr = pos[up] if up in pos else ROOT"),
    ("compose: a B move reaches sigma's projection only", "strategy.py",
     'for c in "ABC"}',
     'for c in "ABC"}\n_LANDS_IN["B"] = _LANDS_IN["B"][:1]'),
    # no node holds itself
    ("compose: the node held by its own function", "strategy.py",
     "return InnocentStrategy(outer, cname, play_fn=play_fn)",
     "play_fn.node = InnocentStrategy(outer, cname, play_fn=play_fn)\n"
     "    return play_fn.node"),
    # test runs and the view-set door
    ("run: success ignores the cap", "observation.py",
     "return TestVerdict.BOUND_EXCEEDED if i > cap else TestVerdict.TOP",
     "return TestVerdict.TOP"),
    ("door: ODetSet accepts anything", "observation.py",
     'raise ValueError(f"not an O-deterministic view-set: {got}")', "got = {}"),
    ("_opponent_table: a complete element does not succeed", "observation.py",
     "elif p == ():", "elif p is None:"),
    ("_opponent_table: an element off the set's prefixes has its last step checked alone",
     "observation.py",
     "for i in range(len(v) - 1 if closed else 0, len(v)):",
     "for i in range(len(v) - 1, len(v)):"),
    ("order: viewset_key halves swapped", "observation.py",
     "return (sum(n for n, _ in keys), len(keys), tuple(keys))",
     "return (len(keys), sum(n for n, _ in keys), tuple(keys))"),
    ("order: obs_leq is y has some set", "observation.py",
     "return all(any(t <= s for t in y.sets) for s in x.sets)",
     "return bool(y.sets)"),
    ("order: _o_separated always true", "observation.py",
     "return any(body in ext_t and ext_t[body] != last\n"
     "               for body, last in ext_s.items())",
     "return True"),
    # the witnesses
    ("witness: the largest difference", "equiv.py",
     "least = min(sizes.values())", "least = max(sizes.values())"),
    ("witness: by size alone", "equiv.py",
     "return min([vs for vs, size in sizes.items() if size == least], key=viewset_key)",
     "return min([vs for vs, size in sizes.items() if size == least], key=len)"),
    ("oracle: a leaf counted twice", "equiv.py",
     "tested += 1", "tested += 2"),
    ("oracle: s1's bound hit ignored", "equiv.py",
     "if TestVerdict.BOUND_EXCEEDED in (r1, r2):",
     "if r2 is TestVerdict.BOUND_EXCEEDED:"),
]

IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache",
                                ".perfbench", ".benchmarks", "*.egg-info")


def mutate(text: str, old: str, new: str) -> str:
    """`text` with its one occurrence of `old` replaced by `new`;
    ValueError unless `old` occurs exactly once."""
    count = text.count(old)
    if count != 1:
        raise ValueError(f"occurs {count} times, not once: {old!r}")
    return text.replace(old, new)


def killer(output: str) -> str:
    """The first test pytest's summary names as failed or in error."""
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" ", 1)[1].split(" - ", 1)[0]
    return "(no test named)"


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_BYTES, MEMORY_BYTES))


def run(name: str, path: str, old: str, new: str) -> str:
    """The report line for one mutant."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=IGNORE)
        target = copy / "src" / "gamesem" / path
        target.write_text(mutate(target.read_text(), old, new))
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONHASHSEED": "0",
               "PYTHONDONTWRITEBYTECODE": "1"}
        try:
            p = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider",
                 "--continue-on-collection-errors"],
                cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
                preexec_fn=_limit_memory)
        except subprocess.TimeoutExpired:
            return f"{name}: timed out"
    if p.returncode == 0:
        return f"{name}: survived"
    return f"{name}: killed by {killer(p.stdout)}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--only", action="append", metavar="NAME",
                    help="run only the mutant of this name (repeatable)")
    ns = ap.parse_args(argv)
    names = [m[0] for m in MUTANTS]
    unknown = sorted(set(ns.only or ()) - set(names))
    if unknown:
        ap.error(f"no mutant named {', '.join(map(repr, unknown))}")
    for name, path, old, new in MUTANTS:
        try:
            mutate((ROOT / "src" / "gamesem" / path).read_text(), old, new)
        except ValueError as e:
            print(f"mutants: {name}: {e}", file=sys.stderr)
            return 2
    for name, path, old, new in MUTANTS:
        if ns.only is None or name in ns.only:
            print(run(name, path, old, new), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
