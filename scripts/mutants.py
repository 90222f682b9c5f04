"""Run the tier-1 tests against named mutants of the engine's rules.

    python scripts/mutants.py [--only NAME ...]

Each mutant is one exact source replacement in one file under
src/gamesem, which must apply exactly once.  For each, the repository
is copied to a temporary directory, the replacement applied there, and
`python -m pytest -x` run on the copy with PYTHONHASHSEED=0, so the
checkout itself is never changed.  One line per mutant is printed, in
the list's order: killed, with the first test that failed; survived;
or timed out after TIMEOUT_S seconds.  A survivor is either
killed by a new test or explained as equivalent in CHANGES.md; no
mutant is dropped to make the report pass.  Exits 2 if a mutant does
not apply exactly once, and 0 otherwise, whatever the report says: CI
diffs the report against tests/data/mutants.txt.
"""
from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Tier-1 takes under a minute on a 2-core host: only a mutant that
# never ends runs this long.
TIMEOUT_S = 600

# (name, file under src/gamesem, the source, its replacement)
MUTANTS = [
    # a node is asked with the P-view it keys on
    ("answer: reply pointer not read through positions", "strategy.py",
     "return None if r is None else (r[0], positions[r[1]])",
     "return None if r is None else (r[0], r[1])"),
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
     "forced = omap.get(okey)", "forced = None"),
    ("walk: O-innocence map never grows", "strategy.py",
     "child_omap = {**omap, okey: e[3][-1]}", "child_omap = omap"),
    ("observations: a play at the cap without its last O-view", "observation.py",
     "views += (next_views(views, *moves[-1]),)", "pass"),
    # test runs and the view-set door
    ("run: success ignores the cap", "observation.py",
     "return TestVerdict.BOUND_EXCEEDED if i > cap else TestVerdict.TOP",
     "return TestVerdict.TOP"),
    ("door: ODetSet accepts anything", "observation.py",
     'raise ValueError(f"not an O-deterministic view-set: {got}")', "got = {}"),
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
                cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
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
