"""Sweep the whole strategy pair battery with both decision methods.

For every pair the observational comparison (set equality of view-set
families) is checked against the brute-force oracle (run every closed
deterministic view set as a test and compare convergence verdicts both
ways).  Any disagreement, or any test run lost to the interaction
budget, fails the sweep.

After the first-order battery (`corpus.PAIRS`) come four higher-order
pairs on (nat -> nat) -> nat, each at bounds where no test is lost.

The report goes to stdout and the elapsed time to stderr, so the
reports of two checkouts compare with a plain diff;
tests/data/oracle_sweep.txt holds the expected report.  Run from the
repository root:

    python scripts/oracle_sweep.py [-v]
"""
import argparse
import sys
import time

from gamesem.bounds import Bounds
from gamesem.corpus import PAIRS, build_pair
from gamesem.equiv import brute_force_leq, obs_equiv
from gamesem.pcf import denote, parse

HIGHER_ORDER_TERMS = {
    "once": "fun f: nat -> nat -> f 1",
    "twice": "fun f: nat -> nat -> f (f 1)",
    "thrice": "fun f: nat -> nat -> f (f (f 1))",
}

# (left, right, bounds, expected equivalence)
HIGHER_ORDER_PAIRS = (
    ("once", "twice", Bounds(max_nat=1, max_play_len=16, max_view_len=8), False),
    ("twice", "thrice", Bounds(max_nat=1, max_play_len=20, max_view_len=6), False),
    ("once", "thrice", Bounds(max_nat=1, max_play_len=20, max_view_len=6), False),
    ("once", "once", Bounds(max_nat=1, max_play_len=12, max_view_len=6), True),
)


def cases():
    """(left, right, left strategy, right strategy, bounds, expected)."""
    for p in PAIRS:
        yield (p.left, p.right, *build_pair(p), p.bounds, p.expect_equal)
    for left, right, b, expect in HIGHER_ORDER_PAIRS:
        s1, s2 = (denote(parse(HIGHER_ORDER_TERMS[t]), b) for t in (left, right))
        yield left, right, s1, s2, b, expect


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("-v", "--verbose", action="store_true",
                    help="print the per-pair leq verdicts too")
    ns = ap.parse_args(argv)

    t0 = time.time()
    rows = list(cases())
    width = max(len(f"{left} vs {right}") for left, right, *_ in rows)
    bad = 0
    for left, right, s1, s2, b, expect in rows:
        rep = obs_equiv(s1, s2, b)
        fwd = brute_force_leq(s1, s2, b)
        bwd = brute_force_leq(s2, s1, b)
        oracle_equal = fwd.holds and bwd.holds
        excluded = fwd.bound_exceeded + bwd.bound_exceeded
        agree = rep.equal == oracle_equal == expect and excluded == 0
        bad += not agree
        mark = "ok " if agree else "BAD"
        name = f"{left} vs {right}"
        print(f"{mark} {name:<{width}}  obs={rep.verdict:<15} "
              f"oracle_equal={oracle_equal!s:<5} expect={expect!s:<5} "
              f"tested={fwd.tested + bwd.tested:>4} excluded={excluded}")
        if ns.verbose:
            print(f"    {left} <= {right}: {fwd.verdict}")
            print(f"    {right} <= {left}: {bwd.verdict}")

    print(f"\n{len(rows)} pairs, disagreements: {bad}")
    print(f"elapsed: {time.time() - t0:.1f}s", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
