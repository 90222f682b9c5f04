"""Walk through the headline example: two evaluation orders for
addition have different trace sets but the same observable content,
and the verdict for a three-question variant flips with the play
budget.

Run from the repository root:

    python scripts/compare_adds.py
"""
import argparse
import sys

from gamesem.bounds import Bounds
from gamesem.corpus import CorpusEntry, entry
from gamesem.equiv import obs_equiv
from gamesem.observation import observations
from gamesem.pcf import make_add
from gamesem.plays import Play
from gamesem.strategy import traces


def show_play(p: Play) -> str:
    return " ".join(m for m, _ in p.moves)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-nat", type=int, default=2)
    ap.add_argument("--max-play-len", type=int, default=6)
    ns = ap.parse_args(argv)
    b = Bounds(max_nat=ns.max_nat, max_play_len=ns.max_play_len)

    lr = make_add(("L", "R"), b.max_nat)
    rl = make_add(("R", "L"), b.max_nat)
    t1, t2 = traces(lr, b), traces(rl, b)
    print(f"bounds: {b.to_json()}")
    print(f"trace sets: left-first {len(t1)} plays, "
          f"right-first {len(t2)} plays, equal: {t1 == t2}")
    only_lr = sorted(t1 - t2, key=lambda p: (len(p.moves), p.moves))
    only_rl = sorted(t2 - t1, key=lambda p: (len(p.moves), p.moves))
    if only_lr and only_rl:
        print(f"  first play only left-first reaches:  {show_play(only_lr[0])}")
        print(f"  first play only right-first reaches: {show_play(only_rl[0])}")

    x, y = observations(lr, b), observations(rl, b)
    print(f"observable content: {len(x.sets)} vs {len(y.sets)} view sets, "
          f"equal: {x.sets == y.sets}")
    rep = obs_equiv(lr, rl, b)
    print(f"verdict: {rep.verdict}")

    print()
    print("bound relativity for the three-question sum x + x + y:")
    llr = entry("add_LLR")
    two = entry("add_LR")
    for play_len in (ns.max_play_len, ns.max_play_len + 2):
        bb = Bounds(max_nat=ns.max_nat, max_play_len=play_len)
        s1 = CorpusEntry(llr.name, llr.source, bb).build()
        s2 = CorpusEntry(two.name, two.source, bb).build()
        r = obs_equiv(s1, s2, bb)
        n1 = len(observations(s1, bb).sets)
        print(f"  max_play_len={play_len}: {r.verdict} "
              f"(three-question content: {n1} sets)")

    ok = (t1 != t2) and rep.equal
    print()
    print("ok" if ok else "UNEXPECTED OUTCOME")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
