"""Print how deep each shape of term can nest before `gamesem obs` runs
out of stack.

For each shape (nested `succ`s, nested `pred`s, a chain of lambdas, a
left-nested sum of `1`s, and a nested `ifz` condition) it prints the
largest depth, up to `pcf.MAX_NESTING - 1`, at which

    gamesem obs TERM --max-nat 1 --max-play-len 4

exits 0, found by bisection with one fresh process per probe, and the
number of probes it took.  A shape that passes at the largest depth
costs one probe.  The search assumes that a shape which passes at some
depth passes at every smaller one.  The limits depend on the Python
version, which sets each frame's size against the interpreter's stack,
and can move by a level between versions, so the report is not pinned.
Run from the repository root:

    PYTHONPATH=src python scripts/depth_limits.py
"""
import subprocess
import sys
import tempfile
from pathlib import Path

from gamesem import pcf

# depth -> the term's source
SHAPES = {
    "succ": lambda n: "succ " * n + "0\n",
    "pred": lambda n: "pred " * n + "1\n",
    "lambdas": lambda n: "".join(f"fun x{i}: nat -> " for i in range(n)) + "x0\n",
    "sum": lambda n: " + ".join(["1"] * n) + "\n",
    "ifz": lambda n: "ifz " * n + "0" + " then 0 else 0" * n + "\n",
}
ARGS = ("--max-nat", "1", "--max-play-len", "4")


def passes(source: str) -> bool:
    """Whether `obs` on `source` exits 0, run in a fresh process."""
    with tempfile.TemporaryDirectory() as tmp:
        f = Path(tmp) / "deep.pcf"
        f.write_text(source)
        p = subprocess.run([sys.executable, "-m", "gamesem.cli", "obs", str(f), *ARGS],
                           capture_output=True, text=True)
    return p.returncode == 0


def largest(ok, hi: int) -> tuple[int, int]:
    """(the largest depth in 0..hi at which `ok` holds, the probes made),
    for an `ok` that holds at depth 0 and at every depth below one where
    it holds.  `ok` is asked at `hi` first."""
    probes = 1
    if ok(hi):
        return hi, probes
    lo = 0   # ok(lo) holds and ok(hi) does not
    while hi - lo > 1:
        mid = (lo + hi) // 2
        probes += 1
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo, probes


def main() -> None:
    print(f"Python {sys.version.split()[0]}, obs {' '.join(ARGS)}, "
          f"depths up to {pcf.MAX_NESTING - 1}")
    for name, make in SHAPES.items():
        depth, probes = largest(lambda n: passes(make(n)), pcf.MAX_NESTING - 1)
        print(f"{name}: {depth} ({probes} probes)")


if __name__ == "__main__":
    main()
