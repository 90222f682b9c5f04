"""No strategy node holds itself: a denotation, its memos and their
interactions are freed by reference counting when the last reference
goes, and a CLI run leaves none of gamesem's objects for the cyclic
collector.  Both tests run with the collector off, so only reference
counting frees anything."""
import gc
import types
import weakref

import pytest

from gamesem import cli, pcf, strategy
from gamesem.bounds import Bounds
from gamesem.equiv import brute_force_leq, obs_equiv

# Between them the terms build every node kind `denote` builds.
TERMS = [
    "fun x: nat -> fun y: nat -> x + y",          # var, fun, the sum of two variables
    "fun f: nat -> nat -> f (f 1)",               # app, num
    "fun x: nat -> succ (pred x) + 0",            # succ, pred, the composed sum
    "fun x: nat -> ifz x then 0 else 1",          # ifz
    "fix (fun f: nat -> nat -> fun x: nat -> ifz x then 0 else f (pred x))",   # fix
]
NODE_NAMES = {"num[0]", "num[1]", "var[x]", "var[f]", "fun[x]", "app", "eval", "succ", "pred",
              "add", "add_vars[x,y]", "ifz", "bottom", "den"}


@pytest.fixture
def collector_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _exercise(src: str, b: Bounds) -> None:
    # two denotations of one term, their memos filled by each route
    t = pcf.parse(src)
    s1, s2 = pcf.denote(t, b), pcf.denote(t, b)
    assert obs_equiv(s1, s2, b).equal
    assert strategy.tabulate(s1, b)
    assert brute_force_leq(s1, s2, b).holds


def test_every_node_a_denotation_builds_is_freed_on_del(monkeypatch, collector_off):
    built = []
    init = strategy.InnocentStrategy.__init__

    def recording(self, arena, name, **fns):
        init(self, arena, name, **fns)
        built.append((name, weakref.ref(self)))

    monkeypatch.setattr(strategy.InnocentStrategy, "__init__", recording)
    b = Bounds(max_nat=1, max_play_len=8, max_view_len=4, fix_depth=2)
    for src in TERMS:
        _exercise(src, b)
    assert NODE_NAMES <= {name for name, _ in built}
    assert [name for name, node in built if node() is not None] == []


def _ours(o) -> bool:
    """Whether an object the collector found is gamesem's: an instance
    of one of its classes, or one of its functions or frames."""
    if isinstance(o, types.FunctionType):
        return (o.__module__ or "").startswith("gamesem")
    if isinstance(o, types.FrameType):
        return o.f_globals.get("__name__", "").startswith("gamesem")
    return type(o).__module__.startswith("gamesem")


def test_a_cli_run_leaves_no_cyclic_garbage(tmp_path, capsys, collector_off):
    once, twice = tmp_path / "once.pcf", tmp_path / "twice.pcf"
    once.write_text("fun f: nat -> nat -> f 1\n")
    twice.write_text("fun f: nat -> nat -> f (f 1)\n")
    small = ["--max-nat", "1", "--max-play-len", "8", "--max-view-len", "4"]
    # The collector keeps what it finds in gc.garbage, and only
    # gamesem's objects there count: a cycle the standard library
    # leaves (argparse does, on a process's first run) is not ours.
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for argv in (["traces", str(twice)], ["obs", str(twice)], ["denote", str(twice)],
                     ["equiv", str(once), str(twice), "--oracle", *small], ["laws", *small]):
            assert cli.main(argv) in (0, 1)
            gc.collect()
            assert [type(o).__name__ for o in gc.garbage if _ours(o)] == [], argv[0]
            gc.garbage.clear()
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    capsys.readouterr()
