"""The package's names load on first use: `import gamesem` loads no
module, each CLI subcommand loads only the modules it calls, and every
public name still resolves to its home module's object."""
import importlib
import json
import re
import subprocess
import sys

import pytest

import gamesem
from gamesem.arena import make_nat_arena
from gamesem.observation import ODetSet
from gamesem.plays import ROOT

# `gamesem.__all__` as it was when every module loaded with the
# package, in order, grouped by home module
HOMES = [
    ("arena", ["Arena", "MoveLabel", "arrow", "make_empty", "make_nat_arena", "make_sigma",
               "product"]),
    ("bounds", ["Bounds"]),
    ("equiv", ["EquivReport", "LawsReport", "LeqReport", "brute_force_leq",
               "check_category_laws", "enumerate_closed_odet_sets", "obs_equiv"]),
    ("observation", ["ODetSet", "ObservationalStrategy", "TestVerdict", "induced_test",
                     "is_observational", "obs_leq", "observations", "prefix_oviews",
                     "run_test"]),
    ("pcf", ["PcfError", "PcfParseError", "PcfTypeError", "denote", "parse", "typecheck"]),
    ("plays", ["ROOT", "Play", "is_complete", "oview", "pview"]),
    ("strategy", ["BoundExceeded", "InnocentStrategy", "as_thunk", "compose", "copycat",
                  "explore", "tabulate", "traces"]),
]
NAMES = [name for _, names in HOMES for name in names]


def test_all_keeps_its_names_and_order():
    assert gamesem.__all__ == NAMES


def test_each_name_is_its_home_modules_object():
    for module, names in HOMES:
        home = importlib.import_module(f"gamesem.{module}")
        assert [n for n in names if getattr(gamesem, n) is not getattr(home, n)] == []


def test_dir_and_star_import_give_every_name():
    assert set(NAMES) <= set(dir(gamesem))
    ns = {}
    exec("from gamesem import *", ns)
    assert {n: ns[n] for n in NAMES} == {n: getattr(gamesem, n) for n in NAMES}


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError,
                       match=r"^module 'gamesem' has no attribute 'no_such_name'$"):
        gamesem.no_such_name


# what any CLI run loads: the package and the modules a term is denoted with
DENOTE = {"gamesem", "gamesem.arena", "gamesem.bounds", "gamesem.plays", "gamesem.strategy",
          "gamesem.pcf"}
OBSERVE = DENOTE | {"gamesem.observation"}
DECIDE = OBSERVE | {"gamesem.equiv"}


def loaded(*args: str) -> set[str]:
    """The gamesem modules a fresh interpreter started with `args`
    imports, read from its `-X importtime` report.  A module run with
    `-m` runs as `__main__` and is not in the report."""
    r = subprocess.run([sys.executable, "-X", "importtime", *args],
                       capture_output=True, text=True, timeout=60)
    assert r.returncode == 0, r.stderr[-2000:]
    return set(re.findall(r"^import time:.*\| +(gamesem(?:\.\w+)?)$", r.stderr, re.M))


def test_importing_the_package_loads_no_module():
    assert loaded("-c", "import gamesem") == {"gamesem"}
    assert loaded("-c", "import gamesem.cli") == DENOTE | {"gamesem.cli"}


SUBCOMMANDS = [
    (["parse", "t.pcf"], DENOTE),
    (["denote", "t.pcf"], DENOTE),
    (["traces", "t.pcf"], DENOTE),
    (["obs", "t.pcf"], OBSERVE),
    (["test", "t.pcf", "--set", "s.json", "--max-nat", "2"], OBSERVE),
    (["equiv", "t.pcf", "t.pcf"], DECIDE),
    (["equiv", "t.pcf", "t.pcf", "--oracle"], DECIDE),
    (["laws", "--max-nat", "1"], DECIDE | {"gamesem.corpus"}),
]


@pytest.mark.parametrize("argv,modules", SUBCOMMANDS,
                         ids=[" ".join(argv) for argv, _ in SUBCOMMANDS])
def test_each_subcommand_loads_only_what_it_calls(tmp_path, argv, modules):
    (tmp_path / "t.pcf").write_text("succ 0\n")
    s = ODetSet.make(make_nat_arena(2), [(("q", ROOT), ("1", 0))])
    (tmp_path / "s.json").write_text(json.dumps(s.to_json(include_arena=True)))
    args = [str(tmp_path / a) if a.endswith((".pcf", ".json")) else a for a in argv]
    assert loaded("-m", "gamesem.cli", *args) == modules
