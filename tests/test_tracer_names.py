import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


@pytest.mark.parametrize("modname", sorted(tracer.WRAPPED))
def test_every_traced_function_exists(modname):
    # The benchmark's tracer looks each name up when it installs, so a
    # name removed from gamesem breaks every traced run.
    module = importlib.import_module(modname)
    missing = [f for f in tracer.WRAPPED[modname] if not callable(getattr(module, f, None))]
    assert missing == []


# Installed in a child process: `Tracer.install` patches gamesem's
# modules for the life of the process.
_VIEW_SPANS = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from gamesem import plays
from gamesem.arena import make_nat_arena
from tracer import Tracer
t = Tracer()
t.install()
s = plays.Play(make_nat_arena(1), (("q", plays.ROOT),))
plays.pview(s)
plays.oview(s)
print(json.dumps(t.summary()["calls"]))
"""


def test_the_view_functions_are_traced_through_their_positions_forms():
    # the tracer wraps `pview_with_positions` and `oview_with_positions`
    # as the spans `plays.pview` and `plays.oview`, which count the view
    # functions only if `pview` and `oview` call them
    out = subprocess.run(
        [sys.executable, "-c", _VIEW_SPANS, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True, text=True, check=True, timeout=120).stdout
    calls = json.loads(out)
    assert (calls.get("plays.pview"), calls.get("plays.oview")) == (1, 1)
