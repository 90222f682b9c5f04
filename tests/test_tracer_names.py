import importlib
import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "tracer", Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py")
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


@pytest.mark.parametrize("modname", sorted(tracer.WRAPPED))
def test_every_traced_function_exists(modname):
    # The benchmark's tracer looks each name up when it installs, so a
    # name removed from gamesem breaks every traced run.
    module = importlib.import_module(modname)
    missing = [f for f in tracer.WRAPPED[modname] if not callable(getattr(module, f, None))]
    assert missing == []
