import importlib.util
from pathlib import Path

import pytest

from gamesem import pcf

_spec = importlib.util.spec_from_file_location(
    "depth_limits", Path(__file__).resolve().parent.parent / "scripts" / "depth_limits.py")
depth_limits = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(depth_limits)

TOP = pcf.MAX_NESTING - 1


@pytest.mark.parametrize("limit", [0, 1, 2, 141, TOP - 1, TOP])
def test_bisection_finds_the_largest_passing_depth(limit):
    asked = []

    def ok(n):
        asked.append(n)
        return n <= limit

    depth, probes = depth_limits.largest(ok, TOP)
    assert depth == limit and probes == len(asked) == len(set(asked))
    # a shape that passes at the parser's limit costs one probe
    assert (probes == 1) is (limit == TOP)


@pytest.mark.parametrize("shape", sorted(depth_limits.SHAPES))
def test_every_shape_parses_at_the_largest_depth(shape):
    assert pcf.parse(depth_limits.SHAPES[shape](TOP))
