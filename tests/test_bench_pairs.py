import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_quartiles_are_median_first():
    assert bench_pairs.quartiles([5, 1, 4, 2, 3]) == (3, 2, 4)


def test_a_change_that_wins_every_pair_by_more_than_the_spread_shows_a_gain():
    parent = [70, 71, 69, 70, 72, 70, 71, 69, 70, 73]
    change = [p + 30 for p in parent]
    row = bench_pairs.compare(parent, change, "higher")
    assert row["parent"] == (70, 70, 71)
    assert row["change"] == (100, 100, 101)
    assert (row["wins"], row["pairs"], row["gain"]) == (10, 10, True)
    assert row["diff"] == pytest.approx(3 / 7)


def test_ties_and_losses_count_against_a_gain():
    # lower is better: eight wins, one tie, one loss
    parent = [1.0] * 10
    change = [0.5] * 8 + [1.0, 1.5]
    row = bench_pairs.compare(parent, change, "lower")
    assert (row["wins"], row["gain"]) == (8, False)
    # nine wins of ten, and a median well below the parent's
    row = bench_pairs.compare(parent, [0.5] * 9 + [1.0], "lower")
    assert (row["wins"], row["gain"]) == (9, True)


def test_a_win_inside_the_parent_spread_is_no_gain():
    parent = [10, 20, 30, 40, 50] * 2
    row = bench_pairs.compare(parent, [p + 1 for p in parent], "higher")
    assert row["wins"] == 10
    assert not row["gain"]   # medians 30 and 31; the parent's q1..q3 is 20..40


def test_fewer_than_ten_pairs_show_no_gain():
    row = bench_pairs.compare([1.0] * 9, [2.0] * 9, "higher")
    assert (row["wins"], row["gain"]) == (9, False)


def test_a_checkout_with_bytecode_under_src_is_refused(tmp_path, capsys):
    # bytecode left on one side would time loading it, not compiling
    parent, change = tmp_path / "parent", tmp_path / "change"
    (parent / "src" / "gamesem").mkdir(parents=True)
    cache = change / "src" / "gamesem" / "__pycache__"
    cache.mkdir(parents=True)
    argv = [str(parent), str(change), "--workload", "equiv", "--pairs", "2", "--seconds", "1"]
    assert bench_pairs.main(argv) == 2
    err = capsys.readouterr().err
    assert str(cache) in err and str(parent) not in err
