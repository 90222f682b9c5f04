import os
import pickle
import subprocess
import sys

import pytest

from gamesem.arena import (
    Arena,
    MoveLabel,
    arrow,
    make_empty,
    make_nat_arena,
    make_sigma,
    product,
    rename_arena,
)


def test_nat_arena_shape():
    n = make_nat_arena(3)
    assert n.moves == {"q", "0", "1", "2", "3"}
    assert n.initials == {"q"}
    assert n.label("q") is MoveLabel.OQ
    assert all(n.label(str(k)) is MoveLabel.PA for k in range(4))
    assert n.enables("q", "2")
    assert not n.enables("2", "q")
    n.validate()


def test_sigma_shape():
    s = make_sigma()
    assert s.moves == {"q", "a"}
    assert s.enables("q", "a")
    s.validate()


def test_empty_is_product_unit_up_to_tagging():
    e = make_empty()
    n = make_nat_arena(1)
    p = product(e, n)
    assert p.moves == {"R.q", "R.0", "R.1"}
    assert p.initials == {"R.q"}


def test_product_keeps_polarity():
    n = make_nat_arena(1)
    p = product(n, n)
    assert p.label("L.q") is MoveLabel.OQ
    assert p.label("R.q") is MoveLabel.OQ
    assert p.initials == {"L.q", "R.q"}
    p.validate()


def test_arrow_flips_left_and_rewires_initials():
    n = make_nat_arena(1)
    a = arrow(n, n)
    assert a.label("L.q") is MoveLabel.PQ
    assert a.label("L.0") is MoveLabel.OA
    assert a.label("R.q") is MoveLabel.OQ
    assert a.initials == {"R.q"}
    assert a.enables("R.q", "L.q")
    a.validate()


def test_arrow_of_product_move_names():
    n = make_nat_arena(1)
    a = arrow(product(n, n), n)
    assert "L.L.q" in a.moves and "L.R.q" in a.moves and "R.q" in a.moves
    assert a.enables("R.q", "L.L.q") and a.enables("R.q", "L.R.q")
    a.validate()


def test_structural_equality_ignores_name():
    n1 = make_nat_arena(2)
    n2 = Arena(n1.labels, n1.enabling, n1.initials, name="other")
    assert n1 == n2
    assert hash(n1) == hash(n2)
    assert n1 != make_nat_arena(3)


def test_validate_rejects_non_oq_initial():
    bad = Arena((("a", MoveLabel.PA),), (), frozenset({"a"}))
    with pytest.raises(ValueError):
        bad.validate()


def test_validate_rejects_answer_enabling():
    bad = Arena(
        (("q", MoveLabel.OQ), ("a", MoveLabel.PA), ("x", MoveLabel.OQ)),
        (("q", "a"), ("a", "x")),
        frozenset({"q"}),
    )
    with pytest.raises(ValueError):
        bad.validate()


def test_validate_rejects_same_polarity_enabling():
    bad = Arena(
        (("q", MoveLabel.OQ), ("r", MoveLabel.OQ)),
        (("q", "r"),),
        frozenset({"q", "r"}),
    )
    with pytest.raises(ValueError):
        bad.validate()


def test_validate_rejects_orphan_move():
    bad = Arena(
        (("q", MoveLabel.OQ), ("a", MoveLabel.PA)),
        (),
        frozenset({"q"}),
    )
    with pytest.raises(ValueError):
        bad.validate()


def test_json_roundtrip():
    for a in [make_nat_arena(2), make_sigma(),
              arrow(product(make_nat_arena(1), make_nat_arena(1)), make_nat_arena(1))]:
        assert Arena.from_json(a.to_json()) == a


def test_rename_arena_injectivity_guard():
    n = make_nat_arena(1)
    with pytest.raises(ValueError):
        rename_arena(n, lambda m: "x", "collapsed")


def test_arrow_right_assoc_shape_matches_curried():
    n = make_nat_arena(1)
    c = arrow(n, arrow(n, n))
    assert c.initials == {"R.R.q"}
    assert c.enables("R.R.q", "L.q")
    assert c.enables("R.R.q", "R.L.q")
    assert c.label("R.L.q") is MoveLabel.PQ
    assert c.label("L.q") is MoveLabel.PQ


def test_hash_is_structural_cached_and_not_pickled():
    a = arrow(arrow(make_nat_arena(1), make_nat_arena(2)), make_nat_arena(1))
    want = hash((a.labels, a.enabling, a.initials))
    assert "_hash" not in vars(a)
    assert hash(a) == want
    assert "_hash" in vars(a)
    assert hash(a) == want
    b = pickle.loads(pickle.dumps(a))
    assert "_hash" not in vars(b)
    assert hash(b) == want and b == a


def _python(code, seed, data=b""):
    env = {**os.environ, "PYTHONHASHSEED": seed}
    return subprocess.run([sys.executable, "-c", code], input=data, env=env,
                          capture_output=True, check=True).stdout


def test_unpickled_hash_follows_the_hash_seed():
    # Pickled after hashing under one seed, hashed under another: the
    # arena must hash like a freshly built one, or dict lookups miss.
    make = "import pickle, sys; from gamesem.arena import arrow, make_nat_arena as N; a = arrow(N(1), N(2))"
    data = _python(f"{make}; hash(a); sys.stdout.buffer.write(pickle.dumps(a))", "1")
    out = _python(f"{make}; b = pickle.loads(sys.stdin.buffer.read()); "
                  "print(hash(b) == hash(a), {a: 1}.get(b))", "2", data)
    assert out.split() == [b"True", b"1"]
