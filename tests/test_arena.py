import os
import pickle
import re
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


def _doc(moves, enabling=(), initials=("q",)):
    return {"moves": [{"id": m, "label": lab} for m, lab in moves],
            "enabling": [list(e) for e in enabling], "initials": list(initials)}


# One malformed arena document per rule `Arena.validate` enforces, as
# view-set files reach it through `Arena.from_json`.
@pytest.mark.parametrize("doc, rule", [
    pytest.param(_doc([("q", "OQ"), ("q", "PA")]),
                 "duplicate move ids", id="duplicate_move_id"),
    pytest.param(_doc([("q", "OQ")], initials=("q", "z")),
                 "initial move 'z' not in arena", id="unknown_initial"),
    pytest.param(_doc([("a", "PA")], initials=("a",)),
                 "initial move 'a' is not an Opponent question", id="non_oq_initial"),
    pytest.param(_doc([("q", "OQ"), ("a", "PA")], [("q", "a"), ("q", "z")]),
                 r"enabling pair \('q', 'z'\) mentions unknown move", id="unknown_enabled_move"),
    pytest.param(_doc([("q", "OQ"), ("r", "OQ")], [("q", "r")], ("q", "r")),
                 r"enabling pair \('q', 'r'\) does not alternate polarity",
                 id="same_polarity_enabling"),
    pytest.param(_doc([("q", "OQ"), ("a", "PA"), ("x", "OQ")], [("q", "a"), ("a", "x")]),
                 "answers enable nothing, but 'a' enables 'x'", id="answer_enabling"),
    pytest.param(_doc([("q", "OQ"), ("p", "PQ")], [("q", "p"), ("p", "q")]),
                 "initial move 'q' is enabled by 'p'", id="enabled_initial"),
    pytest.param(_doc([("q", "OQ"), ("a", "PA")]),
                 "non-initial move 'a' has no enabler", id="orphan_move"),
])
def test_from_json_rejects_malformed_arena(doc, rule):
    with pytest.raises(ValueError, match=rule):
        Arena.from_json(doc)


# One document per kind of shape fault: the message names the part at
# fault by its path and says what was expected there.
_OK = _doc([("q", "OQ"), ("a", "PA")], [("q", "a")])


@pytest.mark.parametrize("doc, said", [
    pytest.param([], "arena: expected an object, got an array of 0", id="not_an_object"),
    pytest.param({**_OK, "moves": None}, "arena.moves: expected an array, got null",
                 id="null_moves"),
    pytest.param({k: v for k, v in _OK.items() if k != "initials"},
                 "arena.initials: expected an array, got nothing", id="missing_key"),
    pytest.param({**_OK, "moves": [{"id": 1, "label": "OQ"}]},
                 "arena.moves[0].id: expected a string, got an integer", id="int_id"),
    pytest.param({**_OK, "moves": [{"id": "q", "label": "QQ"}]},
                 "arena.moves[0].label: expected one of OA, OQ, PA, PQ, got 'QQ'",
                 id="unknown_label"),
    pytest.param({**_OK, "enabling": [["q"]]},
                 "arena.enabling[0]: expected an array of 2, got an array of 1",
                 id="short_pair"),
    pytest.param({**_OK, "initials": [True]},
                 "arena.initials[0]: expected a string, got a boolean", id="bool_initial"),
])
def test_from_json_names_the_part_of_a_misshapen_arena(doc, said):
    with pytest.raises(ValueError, match=f"^{re.escape(said)}$"):
        Arena.from_json(doc)


def test_json_roundtrip():
    for a in [make_nat_arena(2), make_sigma(),
              arrow(product(make_nat_arena(1), make_nat_arena(1)), make_nat_arena(1))]:
        assert Arena.from_json(a.to_json()) == a


def test_arrow_right_assoc_shape_matches_curried():
    n = make_nat_arena(1)
    c = arrow(n, arrow(n, n))
    assert c.initials == {"R.R.q"}
    assert c.enables("R.R.q", "L.q")
    assert c.enables("R.R.q", "R.L.q")
    assert c.label("R.L.q") is MoveLabel.PQ
    assert c.label("L.q") is MoveLabel.PQ


def test_hash_is_structural_cached_and_not_pickled():
    shared = arrow(arrow(make_nat_arena(1), make_nat_arena(2)), make_nat_arena(1))
    # a copy of its own: other callers may have hashed the shared arena
    a = Arena(shared.labels, shared.enabling, shared.initials, name=shared.name)
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


def test_constructors_share_one_arena_per_value_and_name():
    n1, n2 = make_nat_arena(1), make_nat_arena(2)
    assert make_nat_arena(2) is n2
    assert arrow(n1, n2) is arrow(n1, n2)
    assert product(n1, n2) is product(n1, n2)
    assert arrow(product(n1, n2), n1) is arrow(product(make_nat_arena(1), n2), n1)
    assert make_empty() is make_empty() and make_sigma() is make_sigma()
    # an operand equal by value and name, built apart, finds the same arena
    twin = Arena(n2.labels, n2.enabling, n2.initials, name="N2", kind="nat")
    assert arrow(twin, n1) is arrow(n2, n1)
    assert arrow(n1, n2) is not arrow(n2, n1) and arrow(n1, n2) != product(n1, n2)


def test_an_arrow_over_a_loaded_arena_keeps_its_own_name():
    n = make_nat_arena(2)
    loaded = Arena.from_json(n.to_json())
    assert loaded == n and loaded.name == "loaded"
    over_loaded, over_built = arrow(loaded, n), arrow(n, n)
    assert over_loaded == over_built and over_loaded is not over_built
    assert over_loaded.name == "(loaded => N2)" and over_built.name == "(N2 => N2)"
    assert over_loaded.parts[0].kind == "loaded" and over_built.parts[0].kind == "nat"
    assert product(n, loaded).name == "(N2 x loaded)" and product(n, n).name == "(N2 x N2)"
    assert arrow(Arena.from_json(n.to_json()), n) is over_loaded
