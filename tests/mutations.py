"""Mutated JSON documents, drawn by Hypothesis, for the fuzzes of the
JSON doors."""
import copy
from functools import reduce
from operator import getitem

from hypothesis import strategies as st


def paths(o, at=()):
    """The path to every part of the document `o`, `o` itself first."""
    yield at
    items = o.items() if isinstance(o, dict) else enumerate(o) if isinstance(o, list) else ()
    for k, v in items:
        yield from paths(v, at + (k,))


def mutated(draw, doc, junk, favoured):
    """A copy of the document `doc` after one to three mutations, each
    of which deletes one part or puts a draw of `junk` in its place.
    The parts whose path `favoured` accepts are three times as likely
    as the others, and the whole document is the last choice."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        root, *parts = paths(doc)
        path = draw(st.sampled_from(3 * [p for p in parts if favoured(p)] + parts + [root]))
        if not path:
            doc = copy.deepcopy(draw(junk))
            continue
        parent = reduce(getitem, path[:-1], doc)
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(draw(junk))
    return doc
