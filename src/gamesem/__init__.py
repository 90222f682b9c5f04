"""Bounded game-semantics engine: arenas, innocent strategies,
observational representations, and equivalence checking for a small
functional language with natural numbers and fixpoints."""

from .arena import Arena, MoveLabel, arrow, make_empty, make_nat_arena, make_sigma, product
from .bounds import Bounds
from .equiv import (
    EquivReport,
    LawsReport,
    LeqReport,
    brute_force_leq,
    check_category_laws,
    enumerate_closed_odet_sets,
    obs_equiv,
)
from .observation import (
    ODetSet,
    ObservationalStrategy,
    TestVerdict,
    induced_test,
    is_observational,
    obs_leq,
    observations,
    prefix_oviews,
    run_test,
)
from .pcf import PcfError, PcfParseError, PcfTypeError, denote, parse, typecheck
from .plays import ROOT, Play, is_complete, oview, pview
from .strategy import (
    BoundExceeded,
    InnocentStrategy,
    as_thunk,
    compose,
    copycat,
    explore,
    tabulate,
    traces,
)

__all__ = [
    "Arena", "MoveLabel", "arrow", "make_empty", "make_nat_arena", "make_sigma",
    "product", "Bounds", "EquivReport", "LawsReport", "LeqReport",
    "brute_force_leq", "check_category_laws", "enumerate_closed_odet_sets",
    "obs_equiv", "ODetSet", "ObservationalStrategy", "TestVerdict",
    "induced_test", "is_observational", "obs_leq", "observations",
    "prefix_oviews", "run_test", "PcfError", "PcfParseError",
    "PcfTypeError", "denote", "parse", "typecheck", "ROOT", "Play",
    "is_complete", "oview", "pview",
    "BoundExceeded", "InnocentStrategy", "as_thunk", "compose", "copycat",
    "explore", "tabulate", "traces",
]

__version__ = "0.1.0"
