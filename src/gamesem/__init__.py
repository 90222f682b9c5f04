"""Bounded game-semantics engine: arenas, innocent strategies,
observational representations, and equivalence checking for a small
functional language with natural numbers and fixpoints.

Importing the package loads none of its modules.  Each public name is
imported from its home module on its first read, by the module
`__getattr__` of PEP 562, and then kept in the package's namespace; so
a program, and each CLI subcommand, compiles only the modules it uses.
"""

import importlib

# each public name, in `__all__`'s order, with the module it lives in
_HOME = {name: module for module, names in (
    ("arena", "Arena MoveLabel arrow make_empty make_nat_arena make_sigma product"),
    ("bounds", "Bounds"),
    ("equiv", "EquivReport LawsReport LeqReport brute_force_leq check_category_laws "
              "enumerate_closed_odet_sets obs_equiv"),
    ("observation", "ODetSet ObservationalStrategy TestVerdict induced_test "
                    "is_observational obs_leq observations prefix_oviews run_test"),
    ("pcf", "PcfError PcfParseError PcfTypeError denote parse typecheck"),
    ("plays", "ROOT Play is_complete oview pview"),
    ("strategy", "BoundExceeded InnocentStrategy as_thunk compose copycat explore "
                 "tabulate traces"),
) for name in names.split()}

__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module("." + _HOME[name], __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
