"""Spans and counts at the public boundaries of gamesem's modules.

`Tracer.install` replaces the public functions listed in `WRAPPED`
(in every gamesem namespace that refers to them) and
`InnocentStrategy.respond` with wrappers that time each call.  Nothing
under src/ changes.  A span's self time is its duration minus the time
its child spans cover.  Spans are folded into per-name totals as they
close, because a single op opens up to a few hundred thousand of them.

This module does not import gamesem at the top, so run.py can use the
metric list without paying for the import.
"""
from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

# module -> {function: span name}.  The view functions are traced
# through their *_with_positions forms, which pview/oview call.
WRAPPED = {
    "gamesem.arena": {"arrow": "arena.construct", "product": "arena.construct"},
    "gamesem.plays": {
        "legality_violation": "plays.legality_violation",
        "legal_extensions": "plays.legal_extensions",
        "pview_with_positions": "plays.pview",
        "oview_with_positions": "plays.oview",
        "is_o_innocent": "plays.is_o_innocent",
    },
    "gamesem.strategy": {"explore": "strategy.explore"},
    "gamesem.observation": {
        "prefix_oviews": "observation.prefix_oviews",
        "observations": "observation.observations",
        "induced_test": "observation.induced_test",
        "run_test": "observation.run_test",
    },
    "gamesem.equiv": {
        "obs_equiv": "equiv.obs_equiv",
        "brute_force_leq": "equiv.brute_force_leq",
        "enumerate_closed_odet_sets": "equiv.enumerate_closed_odet_sets",
    },
    "gamesem.pcf": {"parse": "pcf.parse", "denote": "pcf.denote"},
    "gamesem.cli": {"main": "cli.main"},
}

ROOT_SPAN = "bench.op"
RESPOND_KINDS = ("view", "rename", "pair", "compose", "other")
_FACTORY_KIND = {"compose": "compose", "rename_strategy": "rename",
                 "pair_strategies": "pair"}


def node_kind(strategy) -> str:
    """Which factory built a strategy node, read from the qualified
    name of its play function (`compose.<locals>.play_fn`, ...)."""
    if strategy._view_fn is not None:
        return "view"
    factory = strategy._play_fn.__qualname__.partition(".<locals>")[0]
    return _FACTORY_KIND.get(factory, "other")


# (metric, unit, better).  Every count here is machine-independent.
PER_LAYER = [
    ("plays.legality_violation.calls", "count", "lower"),
    ("plays.legality_violation.self_s", "s", "lower"),
    ("plays.legal_extensions.calls", "count", "lower"),
    ("plays.legal_extensions.self_s", "s", "lower"),
    ("plays.legal_extensions.yield", "ratio", "higher"),
    ("plays.pview.calls", "count", "lower"),
    ("plays.pview.self_s", "s", "lower"),
    ("plays.oview.calls", "count", "lower"),
    ("plays.oview.self_s", "s", "lower"),
    ("plays.is_o_innocent.calls", "count", "lower"),
    ("plays.is_o_innocent.self_s", "s", "lower"),
    ("observation.prefix_oviews.calls", "count", "lower"),
    ("observation.prefix_oviews.self_s", "s", "lower"),
    ("observation.observations.self_s", "s", "lower"),
    *[(f"strategy.respond.{k}.{f}", u, "lower")
      for k in RESPOND_KINDS for f, u in (("calls", "count"), ("self_s", "s"))],
    ("strategy.compose.hit_ratio", "ratio", "higher"),
    ("strategy.compose.inner_calls_per_miss", "calls/miss", "lower"),
    ("strategy.explore.self_s", "s", "lower"),
    ("strategy.explore.plays", "count", "lower"),
    ("strategy.explore.bound_exceeded", "count", "lower"),
    ("observation.run_test.bound_exceeded", "count", "lower"),
    ("equiv.brute_force_leq.excluded", "count", "lower"),
    ("arena.construct.calls", "count", "lower"),
    ("arena.construct.self_s", "s", "lower"),
    ("observation.induced_test.calls", "count", "lower"),
    ("observation.induced_test.self_s", "s", "lower"),
    ("observation.run_test.calls", "count", "lower"),
    ("observation.run_test.self_s", "s", "lower"),
    ("equiv.brute_force_leq.self_s", "s", "lower"),
    ("equiv.brute_force_leq.tested", "count", "lower"),
    ("equiv.enumerate_closed_odet_sets.self_s", "s", "lower"),
    ("equiv.enumerate_closed_odet_sets.sets", "count", "lower"),
    ("pcf.parse.self_s", "s", "lower"),
    ("pcf.denote.calls", "count", "lower"),
    ("pcf.denote.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]


class Tracer:
    def __init__(self):
        # Open spans, innermost last: [name, child seconds, child responds].
        self.stack: list[list] = []
        self.calls: Counter[str] = Counter()
        self.self_s: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()

    def span(self, name: str, fn, *args, **kwargs):
        frame = [name, 0.0, 0]
        stack = self.stack
        stack.append(frame)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            dur = perf_counter() - t0
            stack.pop()
            self.calls[name] += 1
            self.self_s[name] += dur - frame[1]
            parent = stack[-1] if stack else None
            if parent is not None:
                parent[1] += dur
            self._close(name, frame, parent)
        self._count(name, result)
        return result

    def _close(self, name: str, frame: list, parent: list | None) -> None:
        if name.startswith("strategy.respond."):
            if parent is not None:
                parent[2] += 1
            if name == "strategy.respond.compose":
                if frame[2] == 0:
                    self.counts["compose.hits"] += 1
                else:
                    self.counts["compose.misses"] += 1
                    self.counts["compose.inner_calls"] += frame[2]
        elif (name == "plays.legality_violation" and parent is not None
              and parent[0] == "plays.legal_extensions"):
            self.counts["legal_extensions.candidates"] += 1

    def _count(self, name: str, result) -> None:
        if name == "plays.legal_extensions":
            self.counts["legal_extensions.returned"] += len(result)
        elif name == "strategy.explore":
            self.counts["explore.plays"] += len(result.plays)
            self.counts["explore.bound_exceeded"] += result.bound_exceeded
        elif name == "observation.run_test":
            self.counts["run_test.bound_exceeded"] += result.name == "BOUND_EXCEEDED"
        elif name == "equiv.brute_force_leq":
            self.counts["brute_force_leq.tested"] += result.tested
            self.counts["brute_force_leq.excluded"] += result.bound_exceeded
        elif name == "equiv.enumerate_closed_odet_sets":
            self.counts["enumerate.sets"] += len(result)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return wrapper

    def install(self) -> None:
        """Wrap the listed functions in every loaded gamesem module.  A
        workload that never loads a module (`oracle` and the CLI) gets
        no spans there."""
        mods = [m for n, m in list(sys.modules.items())
                if n == "gamesem" or n.startswith("gamesem.")]
        for modname, fns in WRAPPED.items():
            src = sys.modules.get(modname)
            if src is None:
                continue
            for fname, span_name in fns.items():
                orig = getattr(src, fname)
                wrapper = self._wrap(span_name, orig)
                for m in mods:
                    for attr in [a for a, v in vars(m).items() if v is orig]:
                        setattr(m, attr, wrapper)
        from gamesem.strategy import InnocentStrategy
        respond = InnocentStrategy.respond
        span = self.span

        @functools.wraps(respond)
        def traced_respond(strategy, s):
            return span("strategy.respond." + node_kind(strategy), respond, strategy, s)

        InnocentStrategy.respond = traced_respond

    def summary(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counts": dict(self.counts)}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(summary: dict, untraced_s: float, traced_s: float,
                  output_bytes: int) -> dict[str, float]:
    """The PER_LAYER metrics from one traced pass."""
    calls, self_s, counts = summary["calls"], summary["self_s"], summary["counts"]
    derived = {
        "plays.legal_extensions.yield": _ratio(counts.get("legal_extensions.returned", 0),
                                               counts.get("legal_extensions.candidates", 0)),
        "strategy.compose.hit_ratio": _ratio(
            counts.get("compose.hits", 0),
            counts.get("compose.hits", 0) + counts.get("compose.misses", 0)),
        "strategy.compose.inner_calls_per_miss": _ratio(counts.get("compose.inner_calls", 0),
                                                        counts.get("compose.misses", 0)),
        "strategy.explore.plays": counts.get("explore.plays", 0),
        "strategy.explore.bound_exceeded": counts.get("explore.bound_exceeded", 0),
        "observation.run_test.bound_exceeded": counts.get("run_test.bound_exceeded", 0),
        "equiv.brute_force_leq.excluded": counts.get("brute_force_leq.excluded", 0),
        "equiv.brute_force_leq.tested": counts.get("brute_force_leq.tested", 0),
        "equiv.enumerate_closed_odet_sets.sets": counts.get("enumerate.sets", 0),
        "cli.output_bytes": output_bytes,
        "trace.overhead_frac": _ratio(traced_s, untraced_s) - 1.0,
    }
    out = {}
    for metric, _, _ in PER_LAYER:
        if metric in derived:
            out[metric] = derived[metric]
        else:
            span, _, field = metric.rpartition(".")
            out[metric] = calls.get(span, 0) if field == "calls" else self_s.get(span, 0.0)
    return out


def self_time_table(summary: dict, traced_s: float) -> list[dict]:
    """Every span's calls, self time and share of the traced op time,
    largest share first.  The shares sum to one; the bench.op row is
    the benchmark's own part of each op."""
    rows = [{"layer": name, "calls": summary["calls"][name], "self_s": s,
             "share": _ratio(s, traced_s)}
            for name, s in summary["self_s"].items()]
    return sorted(rows, key=lambda r: -r["share"])
