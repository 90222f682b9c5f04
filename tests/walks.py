"""The plays an innocent, single-threaded Opponent reaches, read from
`strategy.walk` as `strategy.explore` reads every Opponent's."""
from gamesem.bounds import Bounds
from gamesem.plays import Play
from gamesem.strategy import InnocentStrategy, TraceResult, walk


def innocent_explore(sigma: InnocentStrategy, b: Bounds) -> TraceResult:
    """`explore`'s result against the innocent Opponent: the empty play
    and every play `walk` yields, and a count of its bound hits."""
    steps = list(walk(sigma, b, innocent_opponent=True))
    plays = [step[0] for step in steps if step is not None]
    return TraceResult(frozenset([Play(sigma.arena), *plays]), len(steps) - len(plays))
