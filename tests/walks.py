"""The plays an innocent, single-threaded Opponent reaches, read from
`strategy.walk` as `strategy.explore` reads every Opponent's."""
from gamesem.bounds import Bounds
from gamesem.plays import Play
from gamesem.strategy import InnocentStrategy, TraceResult, walk


def innocent_explore(sigma: InnocentStrategy, b: Bounds) -> TraceResult:
    """`explore`'s result against the innocent Opponent: every play
    `walk` yields, as its moves, the empty play first, in `explore`'s
    order, and a count of its bound hits."""
    steps = list(walk(sigma, b, innocent_opponent=True))
    moves = sorted((step[0] for step in steps if step is not None), key=len)
    return TraceResult(sigma.arena, tuple(moves), len(steps) - len(moves))


def played(res: TraceResult) -> tuple[Play, ...]:
    """The plays of `res`, in its order, each as a `Play`."""
    return tuple(Play(res.arena, moves) for moves in res.plays)
