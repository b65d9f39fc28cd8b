"""Fast color reduction and MIS by sweeping color classes.

The reduction step encodes a color c < K as the base-q digit vector of
c, i.e. a polynomial of degree at most d over F_q with q^(d+1) >= K.
Two distinct polynomials agree on at most d points, so with q > d*Delta
every node finds an evaluation point a where it differs from all its
neighbors, and (a, p_c(a)) is a proper q^2-coloring after one exchange.
Iterating shrinks K roughly to (Delta log K)^2 per step, which stalls
at a fixpoint of K -> q(K, Delta)^2 after O(log* K) steps.

Parameter choice is the whole game: linial_params scans the degree and
takes the cheapest prime, so callers get a deterministic (q, d) and the
fixpoint is a pure function of (K, Delta).

mis_by_colors turns any proper coloring into a maximal independent set
in max(color)+1 rounds: class by class, everyone not yet dominated
joins and says so.  On graphs of max degree 3 a maximal set covers at
least a quarter of the nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .graphs import InvariantError, check
from .sim import Message, NodeProgram, run_protocol


@dataclass(frozen=True)
class PolyParams:
    q: int
    d: int


def _is_prime(x: int) -> bool:
    if x < 2:
        return False
    f = 2
    while f * f <= x:
        if x % f == 0:
            return False
        f += 1
    return True


def _ceil_root(K: int, e: int) -> int:
    """Smallest q >= 2 with q**e >= K."""
    q = max(2, int(round(K ** (1.0 / e))))
    while q > 2 and (q - 1) ** e >= K:
        q -= 1
    while q**e < K:
        q += 1
    return q


def linial_params(K: int, delta: int) -> PolyParams:
    """Cheapest (q, d): q prime, q > d*delta, q^(d+1) >= K, minimal q^2.

    Ties between degrees go to the smaller d.  The scan stops once the
    q > d*delta constraint alone rules out improving on the best prime.
    """
    if K < 2:
        raise ValueError(f"need at least two colors to reduce, got K={K}")
    if delta < 0:
        raise ValueError("max degree cannot be negative")
    best = None
    d = 1
    while True:
        q = max(delta * d + 1, _ceil_root(K, d + 1))
        while not _is_prime(q):
            q += 1
        if best is None or q < best.q:
            best = PolyParams(q=q, d=d)
        d += 1
        if max(delta * d + 1, 2) >= best.q:
            return best


def _schedule(K: int, delta: int):
    """Reduction steps from K classes until q^2 stops shrinking K:
    ([(params, input color width), ...], final class count)."""
    steps = []
    while K >= 2:
        p = linial_params(K, delta)
        if p.q * p.q >= K:
            break
        steps.append((p, max(1, (K - 1).bit_length())))
        K = p.q * p.q
    return steps, K


def linial_fixpoint(K: int, delta: int) -> int:
    """Class count where iterated reduction from K colors stalls."""
    return _schedule(K, delta)[1]


def log_star(n: int) -> int:
    count = 0
    x = float(n)
    while x > 1.0:
        x = math.log2(x)
        count += 1
    return count


def _poly_eval(c: int, a: int, q: int, d: int) -> int:
    val, power = 0, 1
    for _ in range(d + 1):
        val = (val + (c % q) * power) % q
        c //= q
        power = (power * a) % q
    return val


def _recolor(c: int, others, p: PolyParams) -> int:
    for a in range(p.q):
        mine = _poly_eval(c, a, p.q, p.d)
        if all(_poly_eval(o, a, p.q, p.d) != mine for o in others):
            return a * p.q + mine
    raise InvariantError("no separating point; q > d*delta should prevent this")


def _check_proper(graph, colors, what: str) -> None:
    if len(colors) != graph.n:
        raise ValueError(f"{what} must color all {graph.n} nodes")
    for v, c in enumerate(colors):
        if c < 0:
            raise ValueError(f"node {v}: negative color in {what}")
    for u, v in graph.edge_list:
        if colors[u] == colors[v]:
            raise ValueError(f"edge ({u}, {v}): {what} must be proper")


class _Reduce(NodeProgram):
    """Send the current color, recolor from the inbox, repeat."""

    def __init__(self, color, schedule):
        self.color = color
        self.schedule = schedule
        self.step = 0

    def _emit(self, ctx):
        msg = Message(self.color, self.schedule[self.step][1])
        for u in ctx.neighbors:
            ctx.send(u, msg)

    def setup(self, ctx):
        if not ctx.neighbors:
            # nothing constrains the choice; run the whole schedule now
            for p, _ in self.schedule:
                self.color = _recolor(self.color, (), p)
            ctx.halt()
        elif not self.schedule:
            ctx.halt()
        else:
            self._emit(ctx)

    def absorb(self, ctx):
        p, _ = self.schedule[self.step]
        self.color = _recolor(
            self.color, [m.payload for m in ctx.inbox.values()], p
        )
        self.step += 1
        if self.step == len(self.schedule):
            ctx.halt()
        else:
            self._emit(ctx)


def linial_reduce(graph, colors=None, *, policy=None, round_cap=None, trace=None):
    """Iterate the reduction until the class bound stops shrinking.

    Starts from node ids when no coloring is given.  The whole schedule
    is a pure function of (K, Delta), so every node can precompute it;
    rounds used equal the schedule length.
    """
    if colors is None:
        colors = list(range(graph.n))
    _check_proper(graph, colors, "initial coloring")
    schedule, _ = _schedule(max(colors, default=0) + 1, graph.max_degree)
    check(len(schedule) <= log_star(graph.n) + 4, "reduction chain too long")
    progs = [_Reduce(colors[v], schedule) for v in range(graph.n)]
    stats = run_protocol(graph, progs, policy=policy, round_cap=round_cap, trace=trace)
    return [p.color for p in progs], stats


class _ClassSweep(NodeProgram):
    """Join in class order unless an earlier neighbor joined first."""

    def __init__(self, color):
        self.color = color
        self.joined = False

    def _join(self, ctx):
        self.joined = True
        for u in ctx.neighbors:
            ctx.send(u, Message(1, 1))
        ctx.halt()

    def setup(self, ctx):
        if self.color == 0:
            self._join(ctx)
        else:
            ctx.wake_at(self.color)

    def absorb(self, ctx):
        if ctx.inbox:
            ctx.halt()  # dominated by an earlier class
        elif ctx.round == self.color:
            self._join(ctx)


def mis_by_colors(graph, colors, *, policy=None, round_cap=None, trace=None):
    """Maximal independent set from a proper coloring, one class a round."""
    _check_proper(graph, colors, "conflict coloring")
    progs = [_ClassSweep(colors[v]) for v in range(graph.n)]
    stats = run_protocol(
        graph, progs, policy=policy, round_cap=round_cap, trace=trace
    )
    return tuple(v for v, p in enumerate(progs) if p.joined), stats
