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

Both run as single passes: every round's sends follow from the schedule
or the coloring, so each computes its result directly and charges the
rounds, messages and bits through sim._charge, which also holds them to
the policy's cap, exactly as the message-by-message engine would.
Both take their input coloring through graphs.check_coloring, so one
that misses a node, has a negative color or is not proper is refused as
bad input (ValidationError).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .graphs import InvariantError, check, check_coloring
from .sim import ALGORITHM, _charge, _even


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
    """Smallest q >= 2 with q**e >= K, in integers: K may pass any float."""
    lo, hi = 2, 1 << -(-(K - 1).bit_length() // e)  # hi**e >= K >= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**e >= K:
            hi = mid
        else:
            lo = mid + 1
    return lo


def linial_params(K: int, delta: int) -> PolyParams:
    """Cheapest (q, d): q prime, q > d*delta, q^(d+1) >= K, minimal q^2.

    Ties between degrees go to the smaller d.  Degree d's prime is the
    first at or above c_d = max(d*delta + 1, ceil(K^(1/(d+1)))), so the
    cheapest q is the first prime at or above the least c_d, and its d is
    the least one with c_d <= q; no candidate above q is tested.  Past
    d = ceil(log2 K) - 1 the root term is 2 and c_d only grows, and once
    d*delta + 1 reaches the least c_d so far no larger d can lower it.
    """
    if K < 2:
        raise ValueError(f"need at least two colors to reduce, got K={K}")
    if delta < 0:
        raise ValueError("max degree cannot be negative")
    bounds = []  # c_1, c_2, ...
    for d in range(1, max(2, (K - 1).bit_length())):
        if bounds and delta * d + 1 >= min(bounds):
            break
        bounds.append(max(delta * d + 1, _ceil_root(K, d + 1)))
    q = min(bounds)
    while not _is_prime(q):
        q += 1
    return PolyParams(q=q, d=next(d for d, c in enumerate(bounds, 1) if c <= q))


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


def linial_reduce(graph, colors=None, *, policy=None, trace=None):
    """Iterate the reduction until the class bound stops shrinking.

    Starts from node ids when no coloring is given.  The whole schedule
    is a pure function of (K, Delta), so every node can precompute it.
    Step s is round s + 1, in which every node sends its color, at the
    step's input width, along each edge; a node without neighbors runs
    the schedule alone, so an edgeless graph costs no round.  A width
    past the policy's cap stops the run as its step's sends are queued.
    """
    if colors is None:
        colors = list(range(graph.n))
    check_coloring(graph, colors, "initial coloring")
    schedule, _ = _schedule(max(colors, default=0) + 1, graph.max_degree)
    check(len(schedule) <= log_star(graph.n) + 4, "reduction chain too long")
    sent = [_even(0, 0)]
    if graph.edge_list:
        sent += [_even(2 * len(graph.edge_list), width) for _, width in schedule]
    stats = _charge({ALGORITHM: sent}, trace, policy=policy, n=graph.n, edges=graph.edge_list)
    colors = list(colors)
    for p, _ in schedule:
        colors = [
            _recolor(c, [colors[u] for u in graph.adj[v]], p)
            for v, c in enumerate(colors)
        ]
    return colors, stats


def mis_by_colors(graph, colors, *, policy=None, trace=None):
    """Maximal independent set from a proper coloring, one class a round.

    Class c decides when it wakes in round c: a node joins unless a
    neighbor joined first, and a joiner tells its neighbors so in round
    c + 1, with one bit, which fits every strict:K cap; _charge checks
    that it does, as for every pass.
    """
    check_coloring(graph, colors, "conflict coloring")
    joined = [False] * graph.n
    sends = [0]  # the one-bit sends of each round
    for v in sorted(range(graph.n), key=lambda v: (colors[v], v)):
        nbrs = graph.adj[v]
        if not any(joined[u] for u in nbrs):
            joined[v] = True
            r = colors[v] + bool(nbrs)  # its wakeup, or its one-bit sends
            sends += [0] * (r + 1 - len(sends))
            sends[r] += len(nbrs)
    sent = {ALGORITHM: [_even(k, 1) for k in sends]}
    stats = _charge(sent, trace, policy=policy, n=graph.n, edges=graph.edge_list)
    return tuple(v for v in range(graph.n) if joined[v]), stats
