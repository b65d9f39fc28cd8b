"""Full list coloring: derandomized phases plus a one-shot finish.

A phase fixes candidate colors bit by bit (one fix_level call per bit
of the palette width), keeping the conflict potential from growing by
more than n/levels per level.  What remains is a low-degree conflict
graph.  In mis mode the nodes with final conflict degree below four
induce a degree-3 graph covering half the phase; a maximal independent
set of it keeps its candidates, coloring at least an eighth.  The
avoid variant instead trims lists to deg+1 and sharpens the coin
resolution by a Delta+1 factor, driving the final potential strictly
below n; then most nodes see at most one rival and a single id
comparison per matched pair settles everything, coloring a quarter.

Uncolored nodes carry pruned lists into the next phase.  List sizes
stay one above the degree because every color a node loses comes with
an incident edge it also loses.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .coins import make_family
from .derand import build_level_context, fix_level, frac_str
from .graphs import (
    Graph,
    ListColoringInstance,
    PartialColoring,
    ValidationError,
    check,
    residual_instance,
    verify_coloring,
)
from .linial import linial_reduce, mis_by_colors
from .prefixes import chosen_colors, init_state, phi_sum
from .sim import (
    BandwidthPolicy,
    CommPlan,
    Message,
    NodeProgram,
    RunStats,
    build_bfs_forest,
    run_protocol,
)


MODES = ("mis", "avoid-mis")  # colour through an MIS, or through a matching
KMODES = ("linial", "ids")  # start colouring: Linial's reduction, or the ids


def check_modes(mode, kmode="linial") -> None:
    """ValueError unless list_color_full takes this mode and kmode."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if kmode not in KMODES:
        raise ValueError(f"unknown kmode {kmode!r}")


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _accuracy_bits(delta: int, levels: int, mode: str) -> int:
    """Coin resolution: per-level drift 10*delta*n/2^b must fit n/levels."""
    target = 10 * delta * levels
    if mode == "avoid-mis":
        target *= delta + 1
    return max(1, (max(target, 1) - 1).bit_length())


@dataclass(frozen=True)
class PhaseReport:
    mode: str
    nodes_at_start: int
    nodes_colored: int
    phi_trace: tuple  # sum of Phi before level 1, then after each level
    v_low: tuple  # final Phi under the mode's cutoff (4 resp. 2)
    mis_size: int | None
    k_classes: int
    seed_bits: int
    depth: int
    levels: tuple
    candidates: tuple
    conflict_edges: tuple
    stats: RunStats

    def __post_init__(self):
        need = _ceil_div(self.nodes_at_start, 8 if self.mode == "mis" else 4)
        check(
            self.nodes_colored >= need,
            f"phase colored {self.nodes_colored} < {need} of "
            f"{self.nodes_at_start} nodes",
        )

    @property
    def rounds(self) -> int:
        return self.stats.rounds

    @property
    def phi_final(self) -> Fraction:
        return self.phi_trace[-1]


def trim_lists(inst: ListColoringInstance) -> ListColoringInstance:
    """Cut every list to its deg+1 smallest colors."""
    g = inst.graph
    lists = tuple(inst.lists[v][: g.deg(v) + 1] for v in range(g.n))
    return replace(inst, lists=lists)


class _FlagLow(NodeProgram):
    """One-bit membership announcement along conflict edges."""

    def __init__(self, low: bool, conflict: tuple):
        self.low = low
        self.conflict = conflict
        self.low_nbrs = ()

    def setup(self, ctx):
        if not (self.low and self.conflict):
            ctx.halt()
            return
        for u in self.conflict:
            ctx.send(u, Message(1, 1))
        ctx.wake_at(1)

    def absorb(self, ctx):
        self.low_nbrs = tuple(sorted(ctx.inbox))
        ctx.halt()


def _flag_low(graph, members, conflict_edges, *, policy, trace):
    nbrs = {v: [] for v in range(graph.n)}
    for u, v in conflict_edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    progs = [_FlagLow(v in members, tuple(nbrs[v])) for v in range(graph.n)]
    return progs, run_protocol(graph, progs, policy=policy, trace=trace)


def color_fraction(
    inst: ListColoringInstance,
    mode: str,
    *,
    strategy: str = "conditional",
    policy=None,
    trace=None,
):
    """Run one phase; returns (PartialColoring, PhaseReport).

    The instance must carry a proper start coloring psi.  In avoid-mis
    mode lists are trimmed to deg+1 first (phase-local; the caller's
    instance keeps its full lists).
    """
    check_modes(mode)
    if inst.psi is None:
        raise ValidationError("phase needs a proper start coloring psi")
    g = inst.graph
    n = g.n
    policy = (policy or BandwidthPolicy()).pin(n)  # sub-protocols keep n's cap
    comm = CommPlan(g, policy=policy, trace=trace)
    if n == 0:
        return PartialColoring([]), PhaseReport(
            mode=mode, nodes_at_start=0, nodes_colored=0, phi_trace=(Fraction(0),),
            v_low=(), mis_size=0 if mode == "mis" else None, k_classes=0,
            seed_bits=0, depth=0, levels=(), candidates=(), conflict_edges=(),
            stats=comm.stats,
        )
    if mode == "avoid-mis":
        inst = trim_lists(inst)
    state = init_state(inst)
    W = state.W
    delta = g.max_degree
    fam = make_family(inst.psi_range, _accuracy_bits(delta, max(W, 1), mode))
    comm.forest = comm.run(build_bfs_forest, g)
    levels = []
    phi_trace = [phi_sum(state)]
    for _ in range(W):
        ctx = build_level_context(fam, state)
        state, rep = fix_level(ctx, state, comm, strategy=strategy)
        levels.append(rep)
        phi_trace.append(rep.phi_after)
        (a, b), (c, d) = rep.phi_after.as_integer_ratio(), phi_trace[-2].as_integer_ratio()
        check(
            a * d * W <= (c * W + n * d) * b,  # a/b <= c/d + n/W, cross-multiplied
            f"level {rep.level}: potential drifted past n/levels",
        )
    candidates = tuple(chosen_colors(state))
    conflict = tuple(map(tuple, state.alive_edges.tolist()))  # same final candidate

    if mode == "mis":
        check(phi_trace[-1] <= 2 * n, "final potential above 2n")
        low = tuple((state.deg < 4).nonzero()[0].tolist())
    else:
        # true drift is under 6*delta*n/2^b per level, so the +1 budget
        # of _accuracy_bits lands strictly below n even on regular graphs
        check(phi_trace[-1] < n, "final potential not below n")
        low = tuple((state.deg <= 1).nonzero()[0].tolist())
    check(len(low) >= _ceil_div(n, 2), "low set covers under half the nodes")
    progs = comm.run(_flag_low, g, set(low), conflict)

    if mode == "mis":
        idx = {v: i for i, v in enumerate(low)}
        pairs = {
            (min(u, v), max(u, v)) for v in low for u in progs[v].low_nbrs
        }
        sub = Graph.from_edges(
            len(low), sorted((idx[u], idx[v]) for u, v in pairs)
        )
        check(sub.max_degree <= 3, "low set induces degree above 3")
        start = [inst.psi[v] for v in low]
        reduced = comm.run(linial_reduce, sub, start)
        mis = comm.run(mis_by_colors, sub, reduced)
        winners = [low[i] for i in mis]
        mis_size = len(winners)
    else:
        winners = []
        for v in low:
            mates = progs[v].low_nbrs
            check(len(mates) <= 1, "low set must induce a matching")
            if not mates or v > mates[0]:
                winners.append(v)
        mis_size = None

    colors = [None] * n
    for v in winners:
        colors[v] = candidates[v]
    partial = PartialColoring(colors)
    check(
        verify_coloring(inst, partial, require_total=False).ok,
        "phase coloring is not proper",
    )
    report = PhaseReport(
        mode=mode,
        nodes_at_start=n,
        nodes_colored=len(winners),
        phi_trace=tuple(phi_trace),
        v_low=low,
        mis_size=mis_size,
        k_classes=inst.psi_range,
        seed_bits=fam.m + fam.b,
        depth=comm.forest.height,
        levels=tuple(levels),
        candidates=candidates,
        conflict_edges=conflict,
        stats=comm.stats,
    )
    return partial, report


def _phase_cap(n: int, mode: str) -> int:
    """ceil(log_{8/7} n) + 1, resp. base 4/3, with exact integers."""
    num, den = (8, 7) if mode == "mis" else (4, 3)
    t, hi, lo = 0, 1, 1
    while hi < n * lo:
        t += 1
        hi *= num
        lo *= den
    return t + 1


def list_color_full(
    instance: ListColoringInstance,
    mode: str = "mis",
    kmode: str = "linial",
    *,
    strategy: str = "conditional",
    policy=None,
    trace=None,
):
    """Color every node from its list; returns (PartialColoring, reports).

    kmode picks the start coloring fed to each phase: "linial" reduces
    from ids (or the instance's psi, first phase) until the class bound
    stops shrinking, "ids" uses identifiers outright.  Each phase
    colors a fixed fraction, so the loop ends within O(log n) phases.
    """
    check_modes(mode, kmode)
    n0 = instance.graph.n
    policy = (policy or BandwidthPolicy()).pin(n0)
    cap = _phase_cap(n0, mode)
    colors = [None] * n0
    ids = list(range(n0))  # residual node -> original id
    reports = []
    cur = instance
    while cur.graph.n:
        if kmode == "ids":
            psi, pre = list(range(cur.graph.n)), RunStats()
        else:  # from the instance's psi in the first phase, else from ids
            psi, pre = linial_reduce(
                cur.graph, None if reports else cur.psi,
                policy=policy, trace=trace,
            )
        partial, rep = color_fraction(
            replace(cur, psi=tuple(psi)),
            mode,
            strategy=strategy,
            policy=policy,
            trace=trace,
        )
        rep.stats.add(pre)
        for v, c in enumerate(partial.colors):
            if c is not None:
                colors[ids[v]] = c
        if trace is not None:
            trace(
                {
                    "phase": len(reports),
                    "colored": rep.nodes_colored,
                    "remaining": cur.graph.n - rep.nodes_colored,
                    "phi_final": frac_str(rep.phi_final),
                    "rounds": rep.rounds,
                }
            )
        reports.append(rep)
        check(len(reports) <= cap, "phase count exceeded")
        ids = [ids[v] for v in range(cur.graph.n) if partial.colors[v] is None]
        cur = residual_instance(cur, partial)
    out = PartialColoring(colors)
    check(verify_coloring(instance, out).ok, "final coloring failed checks")
    return out, reports
