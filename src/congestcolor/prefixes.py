"""Candidate-range tracking for bit-prefix color refinement.

Colors are W-bit codes, W = ceil(log2 C), read MSB first.  A node
narrows its sorted color list one bit per level; after level l its
candidates are exactly the list entries sharing its chosen l-bit
prefix, a contiguous slice [lo, hi).  An edge stays alive while both
endpoints carry the same prefix; dead edges can never conflict again.

The potential of a node is deg/k over alive incident edges and current
candidate count.  Summed over nodes it equals the edge form
sum_{uv alive} (1/k_u + 1/k_v), which is what the per-level expectation
bounds control.  It is exact: phi_sum adds integers over lcm(k).

States are immutable; apply_bits returns a fresh state, which lets
seed-search oracles explore alternative branch outcomes cheaply.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .graphs import ListColoringInstance, check


class EmptyCandidateError(RuntimeError):
    pass


@dataclass(frozen=True)
class PrefixState:
    inst: ListColoringInstance
    W: int
    level: int
    lo: tuple
    hi: tuple
    prefix: tuple
    alive_edges: tuple
    deg: tuple

    def k(self, v: int) -> int:
        return self.hi[v] - self.lo[v]


def _degrees(n: int, edges) -> tuple:
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return tuple(deg)


def init_state(inst: ListColoringInstance) -> PrefixState:
    n = inst.graph.n
    edges = inst.graph.edge_list
    return PrefixState(
        inst=inst,
        W=(inst.C - 1).bit_length(),
        level=0,
        lo=(0,) * n,
        hi=tuple(len(l) for l in inst.lists),
        prefix=(0,) * n,
        alive_edges=edges,
        deg=_degrees(n, edges),
    )


def split_counts(state: PrefixState, v: int) -> tuple:
    """Candidate counts (k0, k1) for the two sides of the next bit."""
    mid = (state.prefix[v] * 2 + 1) << (state.W - state.level - 1)
    idx = bisect_left(state.inst.lists[v], mid, state.lo[v], state.hi[v])
    return idx - state.lo[v], state.hi[v] - idx


def apply_bits(state: PrefixState, bits) -> PrefixState:
    if state.level >= state.W:
        raise ValueError("all levels already fixed")
    n = state.inst.graph.n
    lo, hi, prefix = list(state.lo), list(state.hi), list(state.prefix)
    for v in range(n):
        b = bits[v]
        if b not in (0, 1):
            raise ValueError(f"node {v}: bit must be 0 or 1")
        k0, k1 = split_counts(state, v)
        if (k1 if b else k0) == 0:
            raise EmptyCandidateError(
                f"node {v}: no candidates with bit {b} at level {state.level}"
            )
        if b:
            lo[v] += k0
        else:
            hi[v] -= k1
        prefix[v] = prefix[v] * 2 + b
    alive = tuple(
        (u, v) for u, v in state.alive_edges if prefix[u] == prefix[v]
    )
    return PrefixState(
        inst=state.inst,
        W=state.W,
        level=state.level + 1,
        lo=tuple(lo),
        hi=tuple(hi),
        prefix=tuple(prefix),
        alive_edges=alive,
        deg=_degrees(n, alive),
    )


def phi_sum(state: PrefixState, nodes=None) -> Fraction:
    """The potential sum of deg(v) / k(v) over a node sequence (default:
    every node), as integer numerators over L = lcm(k), reduced once."""
    if nodes is None:
        nodes = range(state.inst.graph.n)
    ks = [state.k(v) for v in nodes]
    L = lcm(*ks)
    return Fraction(sum(state.deg[v] * (L // k) for v, k in zip(nodes, ks)), L)


def chosen_colors(state: PrefixState) -> list:
    """Final candidate per node once every level is fixed.

    Adjacent nodes may still share a color; surviving alive edges are
    exactly those conflicts and it is the caller's job to resolve them.
    """
    if state.level != state.W:
        raise ValueError(f"{state.W - state.level} levels still open")
    check(
        all(state.k(v) == 1 for v in range(state.inst.graph.n)),
        "a node kept more than one candidate after the last level",
    )
    return [state.inst.lists[v][state.lo[v]] for v in range(state.inst.graph.n)]
