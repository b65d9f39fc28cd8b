"""Candidate-range tracking for bit-prefix color refinement.

Colors are W-bit codes, W = ceil(log2 C), read MSB first.  A node
narrows its sorted color list one bit per level; after level l its
candidates are exactly the list entries sharing its chosen l-bit
prefix, a contiguous slice of k entries from lo.  An edge stays alive
while both endpoints carry the same prefix; dead edges can never
conflict again.

The state is arrays, and stores no prefix: init_state flattens the lists
once per phase, int64 while C <= 2^63 and Python ints (an object array)
past it, and v's candidates are flat[lo[v]:lo[v] + k[v]]; deg counts
each node's alive edges, an (E, 2) array kept while both ends' bits
agree.

The potential of a node is deg/k over alive incident edges and current
candidate count.  Summed over nodes it equals the edge form
sum_{uv alive} (1/k_u + 1/k_v), which is what the per-level expectation
bounds control.  It is exact: phi_terms holds every node's as an integer
numerator over one L = lcm(k), built once per state, and phi_sum adds
them.

States are immutable; apply_bits returns a fresh state, which lets
seed-search oracles explore alternative branch outcomes cheaply.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import lcm

import numpy as np

from .graphs import ListColoringInstance, check


class EmptyCandidateError(RuntimeError):
    pass


@dataclass(frozen=True, eq=False)
class PrefixState:
    inst: ListColoringInstance
    W: int
    level: int
    flat: np.ndarray
    lo: np.ndarray
    k: np.ndarray  # every node's candidate count
    alive_edges: np.ndarray
    deg: np.ndarray

    @cached_property
    def split(self) -> tuple:
        """split_counts(self), kept for the level's context and apply_bits."""
        return split_counts(self)

    @cached_property
    def phi_terms(self) -> tuple:
        """(terms, L): node v's potential deg(v) / k(v) is terms[v] / L, L = lcm(k),
        int64 while 2E L, their sum's bound, is below 2^63, else Python ints."""
        k = self.k
        L = lcm(*set(k.tolist()))
        if max(2 * len(self.alive_edges), 1) * L < 1 << 63:
            return self.deg * (L // k), L
        return self.deg.astype(object) * (L // k.astype(object)), L


def init_state(inst: ListColoringInstance) -> PrefixState:
    n = inst.graph.n
    sizes = np.fromiter(map(len, inst.lists), dtype=np.int64, count=n)
    edge_list = inst.graph.edge_list
    edges = np.fromiter(chain.from_iterable(edge_list), dtype=np.int64,
                        count=2 * len(edge_list)).reshape(-1, 2)
    return PrefixState(
        inst=inst,
        W=(inst.C - 1).bit_length(),
        level=0,
        flat=np.fromiter(chain.from_iterable(inst.lists),
                         dtype=np.int64 if inst.C <= 1 << 63 else object),
        lo=sizes.cumsum() - sizes,
        k=sizes,
        alive_edges=edges,
        deg=np.bincount(edges.ravel(), minlength=n),
    )


def split_counts(state: PrefixState) -> tuple:
    """Every node's candidate counts (k0, k1) for the two sides of the
    next bit, W - level - 1: the entries of each slice with that bit set
    follow the others, so k1 is a difference of one prefix count."""
    ones = np.zeros(len(state.flat) + 1, dtype=np.int64)
    np.add.accumulate((state.flat >> (state.W - state.level - 1)) & 1, out=ones[1:])
    k1 = ones[state.lo + state.k] - ones[state.lo]
    return state.k - k1, k1


def apply_bits(state: PrefixState, bits) -> PrefixState:
    """The state after node v keeps the side bits[v] of its slice."""
    if state.level >= state.W:
        raise ValueError("all levels already fixed")
    bits = np.asarray(bits)
    if bits.shape != state.lo.shape:
        raise ValueError(f"need one bit per node, {len(state.lo)} in all")
    k0, k1 = state.split
    one = bits == 1
    # the candidates on the chosen side, 0 where the bit is neither 0 nor 1
    kept = k1 * one + k0 * (bits == 0)
    if np.count_nonzero(kept) < len(kept):
        v = int(np.flatnonzero(kept == 0)[0])
        if bits[v] not in (0, 1):
            raise ValueError(f"node {v}: bit must be 0 or 1")
        raise EmptyCandidateError(
            f"node {v}: no candidates with bit {int(bits[v])} at level {state.level}"
        )
    lo = state.lo + k0 * one
    ends = one[state.alive_edges]
    alive = state.alive_edges[ends[:, 0] == ends[:, 1]]
    deg = np.bincount(alive.ravel(), minlength=len(lo))
    return PrefixState(state.inst, state.W, state.level + 1, state.flat, lo, kept, alive, deg)


def phi_sum(state: PrefixState) -> Fraction:
    """The potential sum of deg(v) / k(v) over every node: the sum of
    phi_terms over their L, reduced once."""
    terms, L = state.phi_terms
    return Fraction(int(terms.sum()), L)


def chosen_colors(state: PrefixState) -> list:
    """Final candidate per node once every level is fixed.

    Adjacent nodes may still share a color; surviving alive edges are
    exactly those conflicts and it is the caller's job to resolve them.
    """
    if state.level != state.W:
        raise ValueError(f"{state.W - state.level} levels still open")
    check((state.k == 1).all(), "a node kept more than one candidate after the last level")
    return state.flat[state.lo].tolist()
