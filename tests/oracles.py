"""Scalar reference implementations that only tests use, and a CommPlan
that records each seed bit's root sums for the chain checks.

Nothing in the library calls these; they stay here as independent
oracles for the vectorised paths.  They check their inputs with raise,
never assert, so they keep checking under python -O, where pytest does
not rewrite asserts outside test modules.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, replace
from fractions import Fraction

from congestcolor.coins import FamilySpec, Seed, hash_eval, seed_to_int, threshold
from congestcolor.sim import CommPlan


@dataclass(frozen=True)
class CoinSpec:
    """One node's coin: color input, exact target bias, derived threshold."""

    x: int
    p: Fraction
    t: int


def make_coin(fam: FamilySpec, x: int, p: Fraction) -> CoinSpec:
    return CoinSpec(x=x, p=p, t=threshold(p, fam.b))


def coin_eval(fam: FamilySpec, seed: Seed, coin: CoinSpec) -> int:
    return 1 if hash_eval(fam, seed, coin.x) < coin.t else 0


def _blocks(t: int, b: int):
    """Disjoint dyadic blocks covering [0, t): pairs (i, required y >> i)."""
    return [(i, (t >> i) - 1) for i in range(b + 1) if (t >> i) & 1]


def xor_box_count(t_u: int, t_v: int, delta: int, b: int) -> int:
    """|{y in [0, 2^b): y < t_u and y ^ delta < t_v}|."""
    if not 0 <= delta < (1 << b):
        raise ValueError(f"delta needs at most {b} bits, got {delta}")
    for t in (t_u, t_v):
        if not 0 <= t <= (1 << b):
            raise ValueError(f"threshold {t} outside [0, 2^{b}]")
    total = 0
    for i, top_u in _blocks(t_u, b):
        for i2, top_v in _blocks(t_v, b):
            top_v ^= delta >> i2
            if i >= i2:
                if top_v >> (i - i2) == top_u:
                    total += 1 << i2
            elif top_u >> (i2 - i) == top_v:
                total += 1 << i
    return total


def with_psi(inst, psi=None):
    """inst with the start coloring psi, the node ids if none is given."""
    if psi is None:
        psi = range(inst.graph.n)
    return replace(inst, psi=tuple(psi))


def node_split_counts(state, v: int) -> tuple:
    """Node v's candidate counts (k0, k1) for the next bit, by bisection
    of its list: its candidates share the prefix of their first one."""
    lists = state.inst.lists
    lst, start = lists[v], sum(map(len, lists[:v]))  # v's list in flat
    lo = int(state.lo[v]) - start
    hi = lo + int(state.k[v])
    shift = state.W - state.level
    mid = ((lst[lo] >> shift) * 2 + 1) << (shift - 1)
    idx = bisect_left(lst, mid, lo, hi)
    return idx - lo, hi - idx


class RecordingPlan(CommPlan):
    """A CommPlan that keeps the (L, sums) of every convergecast in `sums`,
    so that a test reads each seed bit's root sums back after fix_level."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.sums = []

    def aggregate(self, casts, j):
        got = super().aggregate(casts, j)
        self.sums.append(got)
        return got


def tree_nodes(forest) -> list:
    """Each tree's nodes, ascending, in forest order, read off tree_of."""
    trees = [[] for _ in forest.roots]
    for v, i in enumerate(forest.tree_of.tolist()):
        trees[i].append(v)
    return trees


def bit_chains(fam: FamilySpec, forest, sums, roots) -> dict:
    """{root: [(s0, s1, bit), ...]} of one conditional fix_level: per seed
    bit, the tree's two candidate sums as Fractions, from that level's
    convergecasts `sums`, and the bit its seed (in `roots`, the level
    report's RootRecords) took."""
    chains = {}
    for i, root in enumerate(forest.roots):
        word = seed_to_int(fam, roots[root].seed)
        chains[root] = [
            (Fraction(totals[i][0], L), Fraction(totals[i][1], L), (word >> j) & 1)
            for j, (L, totals) in enumerate(sums)
        ]
    return chains
