"""Seed selection by conditional expectations over the coin family.

One refinement level: every node v flips a biased coin c_v with
P(c_v = 1) close to k1(v)/k(v) and keeps the matching half of its
candidate slice.  An edge stays alive only when both endpoints flip the
same way, so the expected next potential

    E[phi'] = sum_e  P(c_u=1, c_v=1) (1/k1(u) + 1/k1(v))
                   + P(c_u=0, c_v=0) (1/k0(u) + 1/k0(v))

equals the current potential up to threshold rounding.  All coins are
driven by one 2m-bit seed, so some seed lands at or below that
expectation, and fixing seed bits one at a time by comparing the two
conditional expectations finds one.  Everything here is exact rational
arithmetic; nothing is sampled.  The coins' inputs x are the start
coloring psi of the state's instance, which the instance checked proper,
so build_level_context checks only that they lie below the family's K.

Both regimes of the conditionals count one box |{z < t_u : z ^ delta < t_v}|,
delta = a_u ^ a_v being the XOR offset of a_v = low_b(s1 * x_v) between
two endpoints.  While s1 is partially fixed, the free low bits of s2 keep
each hash output uniform and only delta matters; branch_pairs turns the
count into membership tests, so averaging it over the affine set of
reachable deltas collapses to a reduction and a rank, which one backward
sweep per level builds for every seed bit.  Once s1 is fixed, so is a_v,
and fixing the low bits of s2 leaves the same box over the free high
bits, with thresholds rescaled by the fixed low bits and one delta per
edge (box_count).  The estimator, fix_level's coins and the exhaustive
search read a_v off one generator table per level, and none takes a
scalar field product.  The scalar oracle behind node_conditional treats
the second regime apart: a coin condition (a_v ^ s2) < t_v is a disjoint
union of subcubes of the s2 hypercube and joint probabilities are cube
intersections.

fix_level runs the selection as one protocol for both strategies: one
exchange of (k0, k1, psi) both ways along every alive edge, then per seed
bit one aggregation of the two candidate sums up a spanning tree and a
one-bit broadcast back down.  The roots decide every bit first from the
estimator's tree totals, the strategy picking each; then the protocol is
charged bit by bit, and each aggregation's root sums are checked against
the totals decided on.  Every exact sum adds integer
numerators over one common denominator: the convergecast adds the two
values of each node with alive edges (the others add 0) over the
estimator's one denominator for the forest, roots compare and chain their
integer totals by cross-multiplication, and each tree's potentials, which
bound them, are segment sums of one integer array per state over the
forest's preorder; Fractions appear only in the level's reports.
Components cannot share a seed, so each tree, named by its forest
position, fixes its own.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property, lru_cache
from fractions import Fraction
from itertools import pairwise
from math import lcm

import numpy as np

from . import gf2
from .coins import FamilySpec, Seed, seed_bit_string, seed_from_int, seed_to_int
from .graphs import InvariantError, check  # InvariantError: re-exported
from .prefixes import PrefixState, apply_bits
from .sim import Convergecasts, _bit_length


SEED_CAP = 1 << 24  # most seeds an exhaustive search enumerates


class SeedCapError(RuntimeError):
    """Exhaustive search over more seeds than SEED_CAP."""


@dataclass(frozen=True)
class SeedPrefix:
    """The first len(bits) seed bits, lowest index first."""

    bits: tuple = ()

    def __post_init__(self):
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("seed bits must be 0 or 1")


_Ints = namedtuple("_Ints", "x k0 k1 t edges")


@dataclass(frozen=True, eq=False)
class LevelContext:
    """Per-level facts every endpoint of an alive edge has exchanged: psi
    colors x, split counts k0, k1 and thresholds t, int64 arrays by node,
    and the (E, 2) alive edges."""

    fam: FamilySpec
    x: np.ndarray
    k0: np.ndarray
    k1: np.ndarray
    t: np.ndarray
    edges: np.ndarray

    # built on first use, for the scalar oracles and the exhaustive search
    @cached_property
    def ints(self) -> _Ints:
        """x, k0, k1, t and the edges as (u, v) pairs, in Python ints."""
        return _Ints(self.x.tolist(), self.k0.tolist(), self.k1.tolist(),
                     self.t.tolist(), tuple(map(tuple, self.edges.tolist())))

    @cached_property
    def incident(self) -> tuple:
        """Indices into `edges` of each node's alive edges."""
        incident = [[] for _ in self.x]
        for i, (u, v) in enumerate(self.ints.edges):
            incident[u].append(i)
            incident[v].append(i)
        return tuple(map(tuple, incident))

    @cached_property
    def _eset(self) -> frozenset:
        return frozenset(self.ints.edges)

    @cached_property
    def gen_table(self):
        """(n, m) int64 table of g_k(x_v) = low_b(x^k * x_v): a_v for any s1."""
        return _gen_table(self.fam, self.x)


def build_level_context(fam: FamilySpec, state: PrefixState) -> LevelContext:
    """The level's context.  Its colors x are the psi of state.inst, which
    the instance checked proper, so they separate every alive edge."""
    psi = state.inst.psi
    if state.level >= state.W:
        raise ValueError("all levels of this instance are already fixed")
    if psi is None:
        raise ValueError("the instance carries no start coloring psi")
    if max(psi, default=0) >= fam.K:
        v = int(np.flatnonzero(np.array(psi, dtype=object) >= fam.K)[0])
        raise ValueError(f"node {v}: psi color {psi[v]} outside [0, {fam.K})")
    x = np.array(psi, dtype=np.int64)
    k0, k1 = state.split
    # t = ceil(k1 2^b / k), in int64 while len(flat) 2^b >= k1 2^b fits
    if len(state.flat) << fam.b < 1 << 63:
        t = -(-(k1 << fam.b) // state.k)
    else:
        t = (-(-(k1.astype(object) << fam.b) // state.k.astype(object))).astype(np.int64)
    return LevelContext(fam=fam, x=x, k0=k0, k1=k1, t=t, edges=state.alive_edges)


# ---------------------------------------------------------------------------
# counting lattice points of {y < t_u} x {y ^ delta < t_v}

@lru_cache(maxsize=None)
def xor_branch_pairs(t_u: int, t_v: int, b: int) -> tuple:
    """branch_pairs of one threshold pair in Python ints, as (p, val, w)."""
    _, *pairs = branch_pairs(np.array([t_u], object), np.array([t_v], object), b)
    return tuple(zip(*pairs))


def branch_pairs(t_u, t_v, b: int):
    """The box count as sum of w * [(delta ^ val) >> p == 0] over pairs,
    for every entry of two threshold arrays.

    Each block pair (i of t_u, i2 of t_v) pins delta's bits from
    p = max(i, i2) upward to one pattern, which is what lets an average
    over an affine family of deltas reduce to rank arithmetic instead of
    enumeration.  A block p of one threshold meets every smaller block of
    the other in one pattern, and two blocks p in another, so each p has
    two pairs in closed form:

        cross: val = (((t_u ^ t_v) >> p) ^ 1) << p,
               w = bit_p(t_u) (t_v mod 2^p) + bit_p(t_v) (t_u mod 2^p)
        same:  val = ((t_u ^ t_v) >> p) << p,  w = bit_p(t_u & t_v) 2^p

    Returns arrays (entry, p, val, w) over the pairs with w > 0, entry
    by entry (so each entry's pairs are contiguous), in the thresholds'
    dtype: int64, or object for Python ints.  Which pairs are nonzero
    follows from bit tests alone, so weights are computed only there.
    """
    p = np.arange(b + 1).astype(t_u.dtype)
    bit = np.ones(b + 1, dtype=t_u.dtype) << p
    u, v = t_u[:, None], t_v[:, None]
    on_u, on_v = (u & bit) != 0, (v & bit) != 0
    cross = on_u & ((v & (bit - 1)) != 0) | on_v & ((u & (bit - 1)) != 0)
    entry, col = np.nonzero(np.concatenate((cross, on_u & on_v), axis=1))
    p, bit = np.concatenate((p, p))[col], np.concatenate((bit, bit))[col]
    u, v = t_u[entry], t_v[entry]
    flip = col <= b  # the cross pairs
    w = np.where(flip, ((u & bit) != 0) * (v & (bit - 1))
                 + ((v & bit) != 0) * (u & (bit - 1)), bit)
    return entry, p, (((u ^ v) >> p) ^ flip.astype(t_u.dtype)) << p, w


def box_count(t_u, t_v, delta):
    """|{z : z < t_u and z ^ delta < t_v}| entrywise, for non-negative
    int64 arrays.

    With one delta the branch pair sum collapses: q being the bit length
    of delta ^ t_u ^ t_v, the same pairs hit for every p >= q and of the
    cross pairs only p = q - 1 does.
    """
    mask = ~(np.int64(-1) << _bit_length(delta ^ t_u ^ t_v))
    top, low = mask ^ (mask >> 1), mask >> 1  # 2^(q-1) (0 at q = 0), below it
    return (
        (t_u & t_v & ~mask)
        + ((t_u & top) > 0) * (t_v & low)
        + ((t_v & top) > 0) * (t_u & low)
    )


@lru_cache(maxsize=None)
def _basis_from(fam: FamilySpec, dx: int, lo: int) -> tuple:
    """Echelon basis of span{g_k : k >= lo}, g_k = low_b(x^k * dx): rows
    (pivot, row) with distinct MSB pivots, pivot descending."""
    # scalar gf2 products, kept apart from the level's generator table so
    # that the oracle stays an independent reference
    basis = {}
    for k in range(lo, fam.m):
        r = gf2.mul(fam.fld, 1 << k, dx) & ((1 << fam.b) - 1)
        while r and r.bit_length() - 1 in basis:
            r ^= basis[r.bit_length() - 1]
        if r:
            basis[r.bit_length() - 1] = r
    return tuple(sorted(basis.items(), reverse=True))


# ---------------------------------------------------------------------------
# exact joint outcome probabilities under a seed prefix

def _joint_s1(ctx, u, v, bits):
    # s2's low window is untouched, so each hash output is uniform and only
    # the offset delta = low_b(s1 * dx) couples the two coins
    fam, x, t = ctx.fam, ctx.ints.x, ctx.ints.t
    m, b = fam.m, fam.b
    j = len(bits)
    s1 = sum(bit << k for k, bit in enumerate(bits))
    dx = x[u] ^ x[v]
    delta0 = gf2.mul(fam.fld, s1, dx) & ((1 << b) - 1)
    basis = _basis_from(fam, dx, j)
    free = m - j
    num11 = 0
    for p, val, w in xor_branch_pairs(t[u], t[v], b):
        tau = delta0 ^ val
        for piv, row in basis:
            if (tau >> piv) & 1:
                tau ^= row
        if tau >> p == 0:
            rank = sum(1 for piv, _ in basis if piv >= p)
            num11 += w << (free - rank)
    p11 = Fraction(num11, 1 << (free + b))
    p00 = Fraction((1 << b) - t[u] - t[v], 1 << b) + p11
    return p11, p00


def _coin_cubes(a: int, t: int, b: int) -> list:
    """Disjoint subcubes (fixed-bit mask, value) covering {y: (a ^ y) < t},
    one per dyadic block [2^i ((t >> i) - 1), 2^i (t >> i)) of [0, t)."""
    return [
        (((1 << b) - 1) ^ ((1 << i) - 1), (((t >> i) - 1) ^ (a >> i)) << i)
        if i < b else (0, 0)
        for i in range(b + 1) if (t >> i) & 1
    ]


def _cube_count(cubes, lock_mask, lock_val, b):
    return sum(1 << (b - (mask | lock_mask).bit_count()) for mask, val in cubes
               if not (val ^ lock_val) & mask & lock_mask)


def _joint_s2(ctx, u, v, bits):
    fam, x, t = ctx.fam, ctx.ints.x, ctx.ints.t
    m, b = fam.m, fam.b
    maskb = (1 << b) - 1
    s1 = sum(bit << k for k, bit in enumerate(bits[:m]))
    a_u = gf2.mul(fam.fld, s1, x[u]) & maskb
    a_v = gf2.mul(fam.fld, s1, x[v]) & maskb
    w_bits = bits[m:]
    fixed = min(len(w_bits), b)  # s2 coefficients >= b never reach the window
    w_val = sum(bit << k for k, bit in enumerate(w_bits[:fixed]))
    if fixed == b:
        cu = (a_u ^ w_val) < t[u]
        cv = (a_v ^ w_val) < t[v]
        return Fraction(int(cu and cv)), Fraction(int(not cu and not cv))
    lock_mask = (1 << fixed) - 1
    cubes_u = _coin_cubes(a_u, t[u], b)
    cubes_v = _coin_cubes(a_v, t[v], b)
    c11 = 0
    for m1, v1 in cubes_u:
        for m2, v2 in cubes_v:
            if (v1 ^ v2) & m1 & m2:
                continue
            mm = m1 | m2
            vv = v1 | (v2 & ~m1)
            if (vv ^ w_val) & mm & lock_mask:
                continue
            c11 += 1 << (b - (mm | lock_mask).bit_count())
    space = 1 << (b - fixed)
    c1u = _cube_count(cubes_u, lock_mask, w_val, b)
    c1v = _cube_count(cubes_v, lock_mask, w_val, b)
    return Fraction(c11, space), Fraction(space - c1u - c1v + c11, space)


def joint_outcome_prob(ctx: LevelContext, edge, prefix: SeedPrefix) -> tuple:
    """(P[c_u=1, c_v=1], P[c_u=0, c_v=0]) given the seed prefix, exact."""
    u, v = edge
    if u > v:
        u, v = v, u
    if (u, v) not in ctx._eset:
        raise ValueError(f"edge ({u}, {v}) is not alive at this level")
    bits = tuple(prefix.bits)
    if len(bits) > ctx.fam.seed_bits:
        raise ValueError(f"prefix longer than the {ctx.fam.seed_bits}-bit seed")
    if len(bits) <= ctx.fam.m:
        return _joint_s1(ctx, u, v, bits)
    return _joint_s2(ctx, u, v, bits)


def node_conditional(ctx: LevelContext, v: int, prefix: SeedPrefix) -> Fraction:
    """E[deg'(v) / k'(v) | seed prefix]; zero-candidate sides never fire."""
    total = Fraction(0)
    k0, k1 = ctx.ints.k0[v], ctx.ints.k1[v]
    for i in ctx.incident[v]:
        p11, p00 = joint_outcome_prob(ctx, ctx.ints.edges[i], prefix)
        if k1:
            total += p11 / k1
        if k0:
            total += p00 / k0
    return total


def choose_seed_bit(s0, s1) -> int:
    """Greedy argmin over one denominator; ties go to 0 so runs repeat."""
    return 0 if s0 <= s1 else 1


# ---------------------------------------------------------------------------
# batched candidate sums (one exact path: counts and node sums in int64
# or, past per-level bounds, in Python ints)

def _gen_table(fam: FamilySpec, y):
    """(#y, m) int64 table of g_k(y) = low_b(x^k * y), for an int64 array
    y of field elements, by m doublings in GF(2^m)."""
    m = fam.m
    low = (1 << m) - 1  # masked below x^m, which passes int64 at m = 63
    table = np.empty((m, len(y)), dtype=np.int64)
    g = np.array(y, dtype=np.int64)
    for k in range(m):
        table[k] = g
        g = (g << 1) & low ^ ((g >> (m - 1)) & 1) * (fam.fld.modulus & low)  # times x
    return table.T & ((1 << fam.b) - 1)


def _runs(s):
    """Bools over s and one past it: where a run of equal entries starts."""
    cut = np.ones(len(s) + 1, dtype=bool)
    cut[1:-1] = s[1:] != s[:-1]
    return cut


def _distinct(keys):
    """(an entry of each distinct key, any one, each entry's key number ascending)."""
    order = np.argsort(keys)
    first = _runs(keys[order])[:-1]
    inverse = np.empty(len(keys), dtype=np.int64)
    inverse[order] = np.cumsum(first) - 1
    return order[first], inverse


def _combine(gens, words):
    """XOR over k of bit k of words[i] times gens[k, i]: low_b(s1 * y)."""
    on = (words >> np.arange(len(gens))[:, None]) & 1
    return np.bitwise_xor.reduce(gens * on, axis=0)


class _SpanSweep:
    """R_j, reduction modulo span{g_k : k > j} to the representative zero
    at the span's pivots, for every j < m, of generators gens[k] of each
    offset dx and values vals[i] at offsets at[i].  R_{m-1} is the identity
    and step_j(y) = y ^ bit_{q_j}(y) c_j turns R_j into R_{j-1}, where
    c_j = R_j(g_j) is nonzero exactly when it adds a pivot, its top bit q_j.
    The sweep applies every step down to R_0 and records its flips as
    bools; XOR undoes itself, so seek(j) replays them forward, for j from
    the current one up.  After seek(j), gens[k] = R_j(g_k) (0 for k > j),
    vals[i] = R_j(value i) and rank[p, dx] counts the span's pivots >= p."""

    def __init__(self, gens, b, vals, at):
        m, ndx = gens.shape  # generators and values in one array y
        self.y = np.concatenate((gens.ravel(), vals))
        self.at = np.concatenate((np.arange(m * ndx) % ndx, at))  # y[i]'s offset
        self.gens, self.vals = self.y[:m * ndx].reshape(m, ndx), self.y[m * ndx:]
        self.rank = np.zeros((b + 1, ndx), dtype=np.int64)
        self.pow = np.int64(1) << np.arange(b + 1)[:, None]  # 2^p per row p
        self.steps = [None] * m
        for j in range(m - 1, 0, -1):
            c = self.gens[j].copy()
            mask = ~(np.int64(-1) << _bit_length(c))
            top = mask ^ (mask >> 1)  # 2^q_j, or 0 where c_j adds no pivot
            self.steps[j] = c, top, (self.y & top[self.at]) != 0
            self._step(j, 1)
        self.j = 0

    def _step(self, j, sign):  # sign: +1 adds row c_j, -1 removes it
        c, top, flip = self.steps[j]
        self.y ^= flip * c[self.at]
        self.rank += sign * (top >= self.pow)

    def seek(self, j):
        while self.j < j:
            self.j += 1
            self._step(self.j, -1)


class _Estimator:
    """Candidate sums for every node with alive edges, one decision at a
    time, exact.  A node without alive edges adds 0 to both sums, so it is
    never listed: the level's work follows its alive edges, not n.

    Once seed bit j is decided, an alive edge's like-1 and like-0 counts
    are integers in units of 2^-(free+b) while s1 is open and 2^-free
    after (free = undecided bits that still matter), so each is at most
    2^(m+b-1).  Each node with alive edges (inc_node, listed once per
    level as `nodes`, tree by tree) sums its incident counts, one reduceat
    over the edge ends sorted by (tree, node), and folds in its weights
    1/k1 and 1/k0 as integer numerators over lam 2^shift, lam the level's
    lcm of the distinct max(k0, 1) max(k1, 1), unreduced; one sum, or one
    reduceat over the trees' runs of nodes, gives each tree's totals.  The like
    sums run in int64 when the level's bound deg(v) (max(k0, 1) +
    max(k1, 1)) 2^(m+b-1) is below 2^63, the numerators when it is times
    lam / (max(k0, 1) max(k1, 1)), and in Python ints (object arrays) past
    it; the numerators' bound, and the tree totals, stay below 2E lam
    2^(m+b), which fits int64 on most levels; only past it is the bound
    built, in Python ints, and each seed bit's totals run in int64 while
    that bit's numerators sum below 2^62.  The s1 counts themselves are
    int64 while m+b <= 62 and Python ints past it, chosen per level from
    its widths; the s2 counts stay below 2^b and int64 throughout.

    The level's one seed state is the decided s1 and s2 bits of each of
    the `trees` trees, by forest position (tree_of[v] is v's), and a_v =
    low_b(s1 * x_v) per node, which deciding s1 bit j XORs with g_j(x_v).
    Both regimes count the same box, at delta = a_u ^ a_v.  While s1 is
    open, an edge's reachable offsets are the coset delta + span{g_k : k > j},
    and its branch pairs turn the average over them into tests on
    R_j(delta ^ val) (_SpanSweep, over the distinct dx = x_u ^ x_v) and
    ranks.  R_j is linear, so R_j(delta) XORs the R_j(g_k) that the tree's
    decided s1 bits select, and the bit-1 side of a pair is its bit-0 side
    XOR R_j(g_j) of its edge.

    Once s1 is fixed, so is a_v.  With its tree's low `lock` s2 bits at y,
    coin v fires when the free high bits z satisfy ((a_v >> lock) ^ z) < T_v,
    the rescaled threshold T_v = ceil((t_v - ((a_v ^ y) mod 2^lock)) / 2^lock);
    so like-1 is the box count of T_u, T_v and delta >> lock over b - lock
    bits, one closed form per edge (box_count).  The oracle _joint_s2 counts
    the same probabilities as subcube intersections instead.
    """

    def __init__(self, ctx: LevelContext, tree_of, trees: int):
        self.ctx = ctx
        self.trees = trees
        self.tree_of = np.asarray(tree_of, dtype=np.int64)
        self.a = np.zeros(len(ctx.x), dtype=np.int64)
        self.s1 = np.zeros(trees, dtype=np.int64)
        self.s2 = np.zeros(trees, dtype=np.int64)
        edges = ctx.edges
        self.E = E = len(edges)
        if not E:
            return
        m, b = ctx.fam.m, ctx.fam.b
        # s1-regime counts reach 2^(m+b-1): int64 up to m+b = 62, else objects
        self.cnt_type = np.int64 if m + b <= 62 else object
        self.eu, self.ev = edges.T
        # incidence order: the 2E edge ends sorted by (tree, node), so that
        # each node with alive edges (inc_node) owns one run, tree by tree
        ends = np.concatenate((self.eu, self.ev))
        order = np.lexsort((ends, self.tree_of[ends]))
        self.inc_edge, ends = order % E, ends[order]
        cut = np.flatnonzero(_runs(ends))
        self.inc_start, deg = cut[:-1], cut[1:] - cut[:-1]
        self.inc_node = ends[self.inc_start]
        k0, k1 = ctx.k0[self.inc_node], ctx.k1[self.inc_node]
        c0, c1 = np.maximum(k0, 1), np.maximum(k1, 1)
        # counts reach 2^(m+b-1): with weights c0, c1 this bounds the like sums
        self.acc_type = np.int64 if int((deg * (c0 + c1)).max()) << (m + b - 1) < 1 << 63 else object
        # and with lam/k1, lam/k0 (0 on a side without candidates), each at
        # most lam, the numerators, and summed over the nodes the tree totals;
        # both stay below 2E lam 2^(m+b), so past that alone the numerators'
        # exact bound is built, in Python ints, and each bit's totals checked
        self.lam = lam = lcm(*set((c0 * c1).tolist()))
        self.fits = lam * 2 * E << (m + b) < 1 << 63
        if self.fits:
            w1, w0 = (lam // c * (k > 0) for c, k in ((c1, k1), (c0, k0)))
            self.num_type = np.int64
        else:
            w1, w0 = (lam // c.astype(object) * (k > 0) for c, k in ((c1, k1), (c0, k0)))
            bound = deg * (w1 + w0) << (m + b - 1)
            self.num_type = np.int64 if bound.max() < 1 << 63 else object
        self.w1, self.w0 = w1.astype(self.num_type), w0.astype(self.num_type)
        # each tree's run of listed nodes: one reduceat gives the trees' totals
        node_tree = self.tree_of[self.inc_node]
        self.tree_cut = np.flatnonzero(_runs(node_tree))[:-1]
        self.tree_at = node_tree[self.tree_cut]
        self.edge_tree = self.tree_of[self.eu]
        # the spans depend on an edge only through dx = x_u ^ x_v, and the
        # generators are linear in it: g_k(x_u ^ x_v) = g_k(x_u) ^ g_k(x_v)
        at, edge_dx = _distinct(ctx.x[self.eu] ^ ctx.x[self.ev])
        ndx = len(at)
        gens = (ctx.gen_table[self.eu[at]] ^ ctx.gen_table[self.ev[at]]).T
        self.tu, self.tv = ctx.t[self.eu], ctx.t[self.ev]
        pe, self.pair_p, val, w = branch_pairs(self.tu, self.tv, b)
        self.pair_edge, self.pair_w = pe, w.astype(self.cnt_type, copy=False)
        self.pair_start = np.flatnonzero(_runs(pe))[:-1]
        pd = edge_dx[pe]
        self.pair_rank = self.pair_p * ndx + pd  # its entry of span.rank
        # R_j(delta) depends on an edge only through (tree, dx) and R_j(val)
        # on a pair only through (dx, val): each is kept per distinct key
        at, key = _distinct(self.edge_tree * ndx + edge_dx)
        self.key_dx, self.key_tree, self.pair_key = edge_dx[at], self.edge_tree[at], key[pe]
        wide = np.int64 if ndx << (b + 1) < 1 << 63 else object
        at, self.pair_vkey = _distinct(pd.astype(wide) << (b + 1) | val)
        self.span = _SpanSweep(gens, b, val[at], pd[at])
        self.margin = ((1 << b) - self.tu - self.tv).astype(self.cnt_type, copy=False)

    # -- decision evaluation ------------------------------------------------

    def decision_values(self, j: int):
        """(nodes, num0, num1, L, totals) over the nodes with alive edges:
        num_r[i] / L is node nodes[i]'s conditional value with seed bit
        j = r, unreduced, over one L = lam 2^shift, and totals[r][i] / L
        the sum of those values over tree i, what its root decides on.
        Every other node's value is 0, and a level without alive edges
        lists no node, over L = 1.  nodes, num_r and totals are arrays;
        totals run in tot_type."""
        if not self.E:
            none = np.zeros(0, dtype=np.int64)
            return none, none, none, 1, np.zeros((2, self.trees), dtype=np.int64)
        if j < self.ctx.fam.m:
            return self._decide_s1(j)
        return self._decide_s2(j)

    def _decide_s1(self, j):
        free = self.ctx.fam.m - j - 1
        pe, pp, pk = self.pair_edge, self.pair_p, self.pair_key
        span = self.span
        span.seek(j)
        # R_j(g_k) per key, k <= j; R_j(delta) XORs those its tree's s1 picks
        g = span.gens[:j + 1, self.key_dx]
        delta = _combine(g[:j], self.s1[self.key_tree])
        tau0 = delta[pk] ^ span.vals[self.pair_vkey]
        weight = self.pair_w << (free - span.rank.ravel()[self.pair_rank])
        like1 = np.zeros((2, self.E), dtype=self.cnt_type)
        for r, tau in enumerate((tau0, tau0 ^ g[j][pk])):
            hits = np.where(tau >> pp == 0, weight, 0)
            like1[r, pe[self.pair_start]] = np.add.reduceat(hits, self.pair_start)
        return self._node_sums(like1, (self.margin << free) + like1, free + self.ctx.fam.b)

    def _decide_s2(self, j):
        i = j - self.ctx.fam.m
        lock = i + 1
        free = self.ctx.fam.b - lock
        fixed = (1 << lock) - 1
        bit = np.array([[0], [1 << i]], dtype=np.int64)  # seed bit j = 0, 1
        a_u, a_v, y = self.a[self.eu], self.a[self.ev], self.s2[self.edge_tree]
        # rescaled thresholds ceil((t - ((a ^ y) mod 2^lock)) / 2^lock)
        t_u = (self.tu + fixed - (((a_u ^ y) & fixed) ^ bit)) >> lock
        t_v = (self.tv + fixed - (((a_v ^ y) & fixed) ^ bit)) >> lock
        like1 = box_count(t_u, t_v, (a_u ^ a_v) >> lock)
        return self._node_sums(like1, (1 << free) - t_u - t_v + like1, free)

    def _node_sums(self, like1, like0, shift):
        """like1 and like0 are (2, E), per seed bit value and edge.  The
        sum over node nodes[i]'s alive edges of like1/k1 + like0/k0, over
        2^shift, is num_r[i] / (lam 2^shift) for seed bit value r; returns
        decision_values' five values.  Like sums run in acc_type, numerators
        in num_type, tree totals in int64 while the level fits or the bit's
        numerators sum below 2^62 (in floats, whose rounding cannot carry it
        past 2^63), else in objects."""
        like = np.concatenate((like1, like0))[:, self.inc_edge]
        like = like.astype(self.acc_type, copy=False)
        sums = np.add.reduceat(like, self.inc_start, axis=1)
        num = sums[:2] * self.w1 + sums[2:] * self.w0
        small = self.fits or num.dtype != object and num.sum(dtype=np.float64) < 2.0**62
        wide = num if small else num.astype(object)
        if self.trees == 1:
            totals = wide.sum(axis=1, keepdims=True)
        else:
            totals = np.zeros((2, self.trees), dtype=wide.dtype)
            totals[:, self.tree_at] = np.add.reduceat(wide, self.tree_cut, axis=1)
        return self.inc_node, num[0], num[1], self.lam << shift, totals

    # -- committing a decided bit -------------------------------------------

    def lock(self, j: int, bits):  # seed bit j is bits[i] in tree i
        if not any(bits):  # nothing changes, and gen_table is left unbuilt
            return
        m = self.ctx.fam.m
        bits = np.array(bits, dtype=np.int64)
        if j < m:  # s1 gains x^j: a_v ^= low_b(x^j * x_v)
            self.a ^= self.ctx.gen_table[:, j] * bits[self.tree_of]
            self.s1 |= bits << j
        else:
            self.s2 |= bits << (j - m)


# ---------------------------------------------------------------------------
# one full level

@dataclass
class RootRecord:
    """One tree's level: its seed and its potential before and after.

    LevelReport.roots keys it by the tree's root; the forest holds the
    tree's nodes.
    """

    seed: Seed
    phi_before: Fraction
    phi_after: Fraction


@dataclass
class LevelReport:
    level: int
    phi_before: Fraction
    phi_after: Fraction
    bound: Fraction
    rounds: int
    roots: dict


def frac_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def fix_level(ctx: LevelContext, state: PrefixState, comm, *, strategy="conditional"):
    """Pick one seed per component and refine every prefix by one bit.

    Returns (next state, LevelReport).  Round 1 carries (k0, k1, psi)
    both ways along each alive edge.  Then each root decides the m+b seed
    bits that can matter from its tree's two candidate totals off the
    estimator, checked as integers against its previous choice, and the
    strategy picks each bit: conditional the smaller total, holding the
    chain to it, exhaustive bit j of the tree's best seed, from at most
    SEED_CAP.  Seeds and coins come off the estimator's state.  The
    protocol is then charged bit by bit, in order: the convergecast of
    both candidate sums of the nodes with alive edges, whose root sums
    must equal the totals decided on (graphs.check), and a one-bit
    broadcast of the chosen bit; the level's convergecasts are priced
    together, on the first.

    Each tree's potential before and after, and its slack 10 max deg
    |tree| / 2^b, are segment sums of the states' phi_terms and deg over
    the forest's preorder; the first bit's totals, the realized potential
    and the level's potential are checked against them by cross-multiplying
    Python ints, and Fractions are built only for the reports and trace.

    Tree i of comm.forest is rooted at roots[i] and holds its run of the
    preorder; a Forest partitions range(len(tree_of)), so only its length
    is checked.
    """
    if strategy not in ("conditional", "exhaustive"):
        raise ValueError(f"unknown strategy {strategy!r}")
    fam = ctx.fam
    m, b = fam.m, fam.b
    start_rounds = comm.stats.rounds
    forest = comm.forest
    if len(forest.tree_of) != state.inst.graph.n:
        raise ValueError("forest must partition the nodes")
    trees = len(forest.roots)
    # per tree, over its run of the forest's preorder: its potential
    # before[i] / den, and its bound cap[i] / (den 2^b), the potential
    # plus the slack 10 max deg |tree| / 2^b
    terms, den = state.phi_terms
    pre, starts = forest.preorder, forest.tree_start[:-1]
    before = np.add.reduceat(terms[pre], starts).tolist()
    slack = 10 * np.maximum.reduceat(state.deg[pre], starts) * np.diff(forest.tree_start)
    cap = [(phi << b) + s * den for phi, s in zip(before, slack.tolist())]

    # round 1: both endpoints of every alive edge send each other their
    # split counts and psi color, (k0, k1, x) in 2 * cw + a bits, after
    # which every node can price its neighbors' coins locally
    cw = max(1, state.inst.C.bit_length())
    comm.exchange(ctx.edges, 2 * cw + fam.a)

    # exhaustive: each tree's seed bits are those of its optimum
    best = None if strategy == "conditional" else [
        seed_to_int(fam, exhaustive_seed(ctx, state, nodes=pre[lo:hi])[0])
        for lo, hi in pairwise(forest.tree_start.tolist())
    ]
    est = _Estimator(ctx, forest.tree_of, trees)
    # decide: each root reads its tree's totals off the estimator; last is
    # its last choice as an integer over that bit's denominator
    last = [None] * trees
    num_a, num_b, dens, decided = [], [], [], []
    for j in range(m + b):
        nodes, num0, num1, L, totals = est.decision_values(j)
        totals = list(zip(*totals.tolist()))
        bits = []
        for i, (s0, s1) in enumerate(totals):
            if j == 0:  # (s0 + s1) / 2 is at most the tree's bound
                check((s0 + s1) * den << b <= 2 * L * cap[i],
                      "threshold rounding drifted past its slack")
            else:  # (s0 + s1) / 2 equals the previous bit's choice
                check((s0 + s1) * last[i][1] == 2 * last[i][0] * L,
                      "conditional chain broke")
            bits.append(choose_seed_bit(s0, s1) if best is None else best[i] >> j & 1)
            # conditional is held to the smaller total: a worse bit breaks the chain
            last[i] = (min(s0, s1) if best is None else (s0, s1)[bits[i]], L)
        est.lock(j, bits)
        num_a.append(num0)
        num_b.append(num1)
        dens.append(L)
        decided.append(totals)
    # charge: per seed bit the convergecast of both candidate sums, whose
    # root sums must be the totals decided on, then the broadcast of each
    # root's chosen bit
    casts = Convergecasts(nodes, num_a, num_b, dens)
    for j in range(m + b):
        _, sums = comm.aggregate(casts, j)
        check(sums == decided[j], "root sums must equal the totals the roots decided on")
        comm.broadcast(1)

    # coin v fires when a_v ^ s2 < t_v, a_v = low_b(s1 * x_v) and s2 < 2^b
    coin = (est.a ^ est.s2[est.tree_of]) < ctx.t
    new_state = apply_bits(state, coin)
    seeds = [Seed(*pair) for pair in zip(est.s1.tolist(), est.s2.tolist())]
    terms, den_after = new_state.phi_terms
    after = np.add.reduceat(terms[pre], starts).tolist()

    records = {}
    for i, root in enumerate(forest.roots):
        check(after[i] * last[i][1] == last[i][0] * den_after,
              "realized potential must equal the fully conditioned expectation")
        rec = records[root] = RootRecord(
            seeds[i], Fraction(before[i], den), Fraction(after[i], den_after))
        if comm.trace is not None:
            comm.trace(
                {
                    "level": new_state.level,
                    "root": root,
                    "seed": seed_bit_string(fam, seeds[i]),
                    "phi_before": frac_str(rec.phi_before),
                    "phi_after": frac_str(rec.phi_after),
                    "bound": frac_str(Fraction(cap[i], den << b)),
                }
            )
    check(sum(after) * den << b <= sum(cap) * den_after,
          "level potential exceeded the rounding slack")
    report = LevelReport(
        level=new_state.level,
        phi_before=Fraction(sum(before), den),
        phi_after=Fraction(sum(after), den_after),
        bound=Fraction(sum(cap), den << b),
        rounds=comm.stats.rounds - start_rounds,
        roots=records,
    )
    return new_state, report


# ---------------------------------------------------------------------------
# exhaustive reference search

def exhaustive_seed(ctx: LevelContext, state: PrefixState, *, nodes=None):
    """Smallest (potential, seed) over the whole seed space.

    Enumerates the 2^(m+b) seeds that can differ on the low hash window;
    s2 coefficients at b and above never reach it and stay zero.
    SEED_CAP is checked against the nominal 2^(2m) space.  For each s1,
    the edge endpoints that match over every s2 are counted per
    candidate count k in int64 and weighted by lcm/k; the weighted sums
    stay int64 while 2E * lcm fits and turn to Python ints past it, so
    mixed list sizes stay exact however large their lcm grows.  The hash offsets
    amat[i, s1] = low_b(s1 * x_i) come from one generator table by m
    doublings, each appending every s1 + 2^k: no scalar field product.
    """
    fam = ctx.fam
    if (1 << fam.seed_bits) > SEED_CAP:
        raise SeedCapError(f"2^{fam.seed_bits} seeds exceed the cap of {SEED_CAP}")
    nodes = np.arange(state.inst.graph.n) if nodes is None else np.asarray(nodes, dtype=np.int64)
    # the nodes' alive edges in index order, found through the incidence
    # lists rather than by one scan of every alive edge per component
    edges = ctx.edges[sorted({i for v in nodes.tolist() for i in ctx.incident[v]})]
    edges = edges[np.isin(edges, nodes).all(axis=1)]
    m, b = fam.m, fam.b
    if not len(edges):
        return seed_from_int(fam, 0), Fraction(0)
    used, pos = np.unique(edges, return_inverse=True)
    pos = pos.reshape(edges.shape)  # each edge end's index in used
    ks = np.stack((ctx.k0[used], ctx.k1[used]))  # by side, then used node
    sizes = np.unique(ks[ks > 0]).tolist()
    # ends[side, i, e]: endpoints of edge e whose side-1 (side 0: side-0)
    # candidate count is sizes[i]
    ends = (ks[:, None, pos] == np.array(sizes)[:, None, None]).sum(axis=3)
    den = lcm(*sizes)
    acc_type = np.int64 if 2 * len(edges) * den < 1 << 63 else object
    scale = np.array([den // k for k in sizes], dtype=acc_type)

    g = ctx.gen_table[used]
    amat = np.zeros((len(used), 1), dtype=np.int64)
    for k in range(m):
        amat = np.concatenate((amat, amat ^ g[:, k, None]), axis=1)
    tcol = ctx.t[used, None]
    eu, ev = pos.T
    s2v = np.arange(1 << b, dtype=np.int64)
    best_val = best_word = None
    for s1 in range(1 << m):
        coin = (amat[:, s1, None] ^ s2v) < tcol
        cu, cv = coin[eu], coin[ev]
        counts = ends[1] @ (cu & cv) + ends[0] @ (~cu & ~cv)
        acc = scale @ counts.astype(acc_type)  # potential * den, per s2
        pos = int(np.argmin(acc))  # first hit = smallest s2
        val = int(acc[pos])
        word = (pos << m) | s1
        if best_val is None or (val, word) < (best_val, best_word):
            best_val, best_word = val, word
    return seed_from_int(fam, best_word), Fraction(best_val, den)
