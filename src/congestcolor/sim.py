"""Synchronous message-passing engine with bit-level bandwidth accounting.

Execution model: every node runs `setup` once, then the engine proceeds
in rounds.  A message queued in round r (setup is round 0) is delivered
at the start of round r+1, and delivery wakes the receiver.  Nodes can
also schedule timed wakeups.  The engine executes a round only when a
delivery or wakeup is pending, so the round count equals the number of
rounds in which anything happens; a protocol where every node halts in
setup costs zero rounds.

Per round and per directed edge a node may send one message.  Messages
carry an explicit bit length.  Category "algorithm" is subject to the
strict bandwidth policy (at most beta * ceil(log2 n) bits); category
"aggregation" (exact rational partial sums) is measured but exempt.

Every node must eventually halt.  If no event is pending while some
node is still live, the run aborts with StallError.  Messages sent to a
node that already halted are counted but dropped.

Sequential composition is the intended usage: a phase step whose
result someone reads, such as build_bfs_forest or aggregate_pairs,
returns (result, RunStats); the one-round exchange and the seed-bit
broadcast, whose contents no one reads, take the edges and widths their
charge depends on and return only RunStats.  A CommPlan runs the steps one
after another as one round ledger whose total adds up their stats.

Every phase step but the pipeline's flag-low is a single pass, not an
engine run: its rounds and messages follow from its input, so it
computes its result directly, and one charging rule, _charge, turns
each round's message count, bits and longest message into the RunStats,
trace and BandwidthError the engine would give: the cap is that one
rule, and the engine keeps its own check, the tests' independent
reference.  Here that covers the BFS forest, the one-round exchange and
the tree collectives; linial.py adds the reduction and the MIS sweep.
The forest is one Forest, built from its parent and depth arrays, with
its trees and its collectives' schedule derived once, so they need no
loop over trees and name each tree by its forest position.  The m+b
seed-bit convergecasts of a level come as one Convergecasts: integer
terms over one given denominator per bit, only at the nodes the level
lists.  The level's first
aggregate_pairs call prices all of its bits in one numpy pass, each
subtree sum a difference of prefix sums over the forest's DFS preorder,
and every call charges its own bit, so the charges keep the protocol's
order.  Only the listed nodes and their ancestors are priced; every
other non-root ships the zero pair, charged per round by count.  Only
the engine, which serves flag-low, hand-written protocols and the tests'
references, takes a round cap, a check on programs that never halt.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import accumulate

import numpy as np

from .graphs import bfs_depths

ALGORITHM = "algorithm"
AGGREGATION = "aggregation"
_CATEGORIES = (ALGORITHM, AGGREGATION)

_LEN_FIELD = 16  # bit width of the length prefix inside rational encodings


class ProtocolError(RuntimeError):
    pass


class StallError(RuntimeError):
    pass


class RoundCapError(RuntimeError):
    pass


class BandwidthError(RuntimeError):
    def __init__(self, round_no: int, edge: tuple, bits: int, limit: int):
        self.round = round_no
        self.edge = edge
        self.bits = bits
        self.limit = limit
        super().__init__(
            f"algorithm message of {bits} bits exceeds strict cap of "
            f"{limit} bits at round {round_no} on edge {edge}"
        )


@dataclass(frozen=True)
class Message:
    payload: int
    bit_len: int
    category: str = ALGORITHM

    def __post_init__(self):
        if self.category not in _CATEGORIES:
            raise ValueError(f"unknown message category {self.category!r}")
        if self.bit_len < 1:
            raise ValueError("messages carry at least one bit")
        if not 0 <= self.payload < (1 << self.bit_len):
            raise ValueError(
                f"payload {self.payload} does not fit in {self.bit_len} bits"
            )


@dataclass(frozen=True)
class BandwidthPolicy:
    """beta=None just measures; beta=k enforces k * ceil(log2 n) bits.

    A set host_n replaces n, so protocols on a subgraph keep the host's cap.
    """

    beta: int | None = None
    host_n: int | None = None

    def limit_bits(self, n: int) -> int | None:
        if self.beta is None:
            return None
        if self.host_n is not None:
            n = self.host_n
        return self.beta * max(1, (n - 1).bit_length())

    def pin(self, n: int) -> "BandwidthPolicy":
        """This policy with host_n = n, unless an earlier pin set it."""
        return self if self.host_n is not None else replace(self, host_n=n)

    @classmethod
    def parse(cls, text: str) -> "BandwidthPolicy":
        """Parse "measure", or "strict:K" for an integer K >= 1."""
        if text == "measure":
            return cls()
        beta = text.removeprefix("strict:")
        if beta != text and beta.isdecimal() and int(beta) >= 1:
            return cls(beta=int(beta))
        raise ValueError(f"bad bandwidth policy {text!r}")


def _per_category(value=0):
    return dict.fromkeys(_CATEGORIES, value)


@dataclass
class RunStats:
    rounds: int = 0
    messages: int = 0
    bits_by_category: dict = field(default_factory=_per_category)
    messages_by_category: dict = field(default_factory=_per_category)
    max_bits_by_category: dict = field(default_factory=_per_category)

    def add(self, other: "RunStats") -> None:
        self.rounds += other.rounds
        self.messages += other.messages
        for c in _CATEGORIES:
            self.bits_by_category[c] += other.bits_by_category[c]
            self.messages_by_category[c] += other.messages_by_category[c]
            self.max_bits_by_category[c] = max(
                self.max_bits_by_category[c], other.max_bits_by_category[c]
            )


class NodeProgram:
    def setup(self, ctx) -> None:
        pass

    def absorb(self, ctx) -> None:
        pass


class Ctx:
    __slots__ = ("_engine", "node", "neighbors", "inbox")

    def __init__(self, engine, node):
        self._engine = engine
        self.node = node
        self.neighbors = engine.graph.adj[node]
        self.inbox = {}

    @property
    def n(self) -> int:
        return self._engine.graph.n

    @property
    def round(self) -> int:
        return self._engine.round

    def send(self, to: int, msg: Message) -> None:
        self._engine.queue(self.node, to, msg)

    def halt(self) -> None:
        self._engine.alive.discard(self.node)

    def wake_at(self, round_no: int) -> None:
        self._engine.wake(self.node, round_no)


class _Engine:
    def __init__(self, graph, programs, policy, round_cap, trace):
        if len(programs) != graph.n:
            raise ProtocolError("need one program per node")
        self.graph = graph
        self.programs = programs
        self.policy = policy or BandwidthPolicy()
        self.limit = self.policy.limit_bits(graph.n)
        self.round_cap = round_cap
        self.trace = trace
        self.round = 0
        self.alive = set(range(graph.n))
        self.outbox = {}  # (src, dst) -> Message, delivered next round
        self.wakes = {}  # round -> set of nodes
        self.stats = RunStats()

    def queue(self, src: int, dst: int, msg: Message) -> None:
        if not isinstance(msg, Message):
            raise ProtocolError(f"node {src} sent a non-Message object")
        if dst not in self.graph.adj[src]:
            raise ProtocolError(f"node {src} has no edge to {dst}")
        if (src, dst) in self.outbox:
            raise ProtocolError(
                f"node {src} sent twice to {dst} in round {self.round + 1}"
            )
        if (
            self.limit is not None
            and msg.category == ALGORITHM
            and msg.bit_len > self.limit
        ):
            raise BandwidthError(self.round + 1, (src, dst), msg.bit_len, self.limit)
        self.outbox[(src, dst)] = msg

    def wake(self, node: int, round_no: int) -> None:
        if round_no <= self.round:
            raise ProtocolError(f"node {node} scheduled a wake in the past")
        self.wakes.setdefault(round_no, set()).add(node)

    def _pending(self) -> bool:
        for r in sorted(self.wakes):
            self.wakes[r] &= self.alive
            if not self.wakes[r]:
                del self.wakes[r]
        return bool(self.outbox) or bool(self.wakes)

    def run(self) -> RunStats:
        ctxs = [Ctx(self, v) for v in range(self.graph.n)]
        for v in range(self.graph.n):
            self.programs[v].setup(ctxs[v])
        while self._pending():
            self.round += 1
            if self.round_cap is not None and self.round > self.round_cap:
                raise RoundCapError(
                    f"round cap {self.round_cap} exceeded with work pending"
                )
            sent, self.outbox = self.outbox, {}
            deliveries = {}
            bits = _per_category()
            for (src, dst), msg in sent.items():
                deliveries.setdefault(dst, {})[src] = msg
                bits[msg.category] += msg.bit_len
                self.stats.messages += 1
                self.stats.messages_by_category[msg.category] += 1
                self.stats.bits_by_category[msg.category] += msg.bit_len
                self.stats.max_bits_by_category[msg.category] = max(
                    self.stats.max_bits_by_category[msg.category], msg.bit_len
                )
            scheduled = (set(deliveries) | self.wakes.pop(self.round, set()))
            for v in sorted(scheduled & self.alive):
                ctxs[v].inbox = deliveries.get(v, {})
                self.programs[v].absorb(ctxs[v])
                ctxs[v].inbox = {}
            self.stats.rounds += 1
            if self.trace is not None:
                self.trace(
                    {
                        "round": self.round,
                        "messages": len(sent),
                        "category_bits": bits,
                    }
                )
        if self.alive:
            v = min(self.alive)
            raise StallError(
                f"protocol stalled: node {v} and {len(self.alive) - 1} others "
                "are live with no pending deliveries or wakeups"
            )
        return self.stats


def run_protocol(
    graph, programs, *, policy=None, round_cap=None, trace=None
) -> RunStats:
    return _Engine(graph, list(programs), policy, round_cap, trace).run()


# ---------------------------------------------------------------------------
# BFS spanning forest


@dataclass
class Forest:
    """A spanning forest, one tree per component, from node-indexed
    arrays: parent[v] is v's parent, None at a root, and depth[v] its hop
    distance from its root.

    Construction raises ValueError unless each depth-0 node is parentless
    and every other node's parent lies one layer up; then every parent
    chain ends at a root, so the trees partition the nodes.  The rest is
    derived once.  The roots, the parentless nodes ascending, number the
    trees: tree i is rooted at roots[i], and tree_of[v] is v's tree.  For
    the collectives, level_sizes[d] is the number of nodes at depth d,
    up_sizes[r] the number of non-roots that ship their subtree sum in
    round r of a convergecast, height the largest depth, and zero_sent
    the per-round charges of a convergecast in which every non-root ships
    the zero pair.  As int64 arrays, a DFS preorder of the trees in forest
    order: v's subtree takes the positions tin[v] <= p < tout[v],
    preorder[p] is the node at position p, and tree i takes those from
    tree_start[i] to tree_start[i + 1]; ship[v] is the round in which v
    ships, its subtree's height plus 1, or 0 at a root, and shippers the
    non-roots by that round, then by id.  Equality compares parent and
    depth.
    """

    parent: tuple
    depth: tuple
    roots: tuple = field(init=False, repr=False, compare=False)
    tree_of: np.ndarray = field(init=False, repr=False, compare=False)
    level_sizes: list = field(init=False, repr=False, compare=False)
    up_sizes: list = field(init=False, repr=False, compare=False)
    zero_sent: list = field(init=False, repr=False, compare=False)
    height: int = field(init=False, repr=False, compare=False)
    tin: np.ndarray = field(init=False, repr=False, compare=False)
    preorder: np.ndarray = field(init=False, repr=False, compare=False)
    tout: np.ndarray = field(init=False, repr=False, compare=False)
    tree_start: np.ndarray = field(init=False, repr=False, compare=False)
    ship: np.ndarray = field(init=False, repr=False, compare=False)
    shippers: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        parent, depth = self.parent, self.depth
        n = len(depth)
        nodes = range(n)
        for v, p, d in zip(nodes, parent, depth, strict=True):
            if not d:
                if p is not None:
                    raise ValueError(f"root {v} must have no parent and depth 0")
            elif p not in nodes or depth[p] != d - 1:
                raise ValueError(f"node {v} needs a parent in its tree one layer up")
        self.height = max(depth, default=0)
        levels = [[] for _ in range(self.height + 1)]
        for v, d in enumerate(depth):
            levels[d].append(v)
        self.level_sizes = [len(level) for level in levels]
        self.roots = roots = tuple(levels[0])
        sub, below = [0] * n, [0] * n  # each node's subtree height and descendants
        self.up_sizes = [0] * (self.height + 1)
        # the non-roots deepest first: every child before its parent, so
        # sub[v] and below[v] are final when v is reached
        for level in reversed(levels[1:]):
            for v in level:
                p = parent[v]
                sub[p] = max(sub[p], sub[v] + 1)
                below[p] += below[v] + 1
                self.up_sizes[sub[v] + 1] += 1
        self.zero_sent = [_even(k, _ZERO_PAIR) for k in self.up_sizes]
        # then shallowest first: each tree, then each parent's children,
        # take consecutive runs of positions, free[p] being p's next one
        sizes = [below[r] + 1 for r in roots]
        start = [*accumulate(sizes, initial=0)]  # each tree's first position
        tin, free = [0] * n, [0] * n
        for r, at in zip(roots, start):
            tin[r], free[r] = at, at + 1
        for level in levels[1:]:
            for v in level:
                p = parent[v]
                tin[v], free[v] = free[p], free[p] + 1
                free[p] += below[v] + 1
        self.tin = np.array(tin, dtype=np.int64)
        self.preorder = self.tin.argsort()
        self.tout = self.tin + below + 1
        self.tree_start = np.array(start, dtype=np.int64)
        self.tree_of = np.repeat(np.arange(len(roots)), sizes)[self.tin]
        self.ship = np.array(sub, dtype=np.int64) + 1
        self.ship[list(roots)] = 0
        self.shippers = np.argsort(self.ship, kind="stable")[len(roots):]


def build_bfs_forest(graph, *, policy=None, trace=None):
    """Grow one BFS tree per component, rooted at its smallest id: one
    BFS from each node no earlier tree reached.  A node's parent is its
    smallest-id neighbor one layer up; the Forest is built from the
    parents and depths alone.

    Charged as the synchronous flood: a node at depth d offers its
    (distance, parent) pair, 2 * ceil(log2 n) bits, to every neighbor in
    round d + 1, and the deepest nodes take one more round, at height + 2,
    for their final wakeup.  An offer past the policy's cap stops the
    flood in setup, at graph.edge_list[0]: the first node with a neighbor
    roots the first tree with an edge and offers first to its smallest.
    """
    n, adj = graph.n, graph.adj
    width = 2 * max(1, (n - 1).bit_length())
    parent, depth = [None] * n, [None] * n
    for root in range(n):
        if depth[root] is not None:
            continue
        dist = bfs_depths(adj, root)
        for v, d in dist.items():
            depth[v] = d
            if d:
                parent[v] = next(u for u in adj[v] if dist[u] == d - 1)
    forest = Forest(tuple(parent), tuple(depth))
    offers = [0]  # offers[d + 1]: the degree sum of the nodes at depth d
    if graph.edge_list:
        offers += [0] * (forest.height + 2)
        for v, d in enumerate(depth):
            offers[d + 1] += len(adj[v])
    sent = {ALGORITHM: [_even(k, width) for k in offers]}
    return forest, _charge(sent, trace, policy=policy, n=n, edges=graph.edge_list)


# ---------------------------------------------------------------------------
# Tree convergecast / broadcast, evaluated as passes (see module docstring)

# An aggregation message carries a reduced pair a, b of rationals as four
# integers, each a sign bit, a _LEN_FIELD-bit length, then the magnitude;
# 0/1, 0/1 is the shortest.
_PAIR_OVERHEAD = 4 * (1 + _LEN_FIELD)
_ZERO_PAIR = _PAIR_OVERHEAD + 2


def _charge(sent, trace, failure=None, *, policy=None, n=0, edges=()):
    """RunStats of a pass that delivers, per category c, sent[c][r] =
    (messages, bits, max_bits) in round r = 1..height (0 is setup), with
    the engine's trace.  A pass with no rounds charges nothing.

    Under `policy`, the first "algorithm" round r whose longest message
    passes policy.limit_bits(n) raises BandwidthError(r, edges[0], bits,
    limit), edges[0] the pass's first send, while round r - 1 runs, as
    the engine does on queueing it; aggregation is exempt.  `failure` is
    (r, exc) for an aggregation pass's error that the engine raises while
    it runs round r (0 is setup).  Either way the rounds before it are
    traced, then it raises.
    """
    height = max(map(len, sent.values()), default=1) - 1
    if not height:
        return RunStats()
    stats = RunStats(rounds=height)
    for c, rounds in sent.items():
        count, bits, top = zip(*rounds)
        stats.messages += sum(count)
        stats.messages_by_category[c] = sum(count)
        stats.bits_by_category[c] = sum(bits)
        stats.max_bits_by_category[c] = max(top)
    limit = None if policy is None else policy.limit_bits(n)
    if limit is not None and stats.max_bits_by_category[ALGORITHM] > limit:
        r, top = next((r, t) for r, (_, _, t) in enumerate(sent[ALGORITHM]) if t > limit)
        failure = r - 1, BandwidthError(r, tuple(map(int, edges[0])), top, limit)
    done = height if failure is None else failure[0] - 1
    if trace is not None:
        for r in range(1, done + 1):
            bits = _per_category() | {c: rounds[r][1] for c, rounds in sent.items()}
            messages = sum(rounds[r][0] for rounds in sent.values())
            trace({"round": r, "messages": messages, "category_bits": bits})
    if failure is not None:
        raise failure[1]
    return stats


def _even(count, width):
    """(messages, bits, max_bits) of a round of `count` width-bit messages."""
    return count, count * width, width if count else 0


class Convergecasts:
    """The seed-bit convergecasts of one level over one Forest.

    Convergecast j sums a_v = num_a[j][i] / L[j], b_v = num_b[j][i] / L[j]
    at v = nodes[i] (L[j] > 0, any integer terms; 0 at every node not
    listed) toward each tree root: one listing of nodes for every bit,
    and one row of terms and one denominator per bit.  aggregate_pairs
    prices every bit in one pass (_price_level) on the first call that
    needs it and keeps the result here with the forest it priced; a
    level that lists no node skips the pass.
    """

    def __init__(self, nodes, num_a, num_b, L):
        self.nodes, self.num_a, self.num_b, self.L = nodes, num_a, num_b, L
        self._priced = None  # (forest, [(sums, sent, failure) per bit])

    def priced(self, forest):
        if self._priced is None or self._priced[0] is not forest:
            if len(self.nodes):
                bits = _price_level(forest, self)
            else:  # every non-root ships the zero pair
                bits = [([(0, 0) for _ in forest.roots], forest.zero_sent, None) for _ in self.L]
            self._priced = forest, bits
        return self._priced[1]


def aggregate_pairs(graph, forest, casts, j, *, policy=None, trace=None):
    """Convergecast j of `casts`, one level's Convergecasts, toward each
    root of the Forest, in integers.

    Returns (L, sums), L = casts.L[j] and sums[i] the integer pair (A, B)
    with A / L, B / L the totals of tree i.  A non-root v ships its
    reduced subtree sum in round forest.ship[v], once all its children
    have, as an "aggregation" message; a sum too long for the wire format
    raises ValueError in the round it is sent, after the trace records of
    the rounds before it, and a node listed twice or outside range(n)
    raises ValueError.  Each call charges its own bit, so a level's
    charges keep the protocol's order.  Aggregation is exempt from
    `policy`; rounds equal the forest height.
    """
    sums, sent, failure = casts.priced(forest)[j]
    if failure is not None:
        failure = failure, ValueError("integer too large for the rational wire format")
    return (casts.L[j], sums), _charge({AGGREGATION: sent}, trace, failure)


_HALF_POW2 = np.array([0, *(1 << k for k in range(63))], dtype=np.int64)  # 2^(e-1), e >= 1
_bit_length_of = np.frompyfunc(int.bit_length, 1, 1)
# most int64 entries in one array of a block of bits, a Python int counting
# as 8: it bounds the pass's memory on wide levels
_CHUNK = 1 << 15


def _bit_length(x):
    """Entrywise bit length of |x|: in int64 the float exponent, at most 63
    (2^63 - 512 and up round to 2^63), one less where past 2^53 the float
    rounded up to a power of two; int.bit_length in objects."""
    if x.dtype == object:
        return _bit_length_of(x).astype(np.int64)
    x = np.abs(x)
    e = np.minimum(np.frexp(x)[1], 63)
    return e - (x < _HALF_POW2[e])


def _price_level(forest, casts):
    """[(sums, sent, failure)] per bit of `casts`: the roots' integer sums,
    the per-round (messages, bits, max_bits) for _charge, and the round
    in which the first sum too long for the wire format is sent, or None.

    Subtree sums are differences of prefix sums over the listed nodes in
    the forest's preorder.  Only the non-roots with a listed node in their
    subtree, the listed nodes and their ancestors, are priced, by np.gcd
    with L and exact bit lengths; every other non-root ships 0/1, 0/1,
    charged per round by count from forest.up_sizes, and a round with no
    priced node keeps its forest.zero_sent entry.  Per-round bits and
    maxima are reduceats over the priced nodes in shipping order.  A bit
    runs in int64 while its L fits and each side's sum of |term| is below
    2^62 (summed in floats, whose rounding cannot carry it past 2^63), so
    no prefix sum overflows, and in Python ints (object arrays) past it;
    blocks of bits keep each array within _CHUNK.
    """
    n, height = len(forest.tree_of), forest.height
    nodes = np.asarray(casts.nodes, dtype=np.int64)
    if nodes.min() < 0 or nodes.max() >= n:  # a negative id would index from the end
        v = next(v for v in nodes.tolist() if not 0 <= v < n)
        raise ValueError(f"listed node {v} lies outside range({n})")
    # before[p]: the listed nodes at preorder positions below p
    before = np.zeros(n + 1, dtype=np.int64)
    before[forest.tin[nodes] + 1] = 1
    before.cumsum(out=before)
    if before[-1] < len(nodes):
        seen = set()
        for v in nodes.tolist():
            if v in seen:
                raise ValueError(f"node {v} is listed twice")
            seen.add(v)
    order = forest.tin[nodes].argsort()  # the listed nodes in preorder
    # the priced non-roots, in shipping order, and their prefix-sum cuts
    shippers = forest.shippers
    lo, hi = before[forest.tin[shippers]], before[forest.tout[shippers]]
    priced = (hi > lo).nonzero()[0]
    lo, hi = lo[priced], hi[priced]
    sent_in = forest.ship[shippers[priced]] - 1  # the round each one ships in
    count = np.bincount(sent_in + 1, minlength=height + 1)
    rounds = count.nonzero()[0]
    starts = (count.cumsum() - count)[rounds]  # each round's first priced node
    unpriced = (np.array(forest.up_sizes) - count)[rounds] * _ZERO_PAIR
    tree_cut = before[forest.tree_start]
    up, rounds = forest.up_sizes, rounds.tolist()

    try:
        terms = np.array((casts.num_a, casts.num_b), dtype=np.int64)
        small = (np.abs(terms.astype(np.float64)).sum(axis=2) < 2.0**62).all(axis=0)
    except OverflowError:
        terms = np.array((casts.num_a, casts.num_b), dtype=object)
        small = [max(sum(map(abs, row)) for row in side) < 1 << 62 for side in zip(*terms)]
    fits = np.array([ok and L < 1 << 63 for ok, L in zip(small, casts.L)], dtype=bool)
    out = [None] * len(fits)
    width = 2 * (len(nodes) + len(priced) + len(tree_cut))
    for dtype, group, cost in ((np.int64, fits.nonzero()[0], 1), (object, (~fits).nonzero()[0], 8)):
        step = max(1, _CHUNK // (cost * width))
        for at in range(0, len(group), step):
            js = group[at:at + step]
            den = np.array([casts.L[j] for j in js.tolist()], dtype=dtype)[:, None]
            prefix = np.zeros((2, len(js), len(nodes) + 1), dtype=dtype)
            np.cumsum(terms[:, js[:, None], order].astype(dtype, copy=False), axis=2,
                      out=prefix[:, :, 1:])
            S = prefix[:, :, hi]  # (side, bit, priced node): the subtree sums
            S -= prefix[:, :, lo]
            g = np.gcd(S, den)
            S //= g  # reduced, each over den // g
            np.floor_divide(den, g, out=g)
            num_len, den_len = _bit_length(S), _bit_length(g)
            del S, g
            size = (num_len + den_len).sum(axis=0, dtype=np.int64) + _PAIR_OVERHEAD
            bits = (np.add.reduceat(size, starts, axis=1) + unpriced).tolist()
            top = np.maximum.reduceat(size, starts, axis=1)
            first = [None] * len(js)
            if top.max(initial=0) >> _LEN_FIELD:  # some sum may be too long
                # the round in which each bit's first too long sum is sent
                long = (np.maximum(num_len, den_len) >> _LEN_FIELD).any(axis=0)
                first = [int(sent_in[row].min()) if row.any() else None for row in long]
            top = top.tolist()
            ends = prefix[:, :, tree_cut]
            sum_a, sum_b = (ends[:, :, 1:] - ends[:, :, :-1]).tolist()
            for i, j in enumerate(js.tolist()):
                sent = forest.zero_sent.copy()
                for r, b, t in zip(rounds, bits[i], top[i]):
                    sent[r] = up[r], b, t
                out[j] = list(zip(sum_a[i], sum_b[i])), sent, first[i]
    return out


def broadcast_values(graph, forest, width, *, policy=None, trace=None):
    """Charge one `width`-bit "algorithm" message down every tree of the
    Forest, which the level_sizes[d] nodes at depth d hear in round d;
    returns RunStats, rounds = height.  A width past the policy's cap
    stops it in setup at graph.edge_list[0], on a BFS forest the first
    root with a neighbor and its first child.
    """
    sent = [_even(0, width), *(_even(size, width) for size in forest.level_sizes[1:])]
    return _charge({ALGORITHM: sent}, trace, policy=policy, n=graph.n, edges=graph.edge_list)


class CommPlan:
    """The round ledger of one phase: graph, Forest, policy and one RunStats.

    A step with a result runs through `run`, which hands it the policy
    and the trace, adds the step's RunStats to the ledger's total and
    returns the result; `exchange` and `broadcast` add the RunStats of
    their charge-only passes the same way and return nothing.  The
    forest may be set once it has been built.
    """

    def __init__(self, graph, forest=None, *, policy=None, trace=None):
        self.graph = graph
        self.forest = forest
        self.policy = policy
        self.trace = trace
        self.stats = RunStats()

    def run(self, step, *args):
        """Result of step(*args, policy, trace) after charging the
        RunStats it returns beside the result."""
        result, stats = step(*args, policy=self.policy, trace=self.trace)
        self.stats.add(stats)
        return result

    def exchange(self, edges, width):
        """Charge a `width`-bit message each way along each of `edges`."""
        self.stats.add(
            exchange(self.graph, edges, width, policy=self.policy, trace=self.trace)
        )

    def aggregate(self, casts, j):
        """(L, sums) of convergecast j of the level's Convergecasts
        `casts` over the forest; unlisted nodes add 0."""
        return self.run(aggregate_pairs, self.graph, self.forest, casts, j)

    def broadcast(self, width):
        self.stats.add(
            broadcast_values(
                self.graph, self.forest, width, policy=self.policy, trace=self.trace
            )
        )


def exchange(graph, edges, width, *, policy=None, trace=None):
    """Charge one round in which each edge (u, v) in `edges`, pairs or an
    (E, 2) array, carries one `width`-bit "algorithm" message each way;
    returns RunStats, as the engine would charge them.  A width past the
    policy's cap raises BandwidthError at edges[0], from u to v.  No edge
    costs no round."""
    if not len(edges):
        return RunStats()
    sent = [_even(0, width), _even(2 * len(edges), width)]
    return _charge({ALGORITHM: sent}, trace, policy=policy, n=graph.n, edges=edges)
