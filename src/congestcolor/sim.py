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
broadcast, whose contents no one reads, take the widths their charge
depends on and return only RunStats.  A CommPlan runs the steps one
after another as one round ledger whose total adds up their stats.

Every phase step but the pipeline's flag-low is a single pass, not an
engine run: its rounds and messages follow from its input, so it
computes its result directly, and one charging rule, _charge, turns
each round's message count, bits and longest message into the RunStats
and trace the engine would give.  Here that covers the BFS forest, the
one-round exchange and the tree collectives; linial.py adds the
reduction and the MIS sweep.  The forest is one Forest of node-indexed
arrays with its collectives' schedule derived once, so they need no
loop over trees and name each tree by its forest position.  The seed-bit
convergecast takes integer terms over one given denominator only at the
nodes it lists and prices only them and their ancestors; every other
non-root ships the zero pair, charged per round by count.  Only the
engine, which serves flag-low, hand-written protocols and the tests'
references, takes a round cap, a check on programs that never halt.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from math import gcd

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
    """A spanning forest, one tree per component, as node-indexed arrays.

    tree_of[v] is v's tree by forest position, parent[v] its parent (None
    at a root) and depth[v] its hop distance from the root; tree i is
    rooted at roots[i] and holds the ascending nodes[i].  Construction
    raises ValueError unless nodes and tree_of partition range(n) the
    same way and each tree holds its root, alone parentless at depth 0,
    and every other node's parent one layer up.  The collectives'
    schedule is derived once for the whole forest: subheight[v] is the
    height of v's subtree, level_sizes[d] the number of nodes at depth d,
    up_sizes[r] the number of non-roots that ship their subtree sum in
    round r of a convergecast (those of subheight r - 1), and height the
    largest depth.  Equality compares the five stored fields.
    """

    tree_of: tuple
    parent: tuple
    depth: tuple
    roots: tuple
    nodes: tuple
    subheight: list = field(init=False, repr=False, compare=False)
    level_sizes: list = field(init=False, repr=False, compare=False)
    up_sizes: list = field(init=False, repr=False, compare=False)
    height: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        owner = sorted((v, i) for i, tree in enumerate(self.nodes) for v in tree)
        if owner != list(enumerate(self.tree_of)):
            raise ValueError("forest must partition the nodes")
        tree_of, depth, roots = self.tree_of, self.depth, self.roots
        if len(roots) != len(self.nodes) or any(r not in t for r, t in zip(roots, self.nodes)):
            raise ValueError("each tree's root must lie in it")
        for v, p in enumerate(self.parent):
            if v == roots[tree_of[v]]:
                if p is not None or depth[v]:
                    raise ValueError(f"root {v} must have no parent and depth 0")
            elif p not in range(len(depth)) or (tree_of[p], depth[p]) != (tree_of[v], depth[v] - 1):
                raise ValueError(f"node {v} needs a parent in its tree one layer up")
        self.height = max(self.depth, default=0)
        levels = [[] for _ in range(self.height + 1)]
        for v, d in enumerate(self.depth):
            levels[d].append(v)
        self.level_sizes = [len(level) for level in levels]
        self.subheight = sub = [0] * len(self.depth)
        self.up_sizes = [0] * (self.height + 1)
        # the non-roots deepest first: every child before its parent, so
        # sub[v] is final when v is reached
        for v in (v for level in reversed(levels[1:]) for v in level):
            p = self.parent[v]
            sub[p] = max(sub[p], sub[v] + 1)
            self.up_sizes[sub[v] + 1] += 1


def build_bfs_forest(graph, *, policy=None, trace=None):
    """Grow one BFS tree per component, rooted at its smallest id, in
    root order: one BFS from each node no earlier tree reached.  A
    node's parent is its smallest-id neighbor one layer up.

    Charged as the synchronous flood: a node at depth d offers its
    (distance, parent) pair, 2 * ceil(log2 n) bits, to every neighbor in
    round d + 1, and the deepest nodes take one more round, at height + 2,
    for their final wakeup.  An offer past the policy's cap stops the
    flood in setup, at the first node with a neighbor, which roots the
    first tree with an edge.
    """
    n, adj = graph.n, graph.adj
    width = 2 * max(1, (n - 1).bit_length())
    limit = (policy or BandwidthPolicy()).limit_bits(n)
    if limit is not None and width > limit:
        first = next((v for v in range(n) if adj[v]), None)
        if first is not None:
            raise BandwidthError(1, (first, adj[first][0]), width, limit)
    tree_of, parent, depth = [None] * n, [None] * n, [0] * n
    roots, nodes = [], []
    for root in range(n):
        if tree_of[root] is not None:
            continue
        dist = bfs_depths(adj, root)
        for v, d in dist.items():
            tree_of[v] = len(roots)
            depth[v] = d
            if d:
                parent[v] = next(u for u in adj[v] if dist[u] == d - 1)
        roots.append(root)
        nodes.append(tuple(sorted(dist)))
    forest = Forest(tuple(tree_of), tuple(parent), tuple(depth), tuple(roots), tuple(nodes))
    offers = [0]  # offers[d + 1]: the degree sum of the nodes at depth d
    if graph.edge_list:
        offers += [0] * (forest.height + 2)
        for v, d in enumerate(depth):
            offers[d + 1] += len(adj[v])
    return forest, _charge({ALGORITHM: [_even(k, width) for k in offers]}, trace)


# ---------------------------------------------------------------------------
# Tree convergecast / broadcast, evaluated as passes (see module docstring)

# An aggregation message carries a reduced pair a, b of rationals as four
# integers, each a sign bit, a _LEN_FIELD-bit length, then the magnitude.
_PAIR_OVERHEAD = 4 * (1 + _LEN_FIELD)


def _charge(sent, trace, failure=None):
    """RunStats of a pass that delivers, per category c, sent[c][r] =
    (messages, bits, max_bits) in round r = 1..height (0 is setup), with
    the engine's trace.  A pass with no rounds charges nothing.

    `failure` is (r, exc) for an error the engine raises while it runs
    round r (0 is setup): the rounds before it are traced, then it raises.
    """
    height = max(map(len, sent.values()), default=1) - 1
    if not height:
        return RunStats()
    done = height if failure is None else failure[0] - 1
    if trace is not None:
        for r in range(1, done + 1):
            bits = _per_category() | {c: rounds[r][1] for c, rounds in sent.items()}
            messages = sum(rounds[r][0] for rounds in sent.values())
            trace({"round": r, "messages": messages, "category_bits": bits})
    if failure is not None:
        raise failure[1]
    stats = RunStats(rounds=height)
    for c, rounds in sent.items():
        count, bits, top = zip(*rounds)
        stats.messages += sum(count)
        stats.messages_by_category[c] = sum(count)
        stats.bits_by_category[c] = sum(bits)
        stats.max_bits_by_category[c] = max(top)
    return stats


def _even(count, width):
    """(messages, bits, max_bits) of a round of `count` width-bit messages."""
    return count, count * width, width if count else 0


def aggregate_pairs(graph, forest, values, *, policy=None, trace=None):
    """Sum node values a_v = num_a[i] / L, b_v = num_b[i] / L for
    v = nodes[i] (L > 0, any terms; 0 at every node not listed) toward
    each tree root of the Forest, in integers.

    `values` is (nodes, num_a, num_b, L), integer sequences of one length
    over one denominator L for the whole forest; a node listed twice or
    outside range(n) raises ValueError.  Returns (L, sums), sums[i] the
    integer pair (A, B) with A / L, B / L the totals of tree i.  A
    non-root v ships its reduced subtree sum in round subheight(v) + 1,
    once all its children have, as an "aggregation" message.  Only the
    listed nodes and their ancestors are priced, deepest first by depth
    buckets, a parent joining the bucket above when first reached; every
    other non-root ships 0/1, 0/1, charged per round by count from
    forest.up_sizes.  So the Python work follows the listed nodes; only
    two node-indexed scratch lists are n wide.  Aggregation is exempt
    from `policy`; rounds equal the forest height.
    """
    nodes, num_a, num_b, L = values
    n, height = len(forest.tree_of), forest.height
    depth, parent, sub = forest.depth, forest.parent, forest.subheight
    priced = [[] for _ in range(height + 1)]  # the priced sizes, by round
    too_long = height + 1  # first round in which a sum too long to encode is sent
    # sums by node: None marks a node the walk has not reached
    sum_a, sum_b = [None] * n, [0] * n
    bucket = [[] for _ in priced]  # the nodes to price, by depth
    for v, a, b in zip(nodes, num_a, num_b):
        if not 0 <= v < n:  # a negative id would index from the end
            raise ValueError(f"listed node {v} lies outside range({n})")
        if sum_a[v] is not None:
            raise ValueError(f"node {v} is listed twice")
        sum_a[v], sum_b[v] = a, b
        bucket[depth[v]].append(v)
    for d in range(height, 0, -1):
        up = bucket[d - 1]
        for v in bucket[d]:
            sa, sb = sum_a[v], sum_b[v]
            # S / L reduced by gcd(S, L) is the message, whatever L is
            ga, gb = gcd(sa, L), gcd(sb, L)
            la, lda = (sa // ga).bit_length(), (L // ga).bit_length()
            lb, ldb = (sb // gb).bit_length(), (L // gb).bit_length()
            r = sub[v] + 1
            size = _PAIR_OVERHEAD + la + lda + lb + ldb
            priced[r].append(size)
            if size >> _LEN_FIELD and max(la, lda, lb, ldb) >> _LEN_FIELD:
                too_long = min(too_long, r - 1)  # too long to send
            p = parent[v]
            if sum_a[p] is None:  # first seen: priced with its depth
                sum_a[p] = sa
                up.append(p)
            else:
                sum_a[p] += sa
            sum_b[p] += sb
    # every non-root the walk never reached ships 0/1, 0/1, the shortest pair
    zero = _PAIR_OVERHEAD + 2
    sent = [(k, sum(s) + (k - len(s)) * zero, max(s)) if s else _even(k, zero)
            for s, k in zip(priced, forest.up_sizes)]
    failure = None
    if too_long <= height:
        error = ValueError("integer too large for the rational wire format")
        failure = (too_long, error)
    sums = [(sum_a[r] or 0, sum_b[r]) for r in forest.roots]
    return (L, sums), _charge({AGGREGATION: sent}, trace, failure)


def broadcast_values(graph, forest, width, *, policy=None, trace=None):
    """Charge one `width`-bit "algorithm" message down every tree of the
    Forest, which the level_sizes[d] nodes at depth d hear in round d;
    returns RunStats, rounds = height.  The first root with a neighbor
    checks, as the engine's setup round does, that the policy's cap
    allows the width.
    """
    limit = (policy or BandwidthPolicy()).limit_bits(graph.n)
    if forest.height and limit is not None and width > limit:
        root = next(r for r in forest.roots if graph.adj[r])
        raise BandwidthError(1, (root, graph.adj[root][0]), width, limit)
    sent = [_even(0, width), *(_even(size, width) for size in forest.level_sizes[1:])]
    return _charge({ALGORITHM: sent}, trace)


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

    def exchange(self, sends, width):
        self.stats.add(
            exchange(self.graph, sends, width, policy=self.policy, trace=self.trace)
        )

    def aggregate(self, values):
        """(L, sums) of aggregate_pairs over the forest, for the sparse
        `values` (nodes, num_a, num_b, L); unlisted nodes add 0."""
        return self.run(aggregate_pairs, self.graph, self.forest, values)

    def broadcast(self, width):
        self.stats.add(
            broadcast_values(
                self.graph, self.forest, width, policy=self.policy, trace=self.trace
            )
        )


def exchange(graph, sends, width, *, policy=None, trace=None):
    """Charge one round in which each directed edge (src, dst) in `sends`
    carries one `width`-bit "algorithm" message; returns RunStats, as the
    engine would charge them.  A width past the policy's cap raises
    BandwidthError at sends[0].  No send costs no round.
    """
    if not sends:
        return RunStats()
    limit = (policy or BandwidthPolicy()).limit_bits(graph.n)
    if limit is not None and width > limit:
        raise BandwidthError(1, sends[0], width, limit)
    return _charge({ALGORITHM: [_even(0, width), _even(len(sends), width)]}, trace)
