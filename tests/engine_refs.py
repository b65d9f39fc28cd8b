"""Engine-driven references for the passes: each protocol that sim.py and
linial.py evaluate as a charged pass, run here as node programs on the
round engine, message by message, with the pass's signature and result.

The tests compare every pass with its reference one at a time
(test_sim.py) and swap all of them in for a whole colouring
(test_engine_run.py).  Nothing in the library imports this module.
"""

from __future__ import annotations

from fractions import Fraction

from congestcolor.graphs import bfs_depths, check, check_coloring
from congestcolor.linial import _recolor, _schedule, log_star
from congestcolor.sim import (
    AGGREGATION,
    Forest,
    Message,
    NodeProgram,
    RunStats,
    _LEN_FIELD,
    run_protocol,
)


# Fixed-width fields, in which _BFSBuild below ships its (distance,
# parent) offers.


def pack_fields(*fields) -> Message:
    """Pack (value, width) pairs MSB-first into one algorithm message."""
    payload, total = 0, 0
    for value, width in fields:
        if width < 1 or not 0 <= value < (1 << width):
            raise ValueError(f"value {value} does not fit in {width} bits")
        payload = (payload << width) | value
        total += width
    return Message(payload, total)


def unpack_fields(msg: Message, widths) -> tuple:
    """The (value, ...) of msg packed by pack_fields with these widths."""
    widths = tuple(widths)
    if sum(widths) != msg.bit_len:
        raise ValueError("field widths do not add up to the message length")
    out, rest = [], msg.payload
    for width in reversed(widths):
        out.append(rest & ((1 << width) - 1))
        rest >>= width
    return tuple(reversed(out))


# The rational wire format of aggregation messages, which the engine-driven
# reference below ships and decodes.


def _append_int(payload: int, bits: int, z: int) -> tuple:
    mag = abs(z)
    length = mag.bit_length()
    if length >= (1 << _LEN_FIELD):
        raise ValueError("integer too large for the rational wire format")
    payload = (payload << 1) | (1 if z < 0 else 0)
    payload = (payload << _LEN_FIELD) | length
    payload = (payload << length) | mag
    return payload, bits + 1 + _LEN_FIELD + length


def pack_fraction_pair(a: Fraction, b: Fraction) -> Message:
    payload, bits = 0, 0
    for z in (a.numerator, a.denominator, b.numerator, b.denominator):
        payload, bits = _append_int(payload, bits, z)
    return Message(payload, bits, AGGREGATION)


def _read_int(payload: int, cursor: int) -> tuple:
    sign = (payload >> (cursor - 1)) & 1
    cursor -= 1
    length = (payload >> (cursor - _LEN_FIELD)) & ((1 << _LEN_FIELD) - 1)
    cursor -= _LEN_FIELD
    mag = (payload >> (cursor - length)) & ((1 << length) - 1) if length else 0
    cursor -= length
    return (-mag if sign else mag), cursor


def unpack_fraction_pair(msg: Message) -> tuple:
    cursor = msg.bit_len
    parts = []
    for _ in range(4):
        z, cursor = _read_int(msg.payload, cursor)
        parts.append(z)
    if cursor != 0:
        raise ValueError("trailing bits in rational message")
    return Fraction(parts[0], parts[1]), Fraction(parts[2], parts[3])


# ---------------------------------------------------------------------------
# Engine-driven reference for the tree collectives: the same convergecast
# and broadcast run as node programs, message by message.


class _SumPairs(NodeProgram):
    def __init__(self, parent, children, value):
        self.parent = parent
        self.children = set(children)
        self.acc = value
        self.total = None

    def _flush(self, ctx):
        if self.parent is None:
            self.total = self.acc
        else:
            ctx.send(self.parent, pack_fraction_pair(*self.acc))
        ctx.halt()

    def setup(self, ctx):
        if not self.children:
            self._flush(ctx)

    def absorb(self, ctx):
        for u, msg in ctx.inbox.items():
            a, b = unpack_fraction_pair(msg)
            self.acc = (self.acc[0] + a, self.acc[1] + b)
            self.children.discard(u)
        if not self.children:
            self._flush(ctx)


def _children(forest):
    """Each node's children, ascending, from the forest's parent array."""
    kids = [[] for _ in forest.parent]
    for v, p in enumerate(forest.parent):
        if p is not None:
            kids[p].append(v)
    return kids


def engine_aggregate(graph, forest, casts, j, *, policy=None, round_cap=None, trace=None):
    """aggregate_pairs: for convergecast j of the level's Convergecasts
    `casts`, every node ships its subtree's pair of Fractions in the wire
    format, with the pair 0, 0 at each node the level does not list; the
    roots' totals come back as integers over bit j's L."""
    L = casts.L[j]
    pairs = [(Fraction(0), Fraction(0))] * graph.n
    for v, a, b in zip(casts.nodes, casts.num_a[j], casts.num_b[j]):
        pairs[int(v)] = (Fraction(int(a), L), Fraction(int(b), L))
    progs = [
        _SumPairs(p, kids, pairs[v])
        for v, (p, kids) in enumerate(zip(forest.parent, _children(forest)))
    ]
    stats = run_protocol(graph, progs, policy=policy, round_cap=round_cap, trace=trace)
    sums = [
        tuple(s.numerator * (L // s.denominator) for s in progs[r].total)
        for r in forest.roots
    ]
    return (L, sums), stats


class _Relay(NodeProgram):
    def __init__(self, children, width, value=None):
        self.children = children
        self.width = width
        self.value = value

    def _forward(self, ctx):
        for u in self.children:
            ctx.send(u, Message(self.value, self.width))
        ctx.halt()

    def setup(self, ctx):
        if self.value is not None:
            self._forward(ctx)

    def absorb(self, ctx):
        (msg,) = ctx.inbox.values()
        self.value = msg.payload
        self._forward(ctx)


def engine_broadcast(graph, forest, width, *, policy=None, round_cap=None, trace=None):
    """broadcast_values: every root relays a `width`-bit value, all ones,
    down its tree."""
    progs = [
        _Relay(kids, width, (1 << width) - 1 if p is None else None)
        for p, kids in zip(forest.parent, _children(forest))
    ]
    return run_protocol(graph, progs, policy=policy, round_cap=round_cap, trace=trace)


# ---------------------------------------------------------------------------
# Engine-driven reference for the one-round exchange.


class _OneShot(NodeProgram):
    def __init__(self, outgoing):
        self.outgoing = outgoing

    def setup(self, ctx):
        for u, msg in self.outgoing.items():
            ctx.send(u, msg)
        ctx.wake_at(1)

    def absorb(self, ctx):
        ctx.halt()


def engine_exchange(graph, edges, width, *, policy=None, trace=None):
    """exchange: each edge (u, v) in edges carries a `width`-bit message
    each way; a node queues its messages in the order of its edges.
    `edges` may be pairs or an (E, 2) array."""
    if not len(edges):
        return RunStats()
    outgoing = [{} for _ in range(graph.n)]
    for u, v in (map(int, e) for e in edges):
        outgoing[u][v] = outgoing[v][u] = Message((1 << width) - 1, width)
    progs = [_OneShot(out) for out in outgoing]
    return run_protocol(graph, progs, policy=policy, trace=trace)


# ---------------------------------------------------------------------------
# Engine-driven references for the BFS forest, Linial's reduction and the
# MIS sweep: the same protocols as node programs, run message by message.


class _BFSBuild(NodeProgram):
    def __init__(self, is_root: bool, width: int):
        self.is_root = is_root
        self.width = width
        self.dist = None
        self.parent = None
        self.kids = set()

    def _announce(self, ctx):
        # the root names itself in the parent slot; no neighbor matches it
        parent = ctx.node if self.parent is None else self.parent
        msg = pack_fields((self.dist, self.width), (parent, self.width))
        for u in ctx.neighbors:
            ctx.send(u, msg)

    def setup(self, ctx):
        if not self.is_root:
            return
        self.dist = 0
        if not ctx.neighbors:
            ctx.halt()
            return
        self._announce(ctx)
        ctx.wake_at(2)

    def absorb(self, ctx):
        if self.dist is None:
            senders = {}
            for u, msg in ctx.inbox.items():
                senders[u] = unpack_fields(msg, (self.width, self.width))
            check(
                all(d == ctx.round - 1 for d, _ in senders.values()),
                "BFS offers must come from the previous layer",
            )
            self.dist = ctx.round
            self.parent = min(senders)
            self._announce(ctx)
            ctx.wake_at(ctx.round + 2)
        for u, msg in ctx.inbox.items():
            d, p = unpack_fields(msg, (self.width, self.width))
            if p == ctx.node and d == self.dist + 1:
                self.kids.add(u)
        if ctx.round == self.dist + 2:
            ctx.halt()


def components(graph) -> list:
    """Connected components as ascending node tuples, ordered by min node."""
    seen, out = set(), []
    for v in range(graph.n):
        if v not in seen:
            comp = tuple(sorted(bfs_depths(graph.adj, v)))
            seen.update(comp)
            out.append(comp)
    return out


def engine_bfs_forest(graph, *, policy=None, trace=None):
    """build_bfs_forest: a flood from each component's smallest id."""
    width = max(1, (graph.n - 1).bit_length())
    roots = {comp[0] for comp in components(graph)}
    progs = [_BFSBuild(v in roots, width) for v in range(graph.n)]
    stats = run_protocol(graph, progs, policy=policy, trace=trace)
    forest = Forest(tuple(p.parent for p in progs), tuple(p.dist for p in progs))
    for v, kids in enumerate(_children(forest)):
        check(progs[v].kids == set(kids), "a node's kids must be its children")
    return forest, stats


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


def engine_linial_reduce(graph, colors=None, *, policy=None, trace=None):
    if colors is None:
        colors = list(range(graph.n))
    check_coloring(graph, colors, "initial coloring")
    schedule, _ = _schedule(max(colors, default=0) + 1, graph.max_degree)
    check(len(schedule) <= log_star(graph.n) + 4, "reduction chain too long")
    progs = [_Reduce(colors[v], schedule) for v in range(graph.n)]
    stats = run_protocol(graph, progs, policy=policy, trace=trace)
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


def engine_mis_by_colors(graph, colors, *, policy=None, trace=None):
    check_coloring(graph, colors, "conflict coloring")
    progs = [_ClassSweep(colors[v]) for v in range(graph.n)]
    stats = run_protocol(graph, progs, policy=policy, trace=trace)
    return tuple(v for v, p in enumerate(progs) if p.joined), stats
