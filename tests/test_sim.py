import random
import time
from fractions import Fraction
from math import lcm

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import congestcolor.graphs as graphs_module
import congestcolor.sim as sim_module
from congestcolor.graphs import Graph, InvariantError, bfs_depths, generate_graph
from congestcolor.linial import linial_reduce, mis_by_colors
from congestcolor.sim import (
    AGGREGATION,
    ALGORITHM,
    BandwidthError,
    BandwidthPolicy,
    CommPlan,
    Convergecasts,
    Forest,
    Message,
    NodeProgram,
    ProtocolError,
    RoundCapError,
    RunStats,
    StallError,
    _LEN_FIELD,
    _charge,
    _even,
    aggregate_pairs,
    broadcast_values,
    build_bfs_forest,
    exchange,
    run_protocol,
)
from engine_refs import (
    components,
    engine_aggregate,
    engine_bfs_forest,
    engine_broadcast,
    engine_exchange,
    engine_linial_reduce,
    engine_mis_by_colors,
    pack_fields,
    pack_fraction_pair,
    unpack_fields,
    unpack_fraction_pair,
)
from oracles import tree_nodes


def test_message_invariants():
    Message(3, 2)
    with pytest.raises(ValueError):
        Message(4, 2)
    with pytest.raises(ValueError):
        Message(0, 0)
    with pytest.raises(ValueError):
        Message(1, 1, category="gossip")


def test_pack_fields_worked_example():
    msg = pack_fields((5, 4), (1, 1), (9, 5))
    assert msg.bit_len == 10
    assert msg.payload == (5 << 6) | (1 << 5) | 9
    assert unpack_fields(msg, (4, 1, 5)) == (5, 1, 9)
    with pytest.raises(ValueError):
        pack_fields((4, 2))


@given(st.lists(st.integers(min_value=0, max_value=2**40), min_size=1, max_size=6))
def test_pack_fields_round_trip(values):
    fields = [(v, max(1, v.bit_length())) for v in values]
    msg = pack_fields(*fields)
    assert msg.bit_len == sum(w for _, w in fields)
    assert unpack_fields(msg, [w for _, w in fields]) == tuple(values)


def level_of(nodes, rows) -> Convergecasts:
    """The Convergecasts of one level listing `nodes`, of rows[j] =
    {v: (Fraction, Fraction)} per seed bit j, each bit over its own L, the
    lcm of its denominators (1 when nothing is listed); a node that a row
    leaves out adds 0 to that bit."""
    num_a, num_b, dens = [], [], []
    for row in rows:
        L = lcm(*(x.denominator for pair in row.values() for x in pair))
        pairs = [row.get(v, (0, 0)) for v in nodes]
        num_a.append([int(a * L) for a, _ in pairs])
        num_b.append([int(b * L) for _, b in pairs])
        dens.append(L)
    return Convergecasts(list(nodes), num_a, num_b, dens)


def one_bit(values: dict) -> Convergecasts:
    """A one-bit level of {v: (Fraction, Fraction)}, listing the keys in
    dict order: aggregate_pairs reads it as convergecast 0."""
    return level_of(values, [values])


def root_totals(L, sums) -> list:
    """aggregate_pairs' integer root sums over L as Fraction pairs."""
    return [(Fraction(a, L), Fraction(b, L)) for a, b in sums]


@given(
    st.fractions(min_value=-(10**30), max_value=10**30, max_denominator=10**30),
    st.fractions(min_value=-(10**30), max_value=10**30, max_denominator=10**30),
)
def test_fraction_pair_round_trip(a, b):
    msg = pack_fraction_pair(a, b)
    assert msg.category == AGGREGATION
    assert unpack_fraction_pair(msg) == (a, b)


class Swap(NodeProgram):
    """Both endpoints of an edge trade one 8-bit value."""

    def __init__(self, value):
        self.value = value
        self.heard = None

    def setup(self, ctx):
        ctx.send(1 - ctx.node, Message(self.value, 8))

    def absorb(self, ctx):
        self.heard = ctx.inbox[1 - ctx.node].payload
        ctx.halt()


def test_two_node_swap_is_one_round():
    g = generate_graph("path", {"n": 2})
    progs = [Swap(42), Swap(17)]
    stats = run_protocol(g, progs)
    assert stats.rounds == 1
    assert stats.messages == 2
    assert stats.bits_by_category[ALGORITHM] == 16
    assert stats.max_bits_by_category[ALGORITHM] == 8
    assert progs[0].heard == 17 and progs[1].heard == 42


class FloodEcho(NodeProgram):
    """Token runs 0 -> n-1 and back; everyone halts behind it."""

    FLOOD, ECHO = 1, 0

    def __init__(self, n):
        self.n = n

    def setup(self, ctx):
        if ctx.node == 0:
            if self.n == 1:
                ctx.halt()
            else:
                ctx.send(1, Message(self.FLOOD, 1))

    def absorb(self, ctx):
        (msg,) = ctx.inbox.values()
        if msg.payload == self.FLOOD:
            if ctx.node == self.n - 1:
                ctx.send(ctx.node - 1, Message(self.ECHO, 1))
                ctx.halt()
            else:
                ctx.send(ctx.node + 1, Message(self.FLOOD, 1))
        else:
            if ctx.node > 0:
                ctx.send(ctx.node - 1, Message(self.ECHO, 1))
            ctx.halt()


def test_flood_echo_round_count():
    g = generate_graph("path", {"n": 5})
    stats = run_protocol(g, [FloodEcho(5) for _ in range(5)])
    assert stats.rounds == 8
    assert stats.messages == 8


def test_exchange_helper():
    g = generate_graph("path", {"n": 3})
    stats = exchange(g, g.edge_list, 4)
    assert stats.rounds == 1
    assert stats.messages == 4  # one each way along both edges
    assert stats.bits_by_category[ALGORITHM] == 16
    assert stats.max_bits_by_category[ALGORITHM] == 4
    assert exchange(g, [], 4) == RunStats()


def test_bfs_path_shape():
    g = generate_graph("path", {"n": 5})
    forest, stats = build_bfs_forest(g)
    assert forest.roots == (0,) and forest.tree_of.tolist() == [0] * 5
    assert forest.parent == (None, 0, 1, 2, 3)
    assert forest.depth == (0, 1, 2, 3, 4)
    assert forest.ship.tolist() == [0, 4, 3, 2, 1] and forest.up_sizes == [0, 1, 1, 1, 1]
    assert forest.height == 4
    assert stats.rounds <= 2 * 4 + 2


def test_bfs_ties_break_to_min_id():
    g = generate_graph("cycle", {"n": 4})
    forest, _ = build_bfs_forest(g)
    # node 2 hears from 1 and 3 in the same round
    assert forest.parent[2] == 1


def test_bfs_forest_roots_and_components():
    g = Graph.from_edges(6, [(0, 1), (1, 2), (4, 5)])
    forest, _ = build_bfs_forest(g)
    assert forest.roots == (0, 3, 4)
    assert forest.tree_of.tolist() == [0, 0, 0, 1, 2, 2]
    assert forest.tree_start.tolist() == [0, 3, 4, 6]
    assert forest.depth[5] == 1 and forest.height == 2
    assert forest.level_sizes == [3, 2, 1]


def test_bfs_many_components_is_fast():
    # a perfect matching: one tree per edge, found without a scan per root
    k = 10_000
    g = Graph.from_edges(2 * k, [(2 * i, 2 * i + 1) for i in range(k)])
    start = time.perf_counter()
    forest, stats = build_bfs_forest(g)
    assert time.perf_counter() - start < 2
    assert forest.roots == tuple(range(0, 2 * k, 2)) and stats.rounds == 3
    assert forest.height == 1 and forest.level_sizes == [k, k]


def test_comm_plan_adds_up_every_step():
    g = generate_graph("path", {"n": 5})
    records = []
    comm = CommPlan(g, trace=records.append)
    comm.forest = comm.run(build_bfs_forest, g)  # 4 layers + 2 rounds
    assert comm.stats.rounds == 6 and comm.forest.height == 4
    comm.exchange([(0, 1)], 1)
    assert comm.stats.rounds == 7 and len(records) == 7
    totals = root_totals(*comm.aggregate(one_bit({0: (Fraction(1), Fraction(2))}), 0))
    assert totals == [(Fraction(1), Fraction(2))]
    comm.broadcast(2)
    assert comm.stats.rounds == 7 + 4 + 4 and len(records) == 15
    assert [r["round"] for r in records] == [*range(1, 7), 1, *range(1, 5), *range(1, 5)]
    assert comm.stats.messages == sum(r["messages"] for r in records)
    for c in (ALGORITHM, AGGREGATION):
        assert comm.stats.bits_by_category[c] == sum(r["category_bits"][c] for r in records)


def test_bfs_matches_offline_distances():
    for trial in range(10):
        g = generate_graph("gnp", {"n": 24, "p": 0.12}, rng_seed=trial)
        forest, stats = build_bfs_forest(g)
        for root, nodes in zip(forest.roots, tree_nodes(forest)):
            dist = bfs_depths(g.adj, root)
            assert sorted(dist) == list(nodes)
            assert all(forest.depth[v] == d for v, d in dist.items())
            for v in nodes:
                if v != root:
                    assert forest.depth[forest.parent[v]] == forest.depth[v] - 1
                    assert forest.parent[v] in g.adj[v]
        assert stats.rounds <= 2 * forest.height + 2


def test_aggregate_pairs_path():
    g = generate_graph("path", {"n": 3})
    forest, _ = build_bfs_forest(g)
    values = {v: (Fraction(v + 1), Fraction(1, v + 1)) for v in range(3)}
    (L, sums), stats = aggregate_pairs(g, forest, one_bit(values), 0)
    assert L == 6 and sums == [(36, 11)]
    assert root_totals(L, sums) == [(Fraction(6), Fraction(11, 6))]
    assert stats.rounds == 2  # tree height
    assert stats.bits_by_category[ALGORITHM] == 0
    assert stats.bits_by_category[AGGREGATION] > 0


def test_aggregate_single_node_is_free():
    g = Graph.from_edges(1, [])
    forest, _ = build_bfs_forest(g)
    (L, sums), stats = aggregate_pairs(g, forest, one_bit({0: (Fraction(5), Fraction(0))}), 0)
    assert (L, sums) == (1, [(5, 0)])
    assert stats.rounds == 0


def test_aggregate_defaults_missing_values_to_zero():
    g = generate_graph("star", {"n": 5})
    forest, _ = build_bfs_forest(g)
    values = one_bit({3: (Fraction(1, 7), Fraction(2))})
    (L, sums), stats = aggregate_pairs(g, forest, values, 0)
    assert root_totals(L, sums) == [(Fraction(1, 7), Fraction(2))]
    assert stats.rounds == 1


def test_broadcast_star():
    g = generate_graph("star", {"n": 5})
    forest, _ = build_bfs_forest(g)
    stats = broadcast_values(g, forest, 3)
    assert stats.rounds == 1
    assert stats.messages == 4
    assert stats.max_bits_by_category[ALGORITHM] == 3


def test_aggregate_random_trees():
    rng = random.Random(9)
    for trial in range(8):
        g = generate_graph("gnp", {"n": 18, "p": 0.15}, rng_seed=100 + trial)
        forest, _ = build_bfs_forest(g)
        rows = [
            {v: (Fraction(rng.randrange(-50, 50), rng.randrange(1, 9)), Fraction(rng.randrange(9)))
             for v in range(18)}
            for _ in range(3)
        ]
        casts = level_of(range(18), rows)
        for j, values in enumerate(rows):
            (L, sums), stats = aggregate_pairs(g, forest, casts, j)
            assert L == casts.L[j]  # one denominator for every tree
            for (a, b), nodes in zip(root_totals(L, sums), tree_nodes(forest)):
                assert a == sum(values[v][0] for v in nodes)
                assert b == sum(values[v][1] for v in nodes)
            assert stats.rounds == forest.height


def test_strict_policy_flags_fat_algorithm_messages():
    g = generate_graph("path", {"n": 2})
    policy = BandwidthPolicy(beta=1)  # cap = 1 * ceil(log2 2) = 1 bit
    stats = run_protocol(g, [Swap(0), Swap(1)], policy=BandwidthPolicy(beta=8))
    assert stats.rounds == 1
    with pytest.raises(BandwidthError, match=r"round 1.*\(0, 1\)"):
        run_protocol(g, [Swap(0), Swap(1)], policy=policy)


def test_charge_holds_every_pass_to_the_cap():
    # strict:1 on n = 4 caps algorithm messages at 2 bits.  Round 3's
    # 3-bit message is queued while round 2 runs, so only round 1 is traced
    sent = [_even(0, 0), _even(2, 1), _even(2, 1), _even(2, 3)]
    strict = BandwidthPolicy(beta=1)
    records = []
    with pytest.raises(BandwidthError) as err:
        _charge({ALGORITHM: sent}, records.append, policy=strict, n=4, edges=[(1, 2), (0, 3)])
    assert (err.value.round, err.value.edge, err.value.bits, err.value.limit) == (3, (1, 2), 3, 2)
    assert records == [{"round": 1, "messages": 2, "category_bits": {ALGORITHM: 2, AGGREGATION: 0}}]
    # aggregation of any width is exempt, and measure or no policy caps nothing
    wide = [_even(0, 0), _even(1, 1), _even(3, 10**4)]
    for policy in (strict, BandwidthPolicy(), None):
        stats = _charge({AGGREGATION: wide}, None, policy=policy, n=4, edges=[(1, 2)])
        assert stats.max_bits_by_category[AGGREGATION] == 10**4
    for policy in (BandwidthPolicy(), None):
        stats = _charge({ALGORITHM: sent}, None, policy=policy, n=4, edges=[(1, 2)])
        assert (stats.rounds, stats.max_bits_by_category[ALGORITHM]) == (3, 3)


def test_bandwidth_policy_parse():
    assert BandwidthPolicy.parse("measure") == BandwidthPolicy()
    assert BandwidthPolicy.parse("strict:1") == BandwidthPolicy(beta=1)
    assert BandwidthPolicy.parse("strict:8") == BandwidthPolicy(beta=8)
    for text in ("strict:0", "strict:-1", "strict:", "strict:x", "loose:8"):
        with pytest.raises(ValueError, match="bad bandwidth policy"):
            BandwidthPolicy.parse(text)


def test_strict_policy_ignores_aggregation():
    g = generate_graph("path", {"n": 2})

    class Sender(NodeProgram):
        def setup(self, ctx):
            if ctx.node == 0:
                ctx.send(1, pack_fraction_pair(Fraction(10**40), Fraction(1)))
            ctx.halt()

    stats = run_protocol(g, [Sender(), Sender()], policy=BandwidthPolicy(beta=1))
    assert stats.messages == 1
    assert stats.max_bits_by_category[AGGREGATION] > 100


class PingPong(NodeProgram):
    def setup(self, ctx):
        if ctx.node == 0:
            ctx.send(1, Message(1, 1))

    def absorb(self, ctx):
        ctx.send(1 - ctx.node, Message(1, 1))


def test_round_cap():
    g = generate_graph("path", {"n": 2})
    with pytest.raises(RoundCapError, match="10"):
        run_protocol(g, [PingPong(), PingPong()], round_cap=10)


def test_stall_detection():
    class Waiter(NodeProgram):
        def setup(self, ctx):
            pass  # waits for a message that never comes

    g = Graph.from_edges(1, [])
    with pytest.raises(StallError, match="node 0"):
        run_protocol(g, [Waiter()])


def test_messages_to_halted_nodes_are_dropped_but_counted():
    class Quit(NodeProgram):
        def setup(self, ctx):
            ctx.halt()

    class Shout(NodeProgram):
        def setup(self, ctx):
            ctx.send(1, Message(1, 1))
            ctx.halt()

    g = generate_graph("path", {"n": 2})
    stats = run_protocol(g, [Shout(), Quit()])
    assert stats.rounds == 1
    assert stats.messages == 1


def test_protocol_errors():
    class BadTarget(NodeProgram):
        def setup(self, ctx):
            ctx.send(2, Message(1, 1))

    class DoubleSend(NodeProgram):
        def setup(self, ctx):
            ctx.send(1, Message(1, 1))
            ctx.send(1, Message(0, 1))

    class SendTuple(NodeProgram):
        def setup(self, ctx):
            ctx.send(1, (1, 1))

    class WakeNow(NodeProgram):
        def setup(self, ctx):
            ctx.wake_at(0)

    g = generate_graph("path", {"n": 3})
    with pytest.raises(ProtocolError):
        run_protocol(g, [BadTarget(), BadTarget(), BadTarget()])
    with pytest.raises(ProtocolError):
        run_protocol(g, [DoubleSend(), NodeProgram(), NodeProgram()])
    with pytest.raises(ProtocolError, match="^need one program per node$"):
        run_protocol(g, [NodeProgram()] * 2)
    with pytest.raises(ProtocolError, match="^node 0 sent a non-Message object$"):
        run_protocol(g, [SendTuple(), NodeProgram(), NodeProgram()])
    with pytest.raises(ProtocolError, match="^node 1 scheduled a wake in the past$"):
        run_protocol(g, [NodeProgram(), WakeNow(), NodeProgram()], round_cap=4)  # a wake never reached


def test_trace_records():
    g = generate_graph("path", {"n": 2})
    records = []
    run_protocol(g, [Swap(3), Swap(4)], trace=records.append)
    assert len(records) == 1
    rec = records[0]
    assert rec["round"] == 1
    assert rec["messages"] == 2
    assert rec["category_bits"][ALGORITHM] == 16
    assert rec["category_bits"][AGGREGATION] == 0


def test_stats_add():
    g = generate_graph("path", {"n": 2})
    s1 = run_protocol(g, [Swap(1), Swap(2)])
    s2 = run_protocol(g, [Swap(3), Swap(4)])
    s1.add(s2)
    assert s1.rounds == 2
    assert s1.messages == 4
    assert s1.bits_by_category[ALGORITHM] == 32


# ---------------------------------------------------------------------------
# Each pass against its engine-driven reference in engine_refs.py.


def _outcome(fn, *args, traced, **kwargs):
    """What fn(*args, **kwargs) returns or raises, with the trace it emitted."""
    records = []
    trace = records.append if traced else None
    try:
        result = fn(*args, trace=trace, **kwargs)
    except (ValueError, InvariantError, RoundCapError, BandwidthError) as exc:
        return ("raised", type(exc), str(exc)), records
    return ("returned", result), records


def _level_outcome(fn, g, forest, casts, *, traced, **kwargs):
    """What fn returns for each seed bit of the level `casts`, in order,
    until one raises, and the trace every call emitted."""
    records = []
    trace = records.append if traced else None
    results = []
    for j in range(len(casts.L)):
        try:
            results.append(fn(g, forest, casts, j, trace=trace, **kwargs))
        except (ValueError, InvariantError, RoundCapError, BandwidthError) as exc:
            return results, ("raised", type(exc), str(exc)), records
    return results, None, records


def _as_totals(outcome):
    """A level outcome with each bit's (L, sums) as Fraction root totals."""
    results, error, records = outcome
    return [(root_totals(L, sums), stats) for (L, sums), stats in results], error, records


HUGE = Fraction(1 << (1 << _LEN_FIELD))  # numerator too long to encode
_fractions = st.fractions(
    min_value=-(10**6), max_value=10**6, max_denominator=10**6
)


@st.composite
def graphs(draw):
    kind = draw(st.sampled_from(["gnp", "star", "path", "edgeless"]))
    n = draw(st.integers(min_value=1, max_value=40))
    if kind == "gnp":
        p = draw(st.sampled_from([0.02, 0.08, 0.2]))
        return generate_graph("gnp", {"n": n, "p": p}, rng_seed=draw(st.integers(0, 999)))
    if kind == "edgeless":  # a forest of height 0: no pass has a round
        return Graph.from_edges(n, [])
    return generate_graph(kind, {"n": n})


@st.composite
def rooted_graphs(draw):
    """A drawn graph relabelled so that one node drawn per component is
    its component's smallest id, where the default forest roots it."""
    g = draw(graphs())
    roots = {draw(st.sampled_from(comp)) for comp in components(g)}
    order = sorted(range(g.n), key=lambda v: (v not in roots, v))
    label = {v: i for i, v in enumerate(order)}
    return Graph.from_edges(g.n, [(label[u], label[v]) for u, v in g.edge_list])


@st.composite
def forests(draw):
    g = draw(rooted_graphs())
    forest, _ = build_bfs_forest(g)
    return g, forest


# beside plain terms, terms whose sums pass 2^62 and so leave int64
_wide_fractions = _fractions | st.integers(-(2**70), 2**70).map(Fraction)


def _draw_level(data, n, huge):
    """Convergecasts of 3 to 5 seed bits over one drawn listing of some
    of n nodes, each bit with its own Fraction terms over its own lcm L;
    the nodes in `huge` are listed and get a part too long for the wire
    format on a middle bit, and 0 on the others."""
    nodes = data.draw(st.lists(st.integers(min_value=0, max_value=n - 1), unique=True))
    nodes += sorted(huge & set(range(n)) - set(nodes))
    rows = [data.draw(st.fixed_dictionaries({v: st.tuples(_wide_fractions, _fractions)
                                             for v in nodes}))
            for _ in range(data.draw(st.integers(3, 5)))]
    for v in huge & set(nodes):
        for row in rows:
            row[v] = (Fraction(0), Fraction(0))
        rows[len(rows) // 2][v] = (HUGE, Fraction(0)) if v % 2 else (Fraction(1), 1 / HUGE)
    return level_of(nodes, rows)


_run_options = {
    "traced": st.booleans(),
    "beta": st.sampled_from([None, 1, 2]),
}


@settings(max_examples=150, deadline=None)
@given(
    gf=forests(),
    data=st.data(),
    huge=st.sets(st.integers(min_value=0, max_value=39), max_size=2),
    **_run_options,
)
def test_aggregate_pairs_matches_engine(gf, data, huge, traced, beta):
    g, forest = gf
    casts = _draw_level(data, g.n, huge)
    kwargs = {"policy": BandwidthPolicy(beta)}
    got = _level_outcome(aggregate_pairs, g, forest, casts, traced=traced, **kwargs)
    want = _level_outcome(engine_aggregate, g, forest, casts, traced=traced, **kwargs)
    assert got == want


@pytest.mark.parametrize("round_cap", [None, 0, 1, 2, 3, 4, 5])
@pytest.mark.parametrize("v", range(6))
def test_aggregate_overflow_against_round_cap_matches_engine(v, round_cap):
    # on the middle bit of three, node v + 1 is the first to send a sum
    # too long to encode, while round 5 - v runs: the pass traces the rounds
    # before it and raises, as the engine does (v = 2 is the control: node
    # 3's value replaces the huge one, and all 6 rounds run).  Only the
    # engine takes a round cap, and one below that last round stops it
    # sooner, on the pass's first records
    g = generate_graph("path", {"n": 7})
    forest, _ = build_bfs_forest(g)
    middle = {v + 1: (HUGE, Fraction(1)), 3: (Fraction(-2, 3), Fraction(5))}
    plain = {v + 1: (Fraction(1, 3), Fraction(0)), 3: (Fraction(-2, 3), Fraction(5))}
    casts = level_of(list(middle), [plain, middle, plain])
    got = _level_outcome(aggregate_pairs, g, forest, casts, traced=True)
    assert got == _level_outcome(engine_aggregate, g, forest, casts, traced=True)
    last = 6 if v == 2 else 5 - v
    traced = 6 if v == 2 else max(last - 1, 0)  # bit 1's records
    # bit 0 returns after its 6 rounds, then bit 1 traces its own
    assert len(got[0]) == (3 if v == 2 else 1) and len(got[2]) == 6 + traced + 6 * (v == 2)
    got = _outcome(aggregate_pairs, g, forest, casts, 1, traced=True)
    assert got == _outcome(engine_aggregate, g, forest, casts, 1, traced=True)
    assert got[0][0] == ("returned" if v == 2 else "raised")
    assert len(got[1]) == traced
    capped = _outcome(engine_aggregate, g, forest, casts, 1, traced=True, round_cap=round_cap)
    if round_cap is None or round_cap >= last:
        assert capped == got
    else:
        assert capped[0][:2] == ("raised", RoundCapError)
        assert capped[1] == got[1][:round_cap]


def test_passes_without_rounds_charge_nothing_under_a_negative_cap():
    # an all-singleton forest has height 0: the engine runs no round, so
    # even a negative cap is not exceeded, and the passes charge the same
    # zero RunStats
    g = Graph.from_edges(3, [])
    forest, _ = build_bfs_forest(g)
    values = one_bit({v: (Fraction(v), Fraction(1, v + 1)) for v in range(3)})
    got = aggregate_pairs(g, forest, values, 0)
    assert got == engine_aggregate(g, forest, values, 0, round_cap=-1)
    assert got[1] == RunStats()
    got = broadcast_values(g, forest, 2)
    assert got == engine_broadcast(g, forest, 2, round_cap=-1)
    assert got == RunStats()


_factors = st.one_of(
    st.integers(min_value=1, max_value=10**6),
    st.integers(min_value=0, max_value=80).map(lambda s: 1 << s),  # as a shift adds
)


@settings(max_examples=150, deadline=None)
@given(
    gf=forests(),
    data=st.data(),
    huge=st.sets(st.integers(min_value=0, max_value=39), max_size=2),
    **_run_options,
)
def test_aggregate_pairs_charge_ignores_common_factors(gf, data, huge, traced, beta):
    # messages carry reduced sums, so scaling a bit's numerators and L by
    # one k changes no total, RunStats, trace record or error, though it
    # changes the common denominator L of that bit's integer root sums
    g, forest = gf
    casts = _draw_level(data, g.n, huge)
    ks = [data.draw(_factors) for _ in casts.L]
    scaled = Convergecasts(
        casts.nodes,
        *([[t * k for t in row] for row, k in zip(rows, ks)] for rows in (casts.num_a, casts.num_b)),
        [L * k for L, k in zip(casts.L, ks)],
    )
    kwargs = {"policy": BandwidthPolicy(beta)}
    want = _level_outcome(engine_aggregate, g, forest, casts, traced=traced, **kwargs)
    got = _level_outcome(aggregate_pairs, g, forest, scaled, traced=traced, **kwargs)
    assert _as_totals(got) == _as_totals(want)


@st.composite
def sparse_terms(draw, forest, huge):
    """Convergecasts of 3 to 5 seed bits listing a drawn subset of the
    forest's nodes in drawn order, with integer terms that may be 0,
    negative or past int64, over one drawn L per bit; a deepest node is
    listed and its parent is not, so the pass reaches a non-root with no
    term of its own.  Listed nodes in `huge` get a numerator too long for
    the wire format on a middle bit."""
    n = len(forest.tree_of)
    order = draw(st.permutations(range(n)))
    listed = order[: draw(st.integers(0, n))]
    deep = max(range(n), key=forest.depth.__getitem__)
    listed = [v for v in listed if v not in (deep, forest.parent[deep])]
    listed.insert(draw(st.integers(0, len(listed))), deep)
    term = st.integers(-(10**6), 10**6) | st.just(0) | st.integers(-(2**70), 2**70)
    bits = draw(st.integers(3, 5))
    L = [draw(st.integers(min_value=1, max_value=10**6) | _factors) for _ in range(bits)]
    num_a, num_b = ([[draw(term) for _ in listed] for _ in L] for _ in range(2))
    for i, v in enumerate(listed):
        if v in huge:
            num_a[bits // 2][i] = HUGE.numerator
    return Convergecasts(listed, num_a, num_b, L)


@settings(max_examples=150, deadline=None)
@given(
    gf=forests(),
    data=st.data(),
    huge=st.sets(st.integers(min_value=0, max_value=39), max_size=2),
    **_run_options,
)
def test_aggregate_pairs_sparse_listing_matches_engine(gf, data, huge, traced, beta):
    g, forest = gf
    assume(forest.height >= 2)
    casts = data.draw(sparse_terms(forest, huge))
    kwargs = {"policy": BandwidthPolicy(beta)}
    got = _level_outcome(aggregate_pairs, g, forest, casts, traced=traced, **kwargs)
    want = _level_outcome(engine_aggregate, g, forest, casts, traced=traced, **kwargs)
    assert got == want


def test_aggregate_pairs_prices_in_int64_and_objects_in_one_level():
    # bit 1's terms sum past 2^62 and bit 3's L passes 2^63, so those two
    # bits price in Python ints and bits 0 and 2 in int64, in one level
    g = generate_graph("gnp", {"n": 30, "p": 0.1}, rng_seed=4)
    forest, _ = build_bfs_forest(g)
    rng = random.Random(4)
    nodes = rng.sample(range(30), 20)
    num_a = [[rng.randrange(-10**6, 10**6) for _ in nodes] for _ in range(4)]
    num_b = [[rng.randrange(-10**6, 10**6) for _ in nodes] for _ in range(4)]
    num_a[1][0] = 1 << 62
    casts = Convergecasts(nodes, num_a, num_b, [7, 12, 1 << 40, 3 << 62])
    dtypes = []

    def bit_length(x, run=sim_module._bit_length):
        dtypes.append(x.dtype)
        return run(x)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim_module, "_bit_length", bit_length)
        got = _level_outcome(aggregate_pairs, g, forest, casts, traced=True)
    # a numerator and a denominator length per block: bits 0 and 2, then 1 and 3
    assert dtypes == [np.int64] * 2 + [object] * 2
    assert got == _level_outcome(engine_aggregate, g, forest, casts, traced=True)
    assert got[1] is None and len(got[0]) == 4


def test_aggregate_pairs_raises_on_a_later_bit_after_the_earlier_bits_records():
    # a sum too long to encode on bit 2 of a level: bits 0 and 1 run and
    # charge their convergecasts and broadcasts, then bit 2's convergecast
    # traces the rounds before the one that sends it and raises, as the
    # engine-driven references do bit by bit
    g = generate_graph("path", {"n": 6})
    forest, _ = build_bfs_forest(g)
    plain = {2: (Fraction(1, 3), Fraction(2)), 4: (Fraction(-1), Fraction(0))}
    casts = level_of([2, 4], [plain, plain, {2: (HUGE, Fraction(0)), 4: plain[4]}, plain])

    def run():
        records = []
        comm = CommPlan(g, forest, trace=records.append)
        try:
            for j in range(len(casts.L)):
                comm.aggregate(casts, j)
                comm.broadcast(1)
        except ValueError as exc:
            return j, str(exc), records
        return None, None, records

    got = run()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim_module, "aggregate_pairs", engine_aggregate)
        mp.setattr(sim_module, "broadcast_values", engine_broadcast)
        assert run() == got
    # node 2 ships in round 3 (its subtree reaches depth 5), so rounds 1
    # and 2 of bit 2 are traced after both earlier bits' 2 * 5 rounds
    assert got[:2] == (2, "integer too large for the rational wire format")
    assert [r["round"] for r in got[2]] == [*range(1, 6)] * 4 + [1, 2]


def test_aggregate_pairs_prices_only_listed_nodes_and_their_ancestors(monkeypatch):
    # one listed leaf of a 300-node star is the one non-root priced on each
    # bit; the other 298 leaves ship 0/1, 0/1 and are charged by count
    g = generate_graph("star", {"n": 300})
    forest, _ = build_bfs_forest(g)
    casts = Convergecasts([17], [[3], [0], [-2]], [[-5], [4], [0]], [7, 1, 9])
    priced = []

    def counted(x, f=sim_module._bit_length):
        priced.append(x.shape)
        return f(x)

    monkeypatch.setattr(sim_module, "_bit_length", counted)
    for j in range(3):
        got = aggregate_pairs(g, forest, casts, j)
        assert got == engine_aggregate(g, forest, casts, j)
        assert got[1].messages == 299
    assert got[0] == (9, [(-2, 0)])
    # one numerator and one denominator length per side, bit and priced node
    assert priced == [(2, 3, 1)] * 2


def test_bit_length_is_exact_past_2_53():
    # past 2^53 an int64 may round up to a power of two as a float, and
    # from 2^63 - 512 up to 2^63 as one past int64's bit lengths; the
    # pass's bit lengths, in int64 and in objects, are still exact
    edges = [0, 1, 2, 3, *(s + d for k in range(50, 63) for s in (1 << k,) for d in (-1, 0, 1))]
    top = [(1 << 63) - 513, (1 << 63) - 512, (1 << 63) - 1]
    x = np.array([v for v in edges if v < 1 << 63] + top + [-(1 << 62) + 1], dtype=np.int64)
    want = [int(v).bit_length() for v in x.tolist()]
    assert sim_module._bit_length(x).tolist() == want
    assert sim_module._bit_length(x.astype(object)).tolist() == want


@pytest.mark.parametrize("L", [(1 << 63) - 1024, (1 << 63) - 1, 1 << 63])
def test_aggregate_pairs_prices_a_denominator_next_to_2_63(L):
    # 2^63 - 1 is int64 but its float is 2^63: the pass still prices it
    g = Graph.from_edges(2, [(0, 1)])
    forest, _ = build_bfs_forest(g)
    casts = Convergecasts([1], [[1]], [[1]], [L])
    assert aggregate_pairs(g, forest, casts, 0) == engine_aggregate(g, forest, casts, 0)


def test_aggregate_pairs_rejects_a_repeated_node():
    g = generate_graph("path", {"n": 5})
    forest, _ = build_bfs_forest(g)
    with pytest.raises(ValueError, match="node 3 is listed twice"):
        aggregate_pairs(g, forest, Convergecasts([3, 1, 3], [[1, 2, 3]], [[0, 0, 0]], [1]), 0)


@pytest.mark.parametrize("v", [-1, 5])
def test_aggregate_pairs_rejects_a_node_outside_the_forest(v):
    # a negative id would otherwise index the node arrays from the end
    g = generate_graph("path", {"n": 5})
    forest, _ = build_bfs_forest(g)
    with pytest.raises(ValueError, match=rf"listed node {v} lies outside range\(5\)"):
        aggregate_pairs(g, forest, Convergecasts([2, v], [[1, 1]], [[0, 0]], [1]), 0)


@settings(max_examples=150, deadline=None)
@given(
    gf=forests(),
    width=st.integers(min_value=1, max_value=9),
    **_run_options,
)
def test_broadcast_values_matches_engine(gf, width, traced, beta):
    g, forest = gf
    kwargs = {"policy": BandwidthPolicy(beta)}
    got = _outcome(broadcast_values, g, forest, width, traced=traced, **kwargs)
    want = _outcome(engine_broadcast, g, forest, width, traced=traced, **kwargs)
    assert got == want


# ---------------------------------------------------------------------------
# Engine-driven references for the exchange, the BFS forest, Linial's
# reduction and the MIS sweep.


@st.composite
def alive_edges(draw):
    """A graph, a drawn subset of its edges in sorted order, as fix_level
    passes a level's alive edges, and a message width."""
    kind = draw(st.sampled_from(["gnp", "star", "path"]))
    n = draw(st.integers(min_value=1, max_value=16))
    if kind == "gnp":
        g = generate_graph("gnp", {"n": n, "p": 0.3}, rng_seed=draw(st.integers(0, 999)))
    else:
        g = generate_graph(kind, {"n": n})
    alive = draw(st.lists(st.booleans(), min_size=len(g.edge_list), max_size=len(g.edge_list)))
    out = tuple(e for e, keep in zip(g.edge_list, alive) if keep)
    return g, out, draw(st.integers(min_value=1, max_value=12))


@settings(max_examples=300, deadline=None)
@given(
    gs=alive_edges(),
    traced=st.booleans(),
    beta=st.sampled_from([None, 1, 2]),
)
def test_exchange_matches_engine(gs, traced, beta):
    g, out, width = gs
    kwargs = {"policy": BandwidthPolicy(beta)}
    got = _outcome(exchange, g, out, width, traced=traced, **kwargs)
    want = _outcome(engine_exchange, g, out, width, traced=traced, **kwargs)
    assert got == want


@st.composite
def colorings(draw, g, spread):
    """A proper coloring of g: greedy in a drawn order, so at most
    Delta + 1 colors, or distinct colors below `spread` (>= g.n)."""
    if draw(st.booleans()):
        colors = [None] * g.n
        for v in draw(st.permutations(range(g.n))):
            used = {colors[u] for u in g.adj[v]}
            colors[v] = min(c for c in range(g.n) if c not in used)
        return colors
    distinct = st.lists(st.integers(0, spread - 1), min_size=g.n, max_size=g.n, unique=True)
    return draw(distinct)


_pass_options = {
    "traced": st.booleans(),
    "beta": st.sampled_from([None, 1, 2, 3]),
}


@st.composite
def drawn_forests(draw):
    """A Forest drawn as (parent, depth): the nodes join in a drawn order
    of their ids, each a new root or a child of a drawn earlier node, so
    ids are shuffled and parents are not chosen by smallest id."""
    n = draw(st.integers(min_value=0, max_value=30))
    order = draw(st.permutations(range(n)))
    parent, depth = [None] * n, [0] * n
    for i, v in enumerate(order):
        at = draw(st.integers(min_value=-1, max_value=i - 1))  # -1: a new root
        if at >= 0:
            parent[v] = order[at]
            depth[v] = depth[parent[v]] + 1
    return Forest(tuple(parent), tuple(depth))


@settings(max_examples=150, deadline=None)
@given(forest=graphs().map(lambda g: build_bfs_forest(g)[0]) | drawn_forests())
def test_forest_arrays_match_a_walk_of_the_trees(forest):
    n, parent = len(forest.depth), forest.parent
    roots = [v for v in range(n) if parent[v] is None]
    assert forest.roots == tuple(roots)  # ascending: the trees in forest order
    # walk every node up to its root: its depth, its tree, its ancestors'
    # subheights and the subtrees it lies in
    depth, sub, within = [0] * n, [0] * n, [{v} for v in range(n)]
    trees = [[] for _ in roots]
    for v in range(n):
        u = v
        while parent[u] is not None:
            u = parent[u]
            depth[v] += 1
            sub[u] = max(sub[u], depth[v])
            within[v].add(u)
        i = roots.index(u)
        assert forest.tree_of[v] == i
        trees[i].append(v)
    assert forest.tree_of.dtype == np.int64
    # a preorder: each subtree, and each tree in forest order, is exactly
    # one run of positions
    pre = forest.preorder.tolist()
    assert forest.tin[pre].tolist() == list(range(n))
    for v in range(n):
        subtree = [u for u in range(n) if v in within[u]]
        assert sorted(pre[forest.tin[v]:forest.tout[v]]) == subtree
    cuts = forest.tree_start.tolist()
    assert [sorted(pre[a:z]) for a, z in zip(cuts, cuts[1:])] == trees and cuts[-1] == n
    assert forest.ship.tolist() == [0 if parent[v] is None else sub[v] + 1 for v in range(n)]
    non_roots = [v for v in range(n) if parent[v] is not None]
    assert forest.shippers.tolist() == sorted(non_roots, key=lambda v: (sub[v], v))
    assert list(forest.depth) == depth
    assert forest.height == max(depth, default=0)
    assert forest.level_sizes == [depth.count(d) for d in range(forest.height + 1)]
    # a non-root ships in round subheight + 1 of a convergecast
    ships = [sub[v] + 1 for v in range(n) if parent[v] is not None]
    assert forest.up_sizes == [ships.count(r) for r in range(forest.height + 1)]


@pytest.mark.parametrize(
    "parent, depth, error",
    [
        # non-root 1 has no parent: its term would never reach a root
        ((None, None), (0, 1), "node 1 needs a parent in its tree one layer up"),
        # root 0 has a parent
        ((1, 0), (0, 1), "root 0 must have no parent and depth 0"),
        # node 2 sits two layers below its parent: height 2, one round
        ((None, 0, 0), (0, 1, 2), "node 2 needs a parent in its tree one layer up"),
    ],
    ids=["orphan-at-depth-1", "root-with-parent", "depth-skips-a-layer"],
)
def test_forest_rejects_inconsistent_trees(parent, depth, error):
    with pytest.raises(ValueError, match=error):
        Forest(parent, depth)


def test_build_bfs_forest_runs_one_bfs_per_component(monkeypatch):
    # components {0, 1, 2}, {3}, {4, 5} and {6}, on a graph no BFS has seen
    g = Graph.from_edges(7, [(0, 1), (1, 2), (4, 5)])
    calls = []

    def counted(adj, src):
        calls.append(src)
        return bfs_depths(adj, src)

    for module in (graphs_module, sim_module):
        monkeypatch.setattr(module, "bfs_depths", counted)
    forest, _ = build_bfs_forest(g)
    assert calls == [0, 3, 4, 6] and forest.roots == (0, 3, 4, 6)


@settings(max_examples=200, deadline=None)
@given(g=rooted_graphs(), **_pass_options)
def test_build_bfs_forest_matches_engine(g, traced, beta):
    kwargs = {"policy": BandwidthPolicy(beta)}
    got = _outcome(build_bfs_forest, g, traced=traced, **kwargs)
    want = _outcome(engine_bfs_forest, g, traced=traced, **kwargs)
    assert got == want


@settings(max_examples=200, deadline=None)
@given(g=graphs(), data=st.data(), **_pass_options)
def test_linial_reduce_matches_engine(g, data, traced, beta):
    # starts of up to 12 bits trip strict:1 and strict:2 for n <= 40
    colors = data.draw(st.none() | colorings(g, 1 << 12))
    kwargs = {"policy": BandwidthPolicy(beta)}
    got = _outcome(linial_reduce, g, colors, traced=traced, **kwargs)
    want = _outcome(engine_linial_reduce, g, colors, traced=traced, **kwargs)
    assert got == want


@settings(max_examples=200, deadline=None)
@given(g=graphs(), data=st.data(), **_pass_options)
def test_mis_by_colors_matches_engine(g, data, traced, beta):
    colors = data.draw(colorings(g, 3 * g.n))
    kwargs = {"policy": BandwidthPolicy(beta)}
    got = _outcome(mis_by_colors, g, colors, traced=traced, **kwargs)
    want = _outcome(engine_mis_by_colors, g, colors, traced=traced, **kwargs)
    assert got == want
