import os
import random
import subprocess
import sys
import textwrap
from dataclasses import FrozenInstanceError, fields, replace
from fractions import Fraction
from math import lcm
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import congestcolor
from congestcolor import coins, gf2, sim
from congestcolor.coins import make_family, seed_from_int
from congestcolor.derand import (
    InvariantError,
    LevelContext,
    SeedCapError,
    SeedPrefix,
    box_count,
    branch_pairs,
    build_level_context,
    choose_seed_bit,
    exhaustive_seed,
    fix_level,
    joint_outcome_prob,
    node_conditional,
    xor_branch_pairs,
    _basis_from,
    _Estimator,
    _gen_table,
    _SpanSweep,
)
from congestcolor.graphs import (
    Graph,
    ListColoringInstance,
    attach_default_lists,
    generate_graph,
)
from congestcolor.pipeline import _accuracy_bits, trim_lists
from congestcolor.prefixes import apply_bits, init_state, phi_sum, split_counts
from congestcolor.sim import BandwidthError, BandwidthPolicy, CommPlan, Forest, build_bfs_forest
from oracles import RecordingPlan, bit_chains, tree_nodes, with_psi, xor_box_count


# ---------------------------------------------------------------------------
# oracles

def brute_xor_box(t_u, t_v, delta, b):
    return sum(1 for y in range(1 << b) if y < t_u and (y ^ delta) < t_v)


def oracle_joint(ctx, edge, prefix_bits):
    """Enumerate every completion of the full 2m-bit seed."""
    fam = ctx.fam
    d = 2 * fam.m
    u, v = edge
    t_u, t_v = ctx.ints.t[u], ctx.ints.t[v]
    x_u, x_v = ctx.ints.x[u], ctx.ints.x[v]
    free = d - len(prefix_bits)
    n11 = n00 = 0
    for rest in range(1 << free):
        word = 0
        for j, bit in enumerate(prefix_bits):
            word |= bit << j
        word |= rest << len(prefix_bits)
        seed = seed_from_int(fam, word)
        cu = coins.hash_eval(fam, seed, x_u) < t_u
        cv = coins.hash_eval(fam, seed, x_v) < t_v
        n11 += cu and cv
        n00 += (not cu) and (not cv)
    return Fraction(n11, 1 << free), Fraction(n00, 1 << free)


def oracle_exhaustive(ctx, edges):
    """Scalar scan of every seed word, potential in exact Fractions."""
    fam = ctx.fam
    best = None
    for word in range(1 << (fam.m + fam.b)):
        seed = seed_from_int(fam, word)
        val = Fraction(0)
        for u, v in edges:
            cu = coins.hash_eval(fam, seed, ctx.ints.x[u]) < ctx.ints.t[u]
            cv = coins.hash_eval(fam, seed, ctx.ints.x[v]) < ctx.ints.t[v]
            if cu and cv:
                val += Fraction(1, ctx.ints.k1[u]) + Fraction(1, ctx.ints.k1[v])
            elif not cu and not cv:
                val += Fraction(1, ctx.ints.k0[u]) + Fraction(1, ctx.ints.k0[v])
        if best is None or (val, word) < best:
            best = (val, word)
    return seed_from_int(fam, best[1]), best[0]


def estimator_vs_node_conditional(ctx, tree_of, rng, nodes=None):
    """Run _Estimator over every seed bit of the level, with node v in
    tree tree_of[v], checking each node's (or each of `nodes`') two
    candidate values against the scalar closed form: the estimator lists
    the nodes with alive edges, tree by tree and ascending within each
    tree, over one L, the lcm of max(k0, 1) max(k1, 1) 2^shift over them
    (counts are in units of 2^-shift), and every other node's value is 0.
    Returns the estimator."""
    est = _Estimator(ctx, tree_of, max(tree_of) + 1)
    prefix = [()] * (max(tree_of) + 1)
    alive = sorted((v for v, inc in enumerate(ctx.incident) if inc), key=lambda v: (tree_of[v], v))
    m, b = ctx.fam.m, ctx.fam.b
    for j in range(m + b):
        listed, num0, num1, L, totals = est.decision_values(j)
        assert listed.tolist() == alive, j
        shift = m + b - 1 - j  # the undecided seed bits, both regimes
        assert L == lcm(*(max(ctx.ints.k0[v], 1) * max(ctx.ints.k1[v], 1) << shift for v in listed)), j
        at = {v: i for i, v in enumerate(listed)}
        for v in range(len(ctx.x)) if nodes is None else nodes:
            pre = prefix[tree_of[v]]
            for r, num in ((0, num0), (1, num1)):
                want = node_conditional(ctx, v, SeedPrefix(pre + (r,)))
                got = Fraction(int(num[at[v]]), L) if v in at else 0
                assert got == want, (j, v, r)
        # each tree's totals are the sums of its nodes' values
        for i in range(max(tree_of) + 1):
            for r, num in ((0, num0), (1, num1)):
                want = sum(int(num[at[v]]) for v in listed.tolist() if tree_of[v] == i)
                assert totals[r][i] == want, (j, i, r)
        bits = [rng.randrange(2) for _ in prefix]
        est.lock(j, bits)
        prefix = [pre + (bit,) for pre, bit in zip(prefix, bits)]
    return est


def random_bits(rng, state):
    """A random side with candidates for every node."""
    return [rng.choice([b for b, k in ((0, k0), (1, k1)) if k])
            for k0, k1 in zip(*(k.tolist() for k in split_counts(state)))]


def random_context(rng, *, n_max=7, b_max=6):
    """Random tiny instance part-way through a phase, with ids as psi."""
    while True:
        n = rng.randrange(2, n_max + 1)
        g = generate_graph("gnp", {"n": n, "p": 0.6}, rng_seed=rng.randrange(10**6))
        if g.edge_list:
            break
    state = init_state(with_psi(attach_default_lists(g)))
    for _ in range(rng.randrange(0, state.W)):
        state = apply_bits(state, random_bits(rng, state))
        if not len(state.alive_edges):
            return None
    if not len(state.alive_edges):
        return None
    b = rng.randrange(2, b_max + 1)
    fam = make_family(n, b)
    if fam.m > 6:
        return None
    return build_level_context(fam, state), state


# ---------------------------------------------------------------------------
# xor_box_count and its closed form

def test_xor_box_count_examples():
    assert xor_box_count(2, 3, 1, 2) == 2
    for b in (1, 3, 5):
        for t_u in (0, 1, (1 << b) - 1, 1 << b):
            for t_v in (0, 2, 1 << b):
                assert xor_box_count(t_u, t_v, 0, b) == min(t_u, t_v)
    assert xor_box_count(2, 2, 3, 2) == 0


def test_xor_box_count_matches_enumeration():
    rng = random.Random(2)
    for _ in range(400):
        b = rng.randrange(1, 8)
        t_u = rng.randrange(0, (1 << b) + 1)
        t_v = rng.randrange(0, (1 << b) + 1)
        delta = rng.randrange(0, 1 << b)
        assert xor_box_count(t_u, t_v, delta, b) == brute_xor_box(t_u, t_v, delta, b)


def test_branch_pairs_reconstruct_the_count():
    rng = random.Random(3)
    for _ in range(200):
        b = rng.randrange(1, 8)
        t_u = rng.randrange(0, (1 << b) + 1)
        t_v = rng.randrange(0, (1 << b) + 1)
        pairs = xor_branch_pairs(t_u, t_v, b)
        for delta in range(1 << b):
            total = sum(
                w for p, val, w in pairs if ((delta ^ val) >> p) == 0
            )
            assert total == xor_box_count(t_u, t_v, delta, b)


def every_threshold_pair(b):
    grid = np.arange((1 << b) + 1, dtype=np.int64)  # 0 through 2^b
    return np.repeat(grid, len(grid)), np.tile(grid, len(grid))


def test_vectorised_branch_pairs_match_enumeration():
    for b in range(0, 5):
        t_u, t_v = every_threshold_pair(b)
        entry, p, val, w = branch_pairs(t_u, t_v, b)
        assert (np.diff(entry) >= 0).all() and (w > 0).all()
        assert np.bincount(entry, minlength=len(t_u)).max() <= 2 * (b + 1)
        for delta in range(1 << b):
            hits = np.where((delta ^ val) >> p == 0, w, 0)
            got = np.bincount(entry, weights=hits, minlength=len(t_u))
            want = [brute_xor_box(x, y, delta, b) for x, y in zip(t_u, t_v)]
            assert got.tolist() == want, (b, delta)


def test_single_delta_box_count_matches_enumeration():
    for b in range(0, 6):
        t_u, t_v = every_threshold_pair(b)
        for delta in range(1 << b):
            got = box_count(t_u, t_v, np.full(len(t_u), delta, dtype=np.int64))
            want = [brute_xor_box(x, y, delta, b) for x, y in zip(t_u, t_v)]
            assert got.tolist() == want, (b, delta)
    # two bit values stacked, as the estimator calls it
    t = np.array([[0, 5, 8], [8, 3, 1]], dtype=np.int64)
    got = box_count(t, t[::-1], np.array([7, 2, 0], dtype=np.int64))
    want = [[brute_xor_box(x, y, d, 3) for x, y, d in zip(r, r2, (7, 2, 0))]
            for r, r2 in zip(t, t[::-1])]
    assert got.tolist() == want


def test_box_count_matches_oracle_past_2_53():
    # a float bit length rounds 2^q - 1 up to 2^q past 2^53; draw the
    # thresholds, then delta so that delta ^ t_u ^ t_v lands within 4 of
    # some 2^q - 1
    rng = random.Random(54)
    for b in range(54, 63):
        full = 1 << b
        rows = [(full, full, full - 1)]
        for _ in range(60):
            t_u, t_v = (rng.choice([rng.randrange(full + 1), full]) for _ in "uv")
            near = max(0, (1 << rng.randint(1, b)) - 1 - rng.randrange(5))
            rows.append((t_u, t_v, (near ^ t_u ^ t_v) & (full - 1)))
        t_u, t_v, delta = np.array(rows, dtype=np.int64).T
        want = [xor_box_count(*row, b) for row in rows]
        assert box_count(t_u, t_v, delta).tolist() == want, b


# ---------------------------------------------------------------------------
# joint outcome probabilities

def fair_pair_context(b=4):
    g = generate_graph("path", {"n": 2})
    inst = ListColoringInstance(graph=g, C=2, lists=((0, 1), (0, 1)), psi=(0, 1))
    fam = make_family(2, b)
    return build_level_context(fam, init_state(inst))


def test_fair_coins_quarter():
    ctx = fair_pair_context()
    p11, p00 = joint_outcome_prob(ctx, (0, 1), SeedPrefix(()))
    assert (p11, p00) == (Fraction(1, 4), Fraction(1, 4))


def test_zero_threshold_kills_p11():
    g = generate_graph("path", {"n": 2})
    inst = ListColoringInstance(graph=g, C=4, lists=((0, 1), (0, 1)), psi=(0, 1))
    ctx = build_level_context(make_family(2, 3), init_state(inst))
    assert ctx.ints.t[0] == 0  # both candidates extend prefix 0
    rng = random.Random(5)
    for j in (0, 1, 3, 6):
        bits = tuple(rng.randrange(2) for _ in range(j))
        p11, p00 = joint_outcome_prob(ctx, (0, 1), SeedPrefix(bits))
        assert p11 == 0
        assert p00 == 1  # both coins are deterministic zeros


def test_fully_fixed_prefix_matches_coin_eval():
    rng = random.Random(11)
    done = 0
    while done < 40:
        made = random_context(rng)
        if made is None:
            continue
        ctx, _ = made
        d = 2 * ctx.fam.m
        word = rng.randrange(1 << d)
        bits = tuple((word >> j) & 1 for j in range(d))
        seed = seed_from_int(ctx.fam, word)
        for u, v in ctx.ints.edges:
            cu = coins.hash_eval(ctx.fam, seed, ctx.ints.x[u]) < ctx.ints.t[u]
            cv = coins.hash_eval(ctx.fam, seed, ctx.ints.x[v]) < ctx.ints.t[v]
            p11, p00 = joint_outcome_prob(ctx, (u, v), SeedPrefix(bits))
            assert p11 == int(cu and cv)
            assert p00 == int(not cu and not cv)
        done += 1


def test_joint_prob_matches_seed_enumeration():
    rng = random.Random(17)
    cases = 0
    while cases < 300:
        made = random_context(rng)
        if made is None:
            continue
        ctx, _ = made
        d = 2 * ctx.fam.m
        edge = ctx.ints.edges[rng.randrange(len(ctx.edges))]
        j = rng.choice(
            [0, 1, ctx.fam.m - 1, ctx.fam.m, ctx.fam.m + 1,
             ctx.fam.m + ctx.fam.b, rng.randrange(d + 1)]
        )
        j = max(0, min(d, j))
        bits = tuple(rng.randrange(2) for _ in range(j))
        got = joint_outcome_prob(ctx, edge, SeedPrefix(bits))
        want = oracle_joint(ctx, edge, bits)
        assert got == want, (edge, bits, ctx.fam)
        assert got[0] + got[1] <= 1
        cases += 1


def test_node_conditional_values():
    ctx = fair_pair_context()
    empty = SeedPrefix(())
    assert node_conditional(ctx, 0, empty) == Fraction(1, 2)
    assert node_conditional(ctx, 1, empty) == Fraction(1, 2)

    # isolated node contributes nothing
    g = Graph.from_edges(3, [(0, 1)])
    inst = ListColoringInstance(graph=g, C=2, lists=((0, 1), (0, 1), (0,)), psi=(0, 1, 2))
    ctx2 = build_level_context(make_family(3, 3), init_state(inst))
    assert node_conditional(ctx2, 2, empty) == 0

    # deterministic 0-branch on the only alive edge: x_v = 1/|L|
    g2 = generate_graph("path", {"n": 2})
    inst2 = ListColoringInstance(graph=g2, C=4, lists=((0, 1), (0, 1)), psi=(0, 1))
    ctx3 = build_level_context(make_family(2, 3), init_state(inst2))
    assert node_conditional(ctx3, 0, empty) == Fraction(1, 2)


def test_choose_seed_bit():
    assert choose_seed_bit(Fraction(3, 2), Fraction(5, 3)) == 0
    assert choose_seed_bit(Fraction(1), Fraction(1)) == 0
    assert choose_seed_bit(Fraction(7, 4), Fraction(1, 2)) == 1


# ---------------------------------------------------------------------------
# fix_level

def run_one_level(inst, psi, b, strategy="conditional"):
    state = init_state(with_psi(inst, psi))
    fam = make_family(max(psi) + 1, b)
    ctx = build_level_context(fam, state)
    forest, _ = build_bfs_forest(inst.graph)
    comm = RecordingPlan(inst.graph, forest)
    new_state, report = fix_level(ctx, state, comm, strategy=strategy)
    return state, new_state, report, comm


def test_fix_level_needs_a_partition_of_the_nodes():
    # level totals are the trees' sums, so every node must sit in one tree
    inst = with_psi(attach_default_lists(generate_graph("path", {"n": 3})))
    state = init_state(inst)
    ctx = build_level_context(make_family(3, 4), state)
    # a forest of the first two nodes only
    partial = Forest(parent=(None, 0), depth=(0, 1))
    with pytest.raises(ValueError, match="partition the nodes"):
        fix_level(ctx, state, CommPlan(inst.graph, partial))


def test_fix_level_rejects_an_unknown_strategy():
    inst = attach_default_lists(generate_graph("path", {"n": 2}))
    with pytest.raises(ValueError, match="^unknown strategy 'greedy'$"):
        run_one_level(inst, (0, 1), b=2, strategy="greedy")


def test_level_context_reads_psi_off_the_instance():
    # the instance checked psi proper; a level checks only that psi is
    # there, that it fits the family and that a level is left to fix
    inst = attach_default_lists(generate_graph("path", {"n": 3}))
    with pytest.raises(ValueError, match="^the instance carries no start coloring psi$"):
        build_level_context(make_family(3, 4), init_state(inst))
    for psi in ((0, 5, 1), (0, 2**70, 1)):
        state = init_state(with_psi(inst, psi))
        with pytest.raises(ValueError, match=rf"^node 1: psi color {psi[1]} outside \[0, 3\)$"):
            build_level_context(make_family(3, 4), state)
    state = init_state(with_psi(inst, (0, 5, 1)))
    assert build_level_context(make_family(6, 4), state).x.tolist() == [0, 5, 1]
    while state.level < state.W:
        state = apply_bits(state, [0] * 3)
    with pytest.raises(ValueError, match="^all levels of this instance are already fixed$"):
        build_level_context(make_family(6, 4), state)


def test_fix_level_triangle_bound():
    inst = ListColoringInstance(
        graph=generate_graph("clique", {"n": 3}),
        C=4,
        lists=((0, 1, 2),) * 3,
    )
    state, new_state, report, comm = run_one_level(inst, (0, 1, 2), b=6)
    assert phi_sum(state) == 2
    assert report.phi_before == 2
    assert report.phi_after == phi_sum(new_state)
    assert report.phi_after <= Fraction(2) + Fraction(3, 2)
    chain = bit_chains(make_family(3, 6), comm.forest, comm.sums, report.roots)[0]
    # family: K=3 gives a=2, so m=b=6 and m+b decisions get recorded
    assert len(chain) == 12
    # rounding the thresholds costs at most 10*2^-b per edge endpoint
    s0, s1, _ = chain[0]
    assert (s0 + s1) / 2 <= 2 + Fraction(10 * 2 * 3, 1 << 6)


def test_fix_level_chain_is_monotone_and_exact():
    # every other draw is a forest of trees whose list sizes differ, so the
    # convergecast's one lcm for the whole forest is not each tree's own;
    # every tree's chain must still equal its own scalar sums
    rng = random.Random(23)
    done, wider = 0, []
    while done < 12:
        made = forest_level(rng) if done % 2 else random_context(rng, n_max=6, b_max=5)
        if made is None:
            continue
        ctx, state = made
        graph = state.inst.graph
        forest, _ = build_bfs_forest(graph)
        comm = RecordingPlan(graph, forest)

        def aggregate(casts, j, run=comm.aggregate):
            # each listed node's own denominator is max(k0, 1) max(k1, 1),
            # times a power of two common to all
            den = {v: max(ctx.ints.k0[v], 1) * max(ctx.ints.k1[v], 1) for v in casts.nodes.tolist()}
            lam = lcm(*den.values())
            wider.append(any(lcm(*(den[v] for v in t if v in den)) != lam for t in tree_nodes(forest)))
            return run(casts, j)

        comm.aggregate = aggregate
        new_state, report = fix_level(ctx, state, comm)
        d_eff = ctx.fam.m + ctx.fam.b
        assert tuple(report.roots) == forest.roots
        chains = bit_chains(ctx.fam, forest, comm.sums, report.roots)
        for root, rec in report.roots.items():
            assert len(chains[root]) == d_eff
            (s0, s1, _), *_ = chains[root]
            prev = (s0 + s1) / 2  # the expectation before any bit is fixed
            for s0, s1, bit in chains[root]:
                assert (s0 + s1) / 2 == prev
                chosen = s1 if bit else s0
                assert chosen == min(s0, s1)
                assert bit == (0 if s0 <= s1 else 1)
                assert chosen <= prev
                prev = chosen
            assert rec.phi_after == prev  # realized == final expectation
        # every tree's decision sums recompute from the scalar estimator
        for root, nodes in zip(forest.roots, tree_nodes(forest)):
            bits = []
            for s0, s1, bit in chains[root]:
                for r, want in ((0, s0), (1, s1)):
                    prefix = SeedPrefix(tuple(bits + [r]))
                    assert sum(node_conditional(ctx, v, prefix) for v in nodes) == want
                bits.append(bit)
        done += 1
    assert any(wider)


@pytest.mark.parametrize("n", [100, 200])
def test_seed_bit_sums_build_no_fractions(monkeypatch, n):
    # node values travel as integers and the roots' sums come back as
    # integers over one lcm, so decision_values and aggregate_pairs build
    # no Fraction at all, whatever n is
    graph = generate_graph("gnp", {"n": n, "p": 0.05}, rng_seed=0)
    state = init_state(with_psi(attach_default_lists(graph)))
    ctx = build_level_context(make_family(n, 8), state)
    forest, _ = build_bfs_forest(graph)
    built, calls, inside = 0, 0, False
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        nonlocal built
        built += inside
        return new(cls, *args, **kwargs)

    def counted(f):
        def wrapper(*args, **kwargs):
            nonlocal inside, calls
            inside, calls = True, calls + 1
            try:
                return f(*args, **kwargs)
            finally:
                inside = False
        return wrapper

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    monkeypatch.setattr(_Estimator, "decision_values", counted(_Estimator.decision_values))
    monkeypatch.setattr(sim, "aggregate_pairs", counted(sim.aggregate_pairs))
    fix_level(ctx, state, CommPlan(graph, forest))
    assert calls == 2 * (ctx.fam.m + ctx.fam.b)
    assert built == 0


def test_fix_level_fraction_count_does_not_grow_with_the_seed(monkeypatch):
    # each tree's seed stays in the estimator's arrays and its chain in
    # integers, so a level on three trees builds as many Fractions at
    # m + b = 8 seed bits as at 16
    g = Graph.from_edges(9, [(0, 1), (1, 2), (3, 4), (4, 5), (6, 7), (7, 8)])
    state = init_state(with_psi(attach_default_lists(g)))
    forest, _ = build_bfs_forest(g)
    built = 0
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        nonlocal built
        built += 1
        return new(cls, *args, **kwargs)

    counts = {}
    for b in (4, 8):
        ctx = build_level_context(make_family(g.n, b), state)
        built = 0
        with monkeypatch.context() as mp:
            mp.setattr(Fraction, "__new__", staticmethod(counting_new))
            fix_level(ctx, state, CommPlan(g, forest))
        counts[ctx.fam.m + ctx.fam.b] = built
    assert list(counts) == [8, 16] and len(forest.roots) == 3
    assert counts[8] == counts[16], counts


def test_fix_level_prices_each_listing_level_in_one_pass(monkeypatch):
    # the m + b convergecasts of a level with alive edges are priced in one
    # pass, on the first of its m + b aggregate_pairs calls, under either
    # strategy; a level that lists no node is charged without one
    passes, calls = [], []  # the bit of the call that priced; every call's bit

    def price_level(forest, casts, run=sim._price_level):
        passes.append(calls[-1])
        return run(forest, casts)

    def aggregate_pairs(graph, forest, casts, j, run=sim.aggregate_pairs, **kwargs):
        calls.append(j)
        return run(graph, forest, casts, j, **kwargs)

    monkeypatch.setattr(sim, "_price_level", price_level)
    monkeypatch.setattr(sim, "aggregate_pairs", aggregate_pairs)
    inst = attach_default_lists(generate_graph("gnp", {"n": 12, "p": 0.3}, rng_seed=3))
    state, new_state, report, comm = run_one_level(inst, tuple(range(12)), b=4)
    fam = make_family(12, 4)
    assert calls == list(range(fam.m + fam.b)) and passes == [0]
    passes.clear(), calls.clear()
    run_one_level(inst, tuple(range(12)), b=4, strategy="exhaustive")
    assert calls == list(range(fam.m + fam.b)) and passes == [0]
    passes.clear(), calls.clear()
    edgeless = ListColoringInstance(graph=Graph.from_edges(3, []), C=4, lists=((0, 3), (1, 2), (0, 2)))
    run_one_level(edgeless, (0, 1, 2), b=2)
    fam = make_family(3, 2)
    assert calls == list(range(fam.m + fam.b)) and passes == []


def test_fix_level_checks_root_sums_against_the_decided_totals(monkeypatch):
    # one tree total the root decided on is off by one on the side it did
    # not choose, so the slack check and the chain pass; the convergecast's
    # root sums then differ, which graphs.check reports as InvariantError
    decide = _Estimator.decision_values

    def off_by_one(self, j):
        nodes, num0, num1, L, totals = decide(self, j)
        if j == 0:
            totals = totals.copy()
            totals[int(totals[1][0] >= totals[0][0])][0] += 1
        return nodes, num0, num1, L, totals

    monkeypatch.setattr(_Estimator, "decision_values", off_by_one)
    inst = attach_default_lists(generate_graph("path", {"n": 6}))
    with pytest.raises(InvariantError, match="root sums must equal the totals") as caught:
        run_one_level(inst, tuple(range(6)), b=4)
    assert not isinstance(caught.value, ValueError)


def test_fix_level_checks_the_estimator_under_exhaustive(monkeypatch):
    # the exhaustive optimum's bits run through the same chain and root-sum
    # checks: a total one off on the side it picks breaks the chain at the
    # next bit, one off on the other side the convergecast's root sums
    decide = _Estimator.decision_values
    inst = attach_default_lists(generate_graph("path", {"n": 6}))
    messages = set()
    for r in (0, 1):
        def off_by_one(self, j):
            nodes, num0, num1, L, totals = decide(self, j)
            if j == 0:
                totals = totals.copy()
                totals[r][0] += 1
            return nodes, num0, num1, L, totals

        monkeypatch.setattr(_Estimator, "decision_values", off_by_one)
        with pytest.raises(InvariantError) as caught:
            run_one_level(inst, tuple(range(6)), b=2, strategy="exhaustive")
        messages.add(str(caught.value))
    assert messages == {
        "conditional chain broke",
        "root sums must equal the totals the roots decided on",
    }


@st.composite
def spare_list_instances(draw):
    """A small graph whose node v has the list {0..deg(v) + spare}, so an
    edgeless graph still has levels to fix."""
    n = draw(st.integers(min_value=1, max_value=8))
    kind = draw(st.sampled_from(["gnp", "path", "star", "edgeless"]))
    if kind == "gnp":
        g = generate_graph("gnp", {"n": n, "p": 0.4}, rng_seed=draw(st.integers(0, 999)))
    elif kind == "edgeless":
        g = Graph.from_edges(n, [])
    else:
        g = generate_graph(kind, {"n": n})
    spare = draw(st.integers(0, 2))
    lists = tuple(tuple(range(g.deg(v) + 1 + spare)) for v in range(n))
    return ListColoringInstance(graph=g, C=g.max_degree + 1 + spare, lists=lists)


@settings(max_examples=40, deadline=None)
@given(
    inst=spare_list_instances(),
    b=st.integers(min_value=1, max_value=3),
    strategy=st.sampled_from(["conditional", "exhaustive"]),
)
def test_level_rounds_follow_the_closed_form(inst, b, strategy):
    # a level charges the round-1 exchange when it has alive edges, then
    # per seed bit one convergecast and one broadcast over the forest
    g = inst.graph
    state = init_state(with_psi(inst))
    fam = make_family(g.n, b)
    forest, _ = build_bfs_forest(g)
    for _ in range(state.W):
        ctx = build_level_context(fam, state)
        alive = len(state.alive_edges) > 0
        state, report = fix_level(ctx, state, CommPlan(g, forest), strategy=strategy)
        assert report.rounds == alive + 2 * (fam.m + fam.b) * forest.height


def test_fix_level_single_node_and_edgeless():
    g = Graph.from_edges(1, [])
    inst = ListColoringInstance(graph=g, C=2, lists=((0, 1),))
    state, new_state, report, comm = run_one_level(inst, (0,), b=2)
    assert report.phi_after == 0
    assert new_state.level == 1
    assert comm.stats.rounds == 0  # nothing to talk about

    g2 = Graph.from_edges(3, [])
    inst2 = ListColoringInstance(graph=g2, C=4, lists=((0, 3), (1, 2), (0, 2)))
    state, new_state, report, comm = run_one_level(inst2, (0, 0, 0), b=2)
    assert report.phi_after == 0


def test_fix_level_round_bound():
    rng = random.Random(31)
    done = 0
    while done < 8:
        made = random_context(rng, n_max=7, b_max=4)
        if made is None:
            continue
        ctx, state = made
        graph = state.inst.graph
        forest, _ = build_bfs_forest(graph)
        comm = CommPlan(graph, forest)
        fix_level(ctx, state, comm)
        d = 2 * ctx.fam.m
        depth = comm.forest.height
        assert comm.stats.rounds <= 1 + d * (2 * depth + 2)
        done += 1


# ---------------------------------------------------------------------------
# exhaustive oracle

def test_exhaustive_seed_p2():
    g = generate_graph("path", {"n": 2})
    inst = ListColoringInstance(graph=g, C=2, lists=((0, 1), (0, 1)), psi=(0, 1))
    state = init_state(inst)
    fam = make_family(2, 2)
    ctx = build_level_context(fam, state)
    seed, value = exhaustive_seed(ctx, state)
    assert value == 0
    # applying the winning seed's coins really separates the two nodes
    bits = [
        int(coins.hash_eval(fam, seed, ctx.ints.x[v]) < ctx.ints.t[v]) for v in range(2)
    ]
    assert bits[0] != bits[1]


def test_exhaustive_seed_single_node():
    g = Graph.from_edges(1, [])
    inst = ListColoringInstance(graph=g, C=2, lists=((0, 1),), psi=(0,))
    state = init_state(inst)
    ctx = build_level_context(make_family(1, 1), state)
    _, value = exhaustive_seed(ctx, state)
    assert value == 0


def test_exhaustive_seed_cap():
    g = generate_graph("path", {"n": 2})
    inst = ListColoringInstance(graph=g, C=2, lists=((0, 1), (0, 1)), psi=(0, 1))
    state = init_state(inst)
    ctx = build_level_context(make_family(2, 13), state)
    # m = b = 13: 2^26 seeds, past the cap of 2^24
    with pytest.raises(SeedCapError, match="2\\^26 seeds exceed the cap of 16777216"):
        exhaustive_seed(ctx, state)


def test_exhaustive_minimum_leq_conditional():
    rng = random.Random(41)
    done = 0
    while done < 10:
        made = random_context(rng, n_max=6, b_max=4)
        if made is None:
            continue
        ctx, state = made
        graph = state.inst.graph
        forest, _ = build_bfs_forest(graph)
        comm = CommPlan(graph, forest)
        new_state, report = fix_level(ctx, state, comm)
        _, best = exhaustive_seed(ctx, state)
        assert best <= report.phi_after
        done += 1


class CountingEdges(tuple):
    """An edge tuple that counts the passes made over it: a context's
    edges in Python ints, which every per-edge Python loop reads."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


def test_exhaustive_strategy_scans_edges_once_per_level():
    # a perfect matching: one component per edge, so a per-component scan
    # of the alive edges would show up as passes growing with the count
    seen = {}
    for comps in (4, 16, 64):
        g = Graph.from_edges(2 * comps, [(2 * i, 2 * i + 1) for i in range(comps)])
        psi = (v % 2 for v in range(g.n))
        state = init_state(with_psi(attach_default_lists(g), psi))
        ctx = build_level_context(make_family(2, 2), state)
        counted = replace(ctx)
        counted.__dict__["ints"] = ctx.ints._replace(edges=CountingEdges(ctx.ints.edges))
        forest, _ = build_bfs_forest(g)
        (s0, r0), (s1, r1) = [
            fix_level(c, state, CommPlan(g, forest), strategy="exhaustive")
            for c in (ctx, counted)
        ]
        assert r0 == r1 and s0.level == s1.level
        for name in ("lo", "k", "alive_edges", "deg"):
            assert np.array_equal(getattr(s0, name), getattr(s1, name)), name
        seen[comps] = counted.ints.edges.passes
    assert seen[4] == seen[16] == seen[64] <= 2, seen


def test_fix_level_bandwidth_error_names_its_edge_in_python_ints():
    # under strict:1 the round-1 exchange of (k0, k1, psi) passes the cap;
    # the error names the first alive edge as a pair of Python ints
    g = Graph.from_edges(4, [(1, 2), (2, 3)])
    state = init_state(with_psi(attach_default_lists(g)))
    ctx = build_level_context(make_family(4, 3), state)
    forest, _ = build_bfs_forest(g)
    comm = CommPlan(g, forest, policy=BandwidthPolicy(beta=1))
    with pytest.raises(BandwidthError) as info:
        fix_level(ctx, state, comm)
    assert info.value.edge == (1, 2)
    assert [type(v) for v in info.value.edge] == [int, int]
    assert str(info.value).endswith(" at round 1 on edge (1, 2)")


def test_thresholds_match_coins_threshold_on_a_grid():
    # level 0 splits each list at color 64: k0 colors below it, k1 above,
    # for every k0 + k1 < 60; t is ceil(k1 2^b / (k0 + k1)) in integers
    splits = [(k0, k - k0) for k in range(1, 60) for k0 in range(k + 1)]
    lists = tuple(tuple(range(k0)) + tuple(range(64, 64 + k1)) for k0, k1 in splits)
    inst = ListColoringInstance(graph=Graph.from_edges(len(lists), []), C=128, lists=lists)
    state = init_state(with_psi(inst))
    for b in range(1, 40):
        ctx = build_level_context(make_family(len(lists), b), state)
        assert list(zip(ctx.k0.tolist(), ctx.k1.tolist())) == splits
        assert ctx.t.tolist() == [
            coins.threshold(Fraction(k1, k0 + k1), b) for k0, k1 in splits
        ], b


def test_coins_match_hash_eval_on_forests():
    # the level's coins come from one generator table and a vector compare;
    # each must be the scalar hash of its tree's seed against t_v
    rng = random.Random(79)
    for strategy in ("conditional", "exhaustive"):
        done = 0
        while done < 8:
            ctx, state = forest_level(rng)
            forest, _ = build_bfs_forest(state.inst.graph)
            if 2 * ctx.fam.m > 24 or len(forest.roots) < 2:
                continue
            new_state, report = fix_level(
                ctx, state, CommPlan(state.inst.graph, forest), strategy=strategy
            )
            seeds = [report.roots[root].seed for root in forest.roots]
            # the bit each node kept is the last of its new prefix
            kept = new_state.flat[new_state.lo]
            assert ((kept >> (new_state.W - new_state.level)) & 1).tolist() == [
                int(coins.hash_eval(ctx.fam, seeds[forest.tree_of[v]], x) < ctx.ints.t[v])
                for v, x in enumerate(ctx.ints.x)
            ], strategy
            done += 1


def test_level_context_is_a_frozen_record_of_six_fields():
    ctx = fair_pair_context()
    assert [f.name for f in fields(ctx)] == ["fam", "x", "k0", "k1", "t", "edges"]
    with pytest.raises(FrozenInstanceError):
        ctx.x = (1, 0)
    assert ctx.incident == ((0,), (0,))


def test_exhaustive_strategy_matches_componentwise_minimum():
    rng = random.Random(43)
    done = 0
    while done < 6:
        made = random_context(rng, n_max=6, b_max=4)
        if made is None:
            continue
        ctx, state = made
        graph = state.inst.graph
        forest, _ = build_bfs_forest(graph)
        comm = CommPlan(graph, forest)
        new_state, report = fix_level(ctx, state, comm, strategy="exhaustive")
        per_comp = sum(
            exhaustive_seed(ctx, state, nodes=nodes)[1] for nodes in tree_nodes(forest)
        )
        assert report.phi_after == per_comp
        assert report.phi_after == phi_sum(new_state)
        d = 2 * ctx.fam.m
        assert comm.stats.rounds <= 1 + d * (2 * comm.forest.height + 2)
        done += 1


def test_uniform_average_drops_for_power_of_two_lists():
    # all |L| powers of two and b >= log2 max|L| make every p exact;
    # then the average over all seeds cannot exceed the current potential
    g = generate_graph("cycle", {"n": 4})
    inst = ListColoringInstance(
        graph=g, C=4, lists=((0, 1, 2, 3),) * 4
    )
    state = init_state(with_psi(inst))
    fam = make_family(4, 4)
    ctx = build_level_context(fam, state)
    total = Fraction(0)
    count = 1 << (fam.m + fam.b)
    for word in range(count):
        # high seed bits never reach the low-b window; zeroing them is lossless
        seed = seed_from_int(fam, word)
        bits = [
            int(coins.hash_eval(fam, seed, ctx.ints.x[v]) < ctx.ints.t[v])
            for v in range(4)
        ]
        total += phi_sum(apply_bits(state, bits))
    assert total / count <= phi_sum(state)


# ---------------------------------------------------------------------------
# the batched estimator, node by node against the scalar closed forms

def forest_level(rng):
    """(LevelContext, PrefixState) of several random components, whose
    lists differ in size with their degrees, at a random level; psi is
    drawn from a color space up to 5x the node count (so m can exceed b)."""
    edges, n = [], 0
    for _ in range(rng.randrange(2, 5)):
        size = rng.randrange(2, 6)
        g = generate_graph("gnp", {"n": size, "p": 0.7}, rng_seed=rng.randrange(10**6))
        edges += [(u + n, v + n) for u, v in g.edge_list]
        n += size
    state = init_state(attach_default_lists(Graph.from_edges(n, edges)))
    for _ in range(rng.randrange(0, state.W)):
        state = apply_bits(state, random_bits(rng, state))
    K = rng.randrange(n, 5 * n + 1)
    fam = make_family(K, rng.randrange(1, 6))
    state = replace(state, inst=with_psi(state.inst, rng.sample(range(K), n)))
    return build_level_context(fam, state), state


def forest_context(rng):
    """A forest_level context and each node's tree, by forest position."""
    ctx, state = forest_level(rng)
    forest, _ = build_bfs_forest(state.inst.graph)
    return ctx, forest.tree_of


def test_estimator_per_node_on_forests():
    rng = random.Random(53)
    regimes = set()
    for _ in range(25):
        ctx, tree_of = forest_context(rng)
        estimator_vs_node_conditional(ctx, tree_of, rng)
        regimes.add((max(tree_of) > 0, ctx.fam.m > ctx.fam.b))
    assert (True, True) in regimes and (True, False) in regimes


def phi_oracle(state, nodes):
    """The potential sum of deg(v) / k(v) over nodes, in Fractions."""
    deg, k = state.deg.tolist(), state.k.tolist()
    return sum((Fraction(deg[v], k[v]) for v in nodes), Fraction(0))


@st.composite
def interleaved_forest_levels(draw):
    """(PrefixState, Random) of 2 to 4 random components whose node ids
    are shuffled together, so that a tree's nodes need not be contiguous,
    at a random level."""
    sizes = draw(st.lists(st.integers(2, 5), min_size=2, max_size=4))
    ids = draw(st.permutations(range(sum(sizes))))
    edges, at = [], 0
    for size in sizes:
        comp = generate_graph("gnp", {"n": size, "p": 0.7}, rng_seed=draw(st.integers(0, 999)))
        edges += [(ids[at + u], ids[at + v]) for u, v in comp.edge_list]
        at += size
    state = init_state(with_psi(attach_default_lists(Graph.from_edges(at, edges))))
    assume(state.W > 0)
    rng = random.Random(draw(st.integers(0, 999)))
    for _ in range(draw(st.integers(0, state.W - 1))):
        state = apply_bits(state, random_bits(rng, state))
    return state, rng


@settings(max_examples=30, deadline=None)
@given(made=interleaved_forest_levels(), b=st.integers(1, 4))
def test_tree_potentials_on_interleaved_forests(made, b):
    # the estimator lists its nodes tree by tree, each tree's totals summing
    # that tree's numerators, and each RootRecord's potentials are the sums
    # over its own tree's nodes, wherever the tree's ids lie
    state, rng = made
    g = state.inst.graph
    forest, _ = build_bfs_forest(g)
    ctx = build_level_context(make_family(g.n, b), state)
    estimator_vs_node_conditional(ctx, forest.tree_of, rng)
    new_state, report = fix_level(ctx, state, CommPlan(g, forest))
    for root, nodes in zip(forest.roots, tree_nodes(forest)):
        rec = report.roots[root]
        assert (rec.phi_before, rec.phi_after) == (phi_oracle(state, nodes), phi_oracle(new_state, nodes))
    assert (report.phi_before, report.phi_after) == (phi_sum(state), phi_sum(new_state))


def test_potentials_past_int64_match_fractions():
    # list sizes the 16 primes 2 ... 53: lcm(k) passes 2^63, so phi_terms
    # holds Python ints, and each node's term, phi_sum and a level's
    # RootRecords, over two trees, match Fractions
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)
    n = len(primes)
    g = Graph.from_edges(n, [(v, v + 1) for v in range(n - 1) if v != 7])
    inst = ListColoringInstance(graph=g, C=primes[-1], lists=tuple(tuple(range(p)) for p in primes))
    state = init_state(with_psi(inst))
    terms, L = state.phi_terms
    assert L == lcm(*primes) > 1 << 63 and terms.dtype == object
    deg = state.deg.tolist()
    assert [Fraction(t, L) for t in terms.tolist()] == [Fraction(d, p) for d, p in zip(deg, primes)]
    assert phi_sum(state) == phi_oracle(state, range(n))
    forest, _ = build_bfs_forest(g)
    ctx = build_level_context(make_family(n, 4), state)
    new_state, report = fix_level(ctx, state, CommPlan(g, forest))
    assert len(report.roots) == 2
    for root, nodes in zip(forest.roots, tree_nodes(forest)):
        rec = report.roots[root]
        assert (rec.phi_before, rec.phi_after) == (phi_oracle(state, nodes), phi_oracle(new_state, nodes))
    assert report.phi_after == phi_sum(new_state) == phi_oracle(new_state, range(n))


def test_estimator_lists_only_nodes_with_alive_edges():
    # node 3 has no edge, so the estimator never lists it, on any seed bit;
    # a level with no alive edge lists no node at all
    g = Graph.from_edges(6, [(0, 1), (1, 2), (4, 5)])
    ctx = build_level_context(make_family(g.n, 3), init_state(with_psi(attach_default_lists(g))))
    forest, _ = build_bfs_forest(g)
    est = estimator_vs_node_conditional(ctx, forest.tree_of, random.Random(5))
    for j in range(ctx.fam.m + ctx.fam.b):
        nodes, num0, num1, _, totals = est.decision_values(j)
        assert nodes.tolist() == [0, 1, 2, 4, 5] and len(num0) == len(num1) == 5
        assert totals.shape == (2, 3) and totals[:, 1].tolist() == [0, 0]  # node 3's tree
    inst = ListColoringInstance(graph=Graph.from_edges(3, []), C=2, lists=((0, 1),) * 3, psi=(0, 1, 2))
    ctx = build_level_context(make_family(3, 3), init_state(inst))
    est = _Estimator(ctx, (0, 1, 2), 3)
    nodes, num0, num1, L, totals = est.decision_values(0)
    assert (nodes.tolist(), num0.tolist(), num1.tolist(), L) == ([], [], [], 1)
    assert totals.tolist() == [[0, 0, 0], [0, 0, 0]]


def test_estimator_seed_state_matches_field_products():
    # after every lock, a_v = low_b(s1 * x_v) over the s1 bits its root
    # decided so far, and each root holds exactly the s2 bits it decided
    rng = random.Random(59)
    done = 0
    while done < 20:
        ctx, tree_of = forest_context(rng)
        trees = max(tree_of) + 1
        est = _Estimator(ctx, tree_of, trees)
        if not est.E:
            continue
        fam = ctx.fam
        assert trees > 1
        word = [0] * trees
        for j in range(fam.m + fam.b):
            bits = [rng.randrange(2) for _ in range(trees)]
            est.lock(j, bits)
            word = [w | bit << j for w, bit in zip(word, bits)]
            s1 = [w & ((1 << fam.m) - 1) for w in word]
            assert est.a.tolist() == [
                gf2.mul(fam.fld, s1[tree_of[v]], x) & ((1 << fam.b) - 1)
                for v, x in enumerate(ctx.ints.x)
            ], j
            assert est.s2.tolist() == [w >> fam.m for w in word], j
        done += 1


def test_estimator_per_node_on_avoid_mis_star():
    # the star of the hub-avoid benchmark, at its first avoid-mis level
    g = generate_graph("star", {"n": 300})
    state = init_state(with_psi(trim_lists(attach_default_lists(g))))
    fam = make_family(g.n, _accuracy_bits(g.max_degree, state.W, "avoid-mis"))
    ctx = build_level_context(fam, state)
    # a budget of count, weight and node-count bits passes 63 bits here, but
    # the per-node bound deg(v) (max(k0, 1) + max(k1, 1)) 2^(m+b-1) stays
    # below 2^63, so the level sums in int64
    w = [
        max(k0, 1) * max(k1, 1) // k
        for k0, k1 in zip(ctx.ints.k0, ctx.ints.k1)
        for k in (k0, k1)
        if k
    ]
    budget = fam.m + fam.b + max(w).bit_length() + g.n.bit_length() + 3
    assert budget >= 63
    est = estimator_vs_node_conditional(ctx, [0] * g.n, random.Random(59))
    assert est.acc_type is np.int64
    # each seed bit's tree totals run in int64 while its numerators sum
    # below 2^62, and in Python ints past it; this level has both kinds
    est, small = _Estimator(ctx, [0] * g.n, 1), []
    for j in range(fam.m + fam.b):  # bits left at 0, which lock leaves as is
        _, num0, num1, _, totals = est.decision_values(j)
        small.append(sum(num0.tolist()) + sum(num1.tolist()) < 1 << 62)
        assert totals.dtype == (np.int64 if small[-1] else object), j
    assert True in small and False in small


def test_estimator_per_node_on_wide_avoid_mis_star():
    # degree 2047 at m = b = 29: one edge count takes up to 57 bits and the
    # hub's sum of 2047 of them can pass int64, so the level sums in objects
    g = generate_graph("star", {"n": 2048})
    state = init_state(with_psi(trim_lists(attach_default_lists(g))))
    fam = make_family(g.n, _accuracy_bits(g.max_degree, state.W, "avoid-mis"))
    ctx = build_level_context(fam, state)
    assert g.max_degree << (fam.m + fam.b - 1) >= 1 << 63
    rng = random.Random(67)
    nodes = [0] + rng.sample(range(1, g.n), 16)
    est = estimator_vs_node_conditional(ctx, [0] * g.n, rng, nodes)
    assert est.acc_type is object
    forest, _ = build_bfs_forest(g)
    _, report = fix_level(ctx, state, CommPlan(g, forest))
    assert report.phi_after <= report.bound


def test_estimator_per_node_with_sure_coins():
    # level 0 splits at color 2: node 0 has no color above it (t = 0) and
    # node 2 none below (t = 2^b), so their coins are constant
    inst = ListColoringInstance(
        graph=generate_graph("path", {"n": 3}), C=4, lists=((0, 1), (0, 1, 2), (2, 3))
    )
    for K, b in ((3, 3), (64, 2), (16, 5)):
        fam = make_family(K, b)
        ctx = build_level_context(fam, init_state(with_psi(inst)))
        assert (ctx.ints.k1[0], ctx.ints.k0[2]) == (0, 0)
        assert (ctx.ints.t[0], ctx.ints.t[2]) == (0, 1 << b)
        for seed in range(4):
            estimator_vs_node_conditional(ctx, [0, 0, 0], random.Random(seed))


@pytest.mark.parametrize(
    "kind, lists, b, acc_type",
    [
        # the hub: degree 3, max(k0, 1) + max(k1, 1) = 4, so the bound is
        # 12 * 2^(m+b-1) with m = 32: 1.5 * 2^62 at b = 28, 1.5 * 2^63 at 29
        ("star", ((0, 1, 2, 3), (0, 2), (1, 3), (0, 3)), 28, np.int64),
        ("star", ((0, 1, 2, 3), (0, 2), (1, 3), (0, 3)), 29, object),
        # one edge at m + b - 1 = 61: 3 * 2^61 passes, 4 * 2^61 = 2^63 not
        ("path", ((0, 1, 2), (0, 1)), 30, np.int64),
        ("path", ((0, 1, 2, 3), (0, 1)), 30, object),
    ],
)
def test_estimator_sums_in_int64_only_below_the_bound(kind, lists, b, acc_type):
    g = generate_graph(kind, {"n": len(lists)})
    inst = ListColoringInstance(graph=g, C=4, lists=lists, psi=tuple(range(g.n)))
    fam = make_family(1 << 32, b)  # m = 32
    ctx = build_level_context(fam, init_state(inst))
    est = estimator_vs_node_conditional(ctx, [0] * g.n, random.Random(b))
    assert est.acc_type is acc_type


@pytest.mark.parametrize(
    "splits, num_type",
    [
        # the like sums fit int64, but weighted over the level's one
        # denominator, the product of the pairwise coprime k0 k1, past
        # 2^63, they do not
        (((2, 3), (5, 7), (11, 13), (17, 19), (23, 29), (31, 37), (41, 43), (47, 53)), object),
        (((2, 3), (1, 2), (3, 3), (2, 2)), np.int64),
    ],
    ids=["coprime", "small"],
)
def test_estimator_numerators_in_int64_only_below_the_bound(splits, num_type):
    # level 0 splits each list at color 64: k0 colors below it, k1 above
    n = len(splits)
    lists = tuple(tuple(range(k0)) + tuple(range(64, 64 + k1)) for k0, k1 in splits)
    inst = ListColoringInstance(graph=generate_graph("cycle", {"n": n}), C=128, lists=lists)
    ctx = build_level_context(make_family(n, 3), init_state(with_psi(inst)))
    assert tuple(zip(ctx.k0.tolist(), ctx.k1.tolist())) == splits
    assert (lcm(*(k0 * k1 for k0, k1 in splits)) > 1 << 63) == (num_type is object)
    est = estimator_vs_node_conditional(ctx, [0] * n, random.Random(89))
    assert est.acc_type is np.int64 and est.num_type is num_type


def test_gen_table_matches_field_products():
    # at m = 63, the widest field, x^m and the full modulus pass int64
    rng = random.Random(71)
    for m in (*range(1, 41), 63):
        b = rng.randrange(1, m + 1)
        fam = make_family(1 << m, b)
        assert fam.m == m
        dx = [0, (1 << m) - 1] + [rng.randrange(1 << m) for _ in range(6)]
        got = _gen_table(fam, np.array(dx, dtype=np.int64))
        assert got.shape == (len(dx), m) and got.dtype == np.int64
        want = [[gf2.mul(fam.fld, 1 << k, d) & ((1 << b) - 1) for k in range(m)] for d in dx]
        assert got.tolist() == want


def reduce_by(basis, y):
    """y's coset representative modulo an echelon basis, zero at its pivots."""
    for piv, row in basis:
        if (y >> piv) & 1:
            y ^= row
    return y


def test_span_sweep_matches_echelon_oracle():
    # after seek(j), for every j in ascending order on a fresh sweep, every
    # reduced value and generator and every rank match reduction against the
    # oracle's echelon basis of span{g_k : k > j}, for m up to 40 and m + b
    # past 62
    rng = random.Random(73)
    for m in range(1, 41):
        for b in {rng.randrange(1, m + 1), m}:
            fam = make_family(1 << m, b)
            dx = [rng.randrange(1, 1 << m) for _ in range(4)] + [1, (1 << m) - 1]
            gens = _gen_table(fam, np.array(dx, dtype=np.int64)).T
            want_gens = gens.tolist()
            # pair values reach bit b (val < 2^(b+1)), one past the span's
            at = [rng.randrange(len(dx)) for _ in range(24)]
            vals = [rng.randrange(1 << (b + 1)) for _ in at]
            sweep = _SpanSweep(gens, b, np.array(vals, dtype=np.int64), np.array(at))
            for j in range(m):
                sweep.seek(j)
                basis = [_basis_from(fam, d, j + 1) for d in dx]
                assert sweep.vals.tolist() == [
                    reduce_by(basis[i], y) for i, y in zip(at, vals)
                ], (m, b, j)
                assert sweep.gens.tolist() == [
                    [reduce_by(basis[i], g[i]) for i in range(len(dx))] for g in want_gens
                ], (m, b, j)
                assert sweep.rank.tolist() == [
                    [sum(piv >= p for piv, _ in basis[i]) for i in range(len(dx))]
                    for p in range(b + 1)
                ], (m, b, j)


@pytest.mark.parametrize(
    "m, b, cnt_type",
    [(32, 30, np.int64), (40, 31, object), (40, 40, object), (52, 52, object)],
)
@pytest.mark.parametrize(
    "kind, lists",
    [("path", ((0, 1, 2), (0, 1))), ("star", ((0, 1, 2, 3), (0, 2), (1, 3), (0, 3)))],
)
def test_estimator_counts_past_m_plus_b_62_in_objects(kind, lists, m, b, cnt_type):
    # an s1-regime edge count reaches 2^(m+b-1), which int64 holds only up
    # to m+b = 62; past it the same kernels run on Python ints
    g = generate_graph(kind, {"n": len(lists)})
    inst = ListColoringInstance(graph=g, C=4, lists=lists, psi=tuple(range(g.n)))
    fam = make_family(1 << m, b)
    assert (fam.m, fam.b) == (m, b)
    ctx = build_level_context(fam, init_state(inst))
    est = estimator_vs_node_conditional(ctx, [0] * g.n, random.Random(m + b))
    assert est.cnt_type is cnt_type


def test_estimator_value_keys_past_int64():
    # at b = 62 the (dx, value) keys pass int64; the three hub edges have
    # the same thresholds, so the same branch pair values, at three
    # offsets, and a key shared by two offsets would give one the other's
    # reductions
    g = generate_graph("star", {"n": 4})
    lists = ((0, 1, 2, 4, 5), (0, 1, 4), (1, 2, 5), (0, 2, 4))
    inst = ListColoringInstance(graph=g, C=8, lists=lists, psi=(0, 1, 2, 3))
    ctx = build_level_context(make_family(1 << 62, 62), init_state(inst))
    assert ctx.t.tolist() == [-(-(2 << 62) // 5)] + [-(-(1 << 62) // 3)] * 3
    estimator_vs_node_conditional(ctx, [0] * g.n, random.Random(83))


# ---------------------------------------------------------------------------
# exhaustive_seed against the scalar scan

def test_exhaustive_seed_matches_scalar_scan():
    rng = random.Random(61)
    done = 0
    while done < 10:
        made = random_context(rng, n_max=6, b_max=4)
        if made is None:
            continue
        ctx, state = made
        assert exhaustive_seed(ctx, state) == oracle_exhaustive(ctx, ctx.ints.edges)
        done += 1


def test_exhaustive_seed_mixed_list_sizes_past_int64():
    # level 0 splits each list at color 64: k0 colors below it, k1 above
    splits = ((2, 3), (5, 7), (11, 13), (17, 19), (23, 29), (31, 37), (41, 43), (47, 53))
    lists = tuple(
        tuple(range(k0)) + tuple(range(64, 64 + k1)) for k0, k1 in splits
    )
    inst = ListColoringInstance(
        graph=generate_graph("cycle", {"n": 8}), C=128, lists=lists
    )
    state = init_state(with_psi(inst))
    ctx = build_level_context(make_family(8, 3), state)
    assert tuple(zip(ctx.k0.tolist(), ctx.k1.tolist())) == splits
    assert lcm(*(k for s in splits for k in s)) > 1 << 63
    assert exhaustive_seed(ctx, state) == oracle_exhaustive(ctx, ctx.ints.edges)


# ---------------------------------------------------------------------------
# level guarantees are checks, not asserts

def test_level_checks_survive_python_O():
    script = textwrap.dedent(
        """
        import sys
        from congestcolor import derand
        from congestcolor.coins import make_family
        from congestcolor.graphs import ListColoringInstance, generate_graph
        from congestcolor.prefixes import init_state
        from congestcolor.sim import CommPlan, build_bfs_forest

        derand.choose_seed_bit = lambda s0, s1: 1 if s0 <= s1 else 0  # worse bit
        inst = ListColoringInstance(
            graph=generate_graph("clique", {"n": 3}), C=4, lists=((0, 1, 2),) * 3,
            psi=(0, 1, 2),
        )
        state = init_state(inst)
        ctx = derand.build_level_context(make_family(3, 6), state)
        forest, _ = build_bfs_forest(inst.graph)
        try:
            derand.fix_level(ctx, state, CommPlan(inst.graph, forest))
        except derand.InvariantError as exc:
            print(sys.flags.optimize, exc)
        """
    )
    env = dict(os.environ)
    src = str(Path(congestcolor.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "1 conditional chain broke\n"
    assert issubclass(InvariantError, AssertionError)  # CLI and bench handlers
