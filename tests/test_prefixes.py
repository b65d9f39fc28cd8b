import random
from fractions import Fraction
from math import lcm

import numpy as np
import pytest

from congestcolor.graphs import (
    Graph,
    ListColoringInstance,
    attach_default_lists,
    generate_graph,
)
from congestcolor.prefixes import (
    EmptyCandidateError,
    apply_bits,
    chosen_colors,
    init_state,
    phi_sum,
    split_counts,
)
from oracles import node_split_counts


def splits(st):
    """split_counts of every node, as (k0, k1) pairs of Python ints."""
    return list(zip(*(k.tolist() for k in split_counts(st))))


def node_phis(st):
    """Every node's potential read off phi_terms, as Fractions."""
    terms, L = st.phi_terms
    return [Fraction(t, L) for t in terms.tolist()]


def p3_instance():
    g = generate_graph("path", {"n": 3})
    return ListColoringInstance(graph=g, C=3, lists=((0, 1), (0, 1, 2), (1, 2)))


def test_initial_potential_p3():
    st = init_state(p3_instance())
    assert st.W == 2
    assert node_phis(st) == [Fraction(1, 2), Fraction(2, 3), Fraction(1, 2)]
    assert st.phi_terms[1] == 6
    assert phi_sum(st) == Fraction(5, 3)
    assert st.alive_edges.tolist() == [[0, 1], [1, 2]]


def test_split_counts_examples():
    g = Graph.from_edges(1, [])
    st = init_state(ListColoringInstance(graph=g, C=8, lists=((0, 1, 2, 3, 4),)))
    assert st.W == 3
    assert splits(st) == [(4, 1)]

    st2 = init_state(ListColoringInstance(graph=g, C=8, lists=((6, 7),)))
    st2 = apply_bits(st2, [1])
    st2 = apply_bits(st2, [1])
    assert st2.level == 2
    assert splits(st2) == [(1, 1)]


def test_apply_bits_narrows_and_kills_edges():
    st = init_state(p3_instance())
    # level 0 splits: {0,1}->(2,0), {0,1,2}->(2,1), {1,2}->(1,1)
    assert splits(st) == [(2, 0), (2, 1), (1, 1)]
    st1 = apply_bits(st, [0, 0, 1])
    assert st1.level == 1
    assert st1.k.tolist() == [2, 2, 1]
    # node 2 branched to prefix 1, the others to 0: edge (1,2) dies
    assert st1.alive_edges.tolist() == [[0, 1]]
    assert st1.deg.tolist() == [1, 1, 0]
    assert phi_sum(st1) == Fraction(1, 2) + Fraction(1, 2)
    st2 = apply_bits(st1, [0, 1, 0])
    assert st2.level == 2
    assert st2.alive_edges.shape == (0, 2)
    assert chosen_colors(st2) == [0, 1, 2]


def test_forced_side_and_empty_side():
    st = init_state(p3_instance())
    st1 = apply_bits(st, [0, 0, 1])
    # node 2 is down to {2}; level-1 split forces bit 1... wait, 2 = 10
    assert splits(st1)[2] == (1, 0)
    with pytest.raises(EmptyCandidateError, match="node 2"):
        apply_bits(st1, [0, 0, 1])


def test_apply_bits_errors_name_the_first_node():
    # level 0 of p3: node 0 has no color with bit 1; a bad bit and an empty
    # side are checked node by node, the first node's fault raised
    st = init_state(p3_instance())
    with pytest.raises(EmptyCandidateError, match="^node 0: no candidates with bit 1 at level 0$"):
        apply_bits(st, [1, 5, 0])
    with pytest.raises(ValueError, match="^node 1: bit must be 0 or 1$"):
        apply_bits(st, [0, 5, 1])
    with pytest.raises(ValueError, match="^node 0: bit must be 0 or 1$"):
        apply_bits(st, [2, 0, 0])
    # one bit per node: a short or long list is refused, not broadcast
    for bits in ([0], [0, 0, 1, 0]):
        with pytest.raises(ValueError, match="^need one bit per node, 3 in all$"):
            apply_bits(st, bits)
    # a bool array is the same bits as a list of ints
    got, want = apply_bits(st, np.array([False, False, True])), apply_bits(st, [0, 0, 1])
    for name in ("lo", "k", "alive_edges", "deg"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_levels_are_fixed_in_order():
    st = init_state(p3_instance())  # C = 3: two levels
    with pytest.raises(ValueError, match="^2 levels still open$"):
        chosen_colors(st)
    st = apply_bits(st, [0, 0, 0])
    with pytest.raises(ValueError, match="^1 levels still open$"):
        chosen_colors(st)
    st = apply_bits(st, [0, 1, 1])
    assert chosen_colors(st) == [0, 1, 1]
    with pytest.raises(ValueError, match="^all levels already fixed$"):
        apply_bits(st, [0, 0, 0])


def test_split_counts_match_bisection_past_int64():
    # lists flatten to int64 while C <= 2^63 and to Python ints past it;
    # either way the counts match bisection of each list at every level
    rng = random.Random(13)
    g = generate_graph("gnp", {"n": 10, "p": 0.4}, rng_seed=3)
    for C, dtype in ((1 << 63, np.int64), ((1 << 63) + 1, object), (1 << 70, object)):
        lists = tuple(
            tuple(sorted({C - 1 - rng.randrange(1 << 20) if rng.randrange(2) else rng.randrange(C)
                          for _ in range(g.deg(v) + 3)}))
            for v in range(g.n)
        )
        inst = ListColoringInstance(graph=g, C=C, lists=lists)
        st = init_state(inst)
        assert st.flat.dtype == dtype
        while st.level < st.W:
            got = splits(st)
            assert got == [node_split_counts(st, v) for v in range(g.n)], (C, st.level)
            st = apply_bits(st, [rng.choice([b for b, k in enumerate(ks) if k]) for ks in got])
        colors = chosen_colors(st)
        assert all(type(c) is int and c in lists[v] for v, c in enumerate(colors))


def test_conflicting_candidates_stay_alive():
    g = generate_graph("path", {"n": 2})
    inst = ListColoringInstance(graph=g, C=4, lists=((1, 2), (1, 3)))
    st = init_state(inst)
    st = apply_bits(st, [0, 0])  # both move toward color 1
    st = apply_bits(st, [1, 1])
    assert chosen_colors(st) == [1, 1]
    assert st.alive_edges.tolist() == [[0, 1]]  # a conflict to resolve downstream


def test_single_color_instance_has_no_levels():
    g = Graph.from_edges(1, [])
    st = init_state(ListColoringInstance(graph=g, C=1, lists=((0,),)))
    assert st.W == 0 and st.level == 0
    assert chosen_colors(st) == [0]
    assert phi_sum(st) == 0


def test_phi_node_and_edge_forms_agree():
    rng = random.Random(7)
    for trial in range(30):
        g = generate_graph("gnp", {"n": 12, "p": 0.3}, rng_seed=trial)
        inst = attach_default_lists(g)
        st = init_state(inst)
        while st.level < st.W:
            k = st.k.tolist()
            edge_form = sum(
                Fraction(1, k[u]) + Fraction(1, k[v])
                for u, v in st.alive_edges.tolist()
            )
            assert phi_sum(st) == edge_form
            bits = []
            for v, (k0, k1) in enumerate(splits(st)):
                assert (k0, k1) == node_split_counts(st, v)
                assert k0 + k1 == k[v]
                choices = [b for b, kb in ((0, k0), (1, k1)) if kb]
                bits.append(rng.choice(choices))
            st = apply_bits(st, bits)
        colors = chosen_colors(st)
        for v in range(g.n):
            assert colors[v] in inst.lists[v]
        conflicts = {(u, v) for u, v in g.edge_list if colors[u] == colors[v]}
        assert set(map(tuple, st.alive_edges.tolist())) == conflicts


def test_phi_sum_of_subsets_matches_per_node_fractions():
    # mid-phase states with mixed candidate counts: every node's term and
    # the sums of its terms over empty, one-node, random and full node
    # subsets, over phi_terms' one L
    rng = random.Random(11)
    for trial in range(40):
        g = generate_graph("gnp", {"n": 15, "p": 0.4}, rng_seed=100 + trial)
        st = init_state(attach_default_lists(g))
        for _ in range(rng.randrange(st.W)):
            bits = [rng.choice([b for b, kb in ((0, k0), (1, k1)) if kb])
                    for k0, k1 in splits(st)]
            st = apply_bits(st, bits)
        deg, k = st.deg.tolist(), st.k.tolist()
        assert node_phis(st) == [Fraction(d, kv) for d, kv in zip(deg, k)]
        terms, L = st.phi_terms
        assert L == lcm(*k) and terms.dtype == np.int64
        for size in (0, 1, rng.randrange(2, g.n), g.n):
            nodes = tuple(rng.sample(range(g.n), size))
            want = sum((Fraction(deg[v], k[v]) for v in nodes), Fraction(0))
            assert Fraction(int(terms[list(nodes)].sum()), L) == want
        got = phi_sum(st)
        assert type(got) is Fraction and got == sum(node_phis(st))
