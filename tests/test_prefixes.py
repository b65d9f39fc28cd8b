import random
from fractions import Fraction

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


def p3_instance():
    g = generate_graph("path", {"n": 3})
    return ListColoringInstance(graph=g, C=3, lists=((0, 1), (0, 1, 2), (1, 2)))


def test_initial_potential_p3():
    st = init_state(p3_instance())
    assert st.W == 2
    assert phi_sum(st, [0]) == Fraction(1, 2)
    assert phi_sum(st, [1]) == Fraction(2, 3)
    assert phi_sum(st, [2]) == Fraction(1, 2)
    assert phi_sum(st) == Fraction(5, 3)
    assert st.alive_edges == ((0, 1), (1, 2))


def test_split_counts_examples():
    g = Graph.from_edges(1, [])
    st = init_state(ListColoringInstance(graph=g, C=8, lists=((0, 1, 2, 3, 4),)))
    assert st.W == 3
    assert split_counts(st, 0) == (4, 1)

    st2 = init_state(ListColoringInstance(graph=g, C=8, lists=((6, 7),)))
    st2 = apply_bits(st2, [1])
    st2 = apply_bits(st2, [1])
    assert st2.level == 2
    assert split_counts(st2, 0) == (1, 1)


def test_apply_bits_narrows_and_kills_edges():
    st = init_state(p3_instance())
    # level 0 splits: {0,1}->(2,0), {0,1,2}->(2,1), {1,2}->(1,1)
    assert split_counts(st, 0) == (2, 0)
    assert split_counts(st, 1) == (2, 1)
    assert split_counts(st, 2) == (1, 1)
    st1 = apply_bits(st, [0, 0, 1])
    assert st1.level == 1
    assert st1.k(0) == 2 and st1.k(1) == 2 and st1.k(2) == 1
    # node 2 branched to prefix 1, the others to 0: edge (1,2) dies
    assert st1.alive_edges == ((0, 1),)
    assert phi_sum(st1) == Fraction(1, 2) + Fraction(1, 2)
    st2 = apply_bits(st1, [0, 1, 0])
    assert st2.level == 2
    assert st2.alive_edges == ()
    assert chosen_colors(st2) == [0, 1, 2]


def test_forced_side_and_empty_side():
    st = init_state(p3_instance())
    st1 = apply_bits(st, [0, 0, 1])
    # node 2 is down to {2}; level-1 split forces bit 1... wait, 2 = 10
    assert split_counts(st1, 2) == (1, 0)
    with pytest.raises(EmptyCandidateError, match="node 2"):
        apply_bits(st1, [0, 0, 1])


def test_conflicting_candidates_stay_alive():
    g = generate_graph("path", {"n": 2})
    inst = ListColoringInstance(graph=g, C=4, lists=((1, 2), (1, 3)))
    st = init_state(inst)
    st = apply_bits(st, [0, 0])  # both move toward color 1
    st = apply_bits(st, [1, 1])
    assert chosen_colors(st) == [1, 1]
    assert st.alive_edges == ((0, 1),)  # a conflict to resolve downstream


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
            edge_form = sum(
                Fraction(1, st.k(u)) + Fraction(1, st.k(v))
                for u, v in st.alive_edges
            )
            assert phi_sum(st) == edge_form
            bits = []
            for v in range(g.n):
                k0, k1 = split_counts(st, v)
                assert k0 + k1 == st.k(v)
                choices = [b for b, kb in ((0, k0), (1, k1)) if kb]
                bits.append(rng.choice(choices))
            st = apply_bits(st, bits)
        colors = chosen_colors(st)
        for v in range(g.n):
            assert colors[v] in inst.lists[v]
        conflicts = {(u, v) for u, v in g.edge_list if colors[u] == colors[v]}
        assert set(st.alive_edges) == conflicts


def test_phi_sum_of_subsets_matches_per_node_fractions():
    # mid-phase states with mixed candidate counts; empty, one-node,
    # random and full node subsets
    rng = random.Random(11)
    for trial in range(40):
        g = generate_graph("gnp", {"n": 15, "p": 0.4}, rng_seed=100 + trial)
        st = init_state(attach_default_lists(g))
        for _ in range(rng.randrange(st.W)):
            bits = []
            for v in range(g.n):
                k0, k1 = split_counts(st, v)
                bits.append(rng.choice([b for b, kb in ((0, k0), (1, k1)) if kb]))
            st = apply_bits(st, bits)
        for size in (0, 1, rng.randrange(2, g.n), g.n):
            nodes = tuple(rng.sample(range(g.n), size))
            want = sum((Fraction(st.deg[v], st.k(v)) for v in nodes), Fraction(0))
            got = phi_sum(st, nodes)
            assert type(got) is Fraction and got == want
        assert phi_sum(st) == phi_sum(st, range(g.n))
