import hashlib
import json
import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congestcolor import graphs
from congestcolor.graphs import (
    Graph,
    ListColoringInstance,
    PartialColoring,
    ValidationError,
    attach_default_lists,
    generate_graph,
    load_instance,
    residual_instance,
    restrict,
    verify_coloring,
)


def brute_force_color(inst):
    """Backtracking oracle: some total valid coloring, or None."""
    n = inst.graph.n
    out = [None] * n
    order = sorted(range(n), key=lambda v: -inst.graph.deg(v))

    def go(i):
        if i == n:
            return True
        v = order[i]
        taken = {out[u] for u in inst.graph.adj[v] if out[u] is not None}
        for c in inst.lists[v]:
            if c not in taken:
                out[v] = c
                if go(i + 1):
                    return True
                out[v] = None
        return False

    return out if go(0) else None


def write_instance(tmp_path, payload):
    p = tmp_path / "inst.json"
    p.write_text(json.dumps(payload))
    return p


def test_load_three_node_path(tmp_path):
    p = write_instance(tmp_path, {
        "n": 3,
        "edges": [[0, 1], [1, 2]],
        "C": 3,
        "lists": {"0": [0, 1], "1": [0, 1, 2], "2": [1, 2]},
    })
    inst = load_instance(p)
    assert inst.graph.n == 3
    assert inst.graph.adj[1] == (0, 2)
    assert inst.C == 3
    assert inst.lists == ((0, 1), (0, 1, 2), (1, 2))


def test_load_rejects_short_list(tmp_path):
    p = write_instance(tmp_path, {
        "n": 3,
        "edges": [[0, 1], [1, 2]],
        "C": 3,
        "lists": {"0": [0, 1], "1": [2], "2": [1, 2]},
    })
    with pytest.raises(ValidationError, match="node 1"):
        load_instance(p)


def test_load_rejects_self_loop(tmp_path):
    p = write_instance(tmp_path, {"n": 2, "edges": [[1, 1]]})
    with pytest.raises(ValidationError, match="self-loop"):
        load_instance(p)


@pytest.mark.parametrize(
    "payload, message",
    [
        ([[0, 1]], "instance file must be an object, not an array"),
        ({"n": 2, "edges": [[0, "1"]]}, "edge 0 endpoint must be an integer, not a string"),
        ({"n": 2, "edges": [[0, 1.5]]}, "edge 0 endpoint must be an integer, not a number"),
        ({"n": 2, "edges": [[0]]}, "edge 0 must have two endpoints"),
        ({"n": True, "edges": []}, "n must be an integer, not a boolean"),
        ({"n": 2, "edges": [], "psi": [0, 1]}, "psi must be an object, not an array"),
        ({"n": 2, "edges": [], "lists": [[0], [0]]}, "lists must be an object, not an array"),
        ({"n": 1, "edges": [], "lists": {"0": 0}}, "node 0: color list must be an array"),
        ({"n": 1, "edges": [], "lists": {"0": [None]}}, "node 0: color must be an integer"),
        ({"n": 1, "edges": [], "C": "2"}, "C must be an integer, not a string"),
        ({"n": 2}, "missing key 'edges'"),
        ({"edges": []}, "missing key 'n'"),
        ({"n": 2, "edges": [], "psi": {"0": 0}}, "psi of node 1 must be an integer, not null"),
        # keys the loader would otherwise drop
        (
            {"n": 2, "edges": [[0, 1]], "list": {"0": [5, 6], "1": [5, 6]}, "C": 7},
            "an instance file takes no key 'list'",
        ),
        ({"n": 2, "edges": [], "psi": {"0": 0, "1": 1, "7": 2}}, "psi: '7' is not a node id in 0..1"),
        ({"n": 2, "edges": [], "lists": {"0": [0], "1": [0], "7": [0]}}, "lists: '7' is not a node id"),
        ({"n": 2, "edges": [], "lists": {"0": [0], "01": [0]}}, "lists: '01' is not a node id"),
        # empty lists derive C = 0, but the lists are what is wrong
        ({"n": 1, "edges": [], "lists": {"0": []}}, r"node 0: list size 0 < deg\+1 = 1"),
        ({"n": 1, "edges": [], "lists": {"0": [0]}, "C": 0}, "palette size C must be positive"),
        # default lists need C above the largest degree
        ({"n": 3, "edges": [[0, 1], [1, 2]], "C": 2}, r"^C=2 too small for default lists \(need 3\)$"),
        ({"n": 2, "edges": [], "lists": {"0": [0]}}, "^node 1: missing color list$"),
    ],
)
def test_load_rejects_malformed_json(tmp_path, payload, message):
    with pytest.raises(ValidationError, match=message):
        load_instance(write_instance(tmp_path, payload))


def test_graph_rejects_parallel_and_range():
    with pytest.raises(ValidationError):
        Graph.from_edges(3, [(0, 1), (1, 0)])
    with pytest.raises(ValidationError):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(ValidationError, match="^node count must be nonnegative$"):
        Graph.from_edges(-1, [])


@pytest.mark.parametrize(
    "lists, message",
    [
        (((0, 1), (0, 1, 2)), "^need one color list per node$"),
        (((0, 1), (0, 2, 1), (1, 2)), "^node 1: list not strictly ascending$"),
        (((0, 1), (0, 1, 1, 2), (1, 2)), "^node 1: list not strictly ascending$"),
        (((0, 1), (0, 1, 2), (1, 3)), r"^node 2: colors outside 0\.\.2$"),
        (((-1, 1), (0, 1, 2), (1, 2)), r"^node 0: colors outside 0\.\.2$"),
    ],
)
def test_instance_rejects_malformed_lists(lists, message):
    g = generate_graph("path", {"n": 3})
    with pytest.raises(ValidationError, match=message):
        ListColoringInstance(graph=g, C=3, lists=lists)


@pytest.mark.parametrize(
    "psi, message",
    [
        ((0, 1, 0), "^psi must color all 4 nodes$"),
        ((0, 1, -2, 1), "^node 2: negative color in psi$"),
        ((0, 1, 1, 1), r"^edge \(1, 2\): psi must be proper$"),
    ],
)
def test_instance_rejects_a_bad_psi(psi, message):
    # check_coloring names the first node or edge at fault
    inst = attach_default_lists(generate_graph("path", {"n": 4}))
    with pytest.raises(ValidationError, match=message):
        ListColoringInstance(graph=inst.graph, C=inst.C, lists=inst.lists, psi=psi)
    # a proper psi of any width is taken as it is
    psi = (0, 10**30, 0, 1)
    assert ListColoringInstance(graph=inst.graph, C=inst.C, lists=inst.lists, psi=psi).psi == psi


def test_diameter_and_degree():
    path = generate_graph("path", {"n": 5})
    assert path.diameter == 4
    assert path.max_degree == 2
    k4 = generate_graph("clique", {"n": 4})
    assert k4.diameter == 1
    # disconnected: max over components
    g = Graph.from_edges(6, [(0, 1), (1, 2), (3, 4)])
    assert g.diameter == 2
    assert Graph.from_edges(3, []).diameter == 0


def test_attach_default_lists():
    tri = attach_default_lists(generate_graph("clique", {"n": 3}))
    assert tri.C == 3
    assert tri.lists == ((0, 1, 2),) * 3
    lone = attach_default_lists(Graph.from_edges(1, []))
    assert lone.C == 1 and lone.lists == ((0,),)
    star = attach_default_lists(generate_graph("star", {"n": 5}))
    assert star.C == 5
    assert star.lists[0] == (0, 1, 2, 3, 4)
    assert star.lists[1] == (0, 1)


def test_generators_shapes():
    assert generate_graph("path", {"n": 4}).edge_list == ((0, 1), (1, 2), (2, 3))
    cyc = generate_graph("cycle", {"n": 4})
    assert set(cyc.edge_list) == {(0, 1), (1, 2), (2, 3), (0, 3)}
    k5 = generate_graph("clique", {"n": 5})
    assert len(k5.edge_list) == 10
    with pytest.raises(ValidationError):
        generate_graph("cycle", {"n": 2})
    with pytest.raises(ValidationError):
        generate_graph("wheel", {"n": 5})


def test_gnp_deterministic():
    g1 = generate_graph("gnp", {"n": 40, "p": 0.2}, rng_seed=5)
    g2 = generate_graph("gnp", {"n": 40, "p": 0.2}, rng_seed=5)
    g3 = generate_graph("gnp", {"n": 40, "p": 0.2}, rng_seed=6)
    assert g1.edge_list == g2.edge_list
    assert g1.edge_list != g3.edge_list


def test_regular_generator():
    for seed in range(3):
        g = generate_graph("regular", {"n": 16, "d": 3}, rng_seed=seed)
        assert all(g.deg(v) == 3 for v in range(16))
    g = generate_graph("regular", {"n": 256, "d": 8}, rng_seed=0)
    assert all(g.deg(v) == 8 for v in range(256))
    with pytest.raises(ValidationError):
        generate_graph("regular", {"n": 5, "d": 3})


def test_every_generator_takes_the_empty_graph():
    # the empty graph is 0-regular, and of no other degree
    empty = Graph.from_edges(0, [])
    for kind, params in (("path", {}), ("star", {}), ("clique", {}), ("gnp", {"p": 0.5}),
                         ("regular", {"d": 0})):
        assert generate_graph(kind, {"n": 0, **params}) == empty, kind
    assert generate_graph("regular", {"n": 1, "d": 0}) == Graph.from_edges(1, [])
    with pytest.raises(ValidationError, match="no 1-regular simple graph on 0 nodes"):
        generate_graph("regular", {"n": 0, "d": 1})


@pytest.mark.parametrize(
    "kind, params, message",
    [
        ("gnp", {"n": 20, "p": float("nan")}, "gnp graph: p=nan is not a probability"),
        ("gnp", {"n": 20, "p": 1.5}, "gnp graph: p=1.5 is not a probability"),
        ("gnp", {"n": 20, "p": -0.5}, "gnp graph: p=-0.5 is not a probability"),
        ("gnp", {"n": 20}, "gnp graph needs parameter 'p'"),
        ("clique", {"n": 2.9}, "clique graph: n=2.9 is not an integer"),
        ("path", {"n": "5"}, "path graph: n='5' is not an integer"),
        ("star", {}, "star graph needs parameter 'n'"),
        ("regular", {"n": 10}, "regular graph needs parameter 'd'"),
        ("regular", {"n": 10, "d": 2.5}, "regular graph: d=2.5 is not an integer"),
        ("path", {"n": 4, "extra": 1}, "path graph takes no parameter 'extra'"),
        ("regular", {"n": 10, "d": 3, "seed": 4}, "regular graph takes no parameter 'seed'"),
        ("gnp", {"n": 10, "d": 3}, "gnp graph takes no parameter 'd'"),
        ("regular", {"n": 10, "d": 3, "p": 0.5}, "regular graph takes no parameter 'p'"),
        ("star", {"n": 5, "p": 0.5}, "star graph takes no parameter 'p'"),
        ("torus", {"n": 5}, "unknown graph kind 'torus'"),
    ],
)
def test_generators_reject_bad_parameters(kind, params, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        generate_graph(kind, params)


def test_generators_take_integral_floats_and_probability_ends():
    assert generate_graph("clique", {"n": 4.0}) == generate_graph("clique", {"n": 4})
    assert generate_graph("gnp", {"n": 6, "p": 1}) == generate_graph("clique", {"n": 6})
    assert not generate_graph("gnp", {"n": 6, "p": 0}).edge_list


def _digest(edge_lists):
    return hashlib.sha256(repr(list(edge_lists)).encode()).hexdigest()[:16]


# edge lists of seeds 0-3, recorded from the generator that rescanned every
# edge on each repair step; the bookkeeping that replaced the rescans must
# make the same rng draws and so the same graphs
REGULAR_DIGESTS = {
    (11, 2): "c310ea6cefe618e3",
    (12, 5): "0546191d698f2d51",
    (40, 3): "4db2a45c7456267f",
    (101, 8): "336b0e25c3cecceb",
    (400, 13): "6403c1ddfa9861b8",
    (1000, 20): "b0781ef8fcd1c1e3",
}


def test_regular_generator_output_is_pinned():
    for (n, d), want in REGULAR_DIGESTS.items():
        edge_lists = [
            generate_graph("regular", {"n": n, "d": d}, s).edge_list for s in range(4)
        ]
        assert _digest(edge_lists) == want, (n, d)


def test_regular_generator_large_degree_is_fast():
    # the first matching has 765 loop or repeated edges among 200,000; a
    # rescan of every edge per repair step made this take over a minute
    start = time.perf_counter()
    g = generate_graph("regular", {"n": 10_000, "d": 40}, 0)
    assert time.perf_counter() - start < 5
    assert all(g.deg(v) == 40 for v in range(g.n))
    assert _digest([g.edge_list]) == "052f6f292ea8ca59"


def test_verify_coloring_reports():
    inst = attach_default_lists(generate_graph("path", {"n": 3}))
    ok = verify_coloring(inst, PartialColoring([0, 1, 0]))
    assert ok.ok and not ok.monochromatic and not ok.uncolored
    bad = verify_coloring(inst, PartialColoring([1, 1, 0]))
    assert bad.monochromatic == [(0, 1)]
    out = verify_coloring(inst, PartialColoring([0, 2, 9]))
    assert out.out_of_list == [2]
    part = verify_coloring(inst, PartialColoring([0, None, 0]), require_total=False)
    assert part.ok
    part_total = verify_coloring(inst, PartialColoring([0, None, 0]))
    assert part_total.uncolored == [1]
    with pytest.raises(ValidationError, match="^coloring length does not match node count$"):
        verify_coloring(inst, PartialColoring([0, 1]))


def test_residual_worked_example():
    inst = load_like_p3()
    res = residual_instance(inst, PartialColoring([0, None, None]))
    assert res.graph.n == 2
    assert res.graph.edge_list == ((0, 1),)
    assert res.lists == ((1, 2), (1, 2))


def load_like_p3():
    g = generate_graph("path", {"n": 3})
    return graphs.ListColoringInstance(graph=g, C=3, lists=((0, 1), (0, 1, 2), (1, 2)))


def test_residual_keeps_slack_and_recombines():
    rng = random.Random(11)
    for trial in range(40):
        n = rng.randrange(2, 9)
        p = rng.uniform(0.2, 0.8)
        g = generate_graph("gnp", {"n": n, "p": p}, rng_seed=trial)
        inst = attach_default_lists(g)
        colors = [None] * n
        # greedily color a random subset, staying valid
        for v in rng.sample(range(n), k=rng.randrange(n + 1)):
            taken = {colors[u] for u in g.adj[v]}
            avail = [c for c in inst.lists[v] if c not in taken]
            if avail:
                colors[v] = rng.choice(avail)
        partial = PartialColoring(colors)
        assert verify_coloring(inst, partial, require_total=False).ok
        res = residual_instance(inst, partial)
        kept = [v for v in range(n) if colors[v] is None]
        assert res.graph.n == len(kept)
        for i, v in enumerate(kept):
            assert len(res.lists[i]) >= res.graph.deg(i) + 1
        # completing the residual by brute force completes the original
        finish = brute_force_color(res)
        assert finish is not None
        merged = list(colors)
        for i, v in enumerate(kept):
            merged[v] = finish[i]
        assert verify_coloring(inst, PartialColoring(merged)).ok


def test_residual_rejects_invalid_partial():
    inst = load_like_p3()
    with pytest.raises(ValidationError):
        residual_instance(inst, PartialColoring([0, 0, None]))


# restrict: induced sub-instance ---------------------------------------------

@st.composite
def restricted_cases(draw):
    """A gnp instance, a valid partial coloring, and uncolored nodes to keep."""
    n = draw(st.integers(min_value=0, max_value=14))
    p = draw(st.floats(min_value=0.0, max_value=1.0))
    g = generate_graph("gnp", {"n": n, "p": p}, draw(st.integers(0, 10**6)))
    inst = attach_default_lists(g)
    colors = [None] * n
    for v in draw(st.permutations(range(n))):
        taken = {colors[u] for u in g.adj[v]}
        avail = [c for c in inst.lists[v] if c not in taken]
        if draw(st.booleans()):
            colors[v] = draw(st.sampled_from(avail))
    free = [v for v in range(n) if colors[v] is None]
    nodes = draw(st.lists(st.sampled_from(free), unique=True)) if free else []
    return inst, colors, nodes


@settings(max_examples=200, deadline=None)
@given(restricted_cases())
def test_restrict_matches_edge_scan_and_residual(case):
    inst, colors, nodes = case
    g = inst.graph
    sub = restrict(inst, nodes, colors)
    kept = sorted(nodes)
    idx = {v: i for i, v in enumerate(kept)}
    # the composer's former per-cluster scan of the whole edge list
    oracle = [(idx[u], idx[v]) for u, v in g.edge_list if u in idx and v in idx]
    assert sub.graph.n == len(kept)
    assert sub.graph.edge_list == tuple(sorted(oracle))
    for i, v in enumerate(kept):
        banned = {colors[u] for u in g.adj[v]}
        assert sub.lists[i] == tuple(c for c in inst.lists[v] if c not in banned)
        assert len(sub.lists[i]) >= sub.graph.deg(i) + 1
    free = [v for v in range(g.n) if colors[v] is None]
    partial = PartialColoring(colors)
    assert residual_instance(inst, partial) == restrict(inst, free, colors)
