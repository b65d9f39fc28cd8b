"""Cluster decompositions: validator, offline generator, composed coloring."""

import hashlib
import json
import math
import random
import time

import pytest

from congestcolor.decomposition import (
    Cluster,
    NetworkDecomposition,
    color_with_decomposition,
    generate_decomposition,
    load_decomposition,
    save_decomposition,
    validate_decomposition,
)
from congestcolor.graphs import (
    Graph,
    ValidationError,
    attach_default_lists,
    generate_graph,
    verify_coloring,
)
from congestcolor.pipeline import list_color_full


def path(n):
    return generate_graph("path", {"n": n}, 0)


def one_cluster(g):
    """Whole graph as a single cluster with a BFS tree from node 0."""
    seen = {0}
    order = [0]
    edges = []
    for v in order:
        for u in sorted(g.adj[v]):
            if u not in seen:
                seen.add(u)
                edges.append((v, u))
                order.append(u)
    assert len(seen) == g.n
    return NetworkDecomposition(
        clusters=(
            Cluster(id=0, color=1, nodes=tuple(range(g.n)), tree_edges=tuple(edges)),
        ),
        alpha=1,
        beta=2 * g.n,
        kappa=1,
    )


# validator ------------------------------------------------------------------

def test_validator_single_cluster_clean():
    g = path(6)
    assert validate_decomposition(g, one_cluster(g)) == []


def test_validator_coverage_violation():
    g = path(3)
    d = NetworkDecomposition(
        clusters=(Cluster(0, 1, (0, 1, 2), ((0, 1),)),),
        alpha=1, beta=5, kappa=1,
    )
    errs = validate_decomposition(g, d)
    assert len(errs) == 1 and errs[0].startswith("coverage:")


def test_validator_diameter_violation():
    g = path(3)
    d = NetworkDecomposition(
        clusters=(Cluster(0, 1, (0, 1, 2), ((0, 1), (1, 2))),),
        alpha=1, beta=1, kappa=1,
    )
    errs = validate_decomposition(g, d)
    assert len(errs) == 1 and errs[0].startswith("diameter:")


def test_validator_adjacency_violation():
    g = path(2)
    d = NetworkDecomposition(
        clusters=(Cluster(0, 1, (0,), ()), Cluster(1, 1, (1,), ())),
        alpha=1, beta=1, kappa=1,
    )
    errs = validate_decomposition(g, d)
    assert len(errs) == 1 and errs[0].startswith("adjacency:")


def test_validator_congestion_violation():
    g = path(4)
    d = NetworkDecomposition(
        clusters=(
            Cluster(0, 1, (0,), ((0, 1),)),
            Cluster(1, 1, (3,), ((0, 1), (1, 2), (2, 3))),
            Cluster(2, 2, (1,), ()),
            Cluster(3, 3, (2,), ()),
        ),
        alpha=3, beta=3, kappa=1,
    )
    errs = validate_decomposition(g, d)
    assert len(errs) == 1 and errs[0].startswith("congestion:")


def test_validator_partition_violations():
    g = path(3)
    dup = NetworkDecomposition(
        clusters=(Cluster(0, 1, (0, 1), ((0, 1),)), Cluster(1, 2, (1, 2), ((1, 2),))),
        alpha=2, beta=2, kappa=1,
    )
    assert any(e.startswith("partition:") for e in validate_decomposition(g, dup))
    gap = NetworkDecomposition(
        clusters=(Cluster(0, 1, (0, 1), ((0, 1),)),),
        alpha=1, beta=2, kappa=1,
    )
    assert any("node 2 in no cluster" in e for e in validate_decomposition(g, gap))
    # two clusters under one id: keyed by id, they once read as one cluster
    # whose two nodes touch, so two adjacent nodes took colors side by side
    twice = NetworkDecomposition(
        clusters=(Cluster(0, 1, (0,), ()), Cluster(0, 1, (1,), ())),
        alpha=1, beta=0, kappa=1,
    )
    assert validate_decomposition(path(2), twice) == ["partition: cluster id 0 repeated"]


def test_validator_tree_structure():
    g = generate_graph("cycle", {"n": 4}, 0)
    loose = NetworkDecomposition(
        clusters=(Cluster(0, 1, (0, 1, 2, 3), ((0, 1), (2, 3))),),
        alpha=1, beta=4, kappa=1,
    )
    assert any(e.startswith("tree:") for e in validate_decomposition(g, loose))
    phantom = NetworkDecomposition(
        clusters=(Cluster(0, 1, (0, 1, 2, 3), ((0, 1), (1, 2), (2, 3), (0, 2))),),
        alpha=1, beta=4, kappa=1,
    )
    assert any(e.startswith("tree:") for e in validate_decomposition(g, phantom))
    # right node set but not a tree: too many edges, or the right count of
    # edges that do not connect; one tree error each, and no diameter check
    cyclic = NetworkDecomposition(
        clusters=(Cluster(0, 1, (0, 1, 2, 3), ((0, 1), (1, 2), (2, 3), (0, 3))),),
        alpha=1, beta=1, kappa=1,
    )
    split = Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (3, 4)])
    apart = NetworkDecomposition(
        clusters=(Cluster(0, 1, (0, 1, 2, 3, 4), ((0, 1), (1, 2), (0, 2), (3, 4))),),
        alpha=1, beta=0, kappa=1,
    )
    for graph, decomp in ((g, cyclic), (split, apart)):
        errs = validate_decomposition(graph, decomp)
        assert [e for e in errs if e.startswith("tree:")] == [
            "tree: cluster 0 edges do not form a tree"
        ]
        assert not any(e.startswith("diameter:") for e in errs)


def test_validator_color_range():
    g = path(2)
    d = NetworkDecomposition(
        clusters=(Cluster(0, 1, (0,), ()), Cluster(1, 5, (1,), ())),
        alpha=2, beta=1, kappa=1,
    )
    assert any(e.startswith("color-range:") for e in validate_decomposition(g, d))


# generator ------------------------------------------------------------------

SUITE = [
    ("path", {"n": 2}), ("path", {"n": 64}), ("cycle", {"n": 33}),
    ("clique", {"n": 8}), ("star", {"n": 9}), ("regular", {"n": 20, "d": 3}),
    ("gnp", {"n": 40, "p": 0.15}),
]


def test_generate_clean_and_bounded():
    for kind, params in SUITE:
        g = generate_graph(kind, params, 11)
        d = generate_decomposition(g)
        assert validate_decomposition(g, d) == []
        cap = 4 * max(1, (g.n - 1).bit_length())
        assert d.alpha <= cap and d.beta <= cap
        assert d.kappa == 1
        for cl in d.clusters:
            ends = {v for e in cl.tree_edges for v in e}
            assert ends <= set(cl.nodes)  # strong clusters


def test_generate_single_node_and_clique():
    d = generate_decomposition(Graph.from_edges(1, []))
    assert d.alpha == 1 and len(d.clusters) == 1 and d.beta == 0
    g = generate_graph("clique", {"n": 7}, 0)
    d = generate_decomposition(g)
    assert d.alpha == 1 and len(d.clusters) == 1
    assert d.beta <= 2


def test_generate_deterministic():
    g = generate_graph("gnp", {"n": 30, "p": 0.1}, 3)
    assert generate_decomposition(g) == generate_decomposition(g)


# repr of the decompositions of seeds 0-3, recorded from the carving that
# searched the whole working set for the least centre of every ball
CARVED_DIGESTS = [
    ("path", {"n": 2}, "7deb78d803f407db"),
    ("path", {"n": 64}, "91f781f2d3062b5d"),
    ("cycle", {"n": 33}, "77389e58322aa148"),
    ("clique", {"n": 8}, "c16534b08a1e1924"),
    ("star", {"n": 9}, "68924d6152b3444c"),
    ("regular", {"n": 20, "d": 3}, "df225c2e69fa894b"),
    ("gnp", {"n": 40, "p": 0.15}, "d0d657f3bbc22723"),
    ("regular", {"n": 4000, "d": 2}, "f2680bf0d9d28c87"),
]


def test_generate_output_is_pinned():
    for kind, params, want in CARVED_DIGESTS:
        decomps = [generate_decomposition(generate_graph(kind, params, s)) for s in range(4)]
        got = hashlib.sha256(repr(decomps).encode()).hexdigest()[:16]
        assert got == want, (kind, params)


def test_generate_large_cycle_is_fast():
    # 16,000 balls; a scan of the working set per ball took seconds
    g = generate_graph("cycle", {"n": 32_000}, 0)
    start = time.perf_counter()
    d = generate_decomposition(g)
    assert time.perf_counter() - start < 2
    assert sorted(v for cl in d.clusters for v in cl.nodes) == list(range(g.n))


def test_roundtrip(tmp_path):
    g = generate_graph("gnp", {"n": 25, "p": 0.15}, 4)
    d = generate_decomposition(g)
    p = tmp_path / "decomp.json"
    save_decomposition(p, d)
    payload = json.loads(p.read_text())
    assert set(payload) == {"alpha", "clusters"}
    assert all(
        set(c) == {"id", "color", "nodes", "tree_edges"} for c in payload["clusters"]
    )
    back = load_decomposition(p)
    assert back == d


def _decomposition_payload(**edits):
    cluster = {"id": 0, "color": 1, "nodes": [0, 1], "tree_edges": [[0, 1]]}
    cluster.update(edits)
    return {"alpha": 1, "clusters": [cluster]}


@pytest.mark.parametrize(
    "payload, message",
    [
        ([], "a decomposition file must be an object, not an array"),
        ({"clusters": []}, "missing key 'alpha'"),
        ({"alpha": 1}, "missing key 'clusters'"),
        ({"alpha": 1, "clusters": {}}, "clusters must be an array, not an object"),
        ({"alpha": 1, "clusters": [0]}, "cluster 0 must be an object, not an integer"),
        (_decomposition_payload(color=True), "cluster 0: color must be an integer, not a boolean"),
        (_decomposition_payload(nodes=[0, 1.9]), "cluster 0: node must be an integer, not a number"),
        (_decomposition_payload(id="0"), "cluster 0: id must be an integer, not a string"),
        (_decomposition_payload(tree_edges=[[0]]), "cluster 0: tree edge must have two endpoints"),
        ({"alpha": 1, "clusters": [{"id": 0, "color": 1, "nodes": [0]}]},
         "cluster 0: missing key 'tree_edges'"),
        ({"alpha": 1, "kappa": 99, "clusters": []}, "a decomposition file takes no key 'kappa'"),
        (_decomposition_payload(colour=7), "cluster 0 takes no key 'colour'"),
    ],
)
def test_load_decomposition_rejects_malformed_json(tmp_path, payload, message):
    p = tmp_path / "decomp.json"
    p.write_text(json.dumps(payload))
    with pytest.raises(ValidationError) as exc:
        load_decomposition(p)
    assert str(exc.value) == message


# composition ----------------------------------------------------------------

def test_compose_single_cluster_matches_direct():
    g = generate_graph("gnp", {"n": 12, "p": 0.3}, 6)
    inst = attach_default_lists(g)
    direct, _ = list_color_full(inst, "mis")
    via, rep = color_with_decomposition(inst, one_cluster(g), "mis")
    assert via.colors == direct.colors
    assert len(rep.classes) == 1 and rep.kappa == 1


def test_compose_visits_only_the_colors_clusters_have():
    # alpha bounds the colors; it does not set how many classes run
    g = path(2)
    d = NetworkDecomposition(
        clusters=(Cluster(0, 1000, (0, 1), ((0, 1),)),), alpha=1000, beta=1, kappa=1
    )
    records = []
    out, rep = color_with_decomposition(attach_default_lists(g), d, "mis", trace=records.append)
    assert [rec.color for rec in rep.classes] == [1000]
    assert [r["class"] for r in records if "class" in r] == [1000]
    assert verify_coloring(attach_default_lists(g), out).ok


def test_compose_parallel_classes_charge_max():
    g = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
    inst = attach_default_lists(g)
    d = NetworkDecomposition(
        clusters=(
            Cluster(0, 1, (0, 1, 2), ((0, 1), (0, 2))),
            Cluster(1, 1, (3, 4, 5), ((3, 4), (3, 5))),
        ),
        alpha=1, beta=2, kappa=1,
    )
    assert validate_decomposition(g, d) == []
    out, rep = color_with_decomposition(inst, d, "mis")
    assert verify_coloring(inst, out).ok
    rec = rep.classes[0]
    assert rec.clusters == (0, 1)
    assert rec.rounds == rec.kappa * rec.slowest
    assert rep.rounds == rec.rounds


def test_compose_generated_suite():
    rng = random.Random(5)
    for i in range(5):
        g = generate_graph("gnp", {"n": rng.randint(10, 26), "p": 0.2}, i)
        inst = attach_default_lists(g)
        d = generate_decomposition(g)
        for mode in ("mis", "avoid-mis"):
            out, rep = color_with_decomposition(inst, d, mode)
            assert verify_coloring(inst, out).ok
            assert rep.kappa <= d.kappa
            assert [c.color for c in rep.classes] == list(range(1, d.alpha + 1))


def test_compose_rejects_invalid():
    g = path(2)
    bad = NetworkDecomposition(
        clusters=(Cluster(0, 1, (0,), ()), Cluster(1, 1, (1,), ())),
        alpha=1, beta=1, kappa=1,
    )
    inst = attach_default_lists(g)
    with pytest.raises(ValidationError, match="adjacency"):
        color_with_decomposition(inst, bad, "mis")


def test_compose_weak_clusters_charge_kappa(tmp_path):
    # path 0-..-6: clusters {0,1} and {5,6} share color 1 and route their
    # trees through the middle, so edges (2,3) and (3,4) serve two trees
    g = path(7)
    inst = attach_default_lists(g)
    d = NetworkDecomposition(
        clusters=(
            Cluster(0, 1, (0, 1), ((0, 1), (1, 2), (2, 3), (3, 4))),
            Cluster(1, 1, (5, 6), ((2, 3), (3, 4), (4, 5), (5, 6))),
            Cluster(2, 2, (2, 3, 4), ((2, 3), (3, 4))),
        ),
        alpha=2, beta=4, kappa=2,
    )
    assert validate_decomposition(g, d) == []
    out, rep = color_with_decomposition(inst, d, "mis")
    assert verify_coloring(inst, out).ok
    weak, strong = rep.classes
    assert (weak.clusters, weak.kappa) == ((0, 1), 2)
    assert (strong.clusters, strong.kappa) == ((2,), 1)
    for rec in rep.classes:
        assert rec.slowest > 0
        assert rec.rounds == rec.kappa * rec.slowest
    assert rep.kappa == 2
    assert rep.rounds == weak.rounds + strong.rounds
    p = tmp_path / "weak.json"
    save_decomposition(p, d)
    back = load_decomposition(p)
    assert (back.beta, back.kappa) == (4, 2)
    assert back == d

