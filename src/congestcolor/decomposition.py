"""Cluster decompositions: validate, generate offline, compose a coloring.

A decomposition partitions the nodes into clusters, each carrying a
low-diameter tree and a color in 1..alpha such that adjacent clusters
differ in color and no edge serves more than kappa same-color trees.
Color classes then run the phase machinery independently: clusters of
one class are pairwise non-adjacent, so they cannot interfere, and the
class costs kappa times its slowest cluster (shared tree edges serve
their trees in fixed id order).

The generator is centralized plumbing, not a distributed algorithm: it
peels BFS balls, carving each once its boundary layer falls under half
the ball.  Balls at least 3/2-fold per hop, so radii stay logarithmic,
and each iteration defers under half of its nodes, so the color count
does too.  The result has strong clusters (trees stay inside their own
nodes) and kappa = 1, while the validator and the composer accept the
general weak-diameter format as well.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass

from .graphs import (
    ListColoringInstance,
    PartialColoring,
    ValidationError,
    _entry,
    _int_pair,
    _known_keys,
    _typed,
    bfs_depths,
    check,
    restrict,
    verify_coloring,
)
from .pipeline import list_color_full
from .sim import BandwidthPolicy


@dataclass(frozen=True)
class Cluster:
    id: int
    color: int
    nodes: tuple
    tree_edges: tuple


@dataclass(frozen=True)
class NetworkDecomposition:
    clusters: tuple
    alpha: int
    beta: int
    kappa: int


def _tree_nodes(cluster: Cluster) -> set:
    if cluster.tree_edges:
        return {v for e in cluster.tree_edges for v in e}
    # an edgeless tree is the one-node tree when the cluster is a singleton
    return set(cluster.nodes) if len(cluster.nodes) == 1 else set()


def _tree_walk(nodes: set, edges) -> tuple:
    """(whether `edges` form a tree on `nodes`, the double-sweep distance
    from min(nodes)), the latter the tree's diameter when they do.

    Every edge end must lie in `nodes`, as it does for `_tree_nodes`.
    """
    if not nodes:
        return False, 0
    adj = {v: [] for v in nodes}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    dist = bfs_depths(adj, min(nodes))
    sweep = bfs_depths(adj, max(dist, key=dist.get))  # first farthest node
    is_tree = len(edges) == len(nodes) - 1 and len(dist) == len(nodes)
    return is_tree, max(sweep.values())


def _tree_load(clusters) -> Counter:
    """Number of trees per (cluster color, normalized tree edge)."""
    return Counter(
        (cl.color, (min(u, v), max(u, v)))
        for cl in clusters
        for u, v in cl.tree_edges
    )


def _beta(clusters) -> int:
    """Largest tree diameter over the clusters."""
    return max(
        (_tree_walk(_tree_nodes(cl), cl.tree_edges)[1] for cl in clusters),
        default=0,
    )


def validate_decomposition(graph, decomp: NetworkDecomposition) -> list:
    """All deviations from the decomposition contract, as readable
    strings; clusters go by id, so a repeated id is a partition error."""
    errs = []
    owner = {}
    ids = set()
    for cl in decomp.clusters:
        if cl.id in ids:
            errs.append(f"partition: cluster id {cl.id} repeated")
        ids.add(cl.id)
        for v in cl.nodes:
            if not 0 <= v < graph.n:
                errs.append(f"partition: cluster {cl.id} node {v} outside the graph")
            elif v in owner:
                errs.append(
                    f"partition: node {v} in clusters {owner[v]} and {cl.id}"
                )
            else:
                owner[v] = cl.id
    for v in range(graph.n):
        if v not in owner:
            errs.append(f"partition: node {v} in no cluster")

    eset = {(min(u, v), max(u, v)) for u, v in graph.edge_list}
    for cl in decomp.clusters:
        if not 1 <= cl.color <= decomp.alpha:
            errs.append(
                f"color-range: cluster {cl.id} color {cl.color} "
                f"outside 1..{decomp.alpha}"
            )
        shape_ok = True
        for u, v in cl.tree_edges:
            if (min(u, v), max(u, v)) not in eset:
                errs.append(
                    f"tree: cluster {cl.id} edge ({u}, {v}) is not a graph edge"
                )
                shape_ok = False
        tn = _tree_nodes(cl)
        is_tree, d = _tree_walk(tn, cl.tree_edges)
        if tn and not is_tree:
            errs.append(f"tree: cluster {cl.id} edges do not form a tree")
            shape_ok = False
        missing = [v for v in cl.nodes if v not in tn]
        if missing:
            errs.append(
                f"coverage: cluster {cl.id} tree misses node {missing[0]}"
            )
        if shape_ok and tn and d > decomp.beta:
            errs.append(
                f"diameter: cluster {cl.id} tree diameter {d} > beta {decomp.beta}"
            )

    color_of = {cl.id: cl.color for cl in decomp.clusters}
    flagged = set()
    for u, v in graph.edge_list:
        cu, cv = owner.get(u), owner.get(v)
        if cu is None or cv is None or cu == cv:
            continue
        pair = (min(cu, cv), max(cu, cv))
        if color_of[cu] == color_of[cv] and pair not in flagged:
            flagged.add(pair)
            errs.append(
                f"adjacency: clusters {pair[0]} and {pair[1]} touch "
                f"and share color {color_of[cu]}"
            )

    for (c, (u, v)), k in sorted(_tree_load(decomp.clusters).items()):
        if k > decomp.kappa:
            errs.append(
                f"congestion: edge ({u}, {v}) lies in {k} color-{c} trees "
                f"> kappa {decomp.kappa}"
            )
    return errs


def _bfs_tree(graph, root: int, members: set) -> tuple:
    """BFS tree edges (parent, child) of the ball `members` from `root`, in
    BFS order; a node's parent is its first neighbor, in BFS order, one
    layer up."""
    adj = {v: [u for u in graph.adj[v] if u in members] for v in members}
    dist = bfs_depths(adj, root)
    check(len(dist) == len(members), "carved ball must be connected")
    parent = {}
    for v in dist:
        for u in adj[v]:
            if dist[u] > dist[v]:
                parent.setdefault(u, v)
    return tuple((parent[v], v) for v in dist if v != root)


def generate_decomposition(graph) -> NetworkDecomposition:
    """Iterated ball carving; one color per iteration, strong clusters."""
    remaining = set(range(graph.n))
    clusters = []
    color = 0
    while remaining:
        color += 1
        working = set(remaining)
        deferred = set()
        for center in sorted(remaining):  # the least node not yet carved
            if center not in working:
                continue
            ball = {center}
            frontier = {center}
            while True:
                layer = {
                    u
                    for v in frontier
                    for u in graph.adj[v]
                    if u in working and u not in ball
                }
                if 2 * len(layer) < len(ball):
                    break
                ball |= layer
                frontier = layer
            clusters.append(
                Cluster(
                    id=len(clusters),
                    color=color,
                    nodes=tuple(sorted(ball)),
                    tree_edges=_bfs_tree(graph, center, ball),
                )
            )
            working -= ball
            working -= layer  # boundary waits for the next color
            deferred |= layer
        remaining = deferred
    return NetworkDecomposition(
        clusters=tuple(clusters), alpha=max(color, 1), beta=_beta(clusters), kappa=1
    )


def save_decomposition(path, decomp: NetworkDecomposition) -> None:
    payload = {
        "alpha": decomp.alpha,
        "clusters": [
            {
                "id": cl.id,
                "color": cl.color,
                "nodes": list(cl.nodes),
                "tree_edges": [list(e) for e in cl.tree_edges],
            }
            for cl in decomp.clusters
        ],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_decomposition(path) -> NetworkDecomposition:
    """Read the JSON format; beta and kappa are measured, not stored.
    A key the format does not name, at the top or in a cluster, is an error."""
    with open(path) as fh:
        payload = _typed(json.load(fh), dict, "a decomposition file")
    _known_keys(payload, ("alpha", "clusters"), "a decomposition file takes no key")
    clusters = []
    for i, c in enumerate(_entry(payload, "clusters", list)):
        at = f"cluster {i}: "
        _typed(c, dict, f"cluster {i}")
        _known_keys(c, ("id", "color", "nodes", "tree_edges"), f"cluster {i} takes no key")
        nodes = _entry(c, "nodes", list, at)
        tree = _entry(c, "tree_edges", list, at)
        clusters.append(Cluster(
            id=_entry(c, "id", int, at),
            color=_entry(c, "color", int, at),
            nodes=tuple(_typed(v, int, at + "node") for v in nodes),
            tree_edges=tuple(_int_pair(e, at + "tree edge") for e in tree),
        ))
    clusters = tuple(clusters)
    return NetworkDecomposition(
        clusters=clusters,
        alpha=_entry(payload, "alpha", int),
        beta=_beta(clusters),
        kappa=max(_tree_load(clusters).values(), default=1),
    )


@dataclass(frozen=True)
class ClassRecord:
    color: int
    clusters: tuple
    slowest: int  # rounds of the slowest cluster in the class
    kappa: int  # measured same-color tree load
    rounds: int  # kappa * slowest, the charged cost
    reports: tuple  # per cluster, its tuple of phase reports


@dataclass(frozen=True)
class CompositionReport:
    classes: tuple
    rounds: int
    kappa: int


def color_with_decomposition(
    instance: ListColoringInstance,
    decomp: NetworkDecomposition,
    mode: str = "mis",
    *,
    kmode: str = "linial",
    strategy: str = "conditional",
    policy=None,
    trace=None,
):
    """Color class by class; same-color clusters run as parallel phases.

    Only the colors some cluster has form classes, in ascending order,
    and a class runs its clusters by id; so the work grows with the
    clusters, not with alpha.  Each cluster restricts the instance to its
    own nodes, minus colors already taken by neighbors in earlier classes
    (same-color clusters never touch, so they cannot see each other's
    colors).  Slack survives the restriction: a node loses one list
    color per colored neighbor and the incident edge with it, so deg+1
    lists stay deg+1.  A class is charged kappa times its slowest cluster.
    """
    errs = validate_decomposition(instance.graph, decomp)
    if errs:
        raise ValidationError(f"invalid decomposition: {errs[0]}")
    colors = [None] * instance.graph.n
    policy = (policy or BandwidthPolicy()).pin(instance.graph.n)
    classes = {}
    for cl in sorted(decomp.clusters, key=lambda cl: cl.id):
        classes.setdefault(cl.color, []).append(cl)
    records = []
    total = 0
    for color, active in sorted(classes.items()):
        kappa = max(_tree_load(active).values(), default=1)
        slowest = 0
        cluster_reports = []
        for cl in active:
            out, reps = list_color_full(
                restrict(instance, cl.nodes, colors),
                mode,
                kmode,
                strategy=strategy,
                policy=policy,
                trace=trace,
            )
            for v, c in zip(sorted(cl.nodes), out.colors):
                colors[v] = c
            cluster_reports.append(tuple(reps))
            slowest = max(slowest, sum(r.rounds for r in reps))
        charged = kappa * slowest
        total += charged
        records.append(
            ClassRecord(
                color=color,
                clusters=tuple(cl.id for cl in active),
                slowest=slowest,
                kappa=kappa,
                rounds=charged,
                reports=tuple(cluster_reports),
            )
        )
        if trace is not None:
            trace(
                {
                    "class": color,
                    "clusters": [cl.id for cl in active],
                    "rounds": charged,
                    "kappa": kappa,
                }
            )
    out = PartialColoring(colors)
    check(verify_coloring(instance, out).ok, "composed coloring failed checks")
    return out, CompositionReport(
        classes=tuple(records),
        rounds=total,
        kappa=max((r.kappa for r in records), default=1),
    )
