"""Graph containers, instance I/O, generators, and coloring checks.

Nodes are 0..n-1.  Graphs are simple and undirected; adjacency is kept
as sorted tuples so every traversal order in the package is
deterministic.  A list-coloring instance carries a palette size C and
per-node color lists, each sorted ascending; validity of an instance
always means |L(v)| >= deg(v) + 1 and L(v) a subset of {0..C-1}.
check_coloring is the one test of a proper coloring: an instance runs it
on its start coloring psi, and the Linial passes on their input.
"""

from __future__ import annotations

import json
import random
from collections import Counter, defaultdict, deque
from dataclasses import dataclass, field
from functools import cached_property


class ValidationError(ValueError):
    """Bad input: a malformed graph, instance, coloring or decomposition."""


class InvariantError(AssertionError):
    """A guarantee of the algorithm failed; raised under python -O too."""


def check(cond: bool, msg: str) -> None:
    if not cond:
        raise InvariantError(msg)


def bfs_depths(adj, src: int) -> dict:
    """Hop distance from src of every node it reaches, in BFS order;
    adj maps each node to its neighbors (a Graph's adj, or a dict)."""
    dist = {src: 0}
    q = deque([src])
    while q:
        u = q.popleft()
        for w in adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                q.append(w)
    return dist


def check_coloring(graph: Graph, colors, what: str) -> None:
    """ValidationError, naming the first node or edge at fault, unless
    `colors` gives every node of graph a nonnegative color and the two
    ends of every edge different ones."""
    if len(colors) != graph.n:
        raise ValidationError(f"{what} must color all {graph.n} nodes")
    for v, c in enumerate(colors):
        if c < 0:
            raise ValidationError(f"node {v}: negative color in {what}")
    for u, v in graph.edge_list:
        if colors[u] == colors[v]:
            raise ValidationError(f"edge ({u}, {v}): {what} must be proper")


class Graph:
    __slots__ = ("n", "adj", "edge_list", "__dict__")

    def __init__(self, n: int, adj: tuple, edge_list: tuple):
        self.n = n
        self.adj = adj
        self.edge_list = edge_list

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        if n < 0:
            raise ValidationError("node count must be nonnegative")
        seen = set()
        adj = [[] for _ in range(n)]
        norm = []
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValidationError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValidationError(f"self-loop at node {u}")
            a, b = (u, v) if u < v else (v, u)
            if (a, b) in seen:
                raise ValidationError(f"parallel edge ({a},{b})")
            seen.add((a, b))
            norm.append((a, b))
            adj[a].append(b)
            adj[b].append(a)
        return cls(n, tuple(tuple(sorted(x)) for x in adj), tuple(sorted(norm)))

    def deg(self, v: int) -> int:
        return len(self.adj[v])

    @cached_property
    def max_degree(self) -> int:
        return max((len(a) for a in self.adj), default=0)

    @cached_property
    def diameter(self) -> int:
        """Largest eccentricity within any connected component."""
        return max(
            (max(bfs_depths(self.adj, v).values()) for v in range(self.n)), default=0
        )

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.edge_list == other.edge_list
        )

    def __hash__(self):
        return hash((self.n, self.edge_list))


@dataclass(frozen=True)
class ListColoringInstance:
    graph: Graph
    C: int
    lists: tuple
    psi: tuple | None = None

    def __post_init__(self):
        g = self.graph
        if len(self.lists) != g.n:
            raise ValidationError("need one color list per node")
        # sizes before C: empty lists derive C = 0, but they are at fault
        for v, lst in enumerate(self.lists):
            if len(lst) < g.deg(v) + 1:
                raise ValidationError(
                    f"node {v}: list size {len(lst)} < deg+1 = {g.deg(v) + 1}"
                )
        if self.C < 1:
            raise ValidationError("palette size C must be positive")
        for v, lst in enumerate(self.lists):
            if any(lst[i] >= lst[i + 1] for i in range(len(lst) - 1)):
                raise ValidationError(f"node {v}: list not strictly ascending")
            if lst[0] < 0 or lst[-1] >= self.C:
                raise ValidationError(f"node {v}: colors outside 0..{self.C - 1}")
        if self.psi is not None:
            check_coloring(g, self.psi, "psi")

    @property
    def psi_range(self) -> int | None:
        return None if self.psi is None else max(self.psi) + 1


@dataclass
class PartialColoring:
    """Per-node colors; None marks a node not yet colored."""

    colors: list = field(default_factory=list)

    def colored(self):
        return [v for v, c in enumerate(self.colors) if c is not None]

    @property
    def total(self) -> bool:
        return all(c is not None for c in self.colors)


@dataclass
class ColoringReport:
    monochromatic: list
    out_of_list: list
    uncolored: list

    @property
    def ok(self) -> bool:
        return not (self.monochromatic or self.out_of_list or self.uncolored)


def attach_default_lists(graph: Graph) -> ListColoringInstance:
    """Give node v the list {0..deg(v)} with palette C = max_degree + 1."""
    return ListColoringInstance(
        graph=graph,
        C=graph.max_degree + 1,
        lists=tuple(tuple(range(graph.deg(v) + 1)) for v in range(graph.n)),
    )


_JSON_TYPES = {
    dict: "an object", list: "an array", str: "a string", int: "an integer",
    float: "a number", bool: "a boolean", type(None): "null",
}


def _typed(x, kind: type, what: str):
    """x, if json.load gave it type `kind`; a bool is not an integer."""
    if type(x) is not kind:
        raise ValidationError(
            f"{what} must be {_JSON_TYPES[kind]}, not {_JSON_TYPES[type(x)]}"
        )
    return x


def _entry(obj: dict, key: str, kind: type, where: str = ""):
    """obj[key] checked by _typed; a missing key is named, not a KeyError."""
    if key not in obj:
        raise ValidationError(f"{where}missing key {key!r}")
    return _typed(obj[key], kind, where + key)


def _known_keys(obj: dict, allowed, what: str) -> None:
    """Raise, after `what`, the first key of obj outside `allowed`."""
    extra = next((key for key in obj if key not in allowed), None)
    if extra is not None:
        raise ValidationError(f"{what} {extra!r}")


def _node_ids(raw: dict, n: int, what: str) -> dict:
    """raw, once every key of it names a node "0" .. str(n - 1)."""
    ids = {str(v) for v in range(n)}
    for key in raw:
        if key not in ids:
            raise ValidationError(f"{what}: {key!r} is not a node id in 0..{n - 1}")
    return raw


def _int_pair(e, what: str) -> tuple:
    """An array of two integers, as a tuple."""
    if len(_typed(e, list, what)) != 2:
        raise ValidationError(f"{what} must have two endpoints")
    return tuple(_typed(x, int, f"{what} endpoint") for x in e)


def load_instance(path) -> ListColoringInstance:
    with open(path) as fh:
        payload = _typed(json.load(fh), dict, "an instance file")
    _known_keys(payload, ("n", "edges", "lists", "C", "psi"), "an instance file takes no key")
    edges = _entry(payload, "edges", list)
    edges = [_int_pair(e, f"edge {i}") for i, e in enumerate(edges)]
    graph = Graph.from_edges(_entry(payload, "n", int), edges)
    psi = None
    if "psi" in payload:
        raw = _node_ids(_typed(payload["psi"], dict, "psi"), graph.n, "psi")
        psi = tuple(
            _typed(raw.get(str(v)), int, f"psi of node {v}") for v in range(graph.n)
        )
    if "lists" not in payload:
        base = attach_default_lists(graph)
        C = _typed(payload.get("C", base.C), int, "C")
        if C < base.C:
            raise ValidationError(f"C={C} too small for default lists (need {base.C})")
        return ListColoringInstance(graph=graph, C=C, lists=base.lists, psi=psi)
    raw = _node_ids(_typed(payload["lists"], dict, "lists"), graph.n, "lists")
    lists = []
    for v in range(graph.n):
        if str(v) not in raw:
            raise ValidationError(f"node {v}: missing color list")
        colors = _typed(raw[str(v)], list, f"node {v}: color list")
        lists.append(tuple(sorted({_typed(c, int, f"node {v}: color") for c in colors})))
    # no list at all derives C = 1, as attach_default_lists does
    C = payload.get("C", max((l[-1] for l in lists if l), default=0) + 1)
    C = _typed(C, int, "C")
    return ListColoringInstance(graph=graph, C=C, lists=tuple(lists), psi=psi)


def save_coloring(path, coloring: PartialColoring) -> None:
    payload = {
        "n": len(coloring.colors),
        "colors": {str(v): c for v, c in enumerate(coloring.colors)},
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_coloring(path) -> PartialColoring:
    with open(path) as fh:
        payload = _typed(json.load(fh), dict, "a coloring file")
    n = _entry(payload, "n", int)
    if n < 0:
        raise ValidationError(f"node count must be nonnegative, got n={n}")
    raw = _node_ids(_entry(payload, "colors", dict), n, "colors")
    colors = [raw.get(str(v)) for v in range(n)]
    return PartialColoring([
        None if c is None else _typed(c, int, f"color of node {v}")
        for v, c in enumerate(colors)
    ])


def _param(kind: str, params: dict, key: str):
    """params[key] of a `kind` generator: p a probability, else an integer."""
    if key not in params:
        raise ValidationError(f"{kind} graph needs parameter {key!r}")
    x = params[key]
    if key == "p":
        if type(x) in (int, float) and 0 <= x <= 1:
            return x
        raise ValidationError(f"{kind} graph: p={x!r} is not a probability in [0, 1]")
    if type(x) is float and x.is_integer():
        x = int(x)
    if type(x) is not int:
        raise ValidationError(f"{kind} graph: {key}={x!r} is not an integer")
    return x


# the parameters each generator kind takes
_GEN_KEYS = dict.fromkeys(("path", "cycle", "star", "clique"), {"n"}) | {
    "gnp": {"n", "p"},
    "regular": {"n", "d"},
}


def generate_graph(kind: str, params: dict, rng_seed: int | None = None) -> Graph:
    if kind not in _GEN_KEYS:
        raise ValidationError(f"unknown graph kind {kind!r}")
    _known_keys(params, _GEN_KEYS[kind], f"{kind} graph takes no parameter")
    n = _param(kind, params, "n")
    if kind == "path":
        return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
    if kind == "cycle":
        if n < 3:
            raise ValidationError("cycle needs n >= 3")
        return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])
    if kind == "star":
        return Graph.from_edges(n, [(0, i) for i in range(1, n)])
    if kind == "clique":
        return Graph.from_edges(
            n, [(i, j) for i in range(n) for j in range(i + 1, n)]
        )
    if kind == "gnp":
        p = _param(kind, params, "p")
        rng = random.Random(rng_seed)
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < p
        ]
        return Graph.from_edges(n, edges)
    return _random_regular(n, _param(kind, params, "d"), random.Random(rng_seed))


def _random_regular(n: int, d: int, rng: random.Random) -> Graph:
    """Stub matching with local edge swaps to clear loops and duplicates."""
    if d < 0 or d >= max(n, 1) or (n * d) % 2:  # the empty graph is 0-regular
        raise ValidationError(f"no {d}-regular simple graph on {n} nodes")
    stubs = [v for v in range(n) for _ in range(d)]
    for _ in range(64):
        rng.shuffle(stubs)
        edges = [
            tuple(sorted(stubs[i : i + 2])) for i in range(0, len(stubs), 2)
        ]
        if _repair_matching(edges, rng):
            return Graph.from_edges(n, edges)
    raise ValidationError(f"failed to sample a {d}-regular graph on {n} nodes")


def _repair_matching(edges: list, rng: random.Random) -> bool:
    # multiplicity and positions of every edge value, and the values that
    # are loops or repeated, kept current across swaps instead of rescanned
    count = Counter(edges)
    where = defaultdict(set)
    for i, e in enumerate(edges):
        where[e].add(i)
    bad = {e for e, k in count.items() if e[0] == e[1] or k > 1}

    def place(i, e, step):  # step +1 puts value e at index i, -1 takes it out
        count[e] += step
        (where[e].add if step > 0 else where[e].discard)(i)
        if count[e] > 1 or (count[e] and e[0] == e[1]):
            bad.add(e)
        else:
            bad.discard(e)

    for _ in range(40 * len(edges) + 40):
        if not bad:
            return True
        bad_indices = sorted(i for e in bad for i in where[e])
        i = bad_indices[rng.randrange(len(bad_indices))]
        j = rng.randrange(len(edges))
        if i == j:
            continue
        (a, b), (c, e) = old = edges[i], edges[j]
        # cross the two edges; keep the swap only if both halves are clean
        new1, new2 = tuple(sorted((a, c))), tuple(sorted((b, e)))
        if a == c or b == e:
            continue
        # an edge still present once edges[i] and edges[j] are gone
        if any(count[x] and x not in old for x in (new1, new2)) or new1 == new2:
            continue
        place(i, edges[i], -1)
        place(j, edges[j], -1)
        edges[i], edges[j] = new1, new2
        place(i, new1, 1)
        place(j, new2, 1)
    return not bad


def verify_coloring(
    instance: ListColoringInstance,
    coloring: PartialColoring,
    require_total: bool = True,
) -> ColoringReport:
    colors = coloring.colors
    if len(colors) != instance.graph.n:
        raise ValidationError("coloring length does not match node count")
    mono = [
        (u, v)
        for u, v in instance.graph.edge_list
        if colors[u] is not None and colors[u] == colors[v]
    ]
    out = [
        v
        for v, c in enumerate(colors)
        if c is not None and c not in set(instance.lists[v])
    ]
    uncolored = (
        [v for v, c in enumerate(colors) if c is None] if require_total else []
    )
    return ColoringReport(monochromatic=mono, out_of_list=out, uncolored=uncolored)


def restrict(
    instance: ListColoringInstance, nodes, colors
) -> ListColoringInstance:
    """The instance induced on `nodes`, minus colors of colored neighbors.

    Kept nodes are renumbered densely in ascending id order, so the
    caller can merge results back via the sorted node list.  Slack is
    preserved when no kept node is colored: every deleted list entry is
    matched by a deleted incident edge.
    """
    g = instance.graph
    kept = sorted(nodes)
    index = {v: i for i, v in enumerate(kept)}
    edges = [
        (i, index[u])
        for i, v in enumerate(kept)
        for u in g.adj[v]
        if u > v and u in index
    ]
    sub = Graph.from_edges(len(kept), edges)
    lists = []
    for v in kept:
        banned = {colors[u] for u in g.adj[v] if colors[u] is not None}
        lists.append(tuple(c for c in instance.lists[v] if c not in banned))
    check(
        all(len(lst) >= sub.deg(i) + 1 for i, lst in enumerate(lists)),
        "restriction lost the deg+1 slack",
    )
    return ListColoringInstance(graph=sub, C=instance.C, lists=tuple(lists))


def residual_instance(
    instance: ListColoringInstance, partial: PartialColoring
) -> ListColoringInstance:
    """Restrict to the uncolored nodes of a valid partial coloring."""
    report = verify_coloring(instance, partial, require_total=False)
    if not report.ok:
        raise ValidationError("partial coloring is not valid on its colored part")
    kept = [v for v, c in enumerate(partial.colors) if c is None]
    return restrict(instance, kept, partial.colors)
