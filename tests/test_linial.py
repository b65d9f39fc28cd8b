import json
import random
import time
from bisect import bisect_right
from pathlib import Path

import pytest

from congestcolor.graphs import Graph, ValidationError, generate_graph
from congestcolor.linial import (
    PolyParams,
    linial_fixpoint,
    linial_params,
    linial_reduce,
    log_star,
    mis_by_colors,
)


# ---------------------------------------------------------------------------
# oracles

def slow_prime(x):
    return x >= 2 and all(x % f for f in range(2, int(x**0.5) + 1))


def smallest_valid_q(K, delta, d):
    q = max(d * delta + 1, 2)
    while not (slow_prime(q) and q ** (d + 1) >= K):
        q += 1
    return q


def check_proper(g, colors):
    for v in range(g.n):
        assert colors[v] >= 0
    for u, v in g.edge_list:
        assert colors[u] != colors[v], (u, v)


def min_free_coloring(g, rng):
    order = list(range(g.n))
    rng.shuffle(order)
    colors = [None] * g.n
    for v in order:
        used = {colors[u] for u in g.adj[v] if colors[u] is not None}
        c = 0
        while c in used:
            c += 1
        colors[v] = c
    return colors


def check_mis(g, mis):
    inside = set(mis)
    for u, v in g.edge_list:
        assert not (u in inside and v in inside), "not independent"
    for v in range(g.n):
        if v not in inside:
            assert any(u in inside for u in g.adj[v]), f"node {v} not dominated"


# ---------------------------------------------------------------------------
# parameter selection

def test_params_worked_example():
    assert linial_params(16, 3) == PolyParams(q=5, d=1)


def test_params_big_instance_invariants():
    p = linial_params(2**20, 4)
    assert slow_prime(p.q)
    assert p.q > 4 * p.d
    assert p.q ** (p.d + 1) >= 2**20


def test_params_no_neighbor_constraint():
    assert linial_params(4, 0) == PolyParams(q=2, d=1)
    # with more colors a higher degree wins outright
    assert linial_params(16, 0) == PolyParams(q=2, d=3)


def test_params_rejects_trivial_space():
    with pytest.raises(ValueError):
        linial_params(1, 3)


def test_params_minimize_q_squared():
    rng = random.Random(7)
    for _ in range(200):
        K = rng.randrange(2, 5000)
        delta = rng.randrange(0, 12)
        p = linial_params(K, delta)
        assert slow_prime(p.q)
        assert p.q > delta * p.d
        assert p.q ** (p.d + 1) >= K
        assert p.q == smallest_valid_q(K, delta, p.d)
        # no degree in a generous scan does strictly better, and ties
        # resolve toward the smaller degree
        for d in range(1, p.d + 6):
            q_alt = smallest_valid_q(K, delta, d)
            assert q_alt * q_alt >= p.q * p.q
            if q_alt * q_alt == p.q * p.q:
                assert p.d <= d


def test_params_match_recorded_grid():
    # (q, d) recorded from the float-root implementation this one replaced,
    # on every K < 3000 and on 20 random K of each bit length 12..63; the
    # file holds, per delta, the first grid K of each run of equal output
    data = json.loads((Path(__file__).parent / "data" / "linial_params.json").read_text())
    rng = random.Random(15)
    drawn = {rng.getrandbits(b - 1) | (1 << (b - 1)) for b in range(12, 64) for _ in range(20)}
    grid = sorted(set(range(2, 3000)) | drawn)
    assert len(grid) == 4029
    for delta, runs in data.items():
        firsts = [K for K, _, _ in runs]
        for K in grid:
            _, q, d = runs[bisect_right(firsts, K) - 1]
            assert linial_params(K, int(delta)) == PolyParams(q=q, d=d), (K, delta)


@pytest.mark.parametrize("bits", [100, 238, 1329])
def test_params_huge_start_coloring_is_fast(bits):
    K = 1 << (bits - 1)
    start = time.perf_counter()
    p = linial_params(K, 3)
    assert time.perf_counter() - start < 1
    assert p.q ** (p.d + 1) >= K and p.q > 3 * p.d and slow_prime(p.q)
    assert p.q == smallest_valid_q(K, 3, p.d)


def test_fixpoints():
    assert linial_fixpoint(2**20, 2) == 25
    assert linial_fixpoint(10**6, 3) == 49
    assert linial_fixpoint(2**20, 8) == 289
    for K, delta in ((2**20, 2), (10**6, 3), (2**20, 8), (2**20, 20), (200, 20)):
        fp = linial_fixpoint(K, delta)
        assert fp <= K
        p = linial_params(fp, delta)
        assert p.q * p.q >= fp  # no step improves past the fixpoint


def test_log_star():
    assert [log_star(v) for v in (1, 2, 4, 16, 65536, 2**20)] == [0, 1, 2, 3, 4, 5]
    assert log_star(64) == 4


# ---------------------------------------------------------------------------
# full reduction

def test_reduce_clique_needs_all_colors():
    g = generate_graph("clique", {"n": 4})
    colors, stats = linial_reduce(g)
    check_proper(g, colors)
    assert len(set(colors)) == 4


def test_reduce_path64():
    g = generate_graph("path", {"n": 64})
    colors, stats = linial_reduce(g)
    check_proper(g, colors)
    assert max(colors) < 49
    assert stats.rounds <= 5


def test_reduce_fixpoint_input_unchanged():
    g = generate_graph("path", {"n": 3})
    colors, stats = linial_reduce(g, [0, 1, 2])
    assert colors == [0, 1, 2]
    assert stats.rounds == 0


def test_reduce_rejects_improper_input():
    g = generate_graph("path", {"n": 2})
    with pytest.raises(ValueError, match="proper"):
        linial_reduce(g, [1, 1])


def test_reduce_keeps_properness_from_a_given_coloring():
    # distinct colors from a wide range, so the schedule has steps to run
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randrange(2, 13)
        g = generate_graph("gnp", {"n": n, "p": 0.4}, rng_seed=rng.randrange(10**6))
        colors = rng.sample(range(10**4), n)
        out, stats = linial_reduce(g, colors)
        check_proper(g, out)
        assert max(out) < linial_fixpoint(max(colors) + 1, g.max_degree)
        assert (stats.rounds > 0) == bool(g.edge_list)


def test_reduce_random_graphs():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randrange(2, 40)
        g = generate_graph("gnp", {"n": n, "p": 0.25}, rng_seed=rng.randrange(10**6))
        colors, stats = linial_reduce(g)
        check_proper(g, colors)
        assert max(colors) < linial_fixpoint(n, g.max_degree)
        assert stats.rounds <= log_star(n) + 4


# ---------------------------------------------------------------------------
# MIS by color classes

def test_mis_edgeless_takes_everyone():
    g = Graph.from_edges(5, [])
    mis, stats = mis_by_colors(g, [0] * 5)
    assert mis == (0, 1, 2, 3, 4)
    assert stats.rounds == 0


def test_mis_path3():
    g = generate_graph("path", {"n": 3})
    mis, stats = mis_by_colors(g, [0, 1, 0])
    assert mis == (0, 2)
    assert stats.rounds == 1


def test_mis_clique_picks_one():
    g = generate_graph("clique", {"n": 4})
    mis, stats = mis_by_colors(g, [0, 1, 2, 3])
    assert mis == (0,)


def test_mis_star_leaves():
    g = generate_graph("star", {"n": 5})
    mis, stats = mis_by_colors(g, [1, 0, 0, 0, 0])
    assert mis == (1, 2, 3, 4)


def test_mis_rejects_improper():
    g = generate_graph("path", {"n": 2})
    with pytest.raises(ValueError, match="proper"):
        mis_by_colors(g, [0, 0])


@pytest.mark.parametrize(
    "run, what", [(linial_reduce, "initial coloring"), (mis_by_colors, "conflict coloring")]
)
@pytest.mark.parametrize(
    "colors, message",
    [
        ([0, 1], "^{} must color all 3 nodes$"),
        ([0, -1, 0], "^node 1: negative color in {}$"),
        ([2, 2, 2], r"^edge \(0, 1\): {} must be proper$"),
    ],
)
def test_passes_reject_a_bad_coloring_as_bad_input(run, what, colors, message):
    # both passes take their input through graphs.check_coloring
    g = generate_graph("path", {"n": 3})
    with pytest.raises(ValidationError, match=message.format(what)):
        run(g, colors)


def test_mis_random_graphs():
    rng = random.Random(23)
    for _ in range(120):
        n = rng.randrange(1, 30)
        g = generate_graph("gnp", {"n": n, "p": 0.3}, rng_seed=rng.randrange(10**6))
        colors = min_free_coloring(g, rng)
        mis, stats = mis_by_colors(g, colors)
        check_mis(g, mis)
        assert stats.rounds <= max(colors) + 1


def test_mis_low_degree_size_bound():
    rng = random.Random(29)
    for kind, params in (
        ("cycle", {"n": 12}),
        ("path", {"n": 17}),
        ("regular", {"n": 16, "d": 3}),
        ("regular", {"n": 40, "d": 3}),
    ):
        g = generate_graph(kind, params, rng_seed=5)
        assert g.max_degree <= 3
        colors = min_free_coloring(g, rng)
        mis, _ = mis_by_colors(g, colors)
        check_mis(g, mis)
        assert 4 * len(mis) >= g.n
