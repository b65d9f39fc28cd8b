"""Acceptance checks, one test per numbered criterion.

Criterion 1 runs the whole graph suite (all four mode x kmode combos,
strict bandwidth) once in a session fixture; criteria 2, 3, 6, 7 and 8
re-read the reports it collected.  The rest build their own inputs.
Every test ends by printing one `criterion N: PASS` line (visible with
pytest -s); a failed assert is the corresponding FAIL.
"""

import itertools
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from congestcolor import pipeline
from congestcolor.coins import (
    hash_eval,
    make_family,
    seed_from_int,
    threshold,
)
from congestcolor.decomposition import (
    Cluster,
    NetworkDecomposition,
    color_with_decomposition,
    generate_decomposition,
    validate_decomposition,
)
from congestcolor.derand import (
    SeedPrefix,
    build_level_context,
    exhaustive_seed,
    fix_level,
    joint_outcome_prob,
)
from congestcolor.graphs import (
    Graph,
    ListColoringInstance,
    attach_default_lists,
    generate_graph,
    verify_coloring,
)
from congestcolor.linial import (
    linial_fixpoint,
    linial_params,
    linial_reduce,
    log_star,
    mis_by_colors,
)
from congestcolor.pipeline import list_color_full
from congestcolor.prefixes import apply_bits, init_state, phi_sum
from congestcolor.sim import (
    AGGREGATION,
    ALGORITHM,
    BandwidthPolicy,
    CommPlan,
    build_bfs_forest,
)
from oracles import RecordingPlan, bit_chains, coin_eval, make_coin


def ceil_div(a, b):
    return -(-a // b)


def ceil_log2(x):
    return (max(1, x) - 1).bit_length()


def suite_specs():
    specs = [(f"path-{n}", "path", {"n": n}) for n in range(2, 65)]
    specs += [(f"cycle-{n}", "cycle", {"n": n}) for n in range(3, 65)]
    specs += [(f"clique-{n}", "clique", {"n": n}) for n in range(2, 17)]
    specs += [(f"star-{n}", "star", {"n": n}) for n in (3, 8, 17, 64)]
    specs.append(("regular-256", "regular", {"n": 256, "d": 8}))
    specs.append(("gnp-200", "gnp", {"n": 200, "p": 0.05}))
    return specs


@pytest.fixture(scope="session")
def suite_runs():
    policy = BandwidthPolicy.parse("strict:8")
    runs = []
    levels = []  # (family, forest, seed-bit root sums, LevelReport) per level

    def recorded_level(ctx, state, comm, **kwargs):
        start = len(comm.sums)
        state, rep = fix_level(ctx, state, comm, **kwargs)
        levels.append((ctx.fam, comm.forest, comm.sums[start:], rep))
        return state, rep

    start = time.perf_counter()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "CommPlan", RecordingPlan)
        mp.setattr(pipeline, "fix_level", recorded_level)
        for label, kind, params in suite_specs():
            inst = attach_default_lists(generate_graph(kind, params, 0))
            for mode in ("mis", "avoid-mis"):
                for kmode in ("linial", "ids"):
                    coloring, reports = list_color_full(inst, mode, kmode, policy=policy)
                    runs.append(
                        {
                            "label": label,
                            "instance": inst,
                            "mode": mode,
                            "kmode": kmode,
                            "coloring": coloring,
                            "reports": reports,
                        }
                    )
    return {"runs": runs, "levels": levels, "elapsed": time.perf_counter() - start}


def test_criterion_01_validity_on_full_suite(suite_runs):
    runs = suite_runs["runs"]
    assert len(runs) == len(suite_specs()) * 4
    for run in runs:
        report = verify_coloring(run["instance"], run["coloring"])
        assert report.ok, f"{run['label']} {run['mode']}/{run['kmode']}: {report}"
    assert suite_runs["elapsed"] < 600, f"suite took {suite_runs['elapsed']:.0f}s"
    print(
        f"criterion 1 (validity): PASS, {len(runs)} runs valid and total "
        f"in {suite_runs['elapsed']:.1f}s"
    )


def test_criterion_02_fraction_colored_per_phase(suite_runs):
    phases = 0
    for run in suite_runs["runs"]:
        denom = 8 if run["mode"] == "mis" else 4
        for rep in run["reports"]:
            assert rep.nodes_colored >= ceil_div(rep.nodes_at_start, denom), (
                f"{run['label']} {run['mode']}: {rep.nodes_colored} of "
                f"{rep.nodes_at_start}"
            )
            phases += 1
    print(f"criterion 2 (phase fraction): PASS, {phases} phases checked")


def test_criterion_03_potential_inequality_per_level(suite_runs):
    levels = 0
    for run in suite_runs["runs"]:
        width = (run["instance"].C - 1).bit_length()
        assert width >= 1
        for rep in run["reports"]:
            n = rep.nodes_at_start
            budget = Fraction(n, width)
            assert rep.phi_trace[0] == rep.levels[0].phi_before
            for i, lvl in enumerate(rep.levels, start=1):
                assert isinstance(rep.phi_trace[i], Fraction)
                assert rep.phi_trace[i] == lvl.phi_after
                assert rep.phi_trace[i] <= rep.phi_trace[i - 1] + budget
                levels += 1
            if run["mode"] == "mis":
                assert rep.phi_trace[-1] <= 2 * n
            else:
                assert rep.phi_trace[-1] < n
    print(f"criterion 3 (potential inequality): PASS, {levels} levels exact")


def test_criterion_04_coin_laws_by_enumeration():
    for m in range(1, 7):
        fam = make_family(1 << m, m)
        assert (fam.m, fam.b, fam.seed_bits) == (m, m, 2 * m)
        seeds = [seed_from_int(fam, w) for w in range(1 << (2 * m))]
        h = np.array(
            [[hash_eval(fam, s, x) for s in seeds] for x in range(1 << m)]
        )
        # every hash value is hit the same number of times, so for every
        # threshold t the marginal is exactly t / 2^b
        for x in range(1 << m):
            assert (np.bincount(h[x], minlength=1 << m) == 1 << m).all()
        for p in (Fraction(1, 3), Fraction(2, 5), Fraction(5, 8), Fraction(1)):
            t = threshold(p, fam.b)
            assert t == ceil_div(p.numerator << fam.b, p.denominator)
            for x in (0, (1 << m) - 1, 1 << (m - 1)):
                ones = int((h[x] < t).sum())
                assert Fraction(ones, 1 << (2 * m)) == Fraction(t, 1 << fam.b)
        # joint values of any two distinct colors are uniform on pairs,
        # which is pairwise independence at every threshold at once
        for x in range(1 << m):
            for y in range(x + 1, 1 << m):
                joint = h[x].astype(np.int64) * (1 << m) + h[y]
                assert (np.bincount(joint, minlength=1 << (2 * m)) == 1).all()
        coin_u = make_coin(fam, 0, Fraction(1, 3))
        coin_v = make_coin(fam, (1 << m) - 1, Fraction(2, 5))
        both = sum(
            coin_eval(fam, s, coin_u) * coin_eval(fam, s, coin_v) for s in seeds
        )
        assert Fraction(both, 1 << (2 * m)) == Fraction(
            threshold(Fraction(1, 3), m) * threshold(Fraction(2, 5), m), 1 << (2 * m)
        )
    print("criterion 4 (coin laws): PASS, m=1..6 fully enumerated")


def _connected_instance(rng, n, C, cap=3):
    deg = [0] * n
    edges = [(v - 1, v) for v in range(1, n)]
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    extra = [(u, v) for u in range(n) for v in range(u + 2, n)]
    rng.shuffle(extra)
    for u, v in extra:
        if deg[u] < cap and deg[v] < cap and rng.random() < 0.4:
            edges.append((u, v))
            deg[u] += 1
            deg[v] += 1
    lists = tuple(
        tuple(sorted(rng.sample(range(C), deg[v] + 1))) for v in range(n)
    )
    return ListColoringInstance(
        graph=Graph.from_edges(n, edges), C=C, lists=lists, psi=tuple(range(n))
    )


def _hash_rows(fam, ctx, nodes, cache):
    for v in nodes:
        if v not in cache:
            cache[v] = np.array(
                [
                    hash_eval(fam, seed_from_int(fam, w), ctx.ints.x[v])
                    for w in range(1 << fam.seed_bits)
                ]
            )
    return cache


def test_criterion_05_estimator_matches_brute_force():
    rng = random.Random(11)
    cases = 0
    for idx in range(30):
        n = rng.randrange(5, 10)
        C = rng.choice((4, 4, 8))
        inst = _connected_instance(rng, n, C)
        fam = make_family(n, 6)
        assert fam.seed_bits <= 16
        words = np.arange(1 << fam.seed_bits)
        state = init_state(inst)
        for _ in range(state.W):
            ctx = build_level_context(fam, state)
            cache = {}
            if len(ctx.edges):
                for _ in range(15):
                    u, v = ctx.ints.edges[rng.randrange(len(ctx.edges))]
                    bits = tuple(
                        rng.randrange(2)
                        for _ in range(rng.randrange(fam.seed_bits + 1))
                    )
                    prefix = SeedPrefix(bits)
                    got = joint_outcome_prob(ctx, (u, v), prefix)
                    base = sum(b << i for i, b in enumerate(bits))
                    _hash_rows(fam, ctx, (u, v), cache)
                    sel = (words & ((1 << len(bits)) - 1)) == base
                    cu = cache[u][sel] < ctx.ints.t[u]
                    cv = cache[v][sel] < ctx.ints.t[v]
                    total = int(sel.sum())
                    want = (
                        Fraction(int(np.count_nonzero(cu & cv)), total),
                        Fraction(int(np.count_nonzero(~cu & ~cv)), total),
                    )
                    assert got == want, f"edge ({u}, {v}) prefix {bits}"
                    cases += 1
            word = rng.randrange(1 << fam.seed_bits)
            seed = seed_from_int(fam, word)
            coin_bits = [
                1 if hash_eval(fam, seed, ctx.ints.x[v]) < ctx.ints.t[v] else 0
                for v in range(n)
            ]
            state = apply_bits(state, coin_bits)
    assert cases >= 1000

    # the greedy level fixer lands between the exhaustive optimum and the
    # expectation-plus-rounding bound
    levels = 0
    for idx in range(12):
        n = rng.randrange(5, 11)
        inst = _connected_instance(rng, n, rng.choice((4, 6)))
        fam = make_family(n, 6)
        forest, _ = build_bfs_forest(inst.graph)
        comm = CommPlan(inst.graph, forest)
        state = init_state(inst)
        delta = inst.graph.max_degree
        for _ in range(state.W):
            ctx = build_level_context(fam, state)
            _, best = exhaustive_seed(ctx, state)
            before = phi_sum(state)
            state, rep = fix_level(ctx, state, comm)
            assert best <= rep.phi_after <= before + Fraction(
                10 * delta * n, 1 << fam.b
            )
            levels += 1
    print(
        f"criterion 5 (estimator oracle): PASS, {cases} joint cases and "
        f"{levels} levels vs exhaustive search"
    )


def test_criterion_06_good_bit_chain(suite_runs):
    # each level's seed-bit root sums, read back from a recording CommPlan
    levels = suite_runs["levels"]
    reports = [
        lvl for run in suite_runs["runs"] for rep in run["reports"] for lvl in rep.levels
    ]
    assert [lvl for *_, lvl in levels] == reports
    decisions = 0
    for fam, forest, sums, lvl in levels:
        chains = bit_chains(fam, forest, sums, lvl.roots)
        for root, rec in lvl.roots.items():
            chain = chains[root]
            assert len(chain) == fam.m + fam.b, "conditional runs must record every bit"
            (s0, s1, _), *_ = chain
            prev = (s0 + s1) / 2  # the expectation before any bit is fixed
            for s0, s1, bit in chain:
                assert (s0 + s1) / 2 == prev
                chosen = s1 if bit else s0
                assert chosen == min(s0, s1)
                assert chosen <= prev
                prev = chosen
                decisions += 1
            assert rec.phi_after == prev
    assert decisions > 10000
    print(f"criterion 6 (good-bit chain): PASS, {decisions} decisions exact")


def _phase_bound(n, num, den):
    t, hi, lo = 0, 1, 1
    while hi < n * lo:
        t += 1
        hi *= num
        lo *= den
    return t + 1


def test_criterion_07_round_accounting(suite_runs):
    for run in suite_runs["runs"]:
        graph = run["instance"].graph
        reports = run["reports"]
        for rep in reports:
            cap = 1 + rep.seed_bits * (2 * rep.depth + 2)
            for lvl in rep.levels:
                assert lvl.rounds <= cap, f"{run['label']}: {lvl.rounds} > {cap}"
        num, den = (8, 7) if run["mode"] == "mis" else (4, 3)
        assert len(reports) <= _phase_bound(graph.n, num, den)
        width = (run["instance"].C - 1).bit_length()
        k_start = max(rep.k_classes for rep in reports)
        term = ceil_log2(k_start) + ceil_log2(graph.max_degree) + ceil_log2(width)
        budget = 64 * max(1, graph.diameter) * width * term * len(reports)
        total = sum(rep.rounds for rep in reports)
        assert total <= budget, f"{run['label']} {run['mode']}: {total} > {budget}"
    print("criterion 7 (round accounting): PASS on every suite run")


def test_criterion_08_strict_bandwidth(suite_runs):
    agg_max = 0
    for run in suite_runs["runs"]:
        limit = 8 * max(1, (run["instance"].graph.n - 1).bit_length())
        for rep in run["reports"]:
            assert rep.stats.max_bits_by_category.get(ALGORITHM, 0) <= limit
            agg_max = max(agg_max, rep.stats.max_bits_by_category.get(AGGREGATION, 0))
    assert agg_max > 0
    print(
        "criterion 8 (bandwidth): PASS, algorithm messages within strict:8; "
        f"largest aggregation message {agg_max} bits (measured, exempt)"
    )


def _bounded_graph(rng, n, cap):
    deg = [0] * n
    edges = []
    cand = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(cand)
    for u, v in cand:
        if deg[u] < cap and deg[v] < cap and rng.random() < 0.6:
            edges.append((u, v))
            deg[u] += 1
            deg[v] += 1
    return Graph.from_edges(n, edges)


def _greedy_colors(g):
    colors = [0] * g.n
    for v in range(g.n):
        used = {colors[u] for u in g.adj[v] if u < v}
        c = 0
        while c in used:
            c += 1
        colors[v] = c
    return colors


def test_criterion_09_mis_and_linial():
    rng = random.Random(5)
    for i in range(10 * 1000):
        n = rng.randrange(4, 15)
        g = _bounded_graph(rng, n, rng.choice((2, 3, 3, 3, 5)))
        mis, _ = mis_by_colors(g, _greedy_colors(g))
        inside = set(mis)
        assert all(not (u in inside and v in inside) for u, v in g.edge_list)
        assert all(
            v in inside or any(u in inside for u in g.adj[v]) for v in range(n)
        )
        if g.max_degree <= 3:
            assert 4 * len(mis) >= n
    reduced = 0
    for i in range(1500):
        n = rng.randrange(2, 90)
        g = _bounded_graph(rng, n, rng.randrange(1, 6))
        out, _ = linial_reduce(g)
        assert len(out) == n
        assert all(out[u] != out[v] for u, v in g.edge_list)
        assert all(c >= 0 for c in out)
        assert max(out) + 1 <= linial_fixpoint(n, g.max_degree)
        steps, K = 0, n
        while K >= 2:
            p = linial_params(K, g.max_degree)
            if p.q * p.q >= K:
                break
            steps += 1
            K = p.q * p.q
        assert steps <= log_star(n) + 4
        reduced += 1
    print(f"criterion 9 (MIS and reduction): PASS, 10000 MIS + {reduced} reductions")


def test_criterion_10_decomposition():
    path3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    uncovered = NetworkDecomposition(
        clusters=(Cluster(0, 1, (0, 1, 2), ((0, 1),)),), alpha=1, beta=4, kappa=1
    )
    shallow = NetworkDecomposition(
        clusters=(Cluster(0, 1, (0, 1, 2), ((0, 1), (1, 2))),),
        alpha=1,
        beta=1,
        kappa=1,
    )
    path2 = Graph.from_edges(2, [(0, 1)])
    touching = NetworkDecomposition(
        clusters=(Cluster(0, 1, (0,), ()), Cluster(1, 1, (1,), ())),
        alpha=1,
        beta=0,
        kappa=1,
    )
    path4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    overloaded = NetworkDecomposition(
        clusters=(
            Cluster(0, 1, (0,), ((0, 1),)),
            Cluster(1, 1, (3,), ((0, 1), (1, 2), (2, 3))),
            Cluster(2, 2, (1,), ()),
            Cluster(3, 3, (2,), ()),
        ),
        alpha=3,
        beta=3,
        kappa=1,
    )
    seeded = [
        (path3, uncovered, "coverage:"),
        (path3, shallow, "diameter:"),
        (path2, touching, "adjacency:"),
        (path4, overloaded, "congestion:"),
    ]
    for g, decomp, kind in seeded:
        errors = validate_decomposition(g, decomp)
        assert errors and all(e.startswith(kind) for e in errors), (kind, errors)

    for label, kindname, params in suite_specs():
        g = generate_graph(kindname, params, 0)
        decomp = generate_decomposition(g)
        assert validate_decomposition(g, decomp) == [], label
        bound = 4 * max(1, (g.n - 1).bit_length())
        assert decomp.alpha <= bound and decomp.beta <= bound, label
        coloring, comp = color_with_decomposition(attach_default_lists(g), decomp)
        assert verify_coloring(attach_default_lists(g), coloring).ok, label
        assert comp.kappa <= decomp.kappa
    print(
        "criterion 10 (decomposition): PASS, 4 seeded violations flagged, "
        f"{len(suite_specs())} generated decompositions clean and composed"
    )


def test_criterion_11_small_instances_match_brute_force():
    checked = 0
    for n in range(1, 5):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            deg = [0] * n
            for u, v in edges:
                deg[u] += 1
                deg[v] += 1
            for C in range(max(deg, default=0) + 1, 5):
                per_node = [
                    list(itertools.combinations(range(C), deg[v] + 1))
                    for v in range(n)
                ]
                for lists in itertools.product(*per_node):
                    inst = ListColoringInstance(
                        graph=Graph.from_edges(n, edges), C=C, lists=lists
                    )
                    valid = {
                        combo
                        for combo in itertools.product(*lists)
                        if all(combo[u] != combo[v] for u, v in edges)
                    }
                    assert valid, "degree+1 lists always admit a coloring"
                    coloring, _ = list_color_full(inst)
                    assert tuple(coloring.colors) in valid, (edges, lists)
                    checked += 1
    assert checked > 25000
    print(f"criterion 11 (small-n exactness): PASS, {checked} instances")
