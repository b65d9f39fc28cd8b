"""Phase orchestration: color a fraction per phase, finish, repeat."""

import os
import random
import re
import subprocess
import sys
import textwrap
from dataclasses import replace
from fractions import Fraction

import pytest

import congestcolor
from congestcolor import pipeline
from congestcolor.graphs import (
    Graph,
    InvariantError,
    ListColoringInstance,
    PartialColoring,
    ValidationError,
    attach_default_lists,
    generate_graph,
    verify_coloring,
)
from congestcolor.pipeline import color_fraction, list_color_full, trim_lists
from congestcolor.sim import ALGORITHM, BandwidthPolicy, RunStats
from congestcolor.derand import SeedCapError
from oracles import with_psi


def ceil_div(a, b):
    return -(-a // b)


def conflict_graph(inst, candidates):
    """Recompute same-candidate edges and degrees from scratch."""
    edges = [(u, v) for u, v in inst.graph.edge_list if candidates[u] == candidates[v]]
    deg = [0] * inst.graph.n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return edges, deg


def phase_cap(n, num, den):
    """ceil(log_{num/den} n) + 1 via exact integers."""
    t, hi, lo = 0, 1, 1
    while hi < n * lo:
        t += 1
        hi *= num
        lo *= den
    return t + 1


def random_instances(count, seed=0):
    rng = random.Random(seed)
    made = []
    for i in range(count):
        kind = rng.choice(["gnp", "path", "cycle", "star", "regular"])
        if kind == "gnp":
            g = generate_graph("gnp", {"n": rng.randint(6, 16), "p": rng.uniform(0.2, 0.5)}, i)
        elif kind == "path":
            g = generate_graph("path", {"n": rng.randint(4, 14)}, i)
        elif kind == "cycle":
            g = generate_graph("cycle", {"n": rng.randint(3, 12)}, i)
        elif kind == "star":
            g = generate_graph("star", {"n": rng.randint(3, 9)}, i)
        else:
            g = generate_graph("regular", {"n": 2 * rng.randint(3, 7), "d": 3}, i)
        made.append(attach_default_lists(g))
    return made


# trim_lists -----------------------------------------------------------------

def test_trim_keeps_exact_lists():
    inst = attach_default_lists(generate_graph("path", {"n": 4}, 0))
    assert trim_lists(inst).lists == inst.lists


def test_trim_examples():
    g = Graph.from_edges(3, [(0, 1)])
    inst = ListColoringInstance(
        graph=g, C=10, lists=((0, 2, 5, 9), (1, 3, 4), (4, 7))
    )
    t = trim_lists(inst)
    assert t.lists == ((0, 2), (1, 3), (4,))
    assert t.C == 10 and t.graph is g


def test_trim_slack_bound():
    rng = random.Random(7)
    for i in range(25):
        g = generate_graph("gnp", {"n": rng.randint(3, 14), "p": 0.4}, i)
        big = max(5, g.max_degree + 3)
        lists = tuple(
            tuple(sorted(rng.sample(range(big), g.deg(v) + 1 + rng.randint(0, 2))))
            for v in range(g.n)
        )
        inst = ListColoringInstance(graph=g, C=big, lists=lists)
        t = trim_lists(inst)
        for v in range(g.n):
            assert len(t.lists[v]) == g.deg(v) + 1
            assert t.lists[v] == inst.lists[v][: g.deg(v) + 1]
        load = sum(Fraction(g.deg(v), len(t.lists[v])) for v in range(g.n))
        d = g.max_degree
        assert load <= g.n - Fraction(g.n, d + 1)


# color_fraction -------------------------------------------------------------

def test_phase_edgeless():
    g = Graph.from_edges(5, [])
    inst = ListColoringInstance(
        graph=g, C=4, lists=((0, 2), (1,), (3,), (0, 3), (2,)), psi=(0,) * 5
    )
    for mode in ("mis", "avoid-mis"):
        partial, rep = color_fraction(inst, mode)
        assert partial.total
        assert verify_coloring(inst, partial).ok
        assert rep.nodes_colored == 5
        assert all(f == 0 for f in rep.phi_trace)
        assert rep.v_low == (0, 1, 2, 3, 4)


def test_phase_on_the_empty_instance():
    # n = 0 colours nothing, in no round, and reports zero in both modes
    inst = with_psi(attach_default_lists(Graph.from_edges(0, [])))
    for mode in ("mis", "avoid-mis"):
        partial, rep = color_fraction(inst, mode)
        assert partial.colors == []
        assert rep == pipeline.PhaseReport(
            mode=mode, nodes_at_start=0, nodes_colored=0, phi_trace=(0,), v_low=(),
            mis_size=0 if mode == "mis" else None, k_classes=0, seed_bits=0, depth=0,
            levels=(), candidates=(), conflict_edges=(), stats=RunStats(),
        )
        assert list_color_full(inst, mode) == (PartialColoring([]), [])


def test_phase_with_a_63_bit_start_coloring():
    # psi up to 2^63 - 1 gives a = m = 63, the widest field gf2 supports,
    # whose generator table doubles past int64 unless it masks first
    inst = with_psi(attach_default_lists(generate_graph("path", {"n": 4})), (0, 2**63 - 1, 5, 2**62))
    partial, rep = color_fraction(inst, "mis")
    assert rep.k_classes == 2**63 and rep.seed_bits > 63
    assert verify_coloring(inst, partial, require_total=False).ok


def test_phase_triangle():
    g = generate_graph("clique", {"n": 3}, 0)
    inst = ListColoringInstance(
        graph=g, C=4, lists=((0, 1, 2),) * 3, psi=(0, 1, 2)
    )
    for strategy in ("conditional", "exhaustive"):
        partial, rep = color_fraction(inst, "mis", strategy=strategy)
        assert rep.nodes_colored >= 1  # ceil(3/8)
        assert verify_coloring(inst, partial, require_total=False).ok
        assert rep.phi_final <= 6


def test_phase_two_nodes():
    g = Graph.from_edges(2, [(0, 1)])
    inst = ListColoringInstance(graph=g, C=2, lists=((0, 1), (0, 1)), psi=(0, 1))
    partial, rep = color_fraction(inst, "mis")
    got = [c for c in partial.colors if c is not None]
    assert len(got) >= 1
    if len(got) == 2:
        assert got[0] != got[1]
    partial, rep = color_fraction(inst, "avoid-mis")
    assert rep.nodes_colored >= 1


def test_phase_needs_psi():
    inst = attach_default_lists(generate_graph("path", {"n": 3}, 0))
    with pytest.raises(ValidationError, match="psi"):
        color_fraction(inst, "mis")


def test_phase_rejects_unknown_mode():
    inst = with_psi(attach_default_lists(generate_graph("path", {"n": 3}, 0)))
    with pytest.raises(ValueError, match="mode"):
        color_fraction(inst, "greedy")


def test_phase_invariants_mis():
    for inst in random_instances(10, seed=1):
        inst = with_psi(inst)
        n = inst.graph.n
        partial, rep = color_fraction(inst, "mis")
        assert verify_coloring(inst, partial, require_total=False).ok
        assert rep.nodes_at_start == n
        assert rep.nodes_colored >= ceil_div(n, 8)
        assert rep.mis_size == rep.nodes_colored
        W = max(1, (inst.C - 1).bit_length())
        assert len(rep.phi_trace) == (inst.C - 1).bit_length() + 1
        for a, b in zip(rep.phi_trace, rep.phi_trace[1:]):
            assert b <= a + Fraction(n, W)
        assert rep.phi_final <= 2 * n
        edges, deg = conflict_graph(inst, rep.candidates)
        assert sorted(rep.conflict_edges) == sorted(edges)
        assert rep.v_low == tuple(v for v in range(n) if deg[v] < 4)
        assert len(rep.v_low) >= ceil_div(n, 2)
        low = set(rep.v_low)
        for v in low:
            inner = sum(1 for u, w in edges if v in (u, w) and u in low and w in low)
            assert inner <= 3
        # winners form an independent set of the conflict graph
        won = {v for v, c in enumerate(partial.colors) if c is not None}
        assert won <= low
        for u, v in edges:
            assert not (u in won and v in won)
        for v in won:
            assert partial.colors[v] == rep.candidates[v]
            assert partial.colors[v] in inst.lists[v]


def test_phase_invariants_avoid():
    for inst in random_instances(10, seed=2):
        inst = with_psi(inst)
        n = inst.graph.n
        partial, rep = color_fraction(inst, "avoid-mis")
        assert verify_coloring(inst, partial, require_total=False).ok
        assert rep.nodes_colored >= ceil_div(n, 4)
        assert rep.mis_size is None
        assert rep.phi_final < n  # strict
        trimmed = trim_lists(inst)
        for v in range(n):
            assert rep.candidates[v] in trimmed.lists[v]
        edges, deg = conflict_graph(inst, rep.candidates)
        assert rep.v_low == tuple(v for v in range(n) if deg[v] <= 1)
        low = set(rep.v_low)
        assert len(low) >= ceil_div(n, 2)
        # conflict graph restricted to the low set is a matching, and the
        # larger id of each matched pair wins; everyone else in low wins too
        expect = set()
        for v in low:
            mates = [u for u, w in edges if w == v and u in low]
            mates += [w for u, w in edges if u == v and w in low]
            assert len(mates) <= 1
            if not mates or v > mates[0]:
                expect.add(v)
        won = {v for v, c in enumerate(partial.colors) if c is not None}
        assert won == expect


# list_color_full ------------------------------------------------------------

def test_full_path5():
    inst = attach_default_lists(generate_graph("path", {"n": 5}, 0))
    out, reps = list_color_full(inst)
    assert verify_coloring(inst, out).ok
    assert len(reps) <= phase_cap(5, 8, 7)


def test_full_clique5_distinct():
    inst = attach_default_lists(generate_graph("clique", {"n": 5}, 0))
    out, _ = list_color_full(inst)
    assert sorted(out.colors) == [0, 1, 2, 3, 4]


def test_full_modes_and_kmodes():
    for inst in random_instances(6, seed=3):
        n = inst.graph.n
        for mode, num, den in (("mis", 8, 7), ("avoid-mis", 4, 3)):
            for kmode in ("linial", "ids"):
                out, reps = list_color_full(inst, mode, kmode)
                assert verify_coloring(inst, out).ok
                assert len(reps) <= phase_cap(n, num, den)
                assert sum(r.nodes_colored for r in reps) == n
                if kmode == "ids":
                    assert all(
                        r.k_classes == r.nodes_at_start for r in reps
                    )
                else:
                    assert all(r.k_classes <= r.nodes_at_start for r in reps)


def test_full_respects_given_psi():
    g = generate_graph("path", {"n": 4}, 0)
    inst = with_psi(attach_default_lists(g), (0, 1, 0, 1))
    out, reps = list_color_full(inst, "mis", "linial")
    assert verify_coloring(inst, out).ok
    assert reps[0].k_classes == 2
    out, reps = list_color_full(inst, "mis", "ids")
    assert reps[0].k_classes == 4


def test_full_strict_bandwidth():
    inst = attach_default_lists(generate_graph("gnp", {"n": 24, "p": 0.2}, 5))
    cap = 8 * max(1, (inst.graph.n - 1).bit_length())
    out, reps = list_color_full(inst, policy=BandwidthPolicy(beta=8))
    assert verify_coloring(inst, out).ok
    assert all(r.stats.max_bits_by_category[ALGORITHM] <= cap for r in reps)


@pytest.mark.parametrize(
    "kind, params, mode, total",
    [("cycle", {"n": 12}, "mis", 303), ("star", {"n": 9}, "avoid-mis", 196)],
)
def test_full_round_records(kind, params, mode, total):
    # every step of every phase traces one record per round it charges,
    # and tracing changes no report
    inst = attach_default_lists(generate_graph(kind, params, 1))
    _, reps = list_color_full(inst, mode, "linial")
    records = []
    _, traced = list_color_full(inst, mode, "linial", trace=records.append)
    assert traced == reps
    assert sum(r.rounds for r in reps) == total
    assert sum("round" in r for r in records) == total
    assert [r["rounds"] for r in records if "phase" in r] == [r.rounds for r in reps]


def test_full_exhaustive_strategy_and_cap():
    inst = attach_default_lists(generate_graph("cycle", {"n": 6}, 0))
    out, _ = list_color_full(inst, strategy="exhaustive")
    assert verify_coloring(inst, out).ok
    # the hub's 299 neighbours need a 2^46-seed space, past the cap of 2^24
    star = attach_default_lists(generate_graph("star", {"n": 300}, 0))
    with pytest.raises(SeedCapError, match="2\\^46 seeds exceed the cap of 16777216"):
        list_color_full(star, "avoid-mis", strategy="exhaustive")


def test_full_trace_records():
    inst = attach_default_lists(generate_graph("gnp", {"n": 10, "p": 0.3}, 9))
    records = []
    out, reps = list_color_full(inst, trace=records.append)
    phases = [r for r in records if "phase" in r]
    assert len(phases) == len(reps)
    frac = re.compile(r"^\d+/\d+$")
    for i, p in enumerate(phases):
        assert set(p) == {"phase", "colored", "remaining", "phi_final", "rounds"}
        assert p["phase"] == i and frac.match(p["phi_final"])
        assert p["colored"] == reps[i].nodes_colored
    assert phases[-1]["remaining"] == 0
    levels = [r for r in records if "level" in r]
    assert levels and all(
        {"level", "root", "seed", "phi_before", "phi_after", "bound"} <= set(r)
        for r in levels
    )
    rounds = [r for r in records if "round" in r]
    assert rounds and all({"messages", "category_bits"} <= set(r) for r in rounds)


def test_full_single_node_and_two_cliques():
    one = attach_default_lists(Graph.from_edges(1, []))
    out, reps = list_color_full(one)
    assert out.colors == [0] and len(reps) == 1
    g = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
    inst = attach_default_lists(g)
    out, _ = list_color_full(inst, "avoid-mis")
    assert verify_coloring(inst, out).ok


# ---------------------------------------------------------------------------
# phase guarantees are checks, not asserts

def test_phase_checks_survive_python_O():
    # with no MIS winners a phase colors nothing; without the phase-fraction
    # check the loop would retry the same residual instance forever
    script = textwrap.dedent(
        """
        import sys
        from congestcolor import pipeline
        from congestcolor.graphs import (
            InvariantError, attach_default_lists, generate_graph,
        )
        from congestcolor.sim import RunStats

        pipeline.mis_by_colors = lambda sub, colors, **kw: ([], RunStats())
        inst = attach_default_lists(generate_graph("cycle", {"n": 8}))
        try:
            pipeline.list_color_full(inst, "mis")
        except InvariantError as exc:
            print(sys.flags.optimize, exc)
        """
    )
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(congestcolor.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "1 phase colored 0 < 1 of 8 nodes\n"


@pytest.mark.parametrize("over", [0, 1])
def test_level_drift_is_held_to_n_over_levels(monkeypatch, over):
    # level 1 reports a potential exactly n/W above its start, which
    # passes, or one unit of that sum's denominator more, which must raise
    inst = with_psi(attach_default_lists(generate_graph("gnp", {"n": 30, "p": 0.2}, 1)))
    real, levels = pipeline.fix_level, []

    def drifting(ctx, state, comm, **kwargs):
        state_after, rep = real(ctx, state, comm, **kwargs)
        if not levels:
            edge = rep.phi_before + Fraction(inst.graph.n, state.W)
            rep = replace(rep, phi_after=edge + Fraction(over, edge.denominator))
        levels.append(rep.level)
        return state_after, rep

    monkeypatch.setattr(pipeline, "fix_level", drifting)
    if over:
        with pytest.raises(InvariantError, match=r"level \d+: potential drifted past n/levels"):
            color_fraction(inst, "mis")
        assert len(levels) == 1
    else:
        _, rep = color_fraction(inst, "mis")
        assert len(levels) == len(rep.levels) > 1
