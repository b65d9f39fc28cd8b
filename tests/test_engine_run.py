"""Whole colourings with every pass swapped for its engine-driven reference.

test_sim.py checks each pass against its reference in engine_refs.py one
at a time.  Here one colouring runs with all of them at once in place of
the passes, so a schedule that joins passes, reorders their trace
records or charges across them differently shows up as a different
colouring, phase report, trace list or error.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import engine_refs
from congestcolor import pipeline, sim
from congestcolor.decomposition import Cluster, NetworkDecomposition, color_with_decomposition
from congestcolor.graphs import Graph, InvariantError, attach_default_lists, generate_graph
from congestcolor.pipeline import list_color_full
from congestcolor.sim import BandwidthError, BandwidthPolicy

# every binding through which a colouring reaches a pass
ENGINE = (
    (sim, "exchange", engine_refs.engine_exchange),
    (sim, "aggregate_pairs", engine_refs.engine_aggregate),
    (sim, "broadcast_values", engine_refs.engine_broadcast),
    (pipeline, "build_bfs_forest", engine_refs.engine_bfs_forest),
    (pipeline, "linial_reduce", engine_refs.engine_linial_reduce),
    (pipeline, "mis_by_colors", engine_refs.engine_mis_by_colors),
)


def outcome(fn, *args, **kwargs):
    """What fn returns or raises, with every trace record it emitted."""
    records = []
    try:
        result = fn(*args, trace=records.append, **kwargs)
    except (BandwidthError, InvariantError, ValueError) as exc:
        return ("raised", type(exc), str(exc)), records
    return ("returned", result), records


def on_engine(fn, *args, **kwargs):
    with pytest.MonkeyPatch.context() as mp:
        for module, name, reference in ENGINE:
            mp.setattr(module, name, reference)
        return outcome(fn, *args, **kwargs)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    kind = draw(st.sampled_from(["gnp", "gnp", "path", "star", "cycle", "edgeless"]))
    if kind == "gnp":
        p = draw(st.sampled_from([0.15, 0.3, 0.6]))
        return generate_graph("gnp", {"n": n, "p": p}, rng_seed=draw(st.integers(0, 999)))
    if kind == "edgeless":
        return Graph.from_edges(n, [])
    if kind == "cycle" and n < 3:
        kind = "path"
    return generate_graph(kind, {"n": n})


@settings(max_examples=300, deadline=None)
@given(
    g=small_graphs(),
    mode=st.sampled_from(["mis", "avoid-mis"]),
    kmode=st.sampled_from(["linial", "ids"]),
    beta=st.sampled_from([None, 1, 2, 3, 8]),  # 1 and 2 stop at n <= 12, 3 does not
)
def test_whole_colouring_matches_engine(g, mode, kmode, beta):
    inst = attach_default_lists(g)
    policy = None if beta is None else BandwidthPolicy(beta)
    got = outcome(list_color_full, inst, mode, kmode, policy=policy)
    assert got == on_engine(list_color_full, inst, mode, kmode, policy=policy)
    if beta is None:  # measuring alone never stops a run
        assert got[0][0] == "returned"


@pytest.mark.parametrize("mode", ["mis", "avoid-mis"])
def test_decomposition_colouring_matches_engine(mode):
    # on the path 0-5, clusters {0, 1} and {3, 4} share colour 1 and the
    # tree edge (1, 2), so kappa = 2
    decomp = NetworkDecomposition(
        clusters=(
            Cluster(0, 1, (0, 1), ((0, 1), (1, 2))),
            Cluster(1, 1, (3, 4), ((1, 2), (2, 3), (3, 4))),
            Cluster(2, 2, (2,), ()),
            Cluster(3, 2, (5,), ()),
        ),
        alpha=2, beta=3, kappa=2,
    )
    inst = attach_default_lists(generate_graph("path", {"n": 6}))
    got = outcome(color_with_decomposition, inst, decomp, mode)
    assert got == on_engine(color_with_decomposition, inst, decomp, mode)
    assert got[0][0] == "returned" and got[0][1][1].kappa == 2
