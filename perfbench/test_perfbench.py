"""Self-tests of the benchmark's checks and tracer, on tiny inputs.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import congestcolor.pipeline as pipeline  # noqa: E402
import congestcolor.sim as sim  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402
from congestcolor.graphs import PartialColoring  # noqa: E402

TINY = wl.Workload("tiny", "gnp", {"n": 40, "p": 0.15}, "mis", False)
TINY_AVOID = wl.Workload("tiny-avoid", "gnp", {"n": 30, "p": 0.3}, "avoid-mis", False)
TINY_CLUSTERED = wl.Workload("tiny-clustered", "regular", {"n": 60, "d": 2}, "mis", True)


@pytest.fixture
def tracer():
    t = tr.Tracer()
    yield t
    t.uninstall()


def traced_colouring(tracer, prep):
    tracer.install()
    tracer.reset()
    try:
        outcome = wl.colour(prep)
    finally:
        tracer.uninstall()
    return outcome, tracer.reset()


def test_check_accepts_the_recorded_colouring():
    prep = wl.prepare(TINY, 3)
    outcome = wl.colour(prep)
    counts = wl.sim_counts(outcome)
    assert wl.check(prep, outcome, counts, dict(counts)) == []


def test_check_flags_a_corrupted_colouring():
    prep = wl.prepare(TINY, 3)
    outcome = wl.colour(prep)
    reference = wl.sim_counts(outcome)
    colors = list(outcome.coloring.colors)
    u, v = prep.instance.graph.edge_list[0]
    colors[u] = colors[v]
    bad = replace(outcome, coloring=PartialColoring(colors))
    problems = wl.check(prep, bad, wl.sim_counts(bad), reference)
    assert any(p.startswith("invalid colouring: 1 monochromatic") for p in problems)
    assert any(p.startswith("coloring_digest") for p in problems)


def test_check_flags_changed_simulated_counts():
    prep = wl.prepare(TINY, 3)
    outcome = wl.colour(prep)
    counts = wl.sim_counts(outcome)
    reference = dict(counts, rounds=counts["rounds"] + 1)
    assert wl.check(prep, outcome, counts, reference) == [
        f"rounds is {counts['rounds']}, reference says {counts['rounds'] + 1}"
    ]


@pytest.mark.parametrize("workload", [TINY, TINY_AVOID, TINY_CLUSTERED])
def test_stage_sums_equal_phase_totals(tracer, workload):
    outcome, rec = traced_colouring(tracer, wl.prepare(workload, 1))
    total = wl.total_stats(outcome.reports)
    assert tr.stage_problems(rec, total) == []
    assert rec.stage_total().rounds == total.rounds > 0
    stage_rounds = sum(
        rec.stage(name).rounds for name in tr.STAGES + (tr.FLAG_LOW,)
    )
    assert stage_rounds == total.rounds


def test_stage_sums_catch_a_missed_binding(tracer):
    prep = wl.prepare(TINY, 1)
    tracer.install()
    wrapped = pipeline.build_bfs_forest
    pipeline.build_bfs_forest = wrapped.__wrapped__  # as if never wrapped
    try:
        tracer.reset()
        outcome = wl.colour(prep)
    finally:
        pipeline.build_bfs_forest = wrapped
        tracer.uninstall()
    problems = tr.stage_problems(tracer.reset(), wl.total_stats(outcome.reports))
    assert len(problems) == 1 and problems[0].startswith("stage sums")


def test_traced_and_untraced_counts_are_identical(tracer):
    for workload in (TINY_AVOID, TINY_CLUSTERED):
        prep = wl.prepare(workload, 2)
        plain = wl.sim_counts(wl.colour(prep))
        traced, _ = traced_colouring(tracer, prep)
        assert wl.sim_counts(traced) == plain


def test_install_wraps_every_binding_and_uninstall_restores_it(tracer):
    original = sim.run_protocol
    tracer.install()
    assert pipeline.run_protocol is not original
    assert pipeline.run_protocol.__wrapped__ is original
    assert sim.run_protocol is not pipeline.run_protocol  # one per binding
    tracer.uninstall()
    assert sim.run_protocol is original and pipeline.run_protocol is original


def test_layer_metrics_separate_flag_low_and_self_time(tracer):
    outcome, rec = traced_colouring(tracer, wl.prepare(TINY_CLUSTERED, 1))
    m = tr.layer_metrics(rec)
    assert m["sim.run_protocol.calls"] > 0
    assert m["pipeline.color_fraction.calls"] == len(outcome.reports)
    assert len(rec.samples) == len(outcome.instances)
    assert m["derand.node_conditional.calls"] == 0
    assert 0 <= m["derand.fix_level.self_s"] <= m["derand.fix_level.s"]
    assert m["decomposition.color_with_decomposition.self_s"] > 0


def test_traced_run_yields_exactly_the_per_layer_metrics_of_benchmark_json(tracer):
    spec = json.loads(run.SPEC.read_text())
    _, rec = traced_colouring(tracer, wl.prepare(TINY, 1))
    names = set(tr.layer_metrics(rec)) | set(run.PER_LAYER_EXTRA)
    assert {m["name"] for m in spec["per_layer"]} == names
    assert {w["name"] for w in spec["workloads"]} == set(wl.WORKLOADS)


def test_run_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload",
         "sparse-mis", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tally_fails_changed_counts_and_the_colouring_killed_at_the_ceiling():
    first = {"event": "colour", "traced": False, "seconds": 1.0, "ok": True,
             "problems": [], "counts": {"rounds": 3}}
    changed = dict(first, traced=True, problems=[], counts={"rounds": 4})
    child = run.Child([{"event": "setup"}, first, changed], -9, timed_out=True)
    _, attempted, failed, problems = run.tally(child)
    assert (attempted, failed) == (3, 2)
    assert problems == [
        "simulated counts differ from the first colouring",
        "colouring killed at the wall-time ceiling",
    ]
