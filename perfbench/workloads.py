"""The benchmark workloads: how each one builds its instance from the seed,
colours it through the library's public entry points, and is checked.

Entry points are looked up on their modules at call time, so a tracer
that rebinds module attributes sees every call.  The output check
uses `verify_coloring` as it was at import time, so a traced run never
times its own check.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass

from congestcolor import decomposition, graphs, pipeline
from congestcolor.graphs import verify_coloring as _verify_coloring
from congestcolor.sim import AGGREGATION, ALGORITHM, BandwidthPolicy, RunStats

POLICY = "strict:8"
KMODE = "linial"
STRATEGY = "conditional"
REFERENCE_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    params: dict
    mode: str
    clustered: bool  # colour through generate_decomposition


# why each workload was chosen is in README.md and BENCHMARK.json
WORKLOADS = {
    w.name: w
    for w in (
        Workload("sparse-mis", "gnp", {"n": 1000, "p": 0.01}, "mis", False),
        Workload("dense-avoid", "gnp", {"n": 200, "p": 0.3}, "avoid-mis", False),
        Workload("hub-avoid", "star", {"n": 300}, "avoid-mis", False),
        Workload("clustered", "regular", {"n": 4000, "d": 2}, "mis", True),
    )
}


@dataclass
class Prepared:
    """One workload's input, built once per process."""

    workload: Workload
    instance: object
    decomp: object  # NetworkDecomposition, or None when not clustered


@dataclass
class Outcome:
    """One colouring: the result, its phase reports and what it was charged."""

    coloring: object
    instances: tuple  # per coloured instance (cluster), its PhaseReports
    charged_rounds: int

    @property
    def reports(self) -> tuple:
        return tuple(rep for reps in self.instances for rep in reps)


def prepare(workload: Workload, seed: int) -> Prepared:
    """Build graph, lists and (when clustered) decomposition from the seed."""
    graph = graphs.generate_graph(workload.kind, dict(workload.params), seed)
    instance = graphs.attach_default_lists(graph)
    decomp = None
    if workload.clustered:
        decomp = decomposition.generate_decomposition(graph)
    return Prepared(workload, instance, decomp)


def colour(prep: Prepared) -> Outcome:
    wl = prep.workload
    policy = BandwidthPolicy.parse(POLICY)
    if prep.decomp is None:
        out, reps = pipeline.list_color_full(
            prep.instance, wl.mode, KMODE, strategy=STRATEGY, policy=policy
        )
        return Outcome(out, (tuple(reps),), sum(r.rounds for r in reps))
    out, comp = decomposition.color_with_decomposition(
        prep.instance, prep.decomp, wl.mode,
        kmode=KMODE, strategy=STRATEGY, policy=policy,
    )
    instances = tuple(cl for rec in comp.classes for cl in rec.reports)
    return Outcome(out, instances, comp.rounds)


def total_stats(reports) -> RunStats:
    total = RunStats()
    for rep in reports:
        total.add(rep.stats)
    return total


def _digest(obj) -> str:
    text = json.dumps(obj, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def sim_counts(outcome: Outcome) -> dict:
    """Simulated cost of one colouring; every entry repeats exactly."""
    total = total_stats(outcome.reports)
    per_instance = [[asdict(r.stats) for r in reps] for reps in outcome.instances]
    return {
        "phases": len(outcome.reports),
        "rounds": outcome.charged_rounds,
        "stage_rounds": total.rounds,
        "messages": total.messages,
        "bits_algorithm": total.bits_by_category[ALGORITHM],
        "bits_aggregation": total.bits_by_category[AGGREGATION],
        "max_bits_algorithm": total.max_bits_by_category[ALGORITHM],
        "max_bits_aggregation": total.max_bits_by_category[AGGREGATION],
        "instances_digest": _digest(per_instance),
        "coloring_digest": _digest(outcome.coloring.colors),
    }


def check(prep: Prepared, outcome: Outcome, counts: dict, reference) -> list:
    """Problems with one colouring; empty when it is valid and as recorded."""
    problems = []
    report = _verify_coloring(prep.instance, outcome.coloring)
    if not report.ok:
        problems.append(
            f"invalid colouring: {len(report.monochromatic)} monochromatic "
            f"edges, {len(report.out_of_list)} out of list, "
            f"{len(report.uncolored)} uncoloured"
        )
    if reference is not None:
        for key, want in reference.items():
            if counts.get(key) != want:
                problems.append(
                    f"{key} is {counts.get(key)!r}, reference says {want!r}"
                )
    return problems

