"""Per-layer spans recorded from outside the library.

`Tracer.install` replaces every binding of the wrapped functions in every
loaded `congestcolor` module, so copies made by `from .sim import ...`
are wrapped too, each under its own binding.  Timed wrappers keep a stack
of open spans: a span's self time is its duration minus the time of the
timed spans it encloses.  Counted wrappers only count calls and add no
span, so their time stays in the caller's self time.

Stage wrappers also take the `RunStats` a stage call returns and add it
up once, at the outermost stage call.  The stages together must account
for the phase reports' totals exactly (`stage_problems`); a stage reached
through a binding the tracer missed breaks that identity.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from time import perf_counter

from congestcolor.sim import RunStats

PACKAGE = "congestcolor"

TIMED = {
    "sim": (
        "run_protocol",
        "build_bfs_forest",
        "exchange",
        "aggregate_pairs",
        "broadcast_values",
    ),
    "derand": ("build_level_context", "fix_level", "node_conditional"),
    "prefixes": ("apply_bits", "phi_sum"),
    "linial": ("linial_reduce", "mis_by_colors"),
    "pipeline": ("list_color_full", "color_fraction"),
    "graphs": ("generate_graph", "residual_instance", "verify_coloring"),
    "decomposition": (
        "generate_decomposition",
        "validate_decomposition",
        "color_with_decomposition",
    ),
}
COUNTED = {"coins": ("hash_eval",), "gf2": ("mul",)}

# stages are counted at their outermost call; flag-low is pipeline's own
# binding of run_protocol, told apart by the module that holds the binding
STAGES = (
    "sim.build_bfs_forest",
    "sim.exchange",
    "sim.aggregate_pairs",
    "sim.broadcast_values",
    "linial.linial_reduce",
    "linial.mis_by_colors",
)
FLAG_LOW = "pipeline.flag_low"
ENGINE = "sim.run_protocol"
SAMPLED = "pipeline.list_color_full"  # keeps one duration per call

# per-layer metrics measured during set-up rather than colouring
SETUP_METRICS = ("graphs.generate_graph.s", "decomposition.generate_decomposition.s")


@dataclass
class Span:
    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0


@dataclass
class Records:
    spans: dict = field(default_factory=dict)  # function label -> Span
    counts: dict = field(default_factory=dict)  # function label -> calls
    stages: dict = field(default_factory=dict)  # stage name -> RunStats
    engine: RunStats = field(default_factory=RunStats)
    samples: list = field(default_factory=list)  # SAMPLED durations, s

    def span(self, label: str) -> Span:
        return self.spans.get(label) or Span()

    def stage(self, name: str) -> RunStats:
        return self.stages.get(name) or RunStats()

    def stage_total(self) -> RunStats:
        total = RunStats()
        for stats in self.stages.values():
            total.add(stats)
        return total


def _stage_of(binding: str, label: str):
    if label in STAGES:
        return label
    if label == ENGINE and binding == "pipeline":
        return FLAG_LOW
    return None


def _stats_of(result) -> RunStats:
    return result if isinstance(result, RunStats) else result[-1]


class Tracer:
    def __init__(self):
        self.records = Records()
        self._stack = []  # child time accumulated by each open timed span
        self._stage_depth = 0
        self._saved = []  # (module, attribute, original) while installed

    def reset(self) -> Records:
        """Start fresh records; returns the ones collected so far."""
        done, self.records = self.records, Records()
        return done

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        targets = {}
        for table, timed in ((TIMED, True), (COUNTED, False)):
            for modname, names in table.items():
                mod = sys.modules[f"{PACKAGE}.{modname}"]
                for name in names:
                    fn = getattr(mod, name)
                    targets[id(fn)] = (fn, f"{modname}.{name}", timed)
        for modname, mod in sorted(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            binding = modname.rpartition(".")[2]
            for attr, value in list(vars(mod).items()):
                target = targets.get(id(value))
                if target is None or target[0] is not value:
                    continue
                fn, label, timed = target
                if timed:
                    wrapper = self._timed(fn, label, _stage_of(binding, label))
                else:
                    wrapper = self._counted(fn, label)
                self._saved.append((mod, attr, value))
                setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved = []

    def _counted(self, fn, label):
        def wrapper(*args, **kwargs):
            counts = self.records.counts
            counts[label] = counts.get(label, 0) + 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _timed(self, fn, label, stage):
        stack = self._stack

        def wrapper(*args, **kwargs):
            if stage is not None:
                self._stage_depth += 1
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                rec = self.records
                span = rec.spans.get(label)
                if span is None:
                    span = rec.spans[label] = Span()
                span.calls += 1
                span.s += dt
                span.self_s += dt - child
                if label == SAMPLED:
                    rec.samples.append(dt)
                if stage is not None:
                    self._stage_depth -= 1
            if label == ENGINE:
                self.records.engine.add(result)
            if stage is not None and self._stage_depth == 0:
                self.records.stages.setdefault(stage, RunStats()).add(
                    _stats_of(result)
                )
            return result

        wrapper.__wrapped__ = fn
        return wrapper


def stage_problems(records: Records, phase_total: RunStats) -> list:
    """Empty when the stage sums equal the phase reports' totals exactly."""
    got = records.stage_total()
    if got == phase_total:
        return []
    return [f"stage sums {got} differ from phase report totals {phase_total}"]


def layer_metrics(rec: Records) -> dict:
    """Per-layer numbers of one traced colouring, by metric name."""
    out = {}
    run = rec.span(ENGINE)
    out["sim.run_protocol.calls"] = run.calls
    out["sim.run_protocol.self_s"] = run.self_s
    for name in ("aggregate_pairs", "broadcast_values", "exchange", "build_bfs_forest"):
        label = f"sim.{name}"
        out[f"{label}.s"] = rec.span(label).s
        out[f"{label}.rounds"] = rec.stage(label).rounds
    agg = rec.stage("sim.aggregate_pairs")
    out["sim.aggregate_pairs.messages"] = agg.messages
    out["sim.aggregate_pairs.bits"] = sum(agg.bits_by_category.values())
    messages = rec.engine.messages
    out["sim.us_per_message"] = 1e6 * run.self_s / messages if messages else 0.0
    fix = rec.span("derand.fix_level")
    out["derand.fix_level.calls"] = fix.calls
    out["derand.fix_level.s"] = fix.s
    out["derand.fix_level.self_s"] = fix.self_s
    cond = rec.span("derand.node_conditional")
    out["derand.node_conditional.calls"] = cond.calls
    out["derand.node_conditional.s"] = cond.s
    out["derand.build_level_context.s"] = rec.span("derand.build_level_context").s
    out["prefixes.apply_bits.s"] = rec.span("prefixes.apply_bits").s
    out["prefixes.phi_sum.s"] = rec.span("prefixes.phi_sum").s
    out["coins.hash_eval.calls"] = rec.counts.get("coins.hash_eval", 0)
    out["gf2.mul.calls"] = rec.counts.get("gf2.mul", 0)
    for name in ("linial_reduce", "mis_by_colors"):
        label = f"linial.{name}"
        out[f"{label}.s"] = rec.span(label).s
        out[f"{label}.rounds"] = rec.stage(label).rounds
    out["pipeline.color_fraction.calls"] = rec.span("pipeline.color_fraction").calls
    out["pipeline.self_s"] = sum(
        span.self_s for label, span in rec.spans.items()
        if label.startswith("pipeline.")
    )
    out["pipeline.flag_low.rounds"] = rec.stage(FLAG_LOW).rounds
    for name in ("generate_graph", "residual_instance", "verify_coloring"):
        out[f"graphs.{name}.s"] = rec.span(f"graphs.{name}").s
    for name in ("generate_decomposition", "validate_decomposition"):
        out[f"decomposition.{name}.s"] = rec.span(f"decomposition.{name}").s
    out["decomposition.color_with_decomposition.self_s"] = rec.span(
        "decomposition.color_with_decomposition"
    ).self_s
    return out
