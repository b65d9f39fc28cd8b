"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload sparse-mis --seed 0 --seconds 15 --trace 0

Run it from anywhere; it uses the `src` directory next to `perfbench`.
Every workload process is fresh and they run one at a time.  With
`--trace 0` it starts a few set-up-only processes (set-up time is their
median), then one process that colours the workload in a closed loop
for `--seconds` and reports the median colouring time and the simulated
cost.  With `--trace 1` one process alternates untraced and traced
colourings and reports the per-layer numbers.  Every colouring is
checked; the last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

and the line before it holds the environment and the raw samples.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 5  # set-up-only processes, after one warm-up process
SETUP_CEILING_S = 30.0  # wall-time ceiling of one set-up-only process
LOOP_CEILING_S = 100.0  # ceiling of the colouring process beyond --seconds
RUN_BUDGET_S = 170.0  # every process of one run together

SPEC = ROOT / "BENCHMARK.json"  # names and units of every metric
_COUNT_METRICS = {  # end-to-end metric -> key of workloads.sim_counts
    "sim_rounds": "rounds",
    "sim_messages": "messages",
    "sim_bits_aggregation": "bits_aggregation",
    "sim_max_bits_algorithm": "max_bits_algorithm",
    "sim_max_bits_aggregation": "max_bits_aggregation",
}


class Fatal(RuntimeError):
    """The run cannot produce a result at all."""


@dataclass
class Child:
    events: list
    returncode: int
    timed_out: bool

    def of(self, kind: str) -> list:
        return [e for e in self.events if e["event"] == kind]


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONOPTIMIZE", None)  # the library's own checks stay on
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        NUMEXPR_NUM_THREADS="1",
        VECLIB_MAXIMUM_THREADS="1",
        BLIS_NUM_THREADS="1",
    )
    return env


def run_child(args, mode: str, ceiling: float) -> Child:
    """Start one worker process and wait for it, killing it at the ceiling."""
    if ceiling <= 0:
        raise Fatal("run budget exhausted before the workload could run")
    started = time.monotonic()
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--mode", mode,
        "--seconds", str(args.seconds),
        "--started", repr(started),
    ]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=ceiling)
        timed_out = False
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        timed_out = True
    events = [json.loads(line) for line in out.decode().splitlines() if line]
    child = Child(events, proc.returncode, timed_out)
    if not child.of("setup"):
        why = "timed out" if timed_out else f"exited with {proc.returncode}"
        raise Fatal(f"{mode} process for {args.workload} {why} before set-up ended")
    if not timed_out and proc.returncode != 0:
        raise Fatal(f"{mode} process for {args.workload} exited with {proc.returncode}")
    return child


def git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def tally(child: Child) -> tuple:
    """(colourings, attempted, failed, problems) of a colouring process.

    Every colouring must repeat the first one's simulated counts, traced
    or not; a process killed at its ceiling fails the colouring it was in.
    """
    colourings = child.of("colour")
    problems = []
    first = next((c["counts"] for c in colourings if "counts" in c), None)
    failed = 0
    for c in colourings:
        if "counts" in c and c["counts"] != first:
            c["ok"] = False
            c["problems"].append("simulated counts differ from the first colouring")
        if not c["ok"]:
            failed += 1
            problems.extend(c["problems"])
    attempted = len(colourings)
    if child.timed_out:
        attempted += 1
        failed += 1
        problems.append("colouring killed at the wall-time ceiling")
    return colourings, attempted, failed, problems


# per-layer metrics computed here rather than by tracer.layer_metrics
PER_LAYER_EXTRA = (
    "pipeline.list_color_full.ms.p50",
    "pipeline.list_color_full.ms.p99",
    "trace.overhead_s",
)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def ceiling(cap: float, deadline: float) -> float:
    return min(cap, deadline - time.monotonic())


def measure(args, deadline: float) -> tuple:
    run_child(args, "setup", ceiling(SETUP_CEILING_S, deadline))  # fills caches
    setups = []
    for _ in range(SETUP_SAMPLES):
        child = run_child(args, "setup", ceiling(SETUP_CEILING_S, deadline))
        setups.append(child.of("setup")[0]["setup_s"])
    loop_ceiling = ceiling(args.seconds + LOOP_CEILING_S, deadline)
    child = run_child(args, "measure", loop_ceiling)
    setup = child.of("setup")[0]
    setups.append(setup["setup_s"])
    colourings, attempted, failed, problems = tally(child)
    # a process killed in its first colouring took at least its ceiling
    times = [c["seconds"] for c in colourings] or [loop_ceiling]
    counts = next((c["counts"] for c in colourings if "counts" in c), {})
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "color_s": statistics.median(times),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_kb / 1024,
    }
    for name, key in _COUNT_METRICS.items():
        metrics[name] = counts.get(key, 0)
    metrics["ok_ratio"] = (attempted - failed) / attempted
    detail = {"setup_s": setups, "color_s": times, "counts": counts}
    return setup, attempted, failed, problems, metrics, detail


def trace(args, deadline: float) -> tuple:
    child = run_child(args, "trace", ceiling(args.seconds + LOOP_CEILING_S, deadline))
    setup = child.of("setup")[0]
    colourings, attempted, failed, problems = tally(child)
    traced = [c for c in colourings if c["traced"] and "layers" in c]
    plain = [c["seconds"] for c in colourings if not c["traced"] and "counts" in c]
    metrics = dict(setup["layers"])
    if traced:
        for name in traced[0]["layers"]:
            if name not in setup["layers"]:
                metrics[name] = statistics.median(c["layers"][name] for c in traced)
        samples = [ms for c in traced for ms in c["samples_ms"]]
        metrics["pipeline.list_color_full.ms.p50"] = percentile(samples, 50)
        metrics["pipeline.list_color_full.ms.p99"] = percentile(samples, 99)
    if traced and plain:
        traced_s = statistics.median(c["seconds"] for c in traced)
        metrics["trace.overhead_s"] = traced_s - statistics.median(plain)
    detail = {
        "color_s": plain,
        "traced_color_s": [c["seconds"] for c in traced],
        "list_color_full_calls": len(traced[0]["samples_ms"]) if traced else 0,
    }
    return setup, attempted, failed, problems, metrics, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "congestcolor" / "__init__.py").is_file():
        print(f"no congestcolor package under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        run = trace if args.trace else measure
        setup, attempted, failed, problems, metrics, detail = run(args, deadline)
    except Fatal as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for problem in sorted(set(problems)):
        print(f"check failed: {problem}", file=sys.stderr)
    spec = json.loads(SPEC.read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    missing = sorted(set(units) - set(metrics))
    if missing and not failed:
        print(f"benchmark failed: no value for {missing}", file=sys.stderr)
        return 1
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": setup["python"],
        "numpy": setup["numpy"],
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(ROOT),
    }
    print(json.dumps({"env": env, "detail": detail}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            # a failed run still reports every metric, zero where none was taken
            name: {"value": metrics.get(name, 0), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
