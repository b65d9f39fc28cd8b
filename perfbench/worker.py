"""One workload process: set up, then colour in a closed loop.

Started by run.py with PYTHONPATH pointing at the checkout's `src`.  It
writes one JSON object per line to standard output, flushed as it goes,
so a parent that kills it at its wall-time ceiling still has every
colouring that finished:

  {"event": "setup", ...}   once, after the instance is built
  {"event": "colour", ...}  once per colouring

Modes: `setup` stops after the set-up line, `measure` colours untraced
until `--seconds` have passed, `trace` alternates an untraced and a traced
colouring until `--seconds` have passed.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
import traceback
from pathlib import Path

import numpy

import tracer as tr
import workloads as wl

REFERENCE = Path(__file__).resolve().parent / "reference.json"


def emit(record: dict) -> None:
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()


def load_reference(name: str, seed: int):
    """The counts recorded for this workload and seed, if any."""
    if not REFERENCE.is_file():
        return None
    return json.loads(REFERENCE.read_text()).get(name, {}).get(str(seed))


def attempt(prep, reference, tracer=None) -> dict:
    """Colour once and check the result; never raises."""
    if tracer is not None:
        tracer.reset()
    t0 = time.perf_counter()
    try:
        outcome = wl.colour(prep)
    except Exception as exc:  # every failure is counted, the loop goes on
        seconds = time.perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        return {
            "event": "colour",
            "traced": tracer is not None,
            "seconds": seconds,
            "ok": False,
            "problems": [f"{type(exc).__name__}: {exc}"],
        }
    seconds = time.perf_counter() - t0
    record = {"event": "colour", "traced": tracer is not None, "seconds": seconds}
    counts = wl.sim_counts(outcome)
    problems = wl.check(prep, outcome, counts, reference)
    if tracer is not None:
        rec = tracer.reset()
        problems += tr.stage_problems(rec, wl.total_stats(outcome.reports))
        record["layers"] = tr.layer_metrics(rec)
        record["samples_ms"] = [1e3 * s for s in rec.samples]
    record.update(counts=counts, ok=not problems, problems=problems)
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument(
        "--started", type=float, required=True,
        help="time.monotonic() just before the parent started this process",
    )
    args = ap.parse_args(argv)

    workload = wl.WORKLOADS[args.workload]
    tracer = None
    if args.mode == "trace":
        tracer = tr.Tracer()
        tracer.install()
    prep = wl.prepare(workload, args.seed)
    setup_s = time.monotonic() - args.started
    record = {
        "event": "setup",
        "setup_s": setup_s,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        setup_layers = tr.layer_metrics(tracer.reset())
        record["layers"] = {k: setup_layers[k] for k in tr.SETUP_METRICS}
    emit(record)
    if args.mode == "setup":
        return 0

    reference = load_reference(workload.name, args.seed)
    deadline = time.perf_counter() + args.seconds
    while True:
        if tracer is not None:
            tracer.uninstall()
            emit(attempt(prep, reference))
            tracer.install()
            emit(attempt(prep, reference, tracer))
        else:
            emit(attempt(prep, reference))
        if time.perf_counter() >= deadline:
            return 0


if __name__ == "__main__":
    sys.exit(main())
