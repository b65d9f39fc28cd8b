"""Record what each workload must reproduce: simulated counts and digests.

    python3 perfbench/record_reference.py [--seeds 0 1 2 ...]

Colours every workload once per seed with the current sources and writes
`reference.json` next to this file.  Later runs at a recorded seed fail
any colouring whose phases, rounds, messages, bits, max bits, per-instance
stats or colouring differ from it.  Re-record only in a change that means
to alter simulated cost, and say so.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as wl  # noqa: E402

REFERENCE = HERE / "reference.json"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[wl.REFERENCE_SEED])
    args = ap.parse_args(argv)
    recorded = {}
    for name, workload in wl.WORKLOADS.items():
        recorded[name] = {}
        for seed in args.seeds:
            prep = wl.prepare(workload, seed)
            outcome = wl.colour(prep)
            counts = wl.sim_counts(outcome)
            problems = wl.check(prep, outcome, counts, None)
            if problems:
                print(f"{name} seed {seed}: {problems}", file=sys.stderr)
                return 1
            recorded[name][str(seed)] = counts
            print(name, seed, counts["rounds"], counts["messages"], flush=True)
    REFERENCE.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
