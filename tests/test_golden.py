"""Byte-identical replays of recorded command line output.

`tests/data` holds what `cli.main` printed, and the trace it wrote, for
each case in CASES.  Every simulated count shows in that output: rounds,
messages, max bits, phases, and per-round and per-level trace records.
A change that means to alter any of them re-records the files on purpose,
from the repo root:

    PYTHONPATH=src python tests/test_golden.py

and names the re-recording in CHANGES.md.
"""

import io
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from congestcolor.cli import main

DATA = Path(__file__).parent / "data"

# case name -> argv; "{data}" is tests/data, "{trace}" the trace file
CASES = {
    "bench_mis": ["bench", "{data}/suite_mis.json", "--no-time"],
    "bench_avoid": ["bench", "{data}/suite_avoid.json", "--no-time"],
    "run_avoid_strict": [
        "run", "--gen", "gnp,n=24,p=0.15", "--mode", "avoid-mis",
        "--bandwidth", "strict:8", "--trace", "{trace}",
    ],
    "run_decomp": ["run", "--gen", "cycle,n=12", "--decomp", "generate"],
}


def replay(name: str, tmp: Path) -> dict:
    """{file name under tests/data: bytes} that case `name` produces."""
    trace = tmp / f"{name}.trace.jsonl"
    argv = [a.format(data=DATA, trace=trace) for a in CASES[name]]
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    assert code == 0
    files = {f"{name}.out": out.getvalue().encode()}
    if trace.exists():
        files[trace.name] = trace.read_bytes()
    return files


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_recording(name, tmp_path):
    for fname, got in replay(name, tmp_path).items():
        assert got == (DATA / fname).read_bytes(), f"{fname} differs"


def record() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for name in CASES:
            for fname, got in replay(name, Path(tmp)).items():
                (DATA / fname).write_bytes(got)
                print(f"wrote tests/data/{fname}", file=sys.stderr)


if __name__ == "__main__":
    record()
