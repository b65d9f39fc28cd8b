"""Command line front end.

Three subcommands.  `run` colors one graph (loaded or generated) and
prints a JSON stats object; `verify` checks a coloring file against an
instance file; `bench` runs a suite of generated graphs and prints one
CSV row each, with the round count normalized by the bound
h * ceil(log2 C) * (ceil(log2 K) + ceil(log2 Delta) + ceil(log2 W)),
h the first phase's BFS forest height: h <= D <= 2h for the diameter D.

Generator specs are comma-separated, `kind,key=value,...`, for example
`gnp,n=200,p=0.05`.  Values parse as int first, then float; a key may
appear once.

Exit codes: 0 success, 1 bad input or a failed run (including a
`verify` violation), 2 usage error, 3 a broken guarantee
(`InvariantError`).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import nullcontext
from dataclasses import replace
from fractions import Fraction

from .decomposition import (
    color_with_decomposition,
    generate_decomposition,
    load_decomposition,
)
from .graphs import (
    InvariantError,
    ValidationError,
    _entry,
    _known_keys,
    _typed,
    attach_default_lists,
    check,
    generate_graph,
    load_coloring,
    load_instance,
    save_coloring,
    verify_coloring,
)
from .pipeline import KMODES, MODES, check_modes, list_color_full
from .sim import ALGORITHM, BandwidthPolicy, RunStats


def _parse_gen(text: str):
    kind, _, rest = text.partition(",")
    if not kind:
        raise ValueError(f"bad generator spec {text!r}")
    params = {}
    for part in filter(None, rest.split(",")):
        key, eq, value = part.partition("=")
        if not eq or not key or not value:
            raise ValueError(f"bad generator parameter {part!r}")
        if key in params:
            raise ValueError(f"repeated generator parameter {key!r}")
        try:
            params[key] = int(value)
        except ValueError:
            params[key] = float(value)
    return kind, params


def _build_instance(args):
    if args.graph is not None:
        inst = load_instance(args.graph)
        if args.colors_mode == "degree1":
            inst = replace(attach_default_lists(inst.graph), psi=inst.psi)
        return inst
    if args.colors_mode == "lists":
        raise ValidationError("--colors-mode lists needs an instance file (--graph)")
    kind, params = _parse_gen(args.gen)
    return attach_default_lists(generate_graph(kind, params, args.rng_seed))


def _total(reports) -> RunStats:
    total = RunStats()
    for rep in reports:
        total.add(rep.stats)
    return total


def cmd_run(args) -> int:
    inst = _build_instance(args)
    policy = BandwidthPolicy.parse(args.bandwidth)
    with open(args.trace, "w") if args.trace else nullcontext() as fh:
        trace = (lambda r: fh.write(json.dumps(r, sort_keys=True) + "\n")) if fh else None
        kwargs = dict(
            kmode=args.kmode,
            strategy=args.strategy,
            policy=policy,
            trace=trace,
        )
        if args.decomp == "off":
            coloring, reports = list_color_full(inst, args.mode, **kwargs)
            rounds = sum(rep.rounds for rep in reports)
        else:
            decomp = (
                generate_decomposition(inst.graph)
                if args.decomp == "generate"
                else load_decomposition(args.decomp)
            )
            coloring, comp = color_with_decomposition(inst, decomp, args.mode, **kwargs)
            reports = [
                rep for rec in comp.classes for reps in rec.reports for rep in reps
            ]
            rounds = comp.rounds
    check(verify_coloring(inst, coloring).ok, "run produced an invalid coloring")
    if args.out:
        save_coloring(args.out, coloring)
    total = _total(reports)
    stats = {
        "n": inst.graph.n,
        "colored": len(coloring.colored()),
        "phases": len(reports),
        "rounds": rounds,
        "messages": total.messages,
        "max_bits": total.max_bits_by_category,
    }
    print(json.dumps(stats, sort_keys=True))
    return 0


def cmd_verify(args) -> int:
    inst = load_instance(args.instance)
    coloring = load_coloring(args.coloring)
    report = verify_coloring(inst, coloring)
    if report.ok:
        print("ok")
        return 0
    if report.monochromatic:
        u, v = report.monochromatic[0]
        print(f"violation: edge ({u}, {v}) is monochromatic")
    elif report.out_of_list:
        print(f"violation: node {report.out_of_list[0]} has a color outside its list")
    else:
        print(f"violation: node {report.uncolored[0]} is uncolored")
    return 1


def _ceil_log2(x: int) -> int:
    return (max(1, x) - 1).bit_length()


def _bench_ratio(inst, reports, rounds) -> str:
    width = max(1, (inst.C - 1).bit_length())
    k_start = reports[0].k_classes if reports else 1
    term = _ceil_log2(k_start) + _ceil_log2(inst.graph.max_degree) + _ceil_log2(width)
    bound = max(1, reports[0].depth if reports else 0) * width * max(1, term)
    ratio = Fraction(rounds, bound)
    return f"{ratio.numerator}/{ratio.denominator}"


def cmd_bench(args) -> int:
    with open(args.suite) as fh:
        spec = json.load(fh)
    if isinstance(spec, list):
        items, mode, kmode = spec, "mis", "linial"
    else:  # the suite's own keys are checked before any graph runs
        _known_keys(_typed(spec, dict, "a suite file"), ("graphs", "mode", "kmode"),
                    "a suite file takes no key")
        items = _entry(spec, "graphs", list)
        mode = spec.get("mode", "mis")
        kmode = spec.get("kmode", "linial")
        check_modes(mode, kmode)
    insts = []  # every item is checked and built before the first colouring
    for i, item in enumerate(items):
        if isinstance(item, str):
            gen, seed = item, args.rng_seed
        else:
            at = f"suite graph {i}"
            _known_keys(_typed(item, dict, at), ("gen", "seed"), f"{at} takes no key")
            gen = _entry(item, "gen", str, f"{at}: ")
            seed = _typed(item.get("seed", args.rng_seed), int, f"{at}: seed")
        kind, params = _parse_gen(gen)
        insts.append(attach_default_lists(generate_graph(kind, params, seed)))
    header = ["n", "delta", "C", "phases", "rounds", "max_bits", "ratio"]
    if not args.no_time:
        header.append("wall_ms")
    lines = [",".join(header)]
    for inst in insts:
        start = time.perf_counter()
        _, reports = list_color_full(inst, mode, kmode)
        wall_ms = round(1000 * (time.perf_counter() - start))
        total = _total(reports)
        row = [
            inst.graph.n,
            inst.graph.max_degree,
            inst.C,
            len(reports),
            total.rounds,
            total.max_bits_by_category[ALGORITHM],
            _bench_ratio(inst, reports, total.rounds),
        ]
        if not args.no_time:
            row.append(wall_ms)
        lines.append(",".join(str(cell) for cell in row))
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return 0


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="congestcolor",
        description="deterministic distributed list coloring on a simulated network",
    )
    sub = top.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="color one graph, print stats as JSON")
    source = run.add_mutually_exclusive_group(required=True)
    source.add_argument("--graph", help="instance file (JSON: n, edges, lists?, C?, psi?)")
    source.add_argument("--gen", help="generator spec, e.g. gnp,n=200,p=0.05")
    run.add_argument(
        "--colors-mode",
        choices=("lists", "degree1"),
        default="degree1",
        help="lists: use the file's lists; degree1: list {0..deg(v)} per node",
    )
    run.add_argument("--mode", choices=MODES, default="mis")
    run.add_argument("--kmode", choices=KMODES, default="linial")
    run.add_argument(
        "--strategy", choices=("conditional", "exhaustive"), default="conditional"
    )
    run.add_argument(
        "--decomp", default="off", help="off, generate, or a decomposition file"
    )
    run.add_argument("--bandwidth", default="measure", help='"measure" or "strict:BETA"')
    run.add_argument("--trace", help="write JSON-lines trace records to this file")
    run.add_argument("--out", help="write the coloring to this file")
    run.add_argument("--rng-seed", type=int, default=0)
    run.set_defaults(func=cmd_run)

    ver = sub.add_parser("verify", help="check a coloring file against an instance")
    ver.add_argument("instance")
    ver.add_argument("coloring")
    ver.set_defaults(func=cmd_verify)

    bench = sub.add_parser("bench", help="run a generated suite, print CSV")
    bench.add_argument(
        "suite", help="JSON file: a list of generator specs, or {graphs, mode, kmode}"
    )
    bench.add_argument(
        "--no-time", action="store_true", help="omit wall_ms so output is reproducible"
    )
    bench.add_argument("--out", help="write the CSV to this file instead of stdout")
    bench.add_argument("--rng-seed", type=int, default=0)
    bench.set_defaults(func=cmd_bench)
    return top


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except InvariantError as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return 3
    except (ValueError, LookupError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
