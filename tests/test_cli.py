"""Command line interface: run, verify, bench."""

import json
import re
import time

import pytest

from congestcolor import cli, derand
from congestcolor.cli import main
from congestcolor.decomposition import generate_decomposition, save_decomposition
from congestcolor.graphs import (
    Graph,
    attach_default_lists,
    generate_graph,
    load_coloring,
    load_instance,
    verify_coloring,
)
from congestcolor.pipeline import list_color_full

RATIO = re.compile(r"^\d+/\d+$")


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_instance(path, n, edges, lists=None, c=None, psi=None):
    payload = {"n": n, "edges": [list(e) for e in edges]}
    if lists is not None:
        payload["lists"] = {str(v): list(l) for v, l in lists.items()}
    if c is not None:
        payload["C"] = c
    if psi is not None:
        payload["psi"] = {str(v): p for v, p in psi.items()}
    path.write_text(json.dumps(payload))


def write_coloring(path, n, colors):
    path.write_text(json.dumps({"n": n, "colors": {str(v): c for v, c in colors.items()}}))


def test_run_path_writes_valid_coloring(tmp_path, capsys):
    out = tmp_path / "col.json"
    code, stdout, _ = run_cli(
        ["run", "--gen", "path,n=5", "--out", str(out)], capsys
    )
    assert code == 0
    stats = json.loads(stdout)
    assert stats["n"] == 5
    assert stats["colored"] == 5
    assert stats["phases"] >= 1
    assert stats["rounds"] >= 1
    assert set(stats["max_bits"]) == {"algorithm", "aggregation"}
    coloring = load_coloring(out)
    inst = attach_default_lists(generate_graph("path", {"n": 5}, 0))
    assert verify_coloring(inst, coloring).ok


def test_run_reports_stats_under_strict_policy(capsys):
    code, stdout, _ = run_cli(
        ["run", "--gen", "cycle,n=12", "--bandwidth", "strict:8"], capsys
    )
    assert code == 0
    stats = json.loads(stdout)
    cap = 8 * max(1, (12 - 1).bit_length())
    assert 0 < stats["max_bits"]["algorithm"] <= cap
    assert stats["max_bits"]["aggregation"] > 0
    assert stats["messages"] > 0


def test_run_trace_is_json_lines(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    code, _, _ = run_cli(
        [
            "run",
            "--gen",
            "gnp,n=24,p=0.15",
            "--mode",
            "avoid-mis",
            "--trace",
            str(trace),
        ],
        capsys,
    )
    assert code == 0
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    phases = [r for r in records if "phase" in r]
    levels = [r for r in records if "level" in r]
    rounds = [r for r in records if "round" in r]
    assert phases and levels and rounds
    assert phases[-1]["remaining"] == 0
    assert all(RATIO.match(r["phi_final"]) for r in phases)
    assert all(RATIO.match(r["phi_after"]) for r in levels)


def test_run_seed_cap_exhausts(capsys):
    code, stdout, stderr = run_cli(
        ["run", "--gen", "star,n=300", "--mode", "avoid-mis", "--strategy", "exhaustive"],
        capsys,
    )
    assert code == 1
    assert stdout == ""
    assert stderr == "error: 2^46 seeds exceed the cap of 16777216\n"


def test_run_round_cap_aborts(capsys):
    # the colouring path takes no round cap: the flag is a usage error
    with pytest.raises(SystemExit) as exc:
        run_cli(["run", "--gen", "cycle,n=16", "--round-cap", "3"], capsys)
    assert exc.value.code == 2
    assert "unrecognized arguments: --round-cap 3" in capsys.readouterr().err


@pytest.mark.parametrize("beta", ["0", "-1"])
def test_run_rejects_strict_cap_below_one(beta, capsys):
    code, stdout, stderr = run_cli(
        ["run", "--gen", "path,n=1", "--bandwidth", f"strict:{beta}"], capsys
    )
    assert code == 1
    assert stdout == ""
    assert stderr.startswith("error: bad bandwidth policy")


def test_run_rejects_bad_generator_spec(capsys):
    code, _, stderr = run_cli(["run", "--gen", "path,n"], capsys)
    assert code == 1
    assert stderr.startswith("error:")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--gen", "regular,n=10"], "error: regular graph needs parameter 'd'\n"),
        (["--graph", "{inst}"], "error: edge 0 endpoint must be an integer, not a string\n"),
        (["--gen", "path,n=4,extra=1"], "error: path graph takes no parameter 'extra'\n"),
        (["--gen", "path,n=4,n=6"], "error: repeated generator parameter 'n'\n"),
        # a misspelt "lists" once coloured from the default lists instead
        (
            ["--graph", "{typo}", "--colors-mode", "lists"],
            "error: an instance file takes no key 'list'\n",
        ),
        # two clusters under one id once coloured two adjacent nodes at once
        (
            ["--gen", "path,n=2", "--decomp", "{twice}"],
            "error: invalid decomposition: partition: cluster id 0 repeated\n",
        ),
    ],
)
def test_run_rejects_malformed_input_with_exit_1(argv, message, tmp_path, capsys):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"n": 2, "edges": [[0, "1"]]}))
    typo = tmp_path / "typo.json"
    typo.write_text(
        json.dumps({"n": 2, "edges": [[0, 1]], "list": {"0": [5, 6], "1": [5, 6]}, "C": 7})
    )
    twice = tmp_path / "twice.json"
    twice.write_text(json.dumps({"alpha": 1, "clusters": [
        {"id": 0, "color": 1, "nodes": [v], "tree_edges": []} for v in (0, 1)
    ]}))
    argv = [a.format(inst=inst, typo=typo, twice=twice) for a in argv]
    code, stdout, stderr = run_cli(["run"] + argv, capsys)
    assert code == 1
    assert stdout == ""
    assert stderr == message


@pytest.mark.parametrize("psi", [3**100, 3**150, 10**400])
def test_run_huge_start_coloring_is_fast(psi, tmp_path, capsys):
    # the first reduction step picks (q, d) for K = psi + 1 in integers
    inst = tmp_path / "inst.json"
    write_instance(inst, 2, [(0, 1)], psi={0: 0, 1: psi})
    start = time.perf_counter()
    code, stdout, stderr = run_cli(["run", "--graph", str(inst)], capsys)
    assert time.perf_counter() - start < 2
    assert (code, stderr) == (0, "")
    stats = json.loads(stdout)
    assert stats["colored"] == 2
    assert stats["max_bits"]["algorithm"] == psi.bit_length()


def test_run_broken_guarantee_exits_3(monkeypatch, capsys):
    # the worse seed bit breaks the conditional chain: a guarantee, not input
    monkeypatch.setattr(derand, "choose_seed_bit", lambda s0, s1: int(s0 <= s1))
    code, stdout, stderr = run_cli(["run", "--gen", "gnp,n=24,p=0.15"], capsys)
    assert code == 3
    assert stdout == ""
    assert stderr.startswith("invariant violated: ")
    code, _, stderr = run_cli(["run", "--gen", "path,n"], capsys)
    assert code == 1
    assert stderr.startswith("error:")


def test_run_decomposition_generate_and_file(tmp_path, capsys):
    code, stdout, _ = run_cli(
        ["run", "--gen", "gnp,n=32,p=0.1", "--decomp", "generate"], capsys
    )
    assert code == 0
    stats = json.loads(stdout)
    assert stats["colored"] == 32
    assert stats["phases"] >= 1

    g = generate_graph("gnp", {"n": 32, "p": 0.1}, 0)
    path = tmp_path / "decomp.json"
    save_decomposition(path, generate_decomposition(g))
    code, stdout, _ = run_cli(
        ["run", "--gen", "gnp,n=32,p=0.1", "--decomp", str(path)], capsys
    )
    assert code == 0
    assert json.loads(stdout)["colored"] == 32


def test_run_lists_mode_needs_graph_file(capsys):
    code, _, stderr = run_cli(
        ["run", "--gen", "path,n=4", "--colors-mode", "lists"], capsys
    )
    assert code == 1
    assert stderr.startswith("error:")


def test_run_lists_mode_respects_file_lists(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    lists = {0: [0, 3], 1: [1, 3, 4], 2: [2, 4]}
    write_instance(inst_path, 3, [(0, 1), (1, 2)], lists=lists, c=5)
    out = tmp_path / "col.json"
    code, _, _ = run_cli(
        ["run", "--graph", str(inst_path), "--colors-mode", "lists", "--out", str(out)],
        capsys,
    )
    assert code == 0
    coloring = load_coloring(out)
    assert all(coloring.colors[v] in lists[v] for v in range(3))


def test_run_empty_instance_with_or_without_lists(tmp_path, capsys):
    # no list at all derives C = 1, as the default lists do; only an
    # explicit C = 0 is refused
    empty = {"n": 0, "colored": 0, "phases": 0, "rounds": 0, "messages": 0}
    inst = tmp_path / "inst.json"
    for payload in ({"n": 0, "edges": []}, {"n": 0, "edges": [], "lists": {}}):
        inst.write_text(json.dumps(payload))
        code, stdout, stderr = run_cli(
            ["run", "--graph", str(inst), "--colors-mode", "lists"], capsys
        )
        assert (code, stderr) == (0, ""), payload
        stats = json.loads(stdout)
        assert {key: stats[key] for key in empty} == empty, payload
    inst.write_text(json.dumps({"n": 0, "edges": [], "lists": {}, "C": 0}))
    code, stdout, stderr = run_cli(["run", "--graph", str(inst), "--colors-mode", "lists"], capsys)
    assert (code, stdout) == (1, "")
    assert stderr == "error: palette size C must be positive\n"


def test_run_lists_with_colours_past_int64(tmp_path, capsys):
    # colours up to 2^71 - 1 (C = 2^71, 71 levels) keep their lists as
    # Python ints; the colouring and its counts are pinned
    T = 1 << 70
    lists = {
        0: [5, T + 1, T + 9],
        1: [T, T + 1, 2 * T - 1],
        2: [1 << 63, T + 9, 2 * T - 2],
        3: [1, (1 << 64) + 3, T],
    }
    inst = tmp_path / "inst.json"
    write_instance(inst, 4, [(0, 1), (1, 2), (2, 3), (0, 3)], lists=lists)
    out = tmp_path / "col.json"
    code, stdout, stderr = run_cli(
        ["run", "--graph", str(inst), "--colors-mode", "lists", "--out", str(out)], capsys
    )
    assert (code, stderr) == (0, "")
    assert json.loads(stdout) == {
        "colored": 4, "max_bits": {"aggregation": 164, "algorithm": 146},
        "messages": 9388, "n": 4, "phases": 1, "rounds": 6256,
    }
    assert load_coloring(out).colors == [5, 2 * T - 1, 1 << 63, T]


def test_run_rng_seed_picks_the_generated_graph(tmp_path, capsys):
    out = tmp_path / "col.json"
    code, stdout, _ = run_cli(
        ["run", "--gen", "gnp,n=30,p=0.1", "--rng-seed", "7", "--out", str(out)],
        capsys,
    )
    assert code == 0
    assert json.loads(stdout)["colored"] == 30
    inst = attach_default_lists(generate_graph("gnp", {"n": 30, "p": 0.1}, 7))
    assert verify_coloring(inst, load_coloring(out)).ok


def test_run_graph_file_with_degree1_lists(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    write_instance(inst_path, 4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    code, stdout, _ = run_cli(["run", "--graph", str(inst_path)], capsys)
    assert code == 0
    assert json.loads(stdout)["colored"] == 4


def test_verify_accepts_valid_coloring(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    col_path = tmp_path / "col.json"
    write_instance(inst_path, 3, [(0, 1), (1, 2)])
    write_coloring(col_path, 3, {0: 0, 1: 1, 2: 0})
    code, stdout, _ = run_cli(["verify", str(inst_path), str(col_path)], capsys)
    assert code == 0
    assert stdout.strip() == "ok"


def test_verify_flags_monochromatic_edge(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    col_path = tmp_path / "col.json"
    write_instance(inst_path, 3, [(0, 1), (1, 2)])
    write_coloring(col_path, 3, {0: 0, 1: 0, 2: 1})
    code, stdout, _ = run_cli(["verify", str(inst_path), str(col_path)], capsys)
    assert code == 1
    assert "edge (0, 1)" in stdout


def test_verify_flags_color_outside_list(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    col_path = tmp_path / "col.json"
    write_instance(inst_path, 3, [(0, 1), (1, 2)])
    write_coloring(col_path, 3, {0: 0, 1: 9, 2: 0})
    code, stdout, _ = run_cli(["verify", str(inst_path), str(col_path)], capsys)
    assert code == 1
    assert "node 1" in stdout


def test_verify_flags_uncolored_node(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    col_path = tmp_path / "col.json"
    write_instance(inst_path, 3, [(0, 1), (1, 2)])
    write_coloring(col_path, 3, {0: 0, 1: 1, 2: None})
    code, stdout, _ = run_cli(["verify", str(inst_path), str(col_path)], capsys)
    assert code == 1
    assert "node 2" in stdout
    assert "uncolored" in stdout


def test_verify_missing_file(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    write_instance(inst_path, 2, [(0, 1)])
    code, _, stderr = run_cli(
        ["verify", str(inst_path), str(tmp_path / "nope.json")], capsys
    )
    assert code == 1
    assert stderr.startswith("error:")


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"n": 2, "colors": [0, 1]}, "colors must be an object, not an array"),
        ([0, 1], "a coloring file must be an object, not an array"),
        ({"n": 2, "colors": {"0": 1.7, "1": 0}}, "color of node 0 must be an integer, not a number"),
        ({"n": 2, "colors": {"0": "1", "1": 0}}, "color of node 0 must be an integer, not a string"),
        ({"n": "2", "colors": {}}, "n must be an integer, not a string"),
        ({"colors": {}}, "missing key 'n'"),
        ({"n": 2}, "missing key 'colors'"),
        ({"n": -3, "colors": {}}, "node count must be nonnegative, got n=-3"),
        ({"n": 2, "colors": {"0": 0, "1": 1, "7": "x"}}, "colors: '7' is not a node id in 0..1"),
    ],
)
def test_verify_rejects_malformed_coloring_with_exit_1(payload, message, tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    col_path = tmp_path / "col.json"
    write_instance(inst_path, 2, [(0, 1)])
    col_path.write_text(json.dumps(payload))
    code, stdout, stderr = run_cli(["verify", str(inst_path), str(col_path)], capsys)
    assert code == 1
    assert stdout == ""
    assert stderr == f"error: {message}\n"


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"n": 2}, "missing key 'edges'"),
        ({"edges": [[0, 1]]}, "missing key 'n'"),
    ],
)
def test_run_names_missing_instance_key(payload, message, tmp_path, capsys):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(payload))
    code, stdout, stderr = run_cli(["run", "--graph", str(inst)], capsys)
    assert code == 1
    assert stdout == ""
    assert stderr == f"error: {message}\n"


@pytest.mark.parametrize(
    "suite, message",
    [
        ({"graphs": 5}, "graphs must be an array, not an integer"),
        ({"mode": "mis"}, "missing key 'graphs'"),
        (5, "a suite file must be an object, not an integer"),
        ([5], "suite graph 0 must be an object, not an integer"),
        ([{"seed": 1}], "suite graph 0: missing key 'gen'"),
        ([{"gen": 5}], "suite graph 0: gen must be a string, not an integer"),
        ([{"gen": "path,n=3", "seed": [1]}], "suite graph 0: seed must be an integer, not an array"),
        # keys the reader would otherwise skip or leave unchecked
        ({"graphs": [], "mode": "foo", "kmode": 7}, "unknown mode 'foo'"),
        ({"graphs": ["path,n=3"], "mdoe": "avoid-mis"}, "a suite file takes no key 'mdoe'"),
        ([{"gen": "path,n=3", "sede": 5}], "suite graph 0 takes no key 'sede'"),
        ({"graphs": [], "kmode": 7}, "unknown kmode 7"),
        ({"graphs": [], "kmode": "sorted"}, "unknown kmode 'sorted'"),
        # a bad item after a good one is found before any graph is coloured
        (["path,n=3", {"gen": "path,n=3", "sede": 1}], "suite graph 1 takes no key 'sede'"),
        (["path,n=3", "gnp,n=3"], "gnp graph needs parameter 'p'"),
    ],
)
def test_bench_rejects_malformed_suite_with_exit_1(
    suite, message, tmp_path, capsys, monkeypatch
):
    coloured = []
    monkeypatch.setattr(
        cli, "list_color_full", lambda *a, **k: coloured.append(a) or list_color_full(*a, **k)
    )
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(suite))
    code, stdout, stderr = run_cli(["bench", str(path), "--no-time"], capsys)
    assert code == 1
    assert stdout == ""
    assert stderr == f"error: {message}\n"
    assert coloured == []


def test_bench_emits_one_row_per_graph(tmp_path, capsys):
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps(["path,n=6", "cycle,n=8"]))
    code, stdout, _ = run_cli(["bench", str(suite)], capsys)
    assert code == 0
    lines = stdout.splitlines()
    assert lines[0] == "n,delta,C,phases,rounds,max_bits,ratio,wall_ms"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "6"
    assert RATIO.match(first[6])
    assert lines[2].split(",")[0] == "8"


def test_bench_no_time_is_deterministic(tmp_path, capsys):
    suite = tmp_path / "suite.json"
    suite.write_text(
        json.dumps({"graphs": ["gnp,n=20,p=0.2", "clique,n=5"], "mode": "avoid-mis"})
    )
    code, first, _ = run_cli(["bench", str(suite), "--no-time"], capsys)
    assert code == 0
    code, second, _ = run_cli(["bench", str(suite), "--no-time"], capsys)
    assert code == 0
    assert first == second
    assert first.splitlines()[0] == "n,delta,C,phases,rounds,max_bits,ratio"


def test_bench_empty_suite_prints_header_only(tmp_path, capsys):
    suite = tmp_path / "suite.json"
    suite.write_text("[]")
    code, stdout, _ = run_cli(["bench", str(suite), "--no-time"], capsys)
    assert code == 0
    assert stdout == "n,delta,C,phases,rounds,max_bits,ratio\n"


def test_bench_writes_csv_file(tmp_path, capsys):
    suite = tmp_path / "suite.json"
    out = tmp_path / "rows.csv"
    suite.write_text(json.dumps(["star,n=7"]))
    code, stdout, _ = run_cli(
        ["bench", str(suite), "--no-time", "--out", str(out)], capsys
    )
    assert code == 0
    assert stdout == ""
    lines = out.read_text().splitlines()
    assert len(lines) == 2 and lines[1].startswith("7,")


def test_bench_reads_no_diameter(tmp_path, capsys, monkeypatch):
    # the bound takes the first phase's forest height, not one BFS per node
    def refuse(graph):
        raise AssertionError("bench computed a diameter")

    monkeypatch.setattr(Graph, "diameter", property(refuse))
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps(["star,n=9", "path,n=6"]))
    code, stdout, _ = run_cli(["bench", str(suite), "--no-time"], capsys)
    assert code == 0
    lines = stdout.splitlines()
    assert len(lines) == 3 and lines[1] == "9,8,9,1,149,12,149/36"  # star: h = 1, D = 2
