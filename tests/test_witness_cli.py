"""Witness records and the command line front end.

CLI subcommands run in-process through ``main(argv)``. Two subprocess tests
run ``semicayley gen looped-path`` as a console script would: one resolves
the ``semicayley`` entry point that this checkout's ``pyproject.toml``
declares and calls it the way an installed wrapper does, against the same
package the suite imports; the other runs the ``semicayley`` executable on
``PATH`` and is skipped where none is installed. Two more run the package
with ``python -m``: ``python -m semicayley gen looped-path``, and a
``recognize`` whose search goes 36 cells deep, and one more runs
``tree-classify`` into a pipe that is closed after the first line.  Each
subcommand of the benchmark's CLI mix runs once under ``-X importtime``
to check the modules its process loads.
"""

from __future__ import annotations

import hashlib
import io
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (child_env, cycle_graph, functional_digraph,
                      looped_to_zero, path_graph, petersen)
from semicayley import (
    Budget,
    Digraph,
    MulTable,
    SimpleGraph,
    classify_tree,
    construct_monoid,
    construct_semigroup,
    decide_monoid,
    decide_semigroup,
    embed_monoid,
    embed_undirected,
    enumerate_graphs,
    format_graph,
    format_witness_record,
    greedy_cover,
    parse_witness_record,
    profile,
    recognize_monoid_digraph,
    recognize_monoid_graph,
    recognize_semigroup_digraph,
    sabidussi_check,
    verify_witness,
    witness_ok,
)
from semicayley import cli
from semicayley.cli import MAX_ORDER, main
from semicayley.graphs import parse_graph, weak_components
from semicayley.families import gen_perfect_kary, looped_path_digraph, gen_threshold
from semicayley.witness import CayleyWitness, WitnessRecordError
from semicayley.zelinka import forest_witness


def roundtrip(w, g):
    text = format_witness_record(w, g)
    back_w, back_g, recorded = parse_witness_record(text)
    assert back_w.mode == w.mode and back_w.carrier == w.carrier
    assert back_w.connection == w.connection
    assert back_w.vertex_map == w.vertex_map
    assert back_w.table.rows == w.table.rows
    assert back_w.table.identity == w.table.identity
    assert type(back_g) is type(g)
    assert recorded == verify_witness(w, g)
    return text


def test_record_roundtrip_digraph_witness():
    g = functional_digraph([1, 2, 0, 0])
    roundtrip(construct_monoid(g), g)


def test_record_roundtrip_undirected_witness():
    g, w = gen_threshold("dd")
    text = roundtrip(w, g)
    assert "mode: monoid-graph" in text
    assert "carrier: undirected" in text


def test_record_roundtrip_forest_witness():
    g = cycle_graph(4)
    f = type(g)(4, [(0, 1), (1, 2)])
    roundtrip(forest_witness(f), f)


def _producer_records():
    """``(witness, graph)`` from every producer over small inputs: the
    three digraph routes, the Zelinka constructions and embeddings on
    outregular digraphs of order <= 4, the undirected search (with and
    without generation), forests, the tree classifier and undirected
    embeddings on simple graphs of order <= 5, and threshold graphs."""
    def budget():
        return Budget(max_nodes=10**7, max_seconds=None)

    for n in range(1, 5):
        for g in enumerate_graphs(n, "digraph-outregular"):
            for route in (recognize_monoid_digraph,
                          recognize_semigroup_digraph, sabidussi_check):
                w = route(g, budget()).witness
                if w is not None:
                    yield w, g
            k = max(g.out_degrees())
            if k == 1:
                p = profile(g)
                if decide_monoid(p)[0]:
                    yield construct_monoid(g), g
                if decide_semigroup(p)[0]:
                    yield construct_semigroup(g), g
            if k >= 1:
                yield embed_monoid(g, greedy_cover(g, k)), g
    for n in range(1, 6):
        for g in enumerate_graphs(n, "simple"):
            for generated in (False, True):
                w = recognize_monoid_graph(
                    g, budget(), require_generated=generated).witness
                if w is not None:
                    yield w, g
            if len(g.edges) == n - 1 and weak_components(g).count == 1:
                yield forest_witness(g), g
                w = classify_tree(g).witness
                if w is not None:
                    yield w, g
            if min(g.degrees()) >= 1:
                yield embed_undirected(g), g
    for seq in ("", "d", "i", "dd", "di", "idid", "ddii", "iiid", "didid"):
        g, w = gen_threshold(seq)
        yield w, g


def test_producer_records_frozen():
    """One sha256 over the text record of every producer's witness on a
    fixed corpus: how a witness is built and checked may change, the
    records may not."""
    digest = hashlib.sha256()
    count = 0
    for w, g in _producer_records():
        digest.update(format_witness_record(w, g).encode())
        count += 1
    assert count == 512
    assert digest.hexdigest() == (
        "63d0ae806a6b9751c50c4ff6c6db74f3bc00929fdc7ddd854d84fee37abe279f")


def test_tampered_record_fails_verification():
    g, w = gen_threshold("d")
    text = format_witness_record(w, g)
    tampered = text.replace("connection: 1", "connection: 0")
    back_w, back_g, _ = parse_witness_record(tampered)
    assert not witness_ok(back_w, back_g)


def test_parse_record_rejects_garbage():
    with pytest.raises(WitnessRecordError):
        parse_witness_record("not a record\n")


def _valid_records():
    g = functional_digraph([1, 2, 0, 0])
    f = SimpleGraph(4, [(0, 1), (1, 2)])
    c = Digraph(3, [(0, 1), (1, 2), (2, 0), (2, 2)])
    return [format_witness_record(construct_monoid(g), g),
            format_witness_record(forest_witness(f), f),
            format_witness_record(embed_monoid(c, greedy_cover(c, 2)), c)]


VALID_RECORDS = _valid_records()
RECORD_LINES = sorted({line for r in VALID_RECORDS for line in r.splitlines()})


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mutated_records_parse_or_raise_record_error(data):
    """Records with lines replaced, inserted or deleted and digits flipped
    either parse, and then verify to a dict of checks, or raise
    ``WitnessRecordError``; no other exception escapes."""
    lines = data.draw(st.sampled_from(VALID_RECORDS)).splitlines()
    some_line = st.one_of(st.sampled_from(RECORD_LINES),
                          st.text("0123456789 :-abcdeghnprt", max_size=12))
    for _ in range(data.draw(st.integers(1, 4))):
        op = data.draw(st.sampled_from(("replace", "insert", "delete", "flip")))
        i = data.draw(st.integers(0, len(lines)))
        if op == "insert":
            lines.insert(i, data.draw(some_line))
        elif op == "flip":
            digits = [(r, c) for r, line in enumerate(lines)
                      for c, ch in enumerate(line) if ch.isdigit()]
            if digits:
                r, c = data.draw(st.sampled_from(digits))
                d = data.draw(st.sampled_from("0123456789"))
                lines[r] = lines[r][:c] + d + lines[r][c + 1:]
        elif i < len(lines):
            if op == "replace":
                lines[i] = data.draw(some_line)
            else:
                del lines[i]
    try:
        w, g, _ = parse_witness_record("\n".join(lines) + "\n")
    except WitnessRecordError:
        return
    assert isinstance(verify_witness(w, g), dict)


def test_witness_rejects_unknown_mode():
    t = MulTable(1, [[0]], identity=0)
    with pytest.raises(ValueError):
        CayleyWitness("quasigroup", t, frozenset(), (0,))


# -- command line ----------------------------------------------------------


def run_cli(argv, stdin: str = "", monkeypatch=None, capsys=None):
    if monkeypatch is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_cli_check_zelinka(monkeypatch, capsys):
    code, out, _ = run_cli(["check-zelinka"], "3 directed\n0 1\n1 2\n2 0\n",
                           monkeypatch, capsys)
    assert code == 0
    assert "monoid: yes" in out and "semigroup: yes" in out


def test_cli_construct_zelinka_negative(monkeypatch, capsys):
    graph = "5 directed\n0 1\n1 2\n2 0\n3 4\n4 3\n"
    code, _, err = run_cli(["construct-zelinka"], graph, monkeypatch, capsys)
    assert code == 1 and "dominant" in err


@pytest.mark.parametrize("mode, graph, identity", [
    # a 3-cycle with the tail 4 -> 3 -> 0, next to a loop
    ("monoid", "6 directed\n0 1\n1 2\n2 0\n3 0\n4 3\n5 5\n", 4),
    # a looped vertex with one in-arc, next to a 2-cycle: semigroup only
    ("semigroup", "4 directed\n0 0\n1 0\n2 3\n3 2\n", None),
])
def test_cli_construct_zelinka_positive(mode, graph, identity, monkeypatch,
                                        capsys):
    code, out, _ = run_cli(["construct-zelinka", "--mode", mode], graph,
                           monkeypatch, capsys)
    assert code == 0
    w, g, recorded = parse_witness_record(out)
    assert all(recorded.values()) and witness_ok(w, g)
    assert w.mode == f"{mode}-digraph" and w.table.identity == identity


@pytest.mark.parametrize("sub", ["check-zelinka", "construct-zelinka"])
def test_cli_zelinka_refuses_a_digraph_that_is_not_1_outregular(
        sub, monkeypatch, capsys):
    code, out, err = run_cli([sub], "3 directed\n0 1\n1 2\n", monkeypatch,
                             capsys)
    assert (code, out) == (1, "")
    assert err == "error: not 1-outregular: missing out-arc\n"


def test_cli_recognize_witness_roundtrips(monkeypatch, capsys):
    code, out, _ = run_cli(["recognize", "--mode", "monoid-digraph"],
                           "3 directed\n0 1\n1 2\n2 0\n", monkeypatch, capsys)
    assert code == 0
    assert "status: witness" in out
    record = out[out.index("cayley-witness"):]
    w, g, recorded = parse_witness_record(record)
    assert all(recorded.values()) and witness_ok(w, g)


def test_cli_recognize_negative_exit_zero(monkeypatch, capsys):
    from semicayley.graphs import format_graph
    code, out, _ = run_cli(["recognize", "--mode", "semigroup-digraph"],
                           format_graph(looped_path_digraph()), monkeypatch, capsys)
    assert code == 0 and "status: exhausted-no" in out


def test_cli_recognize_budget_exit_two(monkeypatch, capsys):
    graph = "9 undirected\n" + "".join(
        f"{i} {(i + 1) % 9}\n{i} {(i + 2) % 9}\n" for i in range(9))
    code, out, _ = run_cli(
        ["recognize", "--mode", "monoid-graph", "--max-nodes", "40"],
        graph, monkeypatch, capsys)
    assert code == 2 and "budget-exceeded" in out


def test_cli_recognize_flag_mode_mismatch(monkeypatch, capsys):
    code, _, err = run_cli(
        ["recognize", "--mode", "monoid-digraph", "--require-generated"],
        "2 directed\n0 1\n1 0\n", monkeypatch, capsys)
    assert code == 1 and "monoid-graph" in err


def test_cli_parse_error_exit_one(monkeypatch, capsys):
    code, _, err = run_cli(["recognize", "--mode", "monoid-digraph"],
                           "bogus\n", monkeypatch, capsys)
    assert code == 1 and "line 1" in err


def test_cli_usage_error_exit_one(capsys):
    assert main(["recognize", "--mode", "made-up"]) == 1
    capsys.readouterr()
    assert main(["recognize", "--mode", "monoid-digraph",
                 "--no-column-prunes"]) == 1
    assert "unrecognized arguments: --no-column-prunes" in capsys.readouterr().err


def test_cli_gen_pipes_into_tree_classify(monkeypatch, capsys):
    code, out, _ = run_cli(["gen", "perfect-kary", "2", "2"],
                           capsys=capsys)
    assert code == 0 and out.startswith("7 undirected")
    code, verdict, _ = run_cli(["tree-classify"], out, monkeypatch, capsys)
    assert code == 0 and "verdict: yes" in verdict


def test_cli_gen_threshold_emits_graph_and_witness(capsys):
    code = main(["gen", "threshold", "--seq", "dd"])
    out, _ = capsys.readouterr()
    assert code == 0
    assert out.startswith("3 undirected")
    record = out[out.index("cayley-witness"):]
    w, g, _ = parse_witness_record(record)
    assert witness_ok(w, g)


def test_cli_tree_classify_undecided_and_no(monkeypatch, capsys):
    code, out, _ = run_cli(
        ["tree-classify"],
        "8 undirected\n0 1\n0 4\n0 7\n1 2\n2 3\n4 5\n5 6\n",
        monkeypatch, capsys)
    assert code == 0 and "verdict: undecided" in out
    code, out, _ = run_cli(
        ["tree-classify", "--escalate"],
        "8 undirected\n0 1\n0 4\n0 7\n1 2\n2 3\n4 5\n5 6\n",
        monkeypatch, capsys)
    assert code == 0 and "verdict: no" in out


def test_cli_tree_classify_escalated_yes_is_certified_generated(
        monkeypatch, capsys):
    code, out, _ = run_cli(
        ["tree-classify", "--escalate"],
        "8 undirected\n0 1\n0 5\n0 7\n1 2\n1 4\n2 3\n5 6\n",
        monkeypatch, capsys)
    assert code == 0 and out.startswith("verdict: yes\n")
    record = out[out.index("cayley-witness"):]
    assert "mode: generated-monoid-tree\n" in record
    assert "check generated: true\n" in record
    w, g, recorded = parse_witness_record(record)
    assert all(recorded.values()) and witness_ok(w, g)


def test_cli_recognize_runs_every_census_mode(monkeypatch, capsys):
    """``recognize --mode`` and the census read one mode table: a mode
    added to only one of them fails here."""
    from semicayley import outcome, recognize

    assert tuple(recognize._RECOGNIZERS) == outcome.CENSUS_MODES
    for mode in outcome.CENSUS_MODES:
        kind = "undirected" if mode == "monoid-graph" else "directed"
        code, out, _ = run_cli(["recognize", "--mode", mode], f"1 {kind}\n",
                               monkeypatch, capsys)
        assert code == 0 and out.startswith("status: witness\n")
        w, g, recorded = parse_witness_record(out[out.index("cayley-witness"):])
        assert w.mode == mode and all(recorded.values())


def test_cli_census_summary_on_stderr(capsys):
    code = main(["census", "3", "--mode", "semigroup-digraph"])
    out, err = capsys.readouterr()
    assert code == 0
    assert len(out.strip().splitlines()) == 16
    assert "exhausted-no=3" in err and "witness=13" in err


def test_cli_verify_witness_detects_tampering(tmp_path, capsys):
    g, w = gen_threshold("d")
    text = format_witness_record(w, g)
    good = tmp_path / "good.rec"
    good.write_text(text)
    assert main(["verify-witness", str(good)]) == 0
    capsys.readouterr()
    bad = tmp_path / "bad.rec"
    bad.write_text(text.replace("connection: 1", "connection: 0"))
    code = main(["verify-witness", str(bad)])
    out, _ = capsys.readouterr()
    assert code == 1 and "false" in out


def test_cli_invariants_regular_graph(monkeypatch, capsys):
    code, out, _ = run_cli(["invariants", "--beta", "0"],
                           "5 undirected\n0 1\n1 2\n2 3\n3 4\n4 0\n",
                           monkeypatch, capsys)
    assert code == 0
    lines = dict(line.split("\t") for line in out.strip().splitlines())
    assert lines["pseudoarboricity"] == "1"
    assert lines["independence-number"] == "2"
    assert lines["beta[0]"] == "2"
    assert abs(float(lines["lambda"]) - 1.618034) < 1e-5


def test_cli_invariants_beta_two_on_petersen(monkeypatch, capsys):
    code, out, _ = run_cli(["invariants", "--beta", "2"],
                           format_graph(petersen()), monkeypatch, capsys)
    assert code == 0
    assert "beta[2]\t10" in out.splitlines()


def test_cli_embed_directed_and_undirected(monkeypatch, capsys):
    code, out, _ = run_cli(["embed"], "3 directed\n0 1\n1 2\n2 0\n",
                           monkeypatch, capsys)
    assert code == 0
    w, g, recorded = parse_witness_record(out)
    assert all(recorded.values())
    code, out, _ = run_cli(["embed"], "4 undirected\n0 1\n1 2\n2 3\n3 0\n",
                           monkeypatch, capsys)
    assert code == 0 and "mode: embedding" in out


def test_cli_embed_budget_and_sink(monkeypatch, capsys):
    code, out, err = run_cli(["embed", "--max-maps", "1"],
                             "3 directed\n0 1\n1 2\n2 0\n", monkeypatch, capsys)
    assert (code, out) == (2, "") and err.startswith("budget exceeded: ")
    code, out, err = run_cli(["embed"], "3 directed\n0 1\n1 2\n",
                             monkeypatch, capsys)
    assert (code, out, err) == (1, "", "error: vertex 2 is a sink\n")


@pytest.mark.parametrize("argv", [
    ["invariants"], ["tree-classify"], ["recognize", "--mode", "monoid-graph"],
], ids=["invariants", "tree-classify", "recognize"])
def test_cli_refuses_a_digraph_where_a_graph_is_needed(argv, monkeypatch, capsys):
    code, out, err = run_cli(argv, "2 directed\n0 1\n1 0\n", monkeypatch,
                             capsys)
    assert (code, out) == (1, "")
    assert err == "error: this subcommand needs an undirected graph\n"


@pytest.mark.parametrize("argv, message", [
    (["recognize", "--mode", "monoid-graph", "--max-nodes", "-1"],
     "node budget must be >= 0, got -1"),
    (["recognize", "--mode", "monoid-graph", "--max-seconds", "-0.5"],
     "time budget must be >= 0 seconds, got -0.5"),
    (["census", "3", "--mode", "monoid-graph", "--max-nodes", "-1"],
     "node budget must be >= 0, got -1"),
    (["recognize", "--mode", "monoid-graph", "--max-connection", "0"],
     "max_connection must be >= 1, got 0"),
    (["embed", "--max-maps", "0"], "max_maps must be >= 1, got 0"),
], ids=["recognize-nodes", "recognize-seconds", "census-nodes",
        "max-connection", "max-maps"])
def test_cli_out_of_range_bounds_are_input_errors(argv, message, monkeypatch,
                                                  capsys):
    """The path 0-1-2 is a monoid graph, so a zero --max-connection would
    give a vacuous negative; each bound is refused before any search."""
    code, out, err = run_cli(argv, "3 undirected\n0 1\n1 2\n", monkeypatch,
                             capsys)
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_cli_smallest_bounds_are_accepted(monkeypatch, capsys):
    graph = "3 undirected\n0 1\n1 2\n"
    code, out, _ = run_cli(["recognize", "--mode", "monoid-graph",
                            "--max-nodes", "0"], graph, monkeypatch, capsys)
    assert (code, out) == (2, "status: budget-exceeded\nnodes: 1\n")
    code, out, _ = run_cli(["recognize", "--mode", "monoid-graph",
                            "--max-connection", "1"], graph, monkeypatch, capsys)
    assert code == 0 and out.startswith("status: witness\nnodes: 8\n"
                                        "scope: identities of degree <= 1\n")


def test_cli_recognize_time_budget_exit_two(monkeypatch, capsys):
    from semicayley.families import gen_K4_Cl

    code, out, _ = run_cli(["recognize", "--mode", "monoid-graph",
                            "--max-seconds", "0"],
                           format_graph(gen_K4_Cl(5)), monkeypatch, capsys)
    assert code == 2 and out == "status: budget-exceeded\nnodes: 4096\n"


def test_cli_missing_file_exit_one(capsys):
    code = main(["check-zelinka", "/nonexistent/graph.txt"])
    _, err = capsys.readouterr()
    assert code == 1 and "cannot read" in err


@pytest.mark.parametrize("argv, kind", [
    (["check-zelinka"], "directed"),
    (["construct-zelinka"], "directed"),
    (["embed"], "undirected"),
    (["recognize", "--mode", "monoid-digraph"], "directed"),
    (["recognize", "--mode", "monoid-graph"], "undirected"),
    (["tree-classify"], "undirected"),
    (["invariants"], "undirected"),
])
def test_cli_refuses_orders_over_the_cap(argv, kind, monkeypatch, capsys):
    cap = MAX_ORDER[argv[0]]
    code, out, err = run_cli(argv, f"{cap + 1} {kind}\n", monkeypatch, capsys)
    assert (code, out) == (1, "")
    assert err == f"error: {argv[0]} accepts orders up to {cap}, got {cap + 1}\n"


def test_cli_invariants_cap_is_the_subset_scan_cap():
    """Every order under the cap is one whose arboricity is computed."""
    from semicayley.invariants import _SUBSET_CAP

    assert MAX_ORDER["invariants"] == _SUBSET_CAP


def test_cli_recognize_accepts_its_cap(monkeypatch, capsys):
    """The cap leaves room for the deep searches at orders 36 and 45."""
    cap = MAX_ORDER["recognize"]
    assert cap >= 45
    code, out, _ = run_cli(["recognize", "--mode", "monoid-graph"],
                           f"{cap} undirected\n", monkeypatch, capsys)
    assert code == 0 and out.startswith("status: witness\n")


def _record(graph: str, table: str) -> str:
    return ("cayley-witness\nmode: monoid-digraph\ncarrier: directed\n"
            f"graph:\n{graph}end-graph\ntable:\n{table}end-table\n"
            "connection: 0\nvertex-map: 0\nend-witness\n")


def test_cli_verify_witness_refuses_orders_over_the_cap(monkeypatch, capsys):
    from semicayley.outcome import MAX_CARRIER_ORDER

    cap = MAX_ORDER["verify-witness"]
    assert cap == MAX_CARRIER_ORDER == MAX_ORDER["embed"] + 1
    code, out, err = run_cli(["verify-witness"],
                             _record(f"{cap + 1} directed\n", "1 0\n0\n"),
                             monkeypatch, capsys)
    assert (code, out) == (1, "")
    assert err == f"error: verify-witness accepts orders up to {cap}, got {cap + 1}\n"
    # a table header over the cap without its rows fails to parse at once
    code, out, err = run_cli(["verify-witness"],
                             _record("1 directed\n0 0\n", f"{cap + 1} 0\n"),
                             monkeypatch, capsys)
    assert (code, out) == (1, "")
    assert "bad table block" in err
    code, out, _ = run_cli(["verify-witness"],
                           _record("1 directed\n0 0\n", "1 0\n0\n"),
                           monkeypatch, capsys)
    assert code == 0 and "false" not in out


def test_cli_verify_witness_caps_the_table_order(monkeypatch, capsys):
    """A complete table one over the cap, with the cap lowered to 1."""
    monkeypatch.setitem(MAX_ORDER, "verify-witness", 1)
    code, out, err = run_cli(["verify-witness"],
                             _record("1 directed\n0 0\n", "2 0\n0 1\n1 1\n"),
                             monkeypatch, capsys)
    assert (code, out) == (1, "")
    assert err == "error: verify-witness accepts orders up to 1, got 2\n"


def test_cli_tree_classify_perfect_binary_depth_six(monkeypatch, capsys):
    """The 127-vertex perfect binary tree is classified, not refused."""
    code, tree, _ = run_cli(["gen", "perfect-kary", "2", "6"], "",
                            monkeypatch, capsys)
    assert code == 0 and tree.startswith("127 undirected\n")
    code, out, _ = run_cli(["tree-classify", "-"], tree, monkeypatch, capsys)
    assert code == 0 and out.startswith("verdict: yes\n")


def test_cli_unexpected_exception_exits_three(monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("broken\non two lines")

    monkeypatch.setattr(cli, "_cmd_check_zelinka", broken)
    code, out, err = run_cli(["check-zelinka"], "1 directed\n0 0\n",
                             monkeypatch, capsys)
    assert (code, out) == (3, "")
    assert err == "internal error: RuntimeError: broken on two lines\n"
    assert "Traceback" not in err


@pytest.mark.parametrize("params", [
    ["gkl", "2"], ["gklk", "2", "3"], ["k4cl"], ["perfect-kary", "2"],
    ["tplus", "2", "3", "4"], ["looped-path", "1"], ["smallest-tree", "1"],
    ["threshold", "1"],
])
def test_cli_gen_checks_the_parameter_count(params, capsys):
    code, out, err = run_cli(["gen", *params], capsys=capsys)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: gen {params[0]} takes ") and err.count("\n") == 1


@pytest.mark.parametrize("params", [
    ["gkl", "1", "4097"],            # k^2 + (ell - 1) k = 4097
    ["gklk", "1", "4097", "1"],      # merges a 4097-vertex gkl
    ["k4cl", "4093"],
    ["perfect-kary", "2", "12"],     # 8,191
    ["perfect-kary", "2", "40"],     # refused before any level is built
    ["tplus", "1", "4095"],          # a 4096-vertex path plus one leaf
])
def test_cli_gen_refuses_families_over_the_cap(params, capsys):
    assert cli.MAX_CARRIER_ORDER == 4096
    code, out, err = run_cli(["gen", *params], capsys=capsys)
    assert (code, out) == (1, "")
    assert err == ("error: gen builds families of up to 4096 vertices; "
                   f"this {params[0]} would have more\n")


def test_cli_gen_accepts_families_at_the_cap(monkeypatch, capsys):
    for params, n in ((["k4cl", "4092"], 4096), (["tplus", "2", "11"], 4096)):
        code, out, _ = run_cli(["gen", *params], capsys=capsys)
        assert code == 0 and out.startswith(f"{n} undirected\n")
    # threshold graphs count one vertex more than their creation sequence
    monkeypatch.setattr(cli, "MAX_CARRIER_ORDER", 3)
    code, out, _ = run_cli(["gen", "threshold", "--seq", "id"], capsys=capsys)
    assert code == 0 and out.startswith("3 undirected\n")
    code, out, err = run_cli(["gen", "threshold", "--seq", "idd"], capsys=capsys)
    assert (code, out) == (1, "") and err.startswith("error: gen builds")


def test_cli_gen_threshold_is_capped_by_its_table(capsys):
    """``gen threshold`` prints an n x n table, so it takes the
    ``construct-zelinka`` cap of 512 vertices, not 4096."""
    assert MAX_ORDER["construct-zelinka"] == 512
    code, out, err = run_cli(["gen", "threshold", "--seq", "i" * 512],
                             capsys=capsys)
    assert (code, out) == (1, "")
    assert err == ("error: gen builds families of up to 512 vertices; "
                   "this threshold would have more\n")
    code, out, _ = run_cli(["gen", "threshold", "--seq", "i" * 511],
                           capsys=capsys)
    assert code == 0 and out.startswith("512 undirected\n")


def test_cli_gen_gkl_prints_a_large_outregular_digraph(capsys):
    """``gen gkl 8 500`` has 64 + 499 * 8 = 4,056 vertices, each of
    outdegree 8."""
    code, out, _ = run_cli(["gen", "gkl", "8", "500"], capsys=capsys)
    assert code == 0 and out.startswith("4056 directed\n")
    g = parse_graph(out)
    assert g.order == 4056 and g.is_k_outregular(8)


@pytest.mark.parametrize("workers", ["0", "100000"])
def test_cli_census_bounds_workers_before_starting_any(workers, monkeypatch,
                                                       capsys):
    def no_workers(*args, **kwargs):
        raise AssertionError("a worker was started")

    monkeypatch.setattr(os, "fork", no_workers)
    code, out, err = run_cli(
        ["census", "3", "--mode", "monoid-graph", "--workers", workers],
        capsys=capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: --workers must be between 1 and ")
    assert err.count("\n") == 1


def test_cli_census_workers_bound_is_the_cpus_the_process_may_use(
        monkeypatch, capsys):
    """The bound is the process's CPU affinity, not the machine's count."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    code, out, err = run_cli(
        ["census", "3", "--mode", "monoid-graph", "--workers", "2"],
        capsys=capsys)
    assert (code, out) == (1, "")
    assert err == "error: --workers must be between 1 and 1, got 2\n"
    many = set(range((os.cpu_count() or 1) + 1))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: many)
    argv = ["census", "3", "--mode", "monoid-graph", "--workers", str(len(many))]
    code, out, err = run_cli(argv, capsys=capsys)
    assert code == 0 and err == "# total=4 witness=4\n"
    assert len(out.splitlines()) == 4


def test_cli_recognize_states_the_scope_of_a_restricted_search(
        monkeypatch, capsys):
    """A negative under ``--max-connection`` says which identities it
    exhausted; an unrestricted answer prints no scope."""
    from semicayley.families import gen_K4_Cl

    code, out, _ = run_cli(
        ["recognize", "--mode", "monoid-graph", "--max-connection", "2"],
        format_graph(gen_K4_Cl(5)), monkeypatch, capsys)
    assert code == 0
    assert out == ("status: exhausted-no\nnodes: 621526\n"
                   "scope: identities of degree <= 2\n")
    code, out, _ = run_cli(["recognize", "--mode", "monoid-graph"],
                           format_graph(cycle_graph(5)), monkeypatch, capsys)
    assert code == 0 and "scope:" not in out


def test_cli_closed_stdout_exits_quietly(tmp_path):
    """A reader that closes the pipe early is not an internal error."""
    tree, _root = gen_perfect_kary(2, 8)
    path = tmp_path / "t511.txt"
    path.write_text(format_graph(tree))
    proc = subprocess.Popen(
        [sys.executable, "-m", "semicayley.cli", "tree-classify", str(path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env())
    try:
        # the witness record, about 1 MB, overflows the pipe buffer
        assert proc.stdout.readline() == b"verdict: yes\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=120)
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert code == cli.EXIT_CLOSED_STDOUT != cli.EXIT_INTERNAL
    for text in ("Traceback", "internal error", "Exception ignored"):
        assert text not in err


def assert_gen_looped_path(proc):
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("3 directed")


def test_console_script_installed():
    """The declared entry point, run as the generated wrapper runs it."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["semicayley"]
    module, attr = target.split(":")
    wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    proc = subprocess.run([sys.executable, "-c", wrapper, "gen", "looped-path"],
                          capture_output=True, text=True, env=child_env(),
                          timeout=60)
    assert_gen_looped_path(proc)


def test_python_dash_m_semicayley():
    proc = subprocess.run([sys.executable, "-m", "semicayley", "gen",
                           "looped-path"],
                          capture_output=True, text=True, env=child_env(),
                          timeout=60)
    assert_gen_looped_path(proc)


def test_cli_recognize_deep_search(tmp_path):
    """A search 36 cells deep ends in a witness, not a RecursionError."""
    path = tmp_path / "looped36.txt"
    path.write_text(format_graph(looped_to_zero(36)))
    proc = subprocess.run([sys.executable, "-m", "semicayley.cli", "recognize",
                           "--mode", "monoid-digraph", str(path)],
                          capture_output=True, text=True, env=child_env(),
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout.startswith("status: witness\n")


# the seven subcommands of the benchmark's CLI mix, each on a tiny input,
# and the modules beyond dataclasses and inspect that each must not load:
# fractions serves only the spectral bounds, which a non-regular graph
# never reaches
_P3 = "3 undirected\n0 1\n1 2\n"
_LOOPED = "2 directed\n0 1\n1 1\n"
START_UP_RUNS = {
    "check-zelinka": (["check-zelinka"], _LOOPED, ()),
    "construct-zelinka": (["construct-zelinka", "--mode", "monoid"], _LOOPED,
                          ()),
    "embed": (["embed", "--max-maps", "300"], "2 directed\n0 1\n1 0\n",
              ("fractions",)),
    "tree-classify": (["tree-classify"], _P3, ()),
    "recognize": (["recognize", "--mode", "monoid-graph"], _P3, ()),
    "invariants": (["invariants"], _P3, ("fractions",)),
    "verify-witness": (["verify-witness"], None, ()),
}


def _imported(args, stdin: str):
    """Exit code of ``python -X importtime *args`` and the names of the
    modules it imported, read off its import-time report."""
    proc = subprocess.run([sys.executable, "-X", "importtime", *args],
                          input=stdin, capture_output=True, text=True,
                          env=child_env(), timeout=60)
    return proc.returncode, {line.rsplit("|", 1)[1].strip()
                             for line in proc.stderr.splitlines()
                             if line.startswith("import time:")}


@pytest.fixture(scope="module")
def bare_interpreter_imports():
    return _imported(["-c", "pass"], "")[1]


@pytest.mark.parametrize("sub", START_UP_RUNS)
def test_cli_start_up_loads_no_dataclasses(sub, bare_interpreter_imports):
    """``dataclasses`` and ``inspect`` cost every CLI process several
    milliseconds; no subcommand loads them beyond what the interpreter's
    own start-up loads."""
    argv, stdin, unwanted = START_UP_RUNS[sub]
    if stdin is None:
        g = SimpleGraph(3, [(0, 1), (1, 2)])
        stdin = format_witness_record(recognize_monoid_graph(g).witness, g)
    code, loaded = _imported(["-m", "semicayley.cli", *argv], stdin)
    assert code == 0
    assert "semicayley.graphs" in loaded
    extra = loaded - bare_interpreter_imports
    assert not extra & {"dataclasses", "inspect", *unwanted}


def _cli_child(argv, cwd):
    return subprocess.run([sys.executable, "-m", "semicayley.cli", *argv],
                          capture_output=True, text=True, env=child_env(),
                          cwd=cwd, timeout=60)


@pytest.fixture
def order_40_inputs(tmp_path):
    """The directed 40-cycle and the 40-vertex path, as files."""
    cycle = Digraph(40, [(i, (i + 1) % 40) for i in range(40)])
    (tmp_path / "c40.txt").write_text(format_graph(cycle))
    (tmp_path / "p40.txt").write_text(format_graph(path_graph(40)))
    return tmp_path


@pytest.mark.parametrize("argv, first_line", [
    (["check-zelinka", "c40.txt"], "monoid: yes dominant-component 0"),
    (["construct-zelinka", "--mode", "monoid", "c40.txt"], "cayley-witness"),
    (["embed", "c40.txt"], "cayley-witness"),
    (["recognize", "--mode", "monoid-graph", "p40.txt"], "status: witness"),
    (["tree-classify", "p40.txt"], "verdict: yes"),
], ids=["check-zelinka", "construct-zelinka", "embed", "recognize",
        "tree-classify"])
def test_cli_order_40_smoke(order_40_inputs, argv, first_line):
    proc = _cli_child(argv, order_40_inputs)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout.splitlines()[0] == first_line


def test_cli_order_40_record_verifies_and_invariants_refuses(order_40_inputs):
    proc = _cli_child(["recognize", "--mode", "monoid-graph", "p40.txt"],
                      order_40_inputs)
    assert proc.stdout.startswith("status: witness\nnodes: 8470\n")
    record = order_40_inputs / "p40.rec"
    record.write_text(proc.stdout[proc.stdout.index("cayley-witness"):])
    proc = _cli_child(["verify-witness", "p40.rec"], order_40_inputs)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    checks = proc.stdout.splitlines()
    assert checks and all(line.endswith(": true") for line in checks), checks
    proc = _cli_child(["invariants", "p40.txt"], order_40_inputs)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: invariants accepts orders up to 20, got 40\n"


@pytest.mark.skipif(shutil.which("semicayley") is None,
                    reason="no semicayley console script on PATH")
def test_console_script_on_path():
    proc = subprocess.run(["semicayley", "gen", "looped-path"],
                          capture_output=True, text=True, timeout=60)
    assert_gen_looped_path(proc)


def _count_verify_calls(monkeypatch):
    import semicayley.witness as witness_module

    calls = []
    real = witness_module.verify_witness

    def counted(w, g):
        calls.append(w.mode)
        return real(w, g)

    monkeypatch.setattr(witness_module, "verify_witness", counted)
    return calls


def test_record_writes_the_checks_its_producer_computed(monkeypatch):
    """A produced witness is verified once: its record writes the checks
    of the producer's self-check. A witness built by hand, or formatted
    against another graph, is checked when its record is written."""
    g = functional_digraph([1, 2, 0, 0])
    calls = _count_verify_calls(monkeypatch)
    w = construct_monoid(g)
    assert len(calls) == 1
    text = format_witness_record(w, g)
    assert len(calls) == 1
    assert parse_witness_record(text)[2] == verify_witness(w, g)
    del calls[:]
    by_hand = CayleyWitness(w.mode, w.table, w.connection, w.vertex_map)
    assert by_hand == w
    assert format_witness_record(by_hand, g) == text
    assert len(calls) == 1
    other = functional_digraph([1, 2, 0, 1])
    assert "check roundtrip: false" in format_witness_record(w, other)
    assert len(calls) == 2
    # built on construct_monoid's table, checked once as what they return
    forest_witness(SimpleGraph(4, [(0, 1), (1, 2)]))
    construct_semigroup(functional_digraph([0, 0, 1]))
    assert calls[2:] == ["monoid-graph", "semigroup-digraph"]


@pytest.mark.parametrize("argv, graph", [
    (["construct-zelinka"], "3 directed\n0 1\n1 2\n2 0\n"),
    (["construct-zelinka", "--mode", "semigroup"], "3 directed\n0 0\n1 0\n2 1\n"),
    (["embed"], "3 directed\n0 1\n1 2\n2 0\n2 2\n"),
    (["recognize", "--mode", "monoid-graph"], "4 undirected\n0 1\n1 2\n2 3\n"),
    (["tree-classify"], "4 undirected\n0 1\n0 2\n0 3\n"),
    (["gen", "threshold", "--seq", "did"], ""),
])
def test_cli_verifies_each_witness_once(argv, graph, monkeypatch, capsys):
    calls = _count_verify_calls(monkeypatch)
    code, out, _ = run_cli(argv, graph, monkeypatch, capsys)
    assert code == 0 and out.count("cayley-witness") == 1
    assert len(calls) == 1
    w, g, recorded = parse_witness_record(out[out.index("cayley-witness"):])
    assert all(recorded.values()) and recorded == verify_witness(w, g)


def test_cli_verify_witness_rederives_its_checks(tmp_path, monkeypatch, capsys):
    g = functional_digraph([1, 2, 0, 0])
    record = tmp_path / "w.txt"
    record.write_text(format_witness_record(construct_monoid(g), g))
    calls = _count_verify_calls(monkeypatch)
    code, _, _ = run_cli(["verify-witness", str(record)], "", monkeypatch,
                         capsys)
    assert code == 0 and len(calls) == 1
