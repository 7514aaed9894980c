"""End-to-end command tests, run in process through main().

Every JSON payload the commands print must validate against the
shipped schema; that contract is what downstream tooling consumes.
"""

import ast
import inspect
import itertools
import json
import os
import re
import resource
import subprocess
import sys
from importlib.resources import files
from pathlib import Path

import jsonschema
import pytest

import pqvol
from pqvol import cli, draconian, ehrhart, lost_sequences, tripling
from pqvol.cli import main
from pqvol.draconian import ENGINES, count_draconian, enumerate_draconian
from pqvol.graphs import MAX_VERTICES, doubling, parse_graph

SCHEMA = json.loads((files("pqvol") / "schemas" / "report.schema.json").read_text())
# for a fresh interpreter: import the package from where this one found it
CHILD_ENV = dict(os.environ, PYTHONPATH=str(Path(pqvol.__file__).parents[1]))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    return payload


def test_count_family(capsys):
    payload = run_json(capsys, "count", "--family", "complete:4")
    assert payload["count"] == "20"
    assert payload["method"] == "subset-enumeration"
    assert "elapsed_ms" not in payload


def test_count_timing_flag(capsys):
    payload = run_json(capsys, "count", "--family", "complete:3", "--timing")
    assert payload["elapsed_ms"] >= 0


def test_count_engine_flow(capsys):
    payload = run_json(capsys, "count", "--family", "path-deleted:4,2", "--engine", "flow")
    assert payload["count"] == "12"
    assert payload["method"] == "flow-enumeration"


def test_count_graph_file_disconnected(capsys, tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("4\n1 2\n3 4\n")
    payload = run_json(capsys, "count", "--graph", str(path))
    assert payload["count"] == "4"
    assert any("disconnected" in n for n in payload["notes"])


def test_count_list_output(capsys):
    code, out, _ = run(capsys, "count", "--family", "complete:3", "--list")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 6
    assert lines[0] == "0 0 2"
    seqs = [tuple(int(x) for x in line.split()) for line in lines]
    assert seqs == sorted(seqs)


def test_count_list_rejects_disconnected(capsys, tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("4\n1 2\n3 4\n")
    code, _, err = run(capsys, "count", "--graph", str(path), "--list")
    assert code == 2
    assert "connected" in err


def test_count_cap(capsys):
    code, _, err = run(capsys, "count", "--family", "complete:12")
    assert code == 3
    assert "raise --cap-n" in err
    code, out, _ = run(capsys, "count", "--family", "complete:11", "--cap-n", "11")
    assert code == 0
    assert json.loads(out)["count"] == "184756"


@pytest.mark.parametrize("argv, want", [
    (["count", "--family", "complete:100000"], 3),
    (["count", "--family", "matching-triangles:8,2", "--cap-n", "9"], 3),
    (["ehrhart", "--family", "complete:100000"], 3),
    (["recurrence", "--family", f"complete:{MAX_VERTICES + 1}", "--edge", "1,2",
      "--cap-n", str(2 * MAX_VERTICES)], 2),
], ids=["count", "count-matching", "ehrhart", "recurrence"])
def test_family_spec_refused_before_any_edge_is_built(monkeypatch, capsys, argv, want):
    def unbuildable(*params):
        raise AssertionError(f"{params} was built")

    for name, family in cli.FAMILIES.items():
        monkeypatch.setitem(cli.FAMILIES, name, family._replace(build=unbuildable))
    code, out, err = run(capsys, *argv)
    assert code == want and out == ""
    assert err.startswith("error:")


def test_count_byte_identical_runs(capsys):
    _, first, _ = run(capsys, "count", "--family", "cycle-deleted:5,4")
    _, second, _ = run(capsys, "count", "--family", "cycle-deleted:5,4")
    assert first == second


def test_main_builds_its_parser_once(capsys):
    cli.build_parser.cache_clear()
    run_json(capsys, "count", "--family", "complete:3")
    run_json(capsys, "count", "--family", "complete:4")
    assert cli.build_parser.cache_info().misses == 1


def test_no_parse_leaks_into_the_next_call(capsys):
    code, out, _ = run(capsys, "count", "--family", "complete:4", "--table")
    assert code == 0 and out.startswith("graph ")
    assert run_json(capsys, "count", "--family", "complete:4")["count"] == "20"
    code, _, _ = run(capsys, "count", "--family", "complete:11", "--cap-n", "11")
    assert code == 0
    code, _, err = run(capsys, "count", "--family", "complete:11")
    assert code == 3 and "over the cap 10" in err
    with pytest.raises(SystemExit) as exc:
        main(["count", "--json"])
    assert exc.value.code == 2
    code, _, _ = run(capsys, "count", "--family", "complete:3")
    assert code == 0


def test_parse_error_names_line(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3\n1 2\n1 2\n")
    code, _, err = run(capsys, "count", "--graph", str(path))
    assert code == 2
    assert "line 3" in err


def test_huge_vertex_count_refused_at_line_one(capsys, tmp_path):
    path = tmp_path / "huge.txt"
    path.write_text(f"{10**12}\n1 2\n")
    code, out, err = run(capsys, "count", "--graph", str(path))
    assert code == 2 and out == ""
    assert "line 1" in err


# ehrhart has no --jobs option, so argparse refuses the flag there too
@pytest.mark.parametrize("command", [["search", "--n-max", "3"],
                                     ["ehrhart", "--family", "complete:2"]])
@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_jobs_below_one_refused(capsys, command, jobs):
    with pytest.raises(SystemExit) as exc:
        main(command + ["--jobs", jobs])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["count", "--family", "complete:3"],
                                     ["verify", "--family", "cycle-deleted", "--n", "5"],
                                     ["ehrhart", "--family", "complete:2"],
                                     ["recurrence", "--family", "complete:3", "--edge", "1,2"]])
@pytest.mark.parametrize("cap", ["0", "-1"])
def test_cap_below_one_refused(capsys, command, cap):
    with pytest.raises(SystemExit) as exc:
        main(command + ["--cap-n", cap])
    assert exc.value.code == 2
    assert "--cap-n" in capsys.readouterr().err


def test_ehrhart_has_no_jobs_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ehrhart", "--family", "complete:3", "--jobs", "2"])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def test_json_flag_is_gone(capsys):
    # JSON is the only default; --table is the one rendering flag
    with pytest.raises(SystemExit) as exc:
        main(["count", "--family", "complete:3", "--json"])
    assert exc.value.code == 2
    assert "--json" in capsys.readouterr().err


def test_library_takes_no_size_cap():
    # the commands refuse by size; the library computes whatever it is given
    for node in ast.walk(ast.parse(Path(ehrhart.__file__).read_text())):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [getattr(node, "module", None) or ""] + [alias.name for alias in node.names]
            assert not any("draconian" in name.split(".") for name in names), ast.unparse(node)
    for entry in (lost_sequences.verify_path_identity, lost_sequences.verify_cycle_identity,
                  ehrhart.ehrhart_nvol):
        assert "cap_n" not in inspect.signature(entry).parameters, entry.__name__
    # nor a depth refusal: a graph too deep to walk raises Python's own
    # RecursionError, which only cli.main turns into exit 3
    assert not hasattr(pqvol, "EnumerationCapExceeded")
    wheel = parse_graph(WHEEL_HUB_LAST)
    with pytest.raises(RecursionError):
        count_draconian(wheel)
    with pytest.raises(RecursionError):
        enumerate_draconian(doubling(wheel))


def test_import_loads_no_process_pool():
    code = "import sys, pqvol.cli; print('multiprocessing' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=CHILD_ENV, capture_output=True,
                         text=True, check=True).stdout
    assert out == "False\n"


def test_closed_stdout_exits_quietly():
    # K_9's list is 231 KB, more than a pipe buffer holds, so the writer
    # is still printing when the reader goes away
    proc = subprocess.Popen([sys.executable, "-m", "pqvol.cli", "count", "--family", "complete:9",
                             "--list"], env=CHILD_ENV, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"0 0 0 0 0 0 0 0 8\n"
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 141
    assert err == b""


def test_missing_graph_source(capsys):
    code, _, err = run(capsys, "count")
    assert code == 2
    assert "--graph" in err


def test_formula_all_families(capsys):
    assert run_json(capsys, "formula", "--family", "complete:5")["values"] == {"value": "70"}
    assert run_json(capsys, "formula", "--family", "matching-triangles:4,2")["values"] == {
        "value": "180"
    }
    payload = run_json(capsys, "formula", "--family", "path-deleted:5,2")
    assert payload["values"] == {"as_printed": "68", "grouped": "60"}
    assert run_json(capsys, "formula", "--family", "cycle-deleted:5,4")["values"] == {
        "value": "34"
    }


def test_formula_range_errors(capsys):
    for spec in ("cycle-deleted:5,2", "path-deleted:3,1", "matching-triangles:4,7",
                 "unknown:3", "complete:", "complete:1,2"):
        code, _, err = run(capsys, "formula", "--family", spec)
        assert code == 2, spec
        assert err.startswith("error:")


@pytest.mark.parametrize("name", list(cli.FAMILIES))
def test_family_record_agrees_with_itself(name):
    # the builder and the closed form share one domain, the vertex count is the
    # built graph's, and every row verify can ask for builds
    family = cli.FAMILIES[name]
    for params in itertools.product(range(-1, 9), repeat=family.arity):
        try:
            g = family.build(*params)
        except ValueError:
            g = None
        try:
            family.formula(*params)
        except ValueError:
            assert g is None, f"{name}:{params} builds but has no closed form"
        else:
            assert g is not None, f"{name}:{params} has a closed form but does not build"
            assert family.size(*params) == g.n, params
    if family.row is not None:
        for n in range(family.smallest, 9):
            lo, hi = family.m_range(n)
            for m in range(lo, hi + 1):
                family.build(n, m)


def test_schema_names_the_table_families():
    defs = SCHEMA["$defs"]
    assert defs["formula_report"]["properties"]["family"]["enum"] == list(cli.FAMILIES)
    assert defs["verify_report"]["properties"]["family"]["enum"] == [
        name for name, family in cli.FAMILIES.items() if family.row is not None]
    # count prints one method per engine, and no other command prints one
    assert defs["volume_report"]["properties"]["method"]["enum"] == [
        f"{engine}-enumeration" for engine in ENGINES]


@pytest.mark.parametrize("spec, want", [
    (f"complete:{MAX_VERTICES}", 0), (f"complete:{MAX_VERTICES + 1}", 2),
    ("matching-triangles:2732,1365", 2),
])
def test_formula_bounded_by_vertex_count(monkeypatch, capsys, spec, want):
    if want:
        def unevaluable(*params):
            raise AssertionError(f"{spec} was evaluated")

        name = spec.partition(":")[0]
        monkeypatch.setitem(cli.FAMILIES, name, cli.FAMILIES[name]._replace(formula=unevaluable))
    code, out, err = run(capsys, "formula", "--family", spec)
    assert code == want, err
    if want:
        assert out == "" and err.startswith("error:")
    else:
        assert json.loads(out)["values"]["value"]


@pytest.mark.parametrize("family, n, m, cap, want", [
    ("matching-triangles", "5", "..", "4", 3),
    ("cycle-deleted", "5..1000000000", "..", "9", 3),
    ("matching-triangles", "4", "0..1000000000", "9", 2),
    ("matching-triangles", "8", "0..1000000000", "9", 2),
    ("path-deleted", "5..6", "1..3", "9", 2),
    ("matching-triangles", "9", "4", "9", 3),
    ("matching-triangles", "2..9", "..", "9", 3),
    # --m is valid at the explicit top n, but empty at n = --cap-n
    ("cycle-deleted", "11", "10..", "9", 3),
    ("matching-triangles", "12", "6..", "9", 3),
])
def test_verify_n_capped_before_any_row(monkeypatch, capsys, family, n, m, cap, want):
    def unbuildable(n, m):
        raise AssertionError(f"row n={n} m={m} was built")

    monkeypatch.setitem(cli.FAMILIES, family, cli.FAMILIES[family]._replace(row=unbuildable))
    code, out, err = run(capsys, "verify", "--family", family, "--n", n, "--m", m,
                         "--cap-n", cap)
    assert code == want and out == ""
    assert err.startswith("error:")
    assert ("--cap-n" if want == 3 else "--m") in err


@pytest.mark.parametrize("family, n", [("path-deleted", "2"), ("path-deleted", "-2"),
                                       ("cycle-deleted", "4"), ("matching-triangles", "1")])
def test_verify_n_below_family_minimum_refused(monkeypatch, capsys, family, n):
    def unbuildable(n, m):
        raise AssertionError(f"row n={n} m={m} was built")

    monkeypatch.setitem(cli.FAMILIES, family, cli.FAMILIES[family]._replace(row=unbuildable))
    code, out, err = run(capsys, "verify", "--family", family, "--n", n)
    assert code == 2 and out == ""
    assert f"n >= {cli.FAMILIES[family].smallest}" in err


@pytest.mark.parametrize("n, m, top", [("2..", "..", 7), ("..", "..", 7), ("2..", "1", 9)])
def test_verify_matching_open_top_stops_at_the_largest_row_that_fits(monkeypatch, capsys,
                                                                      n, m, top):
    # at the default cap 10 the open top is the largest n with n + (top m at n) <= 10
    built = []

    def row(n, m):
        built.append((n, m))
        return {"n": n, "m": m, "must_hold": True}

    family = cli.FAMILIES["matching-triangles"]
    monkeypatch.setitem(cli.FAMILIES, "matching-triangles", family._replace(row=row))
    code, _, err = run(capsys, "verify", "--family", "matching-triangles", "--n", n, "--m", m)
    assert code == 0, err
    assert built[0][0] == 2 and max(n for n, _ in built) == top
    assert max(n + m for n, m in built) <= 10


def test_verify_matching(capsys):
    payload = run_json(capsys, "verify", "--family", "matching-triangles",
                       "--n", "4", "--m", "0..2")
    assert payload["all_must_hold"]
    rows = payload["rows"]
    assert [r["enumeration"] for r in rows] == ["20", "60", "180"]
    assert rows[0]["partition_holds"] is None
    assert rows[1]["partition_holds"] and rows[2]["partition_holds"]


def test_verify_path_readings(capsys):
    payload = run_json(capsys, "verify", "--family", "path-deleted", "--n", "4..5", "--m", "2..")
    assert payload["all_must_hold"]
    for row in payload["rows"]:
        assert row["matching_reading"] == "grouped"
        assert row["identity"]["identity_holds"]
    first = payload["rows"][0]
    assert (first["n"], first["m"]) == (4, 2)
    assert first["enumeration"] == "12"
    assert first["formula_as_printed"] == "20"


def test_verify_cycle_flags_m4(capsys):
    payload = run_json(capsys, "verify", "--family", "cycle-deleted", "--n", "5", "--m", "3..5")
    assert payload["all_must_hold"]
    by_m = {row["m"]: row for row in payload["rows"]}
    assert by_m[3]["formula_matches"] and by_m[5]["formula_matches"]
    assert not by_m[4]["formula_matches"]
    assert by_m[4]["enumeration"] == "36" and by_m[4]["formula"] == "34"
    assert by_m[4]["must_hold"]
    assert by_m[4]["identity"]["pairwise_disjoint"]


@pytest.mark.parametrize("family", ["path-deleted", "cycle-deleted"])
@pytest.mark.parametrize("n", ["10", "9.."])
def test_verify_reaches_n_10_at_the_default_cap(capsys, family, n):
    payload = run_json(capsys, "verify", "--family", family, "--n", n)
    assert payload["all_must_hold"]
    assert payload["rows"][-1]["n"] == 10


@pytest.mark.parametrize("family", ["path-deleted", "cycle-deleted"])
def test_verify_counts_past_the_default_cap(capsys, family):
    # path and cycle rows count both graphs, so n = 12 needs no listing
    payload = run_json(capsys, "verify", "--family", family, "--n", "12", "--cap-n", "12")
    assert payload["all_must_hold"]
    for row in payload["rows"]:
        actual = row["identity"]["cardinalities"]["actual"]
        assert actual["lost"] == actual["union"], row["m"]


def test_verify_rejects_unknown_family(capsys):
    code, _, err = run(capsys, "verify", "--family", "complete", "--n", "4")
    assert code == 2
    assert "verify" in err


def test_verify_bad_range(capsys):
    code, _, err = run(capsys, "verify", "--family", "path-deleted", "--n", "5", "--m", "9..2")
    assert code == 2
    assert "range" in err


@pytest.mark.parametrize("family, n, m, cap, want, text", [
    ("cycle-deleted", "7..", "..", "6", 3, "--cap-n"),
    ("path-deleted", "..", "..", "3", 3, "--cap-n"),
    ("cycle-deleted", "..4", "..", "10", 2, "need n >= 5"),
    ("cycle-deleted", "5..6", "6..", "10", 2, "outside 3..5 at n = 5"),
    ("path-deleted", "5", "..1", "10", 2, "outside 2..4"),
])
def test_verify_open_end_never_empties_a_range(monkeypatch, capsys, family, n, m, cap, want,
                                               text):
    # an open end stops at the other end, so the refusal names the cap or the domain
    def unbuildable(n, m):
        raise AssertionError(f"row n={n} m={m} was built")

    monkeypatch.setitem(cli.FAMILIES, family, cli.FAMILIES[family]._replace(row=unbuildable))
    code, out, err = run(capsys, "verify", "--family", family, "--n", n, "--m", m,
                         "--cap-n", cap)
    assert code == want and out == ""
    assert text in err and "empty range" not in err


@pytest.mark.parametrize("family, n, m", [
    ("matching-triangles", "5", "3"), ("matching-triangles", "5", "-1"),
    ("path-deleted", "6", "1"), ("path-deleted", "6", "6"),
    ("cycle-deleted", "6", "2"), ("cycle-deleted", "6", "7"),
])
def test_verify_m_out_of_range(capsys, family, n, m):
    code, out, err = run(capsys, "verify", "--family", family, "--n", n, "--m", m)
    assert code == 2 and out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("argv, want", [
    (["--n", "-2..5"], "error: need n >= 5, got -2\n"),
    (["--n=-2..5"], "error: need n >= 5, got -2\n"),
    (["--n", "-2.."], "error: need n >= 5, got -2\n"),
    (["--n", "6", "--m", "-1..3"], "error: --m -1..3 is outside 3..6 at n = 6\n"),
    (["--n", "6", "--m", "-1.."], "error: --m -1.. is outside 3..6 at n = 6\n"),
])
def test_verify_negative_ranges_reach_parse_range(capsys, argv, want):
    # argparse takes a token such as -2..5 for an unknown option on some
    # Python versions; main joins it to the option before it, so the
    # refusal names the range on every version
    code, out, err = run(capsys, "verify", "--family", "cycle-deleted", *argv)
    assert (code, out, err) == (2, "", want)


def test_negative_range_from_the_command_line():
    # main reads sys.argv when it is given no argv
    proc = subprocess.run([sys.executable, "-m", "pqvol.cli", "verify", "--family",
                           "cycle-deleted", "--n", "-2..5"], env=CHILD_ENV,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "error: need n >= 5, got -2\n")

@pytest.mark.parametrize("family, first", [("cycle-deleted", 5), ("path-deleted", 4),
                                           ("matching-triangles", 2)])
def test_verify_open_n_range_starts_at_family_minimum(capsys, family, first):
    payload = run_json(capsys, "verify", "--family", family, "--n", "..6")
    assert payload["rows"][0]["n"] == first
    assert payload["rows"][-1]["n"] == 6


def test_verify_matching_reuses_the_step_count(monkeypatch, capsys):
    counts, listings = [], []

    def counting(g, *args):
        counts.append(g.n)
        return count_draconian(g, *args)

    def listing(d, *args):
        listings.append(d.n)
        return enumerate_draconian(d, *args)

    monkeypatch.setattr(cli, "count_draconian", counting)
    monkeypatch.setattr(draconian, "enumerate_draconian", listing)
    monkeypatch.setattr(tripling, "enumerate_draconian", listing)
    run_json(capsys, "verify", "--family", "matching-triangles", "--n", "4..5")
    # m = 0 counts K_n without listing; each m >= 1 row lists its base and its extension once
    assert counts == [4, 5]
    assert listings == [4, 5, 5, 6, 5, 6, 6, 7]


def test_ehrhart_command(capsys, tmp_path):
    payload = run_json(capsys, "ehrhart", "--family", "complete:2")
    assert payload["counts"] == [1, 4, 9]
    assert payload["nvol"] == "2"
    code, _, err = run(capsys, "ehrhart", "--family", "complete:8")
    assert code == 3
    assert "--cap-n" in err
    path = tmp_path / "p8.txt"
    path.write_text("8\n1 2\n2 3\n3 4\n4 5\n5 6\n6 7\n7 8\n")
    code, out, err = run(capsys, "ehrhart", "--graph", str(path))
    assert code == 3 and out == ""
    assert "--cap-n" in err


def test_recurrence_command(capsys):
    payload = run_json(capsys, "recurrence", "--family", "complete:3", "--edge", "1,2")
    assert payload["counts"] == {"base": "6", "extended": "18"}
    assert payload["triples"] and payload["hypotheses_hold"]
    assert payload["ratio"] == "3"
    code, _, err = run(capsys, "recurrence", "--family", "complete:3", "--edge", "1,5")
    assert code == 2
    code, _, err = run(capsys, "recurrence", "--family", "complete:3", "--edge", "1-2")
    assert code == 2


STAR_CENTRE_LAST = "1100\n" + "".join(f"{i} 1100\n" for i in range(1, 1100))
# a 1099-cycle with a hub joined to every cycle vertex: one block of 1100 vertices
WHEEL_HUB_LAST = STAR_CENTRE_LAST + "".join(f"{i} {i % 1099 + 1}\n" for i in range(1, 1100))


@pytest.mark.parametrize("argv, text, want", [
    (["recurrence", "--edge", "1,1100", "--cap-n", "2000"], STAR_CENTRE_LAST, 3),
    (["count", "--cap-n", "2000"], STAR_CENTRE_LAST, 0),
    (["count", "--list", "--cap-n", "2000"], STAR_CENTRE_LAST, 3),
    (["count", "--cap-n", "2000"], WHEEL_HUB_LAST, 3),
    (["recurrence", "--edge", "1,2", "--cap-n", "2000"], "1500\n1 2\n", 0),
    (["count", "--list", "--engine", "flow", "--cap-n", "2000"], STAR_CENTRE_LAST, 3),
    (["count", "--engine", "flow", "--cap-n", "2000"], STAR_CENTRE_LAST, 0),
], ids=["recurrence-star", "count-star", "count-list-star", "count-wheel",
        "recurrence-one-edge", "count-list-flow-star", "count-flow-star"])
def test_recursion_limit_exits_3_only_when_reached(capsys, tmp_path, argv, text, want):
    # the listings and the counting walk recurse once per vertex of what they
    # walk while entries stay in play: every leaf of a star does, and so does
    # every rim vertex of the wheel, the isolated vertices of the one-edge graph
    # do not; counting splits the star into 1099 K_2 blocks, each walked alone.
    # The flow listing walks the star's 1100 positions, and its router
    # recurses once per column it moves a unit through
    path = tmp_path / "g.txt"
    path.write_text(text)
    code, out, err = run(capsys, *argv, "--graph", str(path))
    assert code == want, err
    if want:
        assert out == "" and err.startswith("error:") and "recurses" in err
    elif argv[0] == "count":
        assert json.loads(out)["count"] == str(2 ** 1099)


# the same wheel with the hub first: its full mask comes before the rim's
WHEEL_HUB_FIRST = ("1100\n" + "".join(f"1 {i + 1}\n" for i in range(1, 1100))
                   + "".join(f"{i + 1} {i % 1099 + 2}\n" for i in range(1, 1100)))


def limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("argv", [["count"], ["count", "--list"]], ids=["count", "list"])
def test_hub_first_wheel_is_refused_by_depth_before_any_memo_fills(tmp_path, argv):
    # with the hub first, the zero-weight descent stops about halfway down and
    # the memoized walks fan out long before they near the recursion limit;
    # each checks the depth it must reach before it starts, so the command
    # exits 3 at once instead of filling memory up to the 1 GiB cap
    path = tmp_path / "g.txt"
    path.write_text(WHEEL_HUB_FIRST)
    proc = subprocess.run([sys.executable, "-m", "pqvol.cli", *argv, "--cap-n", "2000",
                           "--graph", str(path)], env=CHILD_ENV, capture_output=True,
                          text=True, timeout=60, preexec_fn=limit_address_space)
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == "" and proc.stderr.startswith("error:") and "recurses" in proc.stderr

PATH_1500 = "1500\n" + "".join(f"{i} {i + 1}\n" for i in range(1, 1500))
COMPONENT_OF_11 = "13\n" + "".join(f"{i} {i + 1}\n" for i in range(1, 11)) + "12 13\n"


@pytest.mark.parametrize("argv, text", [
    (["count"], COMPONENT_OF_11),
    (["count", "--family", "complete:11"], None),
    (["verify", "--family", "cycle-deleted", "--n", "5..11"], None),
    (["ehrhart"], "8\n1 2\n2 3\n3 4\n4 5\n5 6\n6 7\n7 8\n"),
    (["recurrence", "--edge", "1,2"], PATH_1500),
    (["recurrence", "--family", "complete:11", "--edge", "1,2"], None),
], ids=["count-graph", "count-family", "verify", "ehrhart", "recurrence-graph",
        "recurrence-family"])
def test_every_cap_refusal_comes_before_any_work(monkeypatch, capsys, tmp_path, argv, text):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the cap was checked")

    for module in (cli, draconian, tripling):
        monkeypatch.setattr(module, "enumerate_draconian", no_work)
    for module in (cli, lost_sequences, tripling):
        monkeypatch.setattr(module, "count_draconian", no_work)
    monkeypatch.setattr(lost_sequences, "is_draconian_subset", no_work)
    monkeypatch.setattr(ehrhart, "count_dilate_points", no_work)
    if text is not None:
        path = tmp_path / "g.txt"
        path.write_text(text)
        argv = argv + ["--graph", str(path)]
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert re.fullmatch(r"error: .+ has \d+ vertices, over the cap \d+; "
                        r"raise --cap-n to force this\n", err), err


def test_search_json_lines(monkeypatch, capsys):
    code, out, err = run(capsys, "search", "--n-max", "3")
    assert code == 0, err
    lines = out.splitlines()
    assert len(lines) == 6
    for line in lines:
        jsonschema.validate(json.loads(line), SCHEMA)

    def no_work(*args, **kwargs):
        raise AssertionError("the sweep started before --n-max was checked")

    # the bounds are the command's: it refuses before the library sees --n-max
    monkeypatch.setattr(cli, "search_triple_recurrence", no_work)
    code, out, err = run(capsys, "search", "--n-max", "9")
    assert code == 2 and out == ""
    assert "capped at 8" in err
    # no connected graph below 2 vertices has an edge to extend
    for n_max in ("1", "0", "-3"):
        code, out, err = run(capsys, "search", "--n-max", n_max)
        assert code == 2 and out == "", n_max
        assert f"at least 2, got {n_max}" in err


def test_search_deterministic_across_jobs(capsys):
    _, serial, _ = run(capsys, "search", "--n-max", "4")
    _, parallel, _ = run(capsys, "search", "--n-max", "4", "--jobs", "2")
    assert serial == parallel


def test_table_modes_render(capsys):
    for argv in (
        ("count", "--family", "complete:4", "--table"),
        ("formula", "--family", "path-deleted:4,2", "--table"),
        ("verify", "--family", "cycle-deleted", "--n", "5", "--m", "4", "--table"),
        ("ehrhart", "--family", "complete:2", "--table"),
        ("recurrence", "--family", "complete:3", "--edge", "1,2", "--table"),
        ("search", "--n-max", "2", "--table"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 0, (argv, err)
        assert out.strip()
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)
