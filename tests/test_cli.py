import argparse
import json
import math
import os
import shlex
import stat
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import spinwedge.dynamics as dynamics_mod
from spinwedge import ModelSpec, Sides, cli, graph_to_json, path_graph
from spinwedge.spectra import DEFAULT_TOL


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_wedge_dot_path6_k2(capsys):
    code, out, _ = run(capsys, "wedge", "--graph", "path:6", "-k", "2", "--format", "dot")
    assert code == 0
    assert out.startswith("graph {")
    # 15 two-digit subset names on six vertices
    names = {f"{i}{j}" for i in range(6) for j in range(i + 1, 6)}
    assert all(name in out for name in names)


def test_wedge_complete4_k2_json_signs(capsys):
    code, out, _ = run(capsys, "wedge", "--graph", "complete:4", "-k", "2")
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 6
    assert len(data["edges"]) == 12
    assert sorted(data["signs"]) == ["0-2", "0-4", "1-5", "2-5"]


def test_wedge_bad_k_exits_2(capsys):
    code, _, err = run(capsys, "wedge", "--graph", "path:3", "-k", "5")
    assert code == 2
    assert "error" in err.lower()


def test_wedge_k_all_rejected(capsys):
    code, _, _ = run(capsys, "wedge", "--graph", "path:3", "-k", "all")
    assert code == 2


@pytest.mark.parametrize("command,rest", [("wedge", ()), ("evolve", ("--subset", "0", "--times", "1"))])
def test_k_all_error_names_the_commands_that_take_it(command, rest, capsys):
    code, out, err = run(capsys, command, "--graph", "path:3", "-k", "all", *rest)
    assert code == 2 and out == ""
    assert err == 'error: k="all" is only valid for spectrum and closed-form\n'


def test_spectrum_path3_k1(capsys):
    code, out, _ = run(capsys, "spectrum", "--graph", "path:3", "--model", "xy", "-k", "1")
    assert code == 0
    data = json.loads(out)
    assert data["blocks"][0]["dim"] == 3
    assert np.allclose(data["blocks"][0]["spectrum"]["values"], [-math.sqrt(2), 0.0, math.sqrt(2)], atol=1e-9)


def test_spectrum_complete4_all_ground_energy(capsys):
    code, out, _ = run(capsys, "spectrum", "--graph", "complete:4", "--model", "xy", "-k", "all")
    assert code == 0
    data = json.loads(out)
    assert data["ground_energy"] == pytest.approx(-2.0, abs=1e-9)
    assert [b["dim"] for b in data["blocks"]] == [1, 4, 6, 4, 1]
    assert len(data["union"]["values"]) == 16


def test_spectrum_field_shift(capsys):
    _, plain, _ = run(capsys, "spectrum", "--graph", "path:4", "--model", "heis", "-k", "all")
    _, shifted, _ = run(capsys, "spectrum", "--graph", "path:4", "--model", "heis", "-k", "all", "--field", "0.5")
    a, b = json.loads(plain), json.loads(shifted)
    for block_a, block_b in zip(a["blocks"], b["blocks"]):
        k = block_a["k"]
        delta = 0.5 * (4 - 2 * k)
        assert np.allclose(
            np.array(block_b["spectrum"]["values"]) - np.array(block_a["spectrum"]["values"]),
            delta,
            atol=1e-9,
        )


def test_spectrum_csv(capsys):
    code, out, _ = run(capsys, "spectrum", "--graph", "path:3", "-k", "1", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,index,value"
    assert len(lines) == 4


def test_closed_form_path_6_3(capsys):
    code, out, _ = run(capsys, "closed-form", "path", "--n", "6", "-k", "3", "--check")
    assert code == 0
    data = json.loads(out)
    assert data["blocks"][0]["dim"] == 20
    assert data["cross_check"]["equal"] is True
    assert data["cross_check"]["max_gap"] <= 1e-9


def test_closed_form_check_reports_the_size_of_a_mismatch(capsys, monkeypatch):
    closed = cli.complete_sector_spectrum
    monkeypatch.setattr(cli, "complete_sector_spectrum", lambda n, k, model: closed(n, k, model) + 0.5)
    code, out, _ = run(capsys, "closed-form", "complete", "--n", "4", "-k", "2", "--check")
    assert code == 1
    check = json.loads(out)["cross_check"]
    assert check["equal"] is False and check["max_gap"] == pytest.approx(0.5, abs=1e-9)


# A fault in each route that --check reads: (family, n, model, k, the route,
# the dynamics function to break, its broken form, the error it injects).
ROUTE_FAULTS = [
    ("complete", 7, "heis", 3, "su2", "singlet_levels", lambda real: lambda w: real(w) + 1e-6, 1e-6),
    ("path", 6, "xy", 3, "lift", "subset_sums", lambda real: lambda values, k: real(values, k) + 1e-6, 1e-6),
    ("complete", 6, "xy", 2, "dense", "block_hamiltonian", lambda real: lambda *a: real(*a) + 0.5 * np.eye(15), 0.5),
]


@pytest.mark.parametrize("family,n,model,k,route,name,fault,error", ROUTE_FAULTS, ids=[f[4] for f in ROUTE_FAULTS])
def test_closed_form_check_fails_on_a_fault_in_the_route_it_reads(
    family, n, model, k, route, name, fault, error, capsys, monkeypatch
):
    assert Sides(cli.parse_graph_source(f"{family}:{n}"), ModelSpec(model))(k).route == route
    argv = ("closed-form", family, "--n", str(n), "--model", model, "-k", str(k), "--check")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and json.loads(out)["cross_check"]["equal"] is True
    monkeypatch.setattr(dynamics_mod, name, fault(getattr(dynamics_mod, name)))
    code, out, _ = run(capsys, *argv)
    check = json.loads(out)["cross_check"]
    assert code == 1 and check["equal"] is False
    assert check["max_gap"] == pytest.approx(error, rel=1e-3)


def test_closed_form_check_takes_the_su2_route_where_it_pays(capsys, monkeypatch):
    levels, rows = [], []
    real_levels, real_eigvalsh = dynamics_mod.singlet_levels, np.linalg.eigvalsh

    def recording(w):
        levels.append(w.k)
        return real_levels(w)

    def sized(m, *args, **kwargs):
        rows.append(len(m))
        return real_eigvalsh(m, *args, **kwargs)

    monkeypatch.setattr(dynamics_mod, "singlet_levels", recording)
    monkeypatch.setattr(np.linalg, "eigvalsh", sized)
    code, out, _ = run(capsys, "closed-form", "complete", "--n", "10", "--model", "heis", "-k", "all", "--check")
    check = json.loads(out)["cross_check"]
    assert code == 0 and check["equal"] is True and check["max_gap"] <= DEFAULT_TOL
    # Sides 4 and 5 share the singlet levels of each side j; C(10,4) = 210 and
    # C(10,5) = 252 are never solved dense, and dense side 3 has 120 rows.
    assert sorted(levels) == [0, 1, 2, 3, 4, 5]
    assert max(rows) == 120


def test_closed_form_check_holds_su2_at_the_largest_listed_condition_number(capsys):
    # B^T B of side (14, 6) has condition number 1.2e6, the largest in the README.
    code, out, _ = run(capsys, "closed-form", "complete", "--n", "14", "--model", "heis", "-k", "6", "--check")
    check = json.loads(out)["cross_check"]
    assert code == 0 and check["equal"] is True and check["max_gap"] <= DEFAULT_TOL


def test_closed_form_complete_heis_distinct(capsys):
    code, out, _ = run(capsys, "closed-form", "complete", "--n", "4", "--model", "heis")
    assert code == 0
    data = json.loads(out)
    distinct = {v for v, _ in data["union"]["multiplicity_collapsed"]}
    assert distinct == {0.0, 4.0, 6.0}


def test_closed_form_cycle_exits_2(capsys):
    code, _, _ = run(capsys, "closed-form", "cycle", "--n", "5")
    assert code == 2


def test_closed_form_path_heis_exits_2(capsys):
    code, _, _ = run(capsys, "closed-form", "path", "--n", "5", "--model", "heis")
    assert code == 2


def test_k_all_is_not_materialized():
    # -k all is checked sector by sector against the capacity guard, so the
    # k list must not grow with n before that guard runs.
    assert sys.getsizeof(cli._parse_k("all", 10**6, True)) < 1000
    assert list(cli._parse_k("all", 3, True)) == [0, 1, 2, 3]
    assert list(cli._parse_k("2", 3, False)) == [2]


def test_closed_form_guards_every_sector_before_any_work(capsys, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("closed form evaluated before the capacity guard")

    for name in ("xy_path_spectrum", "complete_sector_spectrum"):
        monkeypatch.setattr(cli, name, forbidden)
    code, _, err = run(capsys, "closed-form", "path", "--n", "24", "-k", "12")
    assert code == 2 and "k=12" in err and "C(24,12)=2704156" in err
    code, _, err = run(capsys, "closed-form", "complete", "--n", "60", "-k", "30")
    assert code == 2 and "k=30" in err and "C(60,30)=" in err
    # With -k all, the first sector above the limit refuses the whole request.
    code, _, err = run(capsys, "closed-form", "path", "--n", "20")
    assert code == 2 and "k=5" in err and "C(20,5)=15504" in err


@pytest.mark.parametrize(
    "argv,option,value",
    [
        (("verify", "--graph", "path:3", "--seed", "1.5"), "--seed", "'1.5'"),
        (("spectrum", "--graph", "path:3", "--model", "ising"), "--model", "'ising'"),
        (("spectrum", "--graph", "path:3", "--field", "weak"), "--field", "'weak'"),
        (("closed-form", "path", "--n", "six"), "--n", "'six'"),
        (("evolve", "--graph", "path:3", "-k", "1", "--from", "0", "--times", "1", "--to", "x"), "--to", "'x'"),
        (("verify", "--graph", "path:3", "--random-states", "-1"), "--random-states", "'-1'"),
        (("verify", "--graph", "path:3", "--random-states", "2.5"), "--random-states", "'2.5'"),
        (("verify", "--graph", "path:3", "--random-states", "0"), "--random-states", "'0'"),
        (("verify", "--graph", "path:3", "--seed", "-1"), "--seed", "'-1'"),
    ],
)
def test_bad_option_values_exit_2_naming_them(capsys, argv, option, value):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert f"argument {option}:" in err and value in err


@pytest.mark.parametrize("command", [("spectrum", "--graph", "path:3", "-k", "1"), ("verify", "--graph", "path:3")])
def test_tolerance_is_not_an_option(capsys, command):
    # Every bound comes from the table in spinwedge.spectra.
    code, out, err = run(capsys, *command, "--tol", "0")
    assert code == 2 and out == "" and "unrecognized arguments: --tol 0" in err
    code, out, _ = run(capsys, *command)
    assert code == 0 and (command[0] != "spectrum" or json.loads(out)["tol"] == 1e-9)


# Every option of every subcommand; a new option shows up here.
OPTIONS = {
    "wedge": ["--format", "--graph", "--help", "--output", "-h", "-k", "-o"],
    "spectrum": ["--field", "--format", "--graph", "--help", "--model", "--output", "-h", "-k", "-o"],
    "closed-form": ["--check", "--help", "--model", "--n", "--output", "-h", "-k", "-o", "family"],
    "verify": ["--graph", "--help", "--output", "--random-states", "--seed", "-h", "-o"],
    "evolve": [
        "--field", "--format", "--from", "--graph", "--help", "--model", "--output", "--subset", "--times", "--to",
        "-h", "-k", "-o",
    ],
    "export": ["--format", "--graph", "--help", "--output", "-h", "-o"],
}


def test_option_set_is_pinned():
    (subcommands,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    found = {
        name: sorted(s for a in parser._actions for s in a.option_strings or [a.dest])
        for name, parser in subcommands.choices.items()
    }
    assert found == OPTIONS


def test_a_usage_error_leaves_the_next_call_parsing_as_before(capsys):
    # The parser is built once per process and shared by every main() call.
    assert cli.build_parser() is cli.build_parser()
    plain = ("spectrum", "--graph", "path:3", "-k", "1")
    want = run(capsys, *plain)
    assert want[0] == 0
    for bad in (
        ("spectrum", "--graph", "path:3", "--model", "ising", "--field", "0.5"),
        ("spectrum", "--graph", "path:3", "--format", "csv", "-k"),
        ("evolve", "--graph", "path:3", "-k", "1", "--from", "x", "--times", "1"),
        ("bogus",),
        (),
    ):
        code, out, err = run(capsys, *bad)
        assert code == 2 and out == "" and err, bad
        assert run(capsys, *plain) == want, bad
    # Options given in one call do not carry over as defaults of the next.
    assert run(capsys, "spectrum", "--graph", "path:3", "-k", "1", "--model", "heis", "--field", "0.5")[0] == 0
    assert run(capsys, *plain) == want


def test_boolean_graph_labels_exit_2(tmp_path, capsys):
    for text, named in (('{"n": 2, "edges": [[false, true]]}', "[False, True]"), ('{"n": true, "edges": []}', "True")):
        path = tmp_path / "g.json"
        path.write_text(text)
        code, out, err = run(capsys, "spectrum", "--graph", str(path))
        assert code == 2 and out == "" and named in err


def test_evolve_p2_transfer(capsys):
    code, out, _ = run(
        capsys, "evolve", "--graph", "path:2", "--model", "xy", "-k", "1",
        "--from", "0", "--to", "1", "--times", "1.5708",
    )
    assert code == 0
    series = json.loads(out)
    assert series[0]["t"] == pytest.approx(1.5708)
    assert series[0]["probabilities"][0] == pytest.approx(1.0, abs=1e-9)


def test_evolve_time_zero_is_delta(capsys):
    code, out, _ = run(capsys, "evolve", "--graph", "path:4", "-k", "1", "--from", "2", "--times", "0")
    assert code == 0
    series = json.loads(out)
    assert np.allclose(series[0]["probabilities"], [0.0, 0.0, 1.0, 0.0], atol=1e-12)


def test_evolve_subset_gamma2_norm_preserved(capsys):
    code, out, _ = run(
        capsys, "evolve", "--graph", "path:4", "-k", "2", "--subset", "0,1", "--times", "0.5,1,5",
    )
    assert code == 0
    for row in json.loads(out):
        assert sum(row["probabilities"]) == pytest.approx(1.0, abs=1e-9)


def test_evolve_csv_columns(capsys):
    code, out, _ = run(
        capsys, "evolve", "--graph", "path:3", "-k", "1", "--from", "0", "--times", "0.5,1.5", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,p_0,p_1,p_2"
    assert len(lines) == 3


def test_evolve_invalid_subset_exits_2(capsys):
    code, _, _ = run(capsys, "evolve", "--graph", "path:4", "-k", "2", "--subset", "0,9", "--times", "1")
    assert code == 2
    code, _, _ = run(capsys, "evolve", "--graph", "path:4", "-k", "2", "--subset", "0", "--times", "1")
    assert code == 2


def test_malformed_subset_list_exits_2_naming_it(capsys):
    code, out, err = run(capsys, "evolve", "--graph", "path:4", "-k", "2", "--subset", "0,x", "--times", "1")
    assert code == 2 and out == ""
    assert err == "error: bad subset list '0,x'\n"


def test_graph_without_vertices(tmp_path, capsys):
    path = tmp_path / "g0.json"
    path.write_text(json.dumps({"n": 0, "edges": []}))
    code, out, _ = run(capsys, "verify", "--graph", str(path))
    assert code == 0 and out.splitlines()[-1].startswith("verification: 23 checks, 23 passed, 0 failed")
    for model, route in (("xy", "lift"), ("heis", "dense")):
        code, out, _ = run(capsys, "spectrum", "--graph", str(path), "--model", model)
        assert code == 0
        blocks = json.loads(out)["blocks"]
        assert [(b["k"], b["route"], b["spectrum"]["values"]) for b in blocks] == [(0, route, [0.0])]
    code, out, _ = run(capsys, "evolve", "--graph", str(path), "-k", "0", "--subset", ",", "--times", "1,2")
    assert code == 0
    assert [row["probabilities"] for row in json.loads(out)] == [[1.0], [1.0]]


def test_evolve_capacity_guard_before_allocation(capsys):
    subset = ",".join(str(v) for v in range(20))
    code, _, err = run(capsys, "evolve", "--graph", "path:40", "-k", "20", "--subset", subset, "--times", "1")
    assert code == 2
    assert "C(40,20)" in err


def _traced_run(capsys, *argv):
    tracemalloc.start()
    try:
        code, _, err = run(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return code, err, peak


def test_verify_refuses_13_spins_before_building_anything(capsys):
    # At n = 12 verify peaks near 1 GB in about seven 2^n x 2^n arrays; the
    # refusal at n = 13 comes before the first of them.
    code, err, peak = _traced_run(capsys, "verify", "--graph", "path:13")
    assert code == 2
    assert "path:13" in err and "n=13" in err and "n <= 12" in err
    assert peak < 1 << 20, peak


@pytest.mark.parametrize("spec", ["complete:100000", "er:100000:0.001:0"])
def test_oversized_family_graph_exits_2_before_it_is_built(spec, capsys):
    code, err, peak = _traced_run(capsys, "wedge", "--graph", spec, "-k", "2")
    assert code == 2
    assert spec in err and str(math.comb(100000, 2)) in err
    assert peak < 1 << 20, peak


def test_oversized_json_graph_exits_2_before_it_is_built(tmp_path, capsys):
    graph_file = tmp_path / "huge.json"
    graph_file.write_text(json.dumps({"n": 10**12, "edges": []}))
    code, err, peak = _traced_run(capsys, "wedge", "--graph", str(graph_file), "-k", "0")
    assert code == 2
    assert str(10**12) in err
    assert peak < 1 << 20, peak


@pytest.mark.parametrize(
    "argv, spec, count",
    [
        (("closed-form", "path", "--n", "1000001", "-k", "0"), "path:1000001", 1000001),
        (("closed-form", "path", "--n", "1000001", "-k", "0", "--check"), "path:1000001", 1000001),
        (("closed-form", "complete", "--n", "1415", "-k", "0", "--check"), "complete:1415", math.comb(1415, 2)),
    ],
)
def test_oversized_closed_form_graph_exits_2_before_it_is_built(argv, spec, count, capsys):
    # The path formula lists n single-particle values and --check builds the
    # graph, so both pass the graph size guard, even at k = 0.
    code, err, peak = _traced_run(capsys, *argv)
    assert code == 2
    assert f"graph {spec} has {count} " in err
    assert peak < 1 << 20, peak


@pytest.mark.parametrize(
    "argv",
    [
        ("spectrum", "--graph", "path:6000", "-k", "0"),
        ("evolve", "--graph", "path:6000", "-k", "0", "--subset", "", "--times", "1"),
        ("spectrum", "--graph", "path:6000", "-k", "6000", "--field", "0.5"),
        ("evolve", "--graph", "path:6000", "-k", "6000", "--subset", ",".join(map(str, range(6000))), "--times", "1"),
    ],
)
def test_one_subset_sectors_need_no_base(argv, capsys):
    # Sectors k=0 and k=n have one subset, of energy B(n-2k), for both
    # models: no 6000 x 6000 base adjacency (288 MB), which is sector k=1
    # and above the sector limit, is built for them.
    for model, route in (("xy", "lift"), ("heis", "dense")):
        code, err, peak = _traced_run(capsys, *argv, "--model", model)
        assert code == 0 and err == "", err
        assert peak < 16 << 20, peak
        code, out, _ = run(capsys, *argv, "--model", model)
        if argv[0] == "spectrum":
            (block,) = json.loads(out)["blocks"]
            assert (block["route"], block["spectrum"]["values"]) == (route, [0.0 if argv[4] == "0" else -3000.0])
        else:
            assert [(row["route"], row["probabilities"]) for row in json.loads(out)] == [(route, [1.0])]


def test_evolve_requires_initial_state(capsys):
    code, _, _ = run(capsys, "evolve", "--graph", "path:4", "-k", "1", "--times", "1")
    assert code == 2


def test_export_graph_json_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "graph.json"
    code, _, _ = run(capsys, "export", "--graph", "complete:4", "-o", str(out_file))
    assert code == 0
    data = json.loads(out_file.read_text())
    assert data["n"] == 4 and len(data["edges"]) == 6


def test_export_wedge_dot(tmp_path, capsys):
    out_file = tmp_path / "wedge.dot"
    code, _, _ = run(capsys, "wedge", "--graph", "path:6", "-k", "2", "--format", "dot", "-o", str(out_file))
    assert code == 0
    assert out_file.read_text().startswith("graph {")


def test_export_writes_base_graphs_only(capsys):
    code, _, _ = run(capsys, "export", "--graph", "path:6", "-k", "2")
    assert code == 2


def test_graph_file_input(tmp_path, capsys):
    gfile = tmp_path / "g.json"
    gfile.write_text(graph_to_json(path_graph(3)))
    code, out, _ = run(capsys, "spectrum", "--graph", str(gfile), "-k", "1")
    assert code == 0
    assert json.loads(out)["n"] == 3


def test_missing_graph_file_exits_2(capsys):
    code, _, _ = run(capsys, "spectrum", "--graph", "/nonexistent/g.json", "-k", "1")
    assert code == 2


def test_verify_single_graph_passes(capsys):
    code, out, _ = run(capsys, "verify", "--graph", "path:4", "--random-states", "3")
    assert code == 0
    assert "[PASS]" in out and "0 failed" in out


def test_verify_corrupted_graph_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 3, "edges": [[0,')
    code, _, err = run(capsys, "verify", "--graph", str(bad))
    assert code == 2
    assert "error" in err.lower()


def test_unknown_command_exits_2(capsys):
    assert cli.main(["frobnicate"]) == 2


def test_missing_required_flag_exits_2(capsys):
    assert cli.main(["wedge", "--graph", "path:3"]) == 2


def test_output_written_atomically(tmp_path, capsys):
    out_file = tmp_path / "spec.json"
    code, _, _ = run(capsys, "spectrum", "--graph", "path:3", "-k", "1", "-o", str(out_file))
    assert code == 0
    data = json.loads(out_file.read_text())
    assert data["graph"] == "path:3"
    leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".spinwedge-")]
    assert leftovers == []


def test_output_into_a_missing_directory_names_the_path(tmp_path, capsys):
    out_file = tmp_path / "missing" / "g.json"
    code, out, err = run(capsys, "export", "--graph", "path:3", "-o", str(out_file))
    assert code == 2 and out == ""
    assert str(out_file) in err and ".spinwedge-" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_output_to_a_fifo_is_written_in_place(tmp_path, capsys):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
    reader.start()
    code, _, _ = run(capsys, "spectrum", "--graph", "path:3", "-k", "1", "-o", str(fifo))
    reader.join(timeout=30)
    assert code == 0 and not reader.is_alive()
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert len(received) == 1 and json.loads(received[0])["graph"] == "path:3"
    assert [p.name for p in tmp_path.iterdir()] == ["pipe"]


def _readme_commands():
    """The commands of README's "Command line" block, without the program name."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    lines = [line.split("#", 1)[0].strip() for line in block.splitlines()]
    return [shlex.split(line)[1:] for line in lines if line.startswith("spinwedge ")]


def test_readme_command_examples_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = _readme_commands()
    assert len(commands) >= 10 and any("--field" in argv for argv in commands)
    for argv in commands:
        code, _, err = run(capsys, *argv)
        assert code == 0, (argv, err)
    assert (tmp_path / "g.dot").read_text().startswith("graph")


def test_spectrum_all_checks_every_sector_before_any_work(capsys, monkeypatch):
    def no_eigensolve(*args, **kwargs):
        raise AssertionError("eigvalsh called before the capacity guard")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigensolve)
    code, _, err = run(capsys, "spectrum", "--graph", "er:20:0.3:0", "-k", "all")
    assert code == 2
    assert "k=5" in err and "C(20,5)=15504" in err


def test_spectrum_blocks_name_their_route(capsys):
    code, out, _ = run(capsys, "spectrum", "--graph", "cycle:6", "-k", "all")
    assert code == 0
    routes = [b["route"] for b in json.loads(out)["blocks"]]
    assert routes == ["lift"] * 7
    code, out, _ = run(capsys, "spectrum", "--graph", "complete:4", "-k", "all")
    routes = [b["route"] for b in json.loads(out)["blocks"]]
    assert routes == ["lift", "lift", "dense", "lift", "lift"]
    code, out, _ = run(capsys, "spectrum", "--graph", "cycle:6", "-k", "all", "--model", "heis")
    routes = [b["route"] for b in json.loads(out)["blocks"]]
    assert routes == ["dense", "dense", "dense", "su2", "dense", "dense", "dense"]
    code, out, _ = run(capsys, "spectrum", "--graph", "cycle:6", "-k", "3", "--format", "csv")
    lines = out.strip().splitlines()
    assert lines[0] == "k,index,value" and len(lines) == 21 and "lift" not in out


def test_evolve_rows_name_their_route(capsys):
    argv = ["evolve", "--graph", "cycle:6", "-k", "2", "--subset", "0,3", "--times", "0.5,2"]
    code, out, _ = run(capsys, *argv)
    assert code == 0 and [row["route"] for row in json.loads(out)] == ["lift", "lift"]
    code, out, _ = run(capsys, "evolve", "--graph", "complete:4", *argv[3:])
    assert code == 0 and [row["route"] for row in json.loads(out)] == ["dense", "dense"]
    code, out, _ = run(capsys, *argv[:4], "3", "--subset", "0,2,4", "--times", "0.5,2")
    assert code == 0 and [row["route"] for row in json.loads(out)] == ["lift", "lift"]
    code, out, _ = run(capsys, *argv[:4], "3", "--subset", "0,2,4", "--times", "0.5,2", "--format", "csv")
    assert code == 0 and out.splitlines()[0].startswith("t,p_012,") and "lift" not in out


# Parsed outputs of these commands before the JSON became compact.
CLI_JSON_OUTPUTS = json.loads((Path(__file__).parent / "data" / "cli_json_outputs.json").read_text())


def _same_values(got, want, path=""):
    """Equal structure, keys, strings and integers; floats within 1e-12 (the
    lift amplitudes now come from another determinant algorithm)."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), path
        for key in want:
            _same_values(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (a, b) in enumerate(zip(got, want)):
            _same_values(a, b, f"{path}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, float) and abs(got - want) <= 1e-12, (path, got, want)
    else:
        assert type(got) is type(want) and got == want, (path, got, want)


@pytest.mark.parametrize("command", sorted(CLI_JSON_OUTPUTS))
def test_json_output_is_compact_with_the_same_values(command, capsys):
    code, out, _ = run(capsys, *command.split())
    assert code == 0
    assert out.endswith("\n") and out.count("\n") == 1
    _same_values(json.loads(out), CLI_JSON_OUTPUTS[command])


def _loaded_scipy_modules(code: str) -> str:
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = f"import sys\n{code}\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    return subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True).stdout


def test_cli_import_leaves_scipy_sparse_unloaded():
    assert _loaded_scipy_modules("import spinwedge.cli").strip() == "[]"


def test_verify_on_the_whole_corpus_loads_no_scipy():
    code = "import contextlib, io, spinwedge.cli\nwith contextlib.redirect_stdout(io.StringIO()):\n    rc = spinwedge.cli.main(['verify'])\nprint(rc)"
    assert _loaded_scipy_modules(code).split() == ["0", "[]"]
