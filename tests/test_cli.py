import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from spinwedge import cli, graph_to_json, path_graph


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
    johnson_spectrum = cli.johnson_spectrum
    monkeypatch.setattr(cli, "johnson_spectrum", lambda n, k: johnson_spectrum(n, k) + 0.5)
    code, out, _ = run(capsys, "closed-form", "complete", "--n", "4", "-k", "2", "--check")
    assert code == 0
    check = json.loads(out)["cross_check"]
    assert check["equal"] is False and check["max_gap"] == pytest.approx(0.5, abs=1e-9)


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

    for name in ("xy_path_spectrum", "johnson_spectrum"):
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
        (("verify", "--graph", "path:3", "--tol", "nan"), "--tol", "'nan'"),
        (("verify", "--graph", "path:3", "--tol", "-1"), "--tol", "'-1'"),
        (("spectrum", "--graph", "path:3", "--tol", "nan"), "--tol", "'nan'"),
        (("spectrum", "--graph", "path:3", "--tol", "inf"), "--tol", "'inf'"),
        (("spectrum", "--graph", "path:3", "--tol", "tiny"), "--tol", "'tiny'"),
        (("verify", "--graph", "path:3", "--random-states", "-1"), "--random-states", "'-1'"),
        (("verify", "--graph", "path:3", "--random-states", "2.5"), "--random-states", "'2.5'"),
    ],
)
def test_bad_option_values_exit_2_naming_them(capsys, argv, option, value):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert f"argument {option}:" in err and value in err


def test_zero_tolerance_and_zero_random_states_are_accepted(capsys):
    code, out, _ = run(capsys, "spectrum", "--graph", "path:3", "-k", "1", "--tol", "0")
    assert code == 0 and json.loads(out)["tol"] == 0.0
    code, out, _ = run(capsys, "verify", "--graph", "path:3", "--random-states", "0")
    assert code == 0 and "0 failed" in out


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
    assert routes == ["lift", "lift", "dense", "lift", "dense", "lift", "lift"]
    code, out, _ = run(capsys, "spectrum", "--graph", "cycle:6", "-k", "all", "--model", "heis")
    assert {b["route"] for b in json.loads(out)["blocks"]} == {"dense"}
    code, out, _ = run(capsys, "spectrum", "--graph", "cycle:6", "-k", "3", "--format", "csv")
    lines = out.strip().splitlines()
    assert lines[0] == "k,index,value" and len(lines) == 21 and "lift" not in out


def test_evolve_rows_name_their_route(capsys):
    argv = ["evolve", "--graph", "cycle:6", "-k", "2", "--subset", "0,3", "--times", "0.5,2"]
    code, out, _ = run(capsys, *argv)
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


def test_cli_import_leaves_scipy_sparse_unloaded():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = "import sys, spinwedge.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
