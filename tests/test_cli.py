import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qcrkit as q
from qcrkit.cli import main


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("QCRKIT_CONFIG", raising=False)


@pytest.fixture()
def example_file(tmp_path, example_state):
    path = tmp_path / "example.json"
    q.write_state(example_state, path)
    return str(path)


@pytest.fixture()
def pair_file(tmp_path, max_ent):
    path = tmp_path / "pair.json"
    q.write_state(max_ent, path)
    return str(path)


# -- construct -----------------------------------------------------------


def test_construct_example_matches_library(tmp_path, capsys, example_state):
    out = tmp_path / "ex.json"
    assert main(["construct", "example", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "wrote" in text and "info distribution" in text
    back = q.read_state(out)
    assert np.array_equal(back.vector, example_state.vector)


def test_construct_private_default(tmp_path, max_ent):
    out = tmp_path / "p.json"
    assert main(["construct", "private", "--d", "2", "--out", str(out)]) == 0
    back = q.read_state(out)
    assert np.array_equal(back.matrix, max_ent.matrix)


def test_construct_ghz(tmp_path):
    out = tmp_path / "g.json"
    assert main(["construct", "ghz", "--d", "3", "--n", "2", "--out", str(out)]) == 0
    back = q.read_state(out)
    assert np.array_equal(back.vector, q.build_ghz_qcr(3, 2).vector)


def test_construct_twisted_is_seeded(tmp_path):
    argv = ["construct", "twisted", "--d", "2", "--n", "2", "--seed", "11"]
    one, two = tmp_path / "one.json", tmp_path / "two.json"
    assert main(argv + ["--out", str(one)]) == 0
    assert main(argv + ["--out", str(two)]) == 0
    a, b = q.read_state(one), q.read_state(two)
    assert np.array_equal(a.vector, b.vector)
    assert q.is_qcr(a).verdict


def test_construct_random_needs_seed(tmp_path, capsys):
    out = tmp_path / "r.json"
    argv = ["construct", "private", "--d", "2", "--random", "--out", str(out)]
    assert main(argv) == 64
    assert "--seed" in capsys.readouterr().err
    assert main(argv + ["--seed", "3"]) == 0
    assert q.is_qcr(q.read_state(out)).verdict


def test_construct_over_cap_is_clean_usage_error(tmp_path, capsys):
    argv = ["construct", "private", "--d", "5", "--shield-dims", "13,13",
            "--out", str(tmp_path / "big.json")]
    assert main(argv) == 64
    err = capsys.readouterr().err
    assert "error" in err
    assert not (tmp_path / "big.json").exists()


def test_construct_missing_parameters(tmp_path):
    assert main(["construct", "ghz", "--out", str(tmp_path / "x.json")]) == 64
    assert main(["construct", "private", "--out", str(tmp_path / "x.json")]) == 64
    assert main(["construct", "ghz", "--d", "2", "--n", "2",
                 "--shield-dims", "1,1", "--out", str(tmp_path / "x.json")]) == 64


# -- verify --------------------------------------------------------------


def test_verify_passing_state(example_file, capsys):
    assert main(["verify", example_file]) == 0
    out = capsys.readouterr().out
    assert "verdict: PASS" in out
    assert "condition (i)" in out and "condition (ii)" in out


def test_verify_failing_state(tmp_path, capsys, biased_state):
    path = tmp_path / "biased.json"
    q.write_state(biased_state, path)
    assert main(["verify", str(path)]) == 1
    out = capsys.readouterr().out
    assert "verdict: FAIL" in out
    assert "condition_i" in out


def test_verify_exhaustive_flag(example_file, capsys):
    assert main(["verify", example_file, "--exhaustive"]) == 0
    assert "exhaustive" in capsys.readouterr().out


def test_verify_report_document(example_file, tmp_path):
    report = tmp_path / "report.json"
    assert main(["verify", example_file, "--report", str(report)]) == 0
    doc = json.loads(report.read_text())
    assert doc["format"] == "qcr-report/1"
    assert doc["command"] == "verify"
    assert doc["verdict"] is True
    assert doc["condition_i"]["max_deviation"] == 0.0


def test_verify_malformed_file(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("junk {", encoding="utf-8")
    assert main(["verify", str(path)]) == 65
    assert "state file error" in capsys.readouterr().err


def test_verify_missing_file(tmp_path):
    assert main(["verify", str(tmp_path / "absent.json")]) == 65


# -- usage errors --------------------------------------------------------


def test_unknown_command(capsys):
    assert main(["frobnicate"]) == 64
    assert "error" in capsys.readouterr().err


def test_unknown_flag(example_file):
    assert main(["verify", example_file, "--frob"]) == 64


def test_bad_flag_values(example_file):
    assert main(["verify", example_file, "--tol", "-1"]) == 64
    assert main(["verify", example_file, "--seed", "abc"]) == 64


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_non_finite_tol_is_usage_error(example_file, tol):
    assert main(["verify", example_file, "--tol", tol]) == 64


# -- reduce --------------------------------------------------------------


def test_reduce_writes_branch_files(example_file, tmp_path, capsys):
    out = tmp_path / "branch.json"
    assert main(["reduce", example_file, "--keep", "A1", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "verify=PASS" in text
    for digit in (0, 1):
        back = q.read_state(tmp_path / f"branch.b{digit}.json")
        assert back.layout.players == ("A1",)
        assert q.is_qcr(back, tol=1e-7).verdict


def test_reduce_single_branch(example_file, tmp_path):
    out = tmp_path / "b.json"
    assert main(["reduce", example_file, "--keep", "A1",
                 "--branch", "1", "--out", str(out)]) == 0
    assert (tmp_path / "b.b1.json").exists()
    assert not (tmp_path / "b.b0.json").exists()


def test_reduce_keep_validation(example_file, tmp_path):
    out = str(tmp_path / "o.json")
    assert main(["reduce", example_file, "--keep", "A1,A2", "--out", out]) == 64
    assert main(["reduce", example_file, "--keep", "A9", "--out", out]) == 64


def test_reduce_rejects_uncertified_input(tmp_path):
    layout = q.standard_layout(2, 2)
    junk = q.QuantumState.basis_state(layout, (0,) * 6)
    path = tmp_path / "junk.json"
    q.write_state(junk, path)
    assert main(["reduce", str(path), "--keep", "A1",
                 "--out", str(tmp_path / "o.json")]) == 1


# -- compose -------------------------------------------------------------


def test_compose_two_pairs(pair_file, tmp_path, capsys):
    out = tmp_path / "merged.json"
    assert main(["compose", pair_file, pair_file, "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "cX(d=2)" in text
    back = q.read_state(out)
    assert back.layout.n_players == 2
    assert q.is_qcr(back, tol=1e-7).verdict


def test_compose_dimension_mismatch(pair_file, tmp_path):
    other = tmp_path / "d3.json"
    q.write_state(q.build_private_state(3), other)
    assert main(["compose", pair_file, str(other),
                 "--out", str(tmp_path / "o.json")]) == 64


def test_compose_uncertified_input_and_force(pair_file, tmp_path):
    layout = q.standard_layout(2, 1)
    junk = q.QuantumState.basis_state(layout, (0,) * 4)
    path = tmp_path / "junk.json"
    q.write_state(junk, path)
    out = tmp_path / "merged.json"
    assert main(["compose", pair_file, str(path), "--out", str(out)]) == 1
    assert not out.exists()
    assert main(["compose", pair_file, str(path), "--force", "--out", str(out)]) == 1
    assert out.exists()


# -- ppt -----------------------------------------------------------------


def test_ppt_product_state_exit_zero(tmp_path):
    layout = q.standard_layout(2, 1)
    state = q.QuantumState.basis_state(layout, (0,) * 4)
    path = tmp_path / "product.json"
    q.write_state(state, path)
    assert main(["ppt", str(path)]) == 0


def test_ppt_entangled_state_exit_two(pair_file, capsys):
    assert main(["ppt", pair_file]) == 2
    out = capsys.readouterr().out
    assert "non-PPT" in out


def test_ppt_all_cuts(pair_file, capsys):
    assert main(["ppt", pair_file, "--cuts", "all"]) == 2
    out = capsys.readouterr().out
    assert out.count("cut [") == 7


def test_ppt_explicit_cut(pair_file):
    assert main(["ppt", pair_file, "--cuts", "explicit",
                 "--side-two", "A1.info,A1.shield"]) == 2
    assert main(["ppt", pair_file, "--cuts", "explicit"]) == 64
    assert main(["ppt", pair_file, "--cuts", "explicit",
                 "--side-two", "A9.info"]) == 64


# -- distance and measure -------------------------------------------------


def test_distance_command(pair_file, tmp_path, capsys):
    layout = q.standard_layout(2, 1)
    other = tmp_path / "basis.json"
    q.write_state(q.QuantumState.basis_state(layout, (0,) * 4), other)
    assert main(["distance", pair_file, str(other)]) == 0
    assert "trace distance" in capsys.readouterr().out
    assert main(["distance", pair_file, str(tmp_path / "nope.json")]) == 65


def test_measure_command(example_file, capsys):
    assert main(["measure", example_file]) == 0
    out = capsys.readouterr().out
    assert out.count("0.25") == 4
    assert main(["measure", example_file, "--registers", "D.info"]) == 0
    out = capsys.readouterr().out
    assert "0.5" in out
    assert main(["measure", example_file, "--registers", "X.info"]) == 64


def test_measure_report(example_file, tmp_path):
    report = tmp_path / "m.json"
    assert main(["measure", example_file, "--report", str(report)]) == 0
    doc = json.loads(report.read_text())
    assert doc["format"] == "qcr-report/1"
    assert doc["distribution"] == {
        "000": 0.25, "011": 0.25, "101": 0.25, "110": 0.25,
    }


# -- config file ---------------------------------------------------------


def write_config(tmp_path, monkeypatch, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    monkeypatch.setenv("QCRKIT_CONFIG", str(path))


def test_config_supplies_tolerance(tmp_path, monkeypatch, biased_state):
    path = tmp_path / "biased.json"
    q.write_state(biased_state, path)
    write_config(tmp_path, monkeypatch, {"tol": 0.5})
    assert main(["verify", str(path)]) == 0


def test_flag_overrides_config(tmp_path, monkeypatch, biased_state):
    path = tmp_path / "biased.json"
    q.write_state(biased_state, path)
    write_config(tmp_path, monkeypatch, {"tol": 0.5})
    assert main(["verify", str(path), "--tol", "1e-9"]) == 1


def test_config_supplies_seed(tmp_path, monkeypatch):
    write_config(tmp_path, monkeypatch, {"seed": 9})
    one, two = tmp_path / "one.json", tmp_path / "two.json"
    argv = ["construct", "private", "--d", "2", "--random"]
    assert main(argv + ["--out", str(one)]) == 0
    assert main(argv + ["--out", str(two)]) == 0
    assert np.array_equal(q.read_state(one).matrix, q.read_state(two).matrix)


def test_config_rejects_unknown_keys(tmp_path, monkeypatch, example_file, capsys):
    write_config(tmp_path, monkeypatch, {"tolerance": 1e-6})
    assert main(["verify", example_file]) == 64
    assert "unknown config keys" in capsys.readouterr().err


def test_config_rejects_bad_values(tmp_path, monkeypatch, example_file):
    write_config(tmp_path, monkeypatch, {"tol": -2})
    assert main(["verify", example_file]) == 64
    write_config(tmp_path, monkeypatch, {"report_format": "yaml"})
    assert main(["verify", example_file]) == 64
    # bool is a subclass of int; Infinity is valid JSON to json.loads
    for doc in ({"tol": True}, {"cap": True}, {"seed": True}, {"tol": float("inf")}):
        write_config(tmp_path, monkeypatch, doc)
        assert main(["verify", example_file]) == 64


def test_config_missing_file(monkeypatch, example_file):
    monkeypatch.setenv("QCRKIT_CONFIG", "/nonexistent/config.json")
    assert main(["verify", example_file]) == 64


def test_module_entry_point(example_file):
    # the child imports the same qcrkit as this process, installed or not
    src = str(Path(q.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "qcrkit", "verify", example_file],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "verdict: PASS" in proc.stdout
