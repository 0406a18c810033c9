"""Every refusal that no other test reaches, each matched by its message.

Library errors are raised in process; command-line cases go through
``cli.main`` so that the refusal runs in this process too.
"""
import json
import re

import numpy as np
import pytest

import qcrkit as q
from qcrkit import cli
from qcrkit.registers import Subsystem, SystemLayout
from qcrkit.statefile import StateFileError


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("QCRKIT_CONFIG", raising=False)


def layout_of(*regs):
    """A layout from (label, party, kind, dim) tuples."""
    return SystemLayout(tuple(Subsystem(*r) for r in regs))


# -- state files --------------------------------------------------------------


def test_a_non_finite_state_is_refused_before_its_file_is_created(tmp_path):
    m = q.maximally_entangled(2).matrix.copy()
    m[0, 3] = complex(np.nan, 0.0)
    state = q.QuantumState(q.standard_layout(2, 1), matrix=m, validate=False)
    path = tmp_path / "nan.json"
    with pytest.raises(StateFileError, match="^state contains non-finite entries$"):
        q.write_state(state, path)
    assert not path.exists()


def test_a_writer_shaped_file_with_a_broken_head_is_parsed_whole(tmp_path):
    text = q.state_to_text(q.maximally_entangled(2))
    broken = text.replace('"format"', '"format" "', 1)
    with pytest.raises(json.JSONDecodeError) as whole:
        json.loads(broken)
    with pytest.raises(StateFileError) as got:
        q.text_to_state(broken)
    assert str(got.value) == f"not valid JSON: {whole.value}"


def test_a_document_without_entries_is_refused():
    doc = json.loads(q.state_to_text(q.maximally_entangled(2)))
    del doc["entries"]
    with pytest.raises(StateFileError, match="^missing or malformed entries$"):
        q.text_to_state(json.dumps(doc))


# -- the command line ---------------------------------------------------------


@pytest.mark.parametrize("text, message", [
    ("{tol: 1}", "is not valid JSON"),
    ("[1, 2]", "must hold a JSON object"),
])
def test_a_config_that_is_not_a_json_object_is_a_usage_error(
        tmp_path, monkeypatch, capsys, text, message):
    config = tmp_path / "config.json"
    config.write_text(text, encoding="utf-8")
    monkeypatch.setenv("QCRKIT_CONFIG", str(config))
    assert cli.main(["construct", "example", "--out", str(tmp_path / "ex.json")]) == 64
    err = capsys.readouterr().err
    assert err.startswith(f"error: config file {config} ") and message in err
    assert not (tmp_path / "ex.json").exists()


@pytest.mark.parametrize("argv, message", [
    (["construct", "example", "--cap", "0"], "argument --cap: must be >= 1"),
    (["construct", "private", "--d", "2", "--shield-dims", "2,x"],
     "argument --shield-dims: expected comma-separated integers, got '2,x'"),
])
def test_a_bad_flag_value_is_a_usage_error(tmp_path, capsys, argv, message):
    assert cli.main(argv + ["--out", str(tmp_path / "s.json")]) == 64
    assert capsys.readouterr().err.rstrip("\n").endswith(message)


def test_an_empty_keep_list_is_a_usage_error(tmp_path, capsys, example_state):
    path = tmp_path / "ex.json"
    q.write_state(example_state, path)
    assert cli.main(["reduce", str(path), "--keep", "", "--out", str(tmp_path / "r.json")]) == 64
    assert capsys.readouterr().err == "error: --keep needs at least one player\n"


def test_all_cuts_of_a_one_register_file_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "one.json"
    q.write_state(q.QuantumState(layout_of(("X", "P", "info", 2)), vector=[1.0, 0.0]), path)
    assert cli.main(["ppt", str(path), "--cuts", "all"]) == 64
    assert capsys.readouterr().err == (
        "error: need at least two non-environment registers of dimension above 1 to cut\n")


@pytest.mark.parametrize("argv, message", [
    (["ppt", "{ex}", "--side-two", "A1.info"], "error: --side-two needs --cuts explicit\n"),
    (["construct", "example", "--out", "{tmp}/no/x.json"], "error: cannot write output: "),
    (["verify", "{ex}", "--report", "{tmp}/no/r.json"], "error: cannot write output: "),
], ids=["side-two-without-explicit", "unwritable-out", "unwritable-report"])
def test_a_refused_flag_or_output_path_is_a_usage_error(
        tmp_path, capsys, example_state, argv, message):
    # test_cli's test_exit_codes runs these in a child process; here main's handlers run in this one
    ex = tmp_path / "ex.json"
    q.write_state(example_state, ex)
    assert cli.main([a.format(ex=ex, tmp=tmp_path) for a in argv]) == 64
    assert capsys.readouterr().err.startswith(message)


# -- the library --------------------------------------------------------------


def test_state_shape_repr_and_register_lists():
    layout = q.standard_layout(2, 1)
    with pytest.raises(ValueError, match=r"^matrix shape \(3, 3\) does not match layout dim 4$"):
        q.QuantumState(layout, matrix=np.eye(3))
    pair = q.maximally_entangled(2)
    labels = "['D.info', 'D.shield', 'A1.info', 'A1.shield']"
    assert repr(pair) == f"QuantumState(density, dim=4, registers={labels})"
    assert repr(q.build_ghz_qcr(2, 1)) == f"QuantumState(pure, dim=4, registers={labels})"
    for measure in (q.measurement_distribution, q.measure_computational):
        with pytest.raises(ValueError, match="^need at least one register to measure$"):
            measure(pair, [])
    with pytest.raises(ValueError, match="^need at least one control and one target register$"):
        q.apply_controlled(pair, [], ["D.info"], {})


def test_purify_refuses_a_non_hermitian_matrix():
    m = q.maximally_entangled(2).matrix.copy()
    m[0, 3] = 0.25
    state = q.QuantumState(q.standard_layout(2, 1), matrix=m, validate=False)
    with pytest.raises(ValueError, match=r"^cannot purify: matrix is not Hermitian "
                                         r"\(max asymmetry 0\.25\)$"):
        q.purify(state)


def test_builder_refusals():
    with pytest.raises(ValueError, match="^need at least one shield dimension$"):
        q.ShieldSeed((), vector=[1.0])
    layout = q.standard_layout(2, 1, (2, 2))
    with pytest.raises(ValueError, match="^per-party twist needs exactly one shield register "
                                         "for 'A2', found 0$"):
        q.per_party_twist(layout, {"A2": {0: np.eye(2)}})
    for d in (0, 1):
        for make in (lambda: q.shift_matrix(d, 0), lambda: q.cx_matrix(d)):
            with pytest.raises(ValueError, match="^qudit dimension must be >= 2$"):
                make()


@pytest.mark.parametrize("bad", [2.5, 2.0, np.float64(2), "2", True], ids=repr)
def test_gates_refuse_a_dimension_or_shift_that_is_not_an_integer(bad):
    for make, what in [(lambda: q.shift_matrix(bad, 1), "qudit dimension"),
                       (lambda: q.cx_matrix(bad), "qudit dimension"),
                       (lambda: q.shift_matrix(2, bad), "shift"),
                       (lambda: q.random_private_state(bad, (1, 1), np.random.default_rng(0)),
                        "qudit dimension")]:
        with pytest.raises(ValueError, match=f"^{what} must be an integer, got "
                                             f"{re.escape(repr(bad))}$"):
            make()


@pytest.mark.parametrize("bad", [2.5, 2.0, np.float64(2), "2", None, True], ids=repr)
def test_builders_refuse_a_dimension_that_is_not_an_integer(bad):
    # the dealer's info register refuses it by name; `bad < 2` once raised a bare TypeError
    for make in (lambda: q.standard_layout(bad, 1), lambda: q.maximally_entangled(bad),
                 lambda: q.build_private_state(bad), lambda: q.build_ghz_qcr(bad, 2)):
        with pytest.raises(ValueError, match=f"^register 'D.info' has dimension "
                                             f"{re.escape(repr(bad))}; need an integer >= 1$"):
            make()


@pytest.mark.parametrize("rank", [0, -1, 1.0, 2.5, "2", True], ids=repr)
def test_random_density_refuses_a_rank_that_is_not_an_integer_from_one(rank):
    # rank 0 once divided a zero matrix by its zero trace and returned NaN
    with pytest.raises(ValueError, match=f"^rank must be an integer >= 1, "
                                         f"got {re.escape(repr(rank))}$"):
        q.random_density(4, np.random.default_rng(1), rank=rank)


def test_cut_and_reduction_refusals(example_state):
    layout = example_state.layout
    with pytest.raises(ValueError, match=r"^unknown players: \['A9'\]$"):
        q.CutSpec.dealer_cut(layout, ["A9"])
    no_dealer = q.QuantumState(layout_of(("X", "A1", "info", 2)), matrix=np.eye(2) / 2)
    with pytest.raises(ValueError, match="^layout has no dealer party 'D'$"):
        q.all_dealer_cuts_ppt(no_dealer)
    dealer_only = q.QuantumState(
        layout_of(("D.info", "D", "info", 2), ("D.shield", "D", "shield", 2)), matrix=np.eye(4) / 4)
    with pytest.raises(ValueError, match="^layout has no player parties$"):
        q.all_dealer_cuts_ppt(dealer_only)
    with pytest.raises(ValueError, match="^outcome needs 1 digits, got 2$"):
        q.reduce(example_state, ["A1"], outcome=(0, 1), check=False)


def test_crypto_form_refusals():
    with pytest.raises(ValueError, match="^party 'A1' has 0 info registers; need exactly 1$"):
        layout_of(("D.info", "D", "info", 2), ("A1.shield", "A1", "shield", 2)).info_label("A1")
    with pytest.raises(ValueError, match="^layout has no player parties$"):
        layout_of(("D.info", "D", "info", 2)).require_crypto_form()
    with pytest.raises(ValueError, match="^layout has no dealer party 'D'$"):
        layout_of(("A1.info", "A1", "info", 2)).require_crypto_form()
    with pytest.raises(ValueError, match="^qudit dimension must be >= 2, got 1$"):
        layout_of(("D.info", "D", "info", 1), ("A1.info", "A1", "info", 1)).require_crypto_form()


# -- tolerances and digits ----------------------------------------------------


@pytest.mark.parametrize("bad", [float("nan"), -1e-9, float("inf"), "1e-9", None, True], ids=repr)
def test_a_tolerance_that_is_not_a_finite_number_from_zero_is_refused_before_any_work(
        bad, example_state, monkeypatch):
    # a NaN tol once failed both conditions of a perfect state, blamed it in
    # reduce and compose, and put NaN into the reports' to_dict()
    def work(*args, **kwargs):
        raise AssertionError("work began before tol was refused")

    for module, name in [(q.verify, "purify"), (q.verify, "measurement_distribution"),
                         (q.entanglement, "_block_spectra"),
                         (q.entanglement, "_pure_min_eigenvalue"), (q.construct, "apply_controlled")]:
        monkeypatch.setattr(module, name, work)
    density = example_state.to_density()
    cut = q.CutSpec.dealer_cut(example_state.layout, ["A1"])
    base = q.build_ghz_qcr(2, 2, q.ShieldSeed.basis_zero((2, 1, 1)))
    calls = [
        lambda: q.is_qcr(example_state, tol=bad),
        lambda: q.check_condition_i(example_state, tol=bad),
        lambda: q.check_condition_ii(density, tol=bad),
        lambda: q.ppt_report(density, [cut], tol=bad),
        lambda: q.ppt_check(example_state, cut, tol=bad),
        lambda: q.all_dealer_cuts_ppt(density, tol=bad),
        lambda: q.reduce(example_state, ["A1"], tol=bad),
        lambda: q.compose(example_state, q.maximally_entangled(2), tol=bad),
        lambda: q.expand_from_private([q.maximally_entangled(2)] * 2, tol=bad),
        lambda: q.build_twisted_qcr(base, q.TwistingFamily({}), tol=bad),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=f"^tol must be a finite number >= 0, "
                                             f"got {re.escape(repr(bad))}$"):
            call()


@pytest.mark.parametrize("tol", [0, 0.0, 1e-9, np.float64(0.5)], ids=repr)
def test_a_finite_tolerance_from_zero_is_taken(tol, example_state):
    assert q.is_qcr(example_state, tol=tol).verdict
    assert q.all_dealer_cuts_ppt(example_state, tol=tol).tol == tol


@pytest.mark.parametrize("bad", ["0", 0.0, 1.5, True, None], ids=repr)
def test_a_digit_that_is_not_an_integer_is_named_before_its_range(bad):
    # each was once reported as "digit 0 out of range for register 'D.info' (dim 2)"
    message = f"^digit for register 'D.info' must be an integer, got {re.escape(repr(bad))}$"
    pair = q.maximally_entangled(2)
    for call in [lambda: q.project_registers(pair, ["D.info"], [bad]),
                 lambda: q.project_registers(pair.to_density(), ["D.info"], [bad]),
                 lambda: q.QuantumState.basis_state(pair.layout, [bad, 0, 0, 0]),
                 lambda: q.apply_controlled(pair, ["D.info"], ["A1.info"], {(bad,): np.eye(2)})]:
        with pytest.raises(ValueError, match=message):
            call()
    with pytest.raises(ValueError, match=message.replace("D.info", "A1.info")):
        q.reduce(q.build_example_state(), ["A1"], outcome=(bad,), check=False)
    with pytest.raises(ValueError, match=r"^digit 2 out of range for register 'D.info' \(dim 2\)$"):
        q.project_registers(pair, ["D.info"], [2])
