import json

import numpy as np
import pytest

import qcrkit as q
from qcrkit.cli import main
from qcrkit.statefile import StateFileError


def roundtrip(state, note=None):
    return q.text_to_state(q.state_to_text(state, note=note))


def test_pure_state_roundtrips_bit_exact(example_state):
    back = roundtrip(example_state)
    assert back.is_pure
    assert back.layout == example_state.layout
    assert np.array_equal(back.vector, example_state.vector)


def test_density_roundtrips_bit_exact(max_ent):
    dens = max_ent.to_density()
    back = roundtrip(dens)
    assert not back.is_pure
    assert np.array_equal(back.matrix, dens.matrix)


def test_random_density_roundtrips_bit_exact():
    rng = np.random.default_rng(40)
    layout = q.standard_layout(2, 1, (2, 2))
    state = q.random_private_state(2, (2, 2), rng)
    assert state.layout == layout
    back = roundtrip(state)
    assert np.array_equal(back.matrix, state.matrix)


def test_note_survives_in_document(max_ent):
    text = q.state_to_text(max_ent, note="pair for the key session")
    doc = json.loads(text)
    assert doc["note"] == "pair for the key session"
    assert doc["format"] == "qcr-state/1"
    back = q.text_to_state(text)
    assert np.array_equal(back.matrix, max_ent.matrix)


def test_entries_are_one_per_line(max_ent):
    text = q.state_to_text(max_ent)
    lines = [ln.strip() for ln in text.splitlines()]
    assert sum(1 for ln in lines if ln.startswith("[0.") or ln.startswith("[-0.")) >= 2
    doc = json.loads(text)
    assert all(len(pair) == 2 for pair in doc["entries"])


def test_write_and_read_files(tmp_path, example_state):
    path = tmp_path / "example.json"
    q.write_state(example_state, path)
    back = q.read_state(path)
    assert np.array_equal(back.vector, example_state.vector)


def test_read_missing_file_raises(tmp_path):
    with pytest.raises(StateFileError):
        q.read_state(tmp_path / "nope.json")


def valid_doc():
    layout = q.standard_layout(2, 1, (1, 1))
    state = q.maximally_entangled(2)
    assert state.layout == layout
    return json.loads(q.state_to_text(state))


def dumps(doc):
    return json.dumps(doc)


def test_malformed_documents_are_rejected():
    with pytest.raises(StateFileError):
        q.text_to_state("not json at all {")
    with pytest.raises(StateFileError):
        q.text_to_state(json.dumps([1, 2, 3]))

    doc = valid_doc()
    doc["format"] = "qcr-state/2"
    with pytest.raises(StateFileError):
        q.text_to_state(dumps(doc))

    doc = valid_doc()
    del doc["layout"]
    with pytest.raises(StateFileError):
        q.text_to_state(dumps(doc))

    doc = valid_doc()
    doc["layout"][0]["kind"] = "mystery"
    with pytest.raises(StateFileError):
        q.text_to_state(dumps(doc))

    doc = valid_doc()
    doc["representation"] = "stabilizer"
    with pytest.raises(StateFileError):
        q.text_to_state(dumps(doc))

    doc = valid_doc()
    doc["entries"] = doc["entries"][:-1]
    with pytest.raises(StateFileError):
        q.text_to_state(dumps(doc))

    doc = valid_doc()
    doc["entries"][0] = [0.5, 0.0, 0.0]
    with pytest.raises(StateFileError):
        q.text_to_state(dumps(doc))

    doc = valid_doc()
    doc["entries"][0] = [float("nan"), 0.0]
    with pytest.raises(StateFileError):
        q.text_to_state(dumps(doc))

    doc = valid_doc()
    doc["entries"] = [[0.0, 0.0] for _ in doc["entries"]]
    with pytest.raises(StateFileError):
        q.text_to_state(dumps(doc))


@pytest.mark.parametrize("entry", [
    ["0.5", "0"], ["0.5", 0.0], [None, 0.0], [True, False], [{"re": 0.5}, 0.0],
])
def test_entries_must_be_json_numbers(entry, tmp_path, capsys, monkeypatch):
    # "0.5" would pass a float64 conversion; a state file holds numbers only
    monkeypatch.delenv("QCRKIT_CONFIG", raising=False)
    doc = valid_doc()
    doc["entries"] = [entry] * len(doc["entries"])
    with pytest.raises(StateFileError, match="number pairs"):
        q.text_to_state(dumps(doc))
    path = tmp_path / "strings.json"
    path.write_text(dumps(doc))
    assert main(["verify", str(path)]) == 65
    assert "state file error" in capsys.readouterr().err


def test_string_entries_with_valid_values_are_rejected():
    doc = valid_doc()
    doc["entries"] = [[repr(re), repr(im)] for re, im in doc["entries"]]
    with pytest.raises(StateFileError, match="number pairs"):
        q.text_to_state(dumps(doc))


def test_integer_entries_load_as_floats():
    doc = valid_doc()
    doc["entries"] = [[0, 0]] * len(doc["entries"])
    doc["entries"][0] = [1, 0]
    doc["representation"] = "density"
    s = q.text_to_state(dumps(doc))
    assert s.matrix.dtype == np.complex128
    assert s.matrix[0, 0] == 1.0 and s.trace() == 1.0


@pytest.mark.parametrize("key, value", [
    ("dim", 2.5), ("dim", 2.0), ("dim", "2"), ("dim", True), ("dim", None),
    ("label", 7), ("label", None), ("party", ["D"]), ("kind", 1),
])
def test_layout_fields_must_have_their_json_types(key, value, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("QCRKIT_CONFIG", raising=False)
    doc = valid_doc()
    doc["layout"][0][key] = value
    with pytest.raises(StateFileError):
        q.text_to_state(dumps(doc))
    path = tmp_path / "typed.json"
    path.write_text(dumps(doc))
    assert main(["verify", str(path)]) == 65
    assert "state file error" in capsys.readouterr().err


def test_dimension_cap_is_enforced_before_parsing_entries():
    doc = valid_doc()
    with pytest.raises(StateFileError):
        q.text_to_state(dumps(doc), cap=2)


def test_error_type_is_a_value_error():
    assert issubclass(StateFileError, ValueError)
