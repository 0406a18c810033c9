import json
import logging
import os
import threading
import tracemalloc

import numpy as np
import pytest

import qcrkit as q
from qcrkit.cli import main
from qcrkit.registers import SystemLayout
from qcrkit import statefile
from qcrkit.statefile import CHUNK, FORMAT, StateFileError


def roundtrip(state, note=None):
    return q.text_to_state(q.state_to_text(state, note=note))


def per_entry_text(state, note=None, entries=None):
    """The writer as it was before the one-join body: a golden-bytes oracle.

    ``entries`` (indices into the flat buffer) limits the body to those lines.
    """
    flat = state.vector if state.is_pure else state.matrix.reshape(-1)
    lines = ["{", f' "format": {json.dumps(FORMAT)},']
    if note is not None:
        lines.append(f' "note": {json.dumps(str(note))},')
    lines.append(' "layout": [')
    subs = state.layout.to_dict()
    for i, sub in enumerate(subs):
        comma = "," if i < len(subs) - 1 else ""
        lines.append(f"  {json.dumps(sub)}{comma}")
    lines.append(" ],")
    rep = "pure" if state.is_pure else "density"
    lines.append(f' "representation": {json.dumps(rep)},')
    lines.append(' "entries": [')
    last = flat.size - 1
    for idx in range(flat.size) if entries is None else entries:
        z = flat[idx]
        comma = "," if idx < last else ""
        lines.append(f"  [{json.dumps(float(z.real))}, {json.dumps(float(z.imag))}]{comma}")
    lines.append(" ]")
    lines.append("}")
    return "\n".join(lines) + "\n"


EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16, -1e16, 1 / 3, -1 / 3, 0.1, 1e22, 1e-7]


def edge_state():
    # unvalidated on purpose: the writer must print any finite float as json.dumps does
    n = len(EDGE_VALUES)
    v = np.empty(n * n, dtype=np.complex128)
    pairs = v.view(np.float64).reshape(-1, 2)
    pairs[:, 0] = np.repeat(EDGE_VALUES, n)
    pairs[:, 1] = np.tile(EDGE_VALUES, n)
    layout = SystemLayout((q.Subsystem("D.info", "D", "info", n), q.Subsystem("A1.info", "A1", "info", n)))
    return q.QuantumState(layout, vector=v, validate=False)


def buffer(state):
    return state.vector if state.is_pure else state.matrix


def signed_zero_states():
    """A valid vector and density holding -0.0 in both real and imaginary parts."""
    v = np.array([complex(-0.0, -0.0), complex(0.6, -0.0), complex(-0.0, 0.8), complex(0.0, 0.0)])
    layout = q.standard_layout(2, 1)
    m = np.zeros((4, 4), dtype=np.complex128)
    m[0, 0], m[3, 3] = 0.5, 0.5
    m[0, 3] = m[3, 0] = complex(-0.0, -0.0)
    m[1, 2] = complex(0.0, -0.0)
    m[2, 1] = complex(-0.0, 0.0)
    return q.QuantumState(layout, vector=v), q.QuantumState(layout, matrix=m)


GOLDEN_NAMES = (
    "example", "max-ent-2", "max-ent-3", "ghz-2-11", "ghz-mixed-sigma", "private-random",
    "private-pure-seed", "twisted", "composite-1024", "reduce-branch-0", "reduce-branch-1",
    "edge-values", "signed-zero-vector", "signed-zero-density", "empty-layout",
)


@pytest.fixture(scope="module")
def golden():
    rng = np.random.default_rng(9)
    composite, _ = q.compose(
        q.random_private_state(2, (2, 2), rng), q.build_example_state(), check=False
    )
    base = q.build_ghz_qcr(3, 2, q.ShieldSeed.basis_zero((3, 3, 3)))
    twisted, _ = q.build_twisted_qcr(base, q.random_party_twist(base.layout, rng))
    families = {
        "example": q.build_example_state(),
        "max-ent-2": q.maximally_entangled(2),
        "max-ent-3": q.maximally_entangled(3),
        "ghz-2-11": q.build_ghz_qcr(2, 11),
        "ghz-mixed-sigma": q.build_ghz_qcr(2, 2, q.ShieldSeed.random((2, 2, 2), rng)),
        "private-random": q.random_private_state(2, (2, 2), rng),
        "private-pure-seed": q.random_private_state(3, (3, 1), rng, pure_seed=True),
        "twisted": twisted,
        "composite-1024": composite,
        **{f"reduce-branch-{i}": o.state for i, o in enumerate(q.reduce(composite, ["A1"], check=False))},
        "edge-values": edge_state(),
        "signed-zero-vector": signed_zero_states()[0],
        "signed-zero-density": signed_zero_states()[1],
        "empty-layout": q.QuantumState(SystemLayout(()), vector=np.ones(1)),
    }
    assert sorted(families) == sorted(GOLDEN_NAMES)
    return families


NOTES = [None, 'dealer\'s "key" pair — été 日本 🔑']


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_text_matches_per_entry_writer(golden, name):
    state = golden[name]
    n = state.dim if state.is_pure else state.dim**2
    for note in NOTES:
        text = q.state_to_text(state, note=note)
        if n <= 2**16:
            assert text == per_entry_text(state, note=note)
            continue
        # the per-entry oracle takes seconds on a million entries: compare the head,
        # the tail and every 97th entry line, the last one included
        lines = text.split("\n")
        head = lines.index(' "entries": [') + 1
        assert len(lines) == head + n + 3
        picked = [*range(0, n, 97), n - 1]
        want = per_entry_text(state, note=note, entries=picked).split("\n")
        assert lines[:head] + [lines[head + i] for i in picked] + lines[head + n:] == want


@pytest.mark.parametrize("name", [n for n in GOLDEN_NAMES if n != "edge-values"])
def test_written_text_reads_back_bit_exact(golden, name):
    state = golden[name]
    text = q.state_to_text(state, note=NOTES[1])
    back = q.text_to_state(text)
    assert back.layout == state.layout and back.is_pure == state.is_pure
    assert buffer(back).tobytes() == buffer(state).tobytes()
    assert q.state_to_text(back, note=NOTES[1]) == text


def test_signed_zeros_round_trip_bit_exact():
    for state in signed_zero_states():
        text = q.state_to_text(state)
        assert "[-0.0, -0.0]" in text
        back = q.text_to_state(text)
        assert buffer(back).tobytes() == buffer(state).tobytes()
        assert q.state_to_text(back) == text
    text = q.state_to_text(q.maximally_entangled(2)).replace("[0.0, 0.0]", "[0.0, -0.0]", 1)
    assert q.state_to_text(q.text_to_state(text)) == text


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
    [False, False], [True, 0.0], [0.0, None], [None, None],
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
    # one bad entry among numbers: np.array alone would read booleans as 0 and 1
    ghz = q.state_to_text(q.build_ghz_qcr(2, 2).to_density()).replace("[0.0, 0.0]", json.dumps(entry), 1)
    composite, _ = q.compose(q.maximally_entangled(2), q.build_example_state(), check=False)
    text = q.state_to_text(composite.to_density())
    assert text.count("\n") > 2**16
    # the 256-dim copy is in the writer's shape, so its one chunk meets the bad line
    for copy in (ghz, json.dumps(json.loads(ghz)), text.replace("[0.0, 0.0]", json.dumps(entry), 1)):
        with pytest.raises(StateFileError, match="number pairs"):
            q.text_to_state(copy)
        path.write_text(copy)
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


# -- the chunked reader against the whole-document path -----------------------


@pytest.fixture()
def loads_sizes(monkeypatch):
    """The length of the text each json.loads call in qcrkit.statefile receives."""
    sizes = []
    loads = statefile.json.loads

    def spy(text, *args, **kwargs):
        sizes.append(len(text))
        return loads(text, *args, **kwargs)

    monkeypatch.setattr(statefile.json, "loads", spy)
    return sizes


def whole_document_pairs(text):
    """The entries as json.loads reads the whole document, viewed as complex128."""
    return np.array(json.loads(text)["entries"], dtype=np.float64).view(np.complex128).reshape(-1)


def read_or_message(text):
    try:
        return q.text_to_state(text)
    except StateFileError as e:
        return str(e)


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_chunked_read_equals_whole_document_read(golden, name, loads_sizes):
    state = golden[name]
    text = q.state_to_text(state, note=NOTES[1])
    doc = json.loads(text)
    loads_sizes.clear()
    back = read_or_message(text)
    # the writer's shape never reaches a whole-document json.loads
    assert max(loads_sizes) < len(text)
    # re-encoding a million entries takes seconds; the general path is one code at every size
    copies = [json.dumps(doc), json.dumps(doc, indent=2)] if len(doc["entries"]) <= CHUNK else []
    if name == "edge-values":
        # not a valid state: every path gives the same message
        assert back == read_or_message(copies[0]) == read_or_message(copies[1])
        assert back.startswith("entries do not form a valid state")
        return
    assert buffer(back).reshape(-1).tobytes() == whole_document_pairs(text).tobytes()
    for copy in copies:
        loads_sizes.clear()
        again = q.text_to_state(copy)
        assert len(copy) in loads_sizes
        assert again.layout == back.layout and again.is_pure == back.is_pure
        assert buffer(again).tobytes() == buffer(back).tobytes()


def chunked_state(values):
    """An unvalidated pure state on one register holding ``values`` as its entries."""
    v = np.asarray(values, dtype=np.complex128)
    layout = SystemLayout((q.Subsystem("D.info", "D", "info", len(v)),))
    return q.QuantumState(layout, vector=v, validate=False)


def normalised(values):
    v = np.array(values, dtype=np.complex128)
    # scale the float pairs: complex division may drop the sign of a zero
    v.view(np.float64)[:] *= 1 / np.linalg.norm(v)
    return v


def unit_vector_with(n, head, repeat=None):
    """n entries: ``head`` first, then the cycled ``repeat`` values (default: distinct), normalised."""
    rng = np.random.default_rng(n)
    rest = n - len(head)
    tail = rng.standard_normal(rest) + 1j * rng.standard_normal(rest) if repeat is None else np.resize(repeat, rest)
    return normalised(np.concatenate([np.asarray(head, dtype=np.complex128), tail]))


def assert_round_trip(v, loads_sizes):
    state = chunked_state(v)
    text = q.state_to_text(state)
    loads_sizes.clear()
    back = q.text_to_state(text, cap=len(v))
    assert max(loads_sizes) < len(text)
    assert back.vector.tobytes() == state.vector.tobytes()
    return text


@pytest.mark.parametrize("n", [CHUNK - 1, CHUNK, CHUNK + 1])
def test_bodies_at_the_chunk_edge_read_bit_exact(n, loads_sizes):
    # every line distinct, so each chunk's gather is a plain copy
    assert_round_trip(unit_vector_with(n, []), loads_sizes)
    # repeated lines that straddle the chunk edge
    repeat = [0.25, 0.25j, complex(-0.0, 0.0), 0.0]
    text = assert_round_trip(unit_vector_with(n, [0.5], repeat=repeat), loads_sizes)
    assert text.count("\n  [-0.0, 0.0]") == sum(1 for i in range(n - 1) if i % 4 == 2)


def test_chunks_that_share_no_line(loads_sizes):
    first = np.resize([0.5, 0.5j, complex(0.0, -0.0)], CHUNK)
    second = np.resize([0.25, -0.25j, complex(-0.0, 0.0), complex(-0.0, -0.0)], CHUNK)
    v = normalised(np.concatenate([first, second]))
    text = assert_round_trip(v, loads_sizes)
    lines = text.split("\n")
    body = lines[lines.index(' "entries": [') + 1:-3]
    assert not set(body[:CHUNK]) & set(body[CHUNK:])


def test_signed_zeros_in_one_chunk_and_across_chunks(loads_sizes):
    zeros = [complex(0.0, 0.0), complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]
    one_chunk = np.array([1.0, *zeros, *zeros], dtype=np.complex128)
    across = np.zeros(CHUNK + 8, dtype=np.complex128)
    across[0] = 1.0
    across[1:5] = zeros[1:] + [zeros[0]]
    across[CHUNK:CHUNK + 4] = zeros
    across[-1] = complex(-0.0, -0.0)
    for v in (one_chunk, across):
        text = assert_round_trip(v, loads_sizes)
        assert text == per_entry_text(chunked_state(v))
        assert "\n  [-0.0, 0.0]," in text and "\n  [0.0, -0.0]," in text and "\n  [-0.0, -0.0]\n" in text


def test_over_cap_file_is_rejected_from_its_head(golden, loads_sizes, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("QCRKIT_CONFIG", raising=False)
    text = q.state_to_text(golden["composite-1024"])
    head = len(text[:text.index('"entries"')])
    loads_sizes.clear()
    with pytest.raises(StateFileError, match="state dimension 1024 exceeds cap 512"):
        q.text_to_state(text, cap=512)
    assert loads_sizes and max(loads_sizes) <= head
    path = tmp_path / "composite.json"
    path.write_text(text)
    assert main(["verify", "--cap", "512", str(path)]) == 65
    assert "exceeds cap 512" in capsys.readouterr().err


def test_truncated_or_trailing_text_keeps_its_message(golden, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("QCRKIT_CONFIG", raising=False)
    text = q.state_to_text(golden["ghz-2-11"])
    at = text.index('"entries"')
    bad = [
        text[:at + 40], text[:len(text) // 2], text[:-3], text[:-2] + "\n",
        text + "x", text + "}\n", text + "\n ]\n}\n",
    ]
    path = tmp_path / "bad.json"
    for copy in bad:
        with pytest.raises(json.JSONDecodeError) as want:
            json.loads(copy)
        with pytest.raises(StateFileError) as got:
            q.text_to_state(copy)
        assert str(got.value) == f"not valid JSON: {want.value}"
        path.write_text(copy)
        assert main(["verify", str(path)]) == 65
        assert "state file error: not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("old, new", [
    ('"qcr-state/1"', '"qcr-state/2"'), ('"density"', '"stabilizer"'), ('"kind": "info"', '"kind": "mystery"'),
    ('"dim": 2', '"dim": 2.5'), ("  [0.5, 0.0]", "  [0.5, 0.0, 0.0]"), ("  [0.5, 0.0]", "  [NaN, 0.0]"),
    ("  [0.5, 0.0]", "  [0.0, 0.0]"), ("  [0.5, 0.0]", '  ["0.5", 0.0]'), ("  [0.0, 0.0],\n", ""),
    ("  [0.0, 0.0],\n", "  [0.0, 0.0],\n  [0.0, 0.0],\n"), ("  [0.0, 0.0],\n", "  [0.0, 0.0], [0.0, 0.0],\n"),
])
def test_canonical_and_general_paths_give_one_message(old, new, max_ent):
    text = q.state_to_text(max_ent.to_density())
    assert old in text
    bad = text.replace(old, new, 1)
    with pytest.raises(StateFileError) as fast:
        q.text_to_state(bad)
    with pytest.raises(StateFileError) as general:
        q.text_to_state(json.dumps(json.loads(bad)))
    assert str(fast.value) == str(general.value)


def test_lines_that_split_a_pair_are_not_read_as_pairs(max_ent):
    # the distinct lines alone parse as four pairs, but the body they repeat in is not JSON
    lines = q.state_to_text(max_ent.to_density()).split("\n")
    head = lines.index(' "entries": [') + 1
    lines[head + 1], lines[head + 2], lines[head + 4] = "  [0.0, 0.0], [0.0,", "  0.0],", "  0.0],"
    bad = "\n".join(lines)
    with pytest.raises(json.JSONDecodeError) as want:
        json.loads(bad)
    with pytest.raises(StateFileError) as got:
        q.text_to_state(bad)
    assert str(got.value) == f"not valid JSON: {want.value}"


# -- the zero-line reader and writer --------------------------------------------


def document_result(text):
    """What the whole-document path gives for text: a state, a StateFileError text or json's message."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        return f"not valid JSON: {e}"
    return read_or_message(json.dumps(doc))


def assert_reads_as_the_document(text):
    got, want = read_or_message(text), document_result(text)
    if isinstance(want, str):
        assert got == want
    else:
        assert got.layout == want.layout and got.is_pure == want.is_pure
        assert buffer(got).tobytes() == buffer(want).tobytes()


ZERO_VARIANTS = [
    "  [0.0, -0.0]", "  [-0.0, 0.0]", "  [0, 0]", "  [0.0,0.0]", "  [0.00, 0.0]", "  [0.0, 0.0e0]",
    "  [0.0, 0.0] ", "  [0.0, 0.0]\r", " [0.0, 0.0] ", "  [0.0, 0.0é]", '  ["é", 0.0]', "  [0.0, 0.0][",
    # twelve characters that share one of the zero line's two 8-byte words
    "  [0.0, 0.5]", "  [9.0, 0.0]",
]


def body_lines(text):
    lines = text.split("\n")
    return lines, lines.index(' "entries": [') + 1


def vary_line(text, i, variant):
    """text with body line i (counted from 0) spelled as variant, its separator kept."""
    lines, head = body_lines(text)
    line = lines[head + i]
    assert line.rstrip(",") == "  [0.0, 0.0]"
    lines[head + i] = variant + line[len("  [0.0, 0.0]"):]
    return "\n".join(lines)


def zero_last_density():
    m = np.diag([0.5, 0.5, 0.0, 0.0]).astype(np.complex128)
    m[0, 1], m[1, 0] = 0.25j, -0.25j
    return q.QuantumState(q.standard_layout(2, 1), matrix=m)


@pytest.mark.parametrize("window", [17, 40, statefile._WINDOW])
def test_zero_line_variants_read_as_the_whole_document(window, monkeypatch, caplog):
    # 17 characters hold the longest line and its separator, so most windows are one
    # line; 40 holds two or three lines and cuts the next at many places
    monkeypatch.setattr(statefile, "_WINDOW", window)
    text = q.state_to_text(zero_last_density())
    lines, head = body_lines(text)
    assert lines[head + 15] == "  [0.0, 0.0]"
    zeros = [i for i in range(16) if lines[head + i].rstrip(",") == "  [0.0, 0.0]"]
    caplog.set_level(logging.DEBUG, logger="qcrkit")
    assert_reads_as_the_document(text)
    read = caplog.messages[0]
    assert read.startswith("read state: 16 entries, 12 zero lines, 4 parsed lines, ") and read.endswith(" path lines")
    for variant in ZERO_VARIANTS:
        for i in (zeros[0], zeros[len(zeros) // 2], 15):
            assert_reads_as_the_document(vary_line(text, i, variant))
        assert_reads_as_the_document("\n".join(
            line if not line.startswith("  [0.0, 0.0]") else variant + line[12:] for line in text.split("\n")))
    # \r\n separators, everywhere and at one line
    assert_reads_as_the_document(text.replace(",\n", ",\r\n"))
    assert_reads_as_the_document(text.replace(",\n", ",\r\n", 5))
    assert_reads_as_the_document(text.replace("\n", "\r\n"))
    # a non-ASCII character in a body line, in the head, and JSON whitespace inside a pair
    assert_reads_as_the_document(text.replace("  [0.5, 0.0]", "  [0.5, 0.0] ", 1))
    assert_reads_as_the_document(text.replace('"info"', '"été"', 1))
    assert_reads_as_the_document(text.replace("  [0.5, 0.0]", "  [0.5\n, 0.0]", 1))
    assert_reads_as_the_document(text.replace("  [0.0, 0.0],\n", "  [0.0, 0.0],\n,\n", 1))
    # the split-pair lines of test_lines_that_split_a_pair_are_not_read_as_pairs
    lines[head + 1], lines[head + 2], lines[head + 4] = "  [0.0, 0.0], [0.0,", "  0.0],", "  0.0],"
    assert_reads_as_the_document("\n".join(lines))


def test_zero_lines_at_the_window_edges_read_as_the_whole_document():
    # 65,536 entries span four windows of the default size
    composite, _ = q.compose(q.maximally_entangled(2), q.build_example_state(), check=False)
    text = q.state_to_text(composite.to_density())
    lines, head = body_lines(text)
    assert len(text) > 3 * statefile._WINDOW
    body_start = len("\n".join(lines[:head])) + 1
    # the line that holds the first window's last character, and its neighbours
    edge = text.count("\n", body_start, body_start + statefile._WINDOW)
    picked = [i for i in range(edge - 2, edge + 3) if lines[head + i] == "  [0.0, 0.0],"]
    assert picked
    assert_reads_as_the_document(text)
    for variant in ("  [0.0, -0.0]", "  [0, 0]", "  [0.0, 0.0] ", "  [0.0, 0.0é]"):
        for i in picked:
            assert_reads_as_the_document(vary_line(text, i, variant))


def test_reading_the_composite_parses_under_one_percent_of_its_body(golden, loads_sizes, caplog):
    state = golden["composite-1024"]
    text = q.state_to_text(state)
    body = len(text) - text.index(statefile._ENTRIES)
    caplog.set_level(logging.DEBUG, logger="qcrkit")
    loads_sizes.clear()
    back = q.text_to_state(text)
    assert sum(loads_sizes) < body / 100
    assert buffer(back).tobytes() == buffer(state).tobytes()
    bits = statefile._pairs_of(state).view(np.uint64)
    nonzero = int(np.count_nonzero(bits[:, 0] | bits[:, 1]))
    assert 0 < nonzero < 2**20 // 100
    reads = [m for m in caplog.messages if m.startswith("read state:")]
    assert len(reads) == 1
    parts = reads[0].split(", ")
    assert parts[:3] == [f"read state: {2**20} entries", f"{2**20 - nonzero} zero lines", f"{nonzero} parsed lines"]
    assert parts[4] == "path lines"
    # each window parses its own distinct lines once
    distinct = int(parts[3].removesuffix(" distinct lines"))
    lines, at = body_lines(text)
    assert len(set(lines[at:-3]) - {"  [0.0, 0.0],", "  [0.0, 0.0]"}) <= distinct < nonzero


@pytest.mark.parametrize("name", ["composite-1024", "signed-zero-density", "signed-zero-vector", "edge-values",
                                  "private-random"])
def test_writer_sorts_only_the_entries_that_are_not_plus_zero(golden, name, monkeypatch, caplog):
    state = golden[name]
    bits = statefile._pairs_of(state).view(np.uint64)
    nonzero = int(np.count_nonzero(bits[:, 0] | bits[:, 1]))
    sizes = []
    unique = statefile.np.unique

    def spy(a, *args, **kwargs):
        sizes.append(np.size(a))
        return unique(a, *args, **kwargs)

    monkeypatch.setattr(statefile.np, "unique", spy)
    caplog.set_level(logging.DEBUG, logger="qcrkit")
    text = q.state_to_text(state)
    monkeypatch.undo()
    # three calls per chunk, each on that chunk's entries that are not (+0.0, +0.0)
    assert max(sizes) <= nonzero and sum(sizes) == 3 * nonzero
    writes = [m for m in caplog.messages if m.startswith("write state:")]
    assert len(writes) == 1 and writes[0].startswith(f"write state: {len(bits)} entries, ")
    if len(bits) <= CHUNK:
        # one chunk: each distinct line but the zero line is formatted once
        lines, at = body_lines(text)
        distinct = len({line.removesuffix(",") for line in lines[at:-3]} - {"  [0.0, 0.0]"})
        assert writes[0].endswith(f", {distinct} distinct lines formatted")


def test_document_reads_log_their_path(max_ent, caplog):
    caplog.set_level(logging.DEBUG, logger="qcrkit")
    text = q.state_to_text(max_ent.to_density())
    q.text_to_state(json.dumps(json.loads(text)))
    q.text_to_state(text)
    assert [m for m in caplog.messages if m.startswith("read state:")] == [
        "read state: 16 entries, 0 zero lines, 16 parsed lines, 16 distinct lines, path document",
        "read state: 16 entries, 12 zero lines, 4 parsed lines, 1 distinct lines, path lines",
    ]


def test_over_cap_file_is_refused_before_its_body_is_read(golden, tmp_path):
    path = tmp_path / "composite.json"
    q.write_state(golden["composite-1024"], path)
    assert path.stat().st_size > 14 * 10**6
    tracemalloc.start()
    try:
        with pytest.raises(StateFileError, match="^state dimension 1024 exceeds cap 512$"):
            q.read_state(path, cap=512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6
    # the body is never decoded, so a byte that is not UTF-8 there does not change the refusal
    data = path.read_bytes()
    at = data.index(b"[0.0, 0.0]", len(data) // 2)
    path.write_bytes(data[:at] + b"\xff" + data[at + 1:])
    with pytest.raises(StateFileError, match="^state dimension 1024 exceeds cap 512$"):
        q.read_state(path, cap=512)
    with pytest.raises(StateFileError, match=f"in position {at}: invalid start byte$"):
        q.read_state(path)


def state_or_message(read, source, cap):
    try:
        return buffer(read(source, cap=cap)).tobytes()
    except StateFileError as e:
        return str(e)


def test_file_reads_keep_the_text_reads_refusals(max_ent, tmp_path):
    # read_state refuses a file for its head before reading the body exactly where
    # text_to_state refuses the whole text for it: the writer's head, whatever the tail
    text = q.state_to_text(max_ent.to_density())
    path = tmp_path / "pair.json"
    copies = [text, text[:-3], text + "x", text.replace(',\n "entries"', '\n "entries"'),
              text.replace('"density"', '"mixed"'), text.replace('"qcr-state/1"', '"qcr-state/2"')]
    for copy in copies:
        path.write_text(copy)
        for cap in (None, 2):
            assert state_or_message(q.read_state, path, cap) == state_or_message(q.text_to_state, copy, cap)


def test_a_state_file_reads_from_a_pipe(tmp_path, example_state):
    # a pipe cannot seek, so its head is checked with the rest, as text_to_state does
    fifo = tmp_path / "state.pipe"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_text, args=(q.state_to_text(example_state),), daemon=True)
    writer.start()
    try:
        back = q.read_state(fifo)
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    assert back.vector.tobytes() == example_state.vector.tobytes()


def blank_line_copies(text):
    """Copies of text with an empty body line after a line that is not the zero
    line: in place of the last entry line, its comma kept on the line before,
    and inserted after each such line in turn."""
    lines, head = body_lines(text)
    entries = len(lines) - head - 3
    kept = [i for i in range(entries) if lines[head + i].rstrip(",") != "  [0.0, 0.0]"]
    assert kept
    last = lines[:]
    last[head + entries - 1] = ""
    copies = ["\n".join(last)]
    for i in kept:
        copies.append("\n".join(lines[:head + i + 1] + [","] + lines[head + i + 1:]) if i < entries - 1
                      else "\n".join(lines[:head + i] + [lines[head + i] + ",", ""] + lines[head + i + 1:]))
    return copies


@pytest.mark.parametrize("make", [
    lambda: q.maximally_entangled(2),
    lambda: q.maximally_entangled(2).to_density(),
    zero_last_density,
], ids=["pure", "density", "zero-last"])
def test_blank_lines_after_kept_lines_read_as_the_whole_document(make, monkeypatch):
    # every window size from one that holds the longest line up: the window edges
    # fall on each blank line, so some windows end with an empty line
    text = q.state_to_text(make())
    copies = blank_line_copies(text)
    for window in [*range(17, 64), statefile._WINDOW]:
        monkeypatch.setattr(statefile, "_WINDOW", window)
        for copy in copies:
            assert_reads_as_the_document(copy)


def test_file_reads_take_newlines_as_a_text_mode_read_does(max_ent, golden, tmp_path):
    # read_state reads as Path.read_text does, so "\r\n" and a lone "\r" are "\n"
    text = q.state_to_text(max_ent.to_density())
    path = tmp_path / "pair.json"
    copies = [text, text[:-3], text + "x", text.replace('"density"', '"mixed"'),
              text.replace(',\n "entries"', ',\r "entries"'),
              # a "\r" before the writer's head: the text read finds the first head
              text.replace('{\n', '{\n "format": "qcr-state/2",\r "entries": [\n  [0]],\n', 1)]
    for copy in copies:
        for newline in ("\n", "\r\n", "\r"):
            path.write_bytes(copy.replace("\n", newline).encode())
            for cap in (None, 2):
                want = state_or_message(q.text_to_state, path.read_text(encoding="utf-8"), cap)
                assert state_or_message(q.read_state, path, cap) == want
    path.write_bytes(text.replace("\n", "\r\n").encode())
    assert buffer(q.read_state(path)).tobytes() == buffer(max_ent.to_density()).tobytes()
    # an over-cap file with "\r\n" lines is refused for its head, as with "\n"
    path.write_bytes(q.state_to_text(golden["composite-1024"]).replace("\n", "\r\n").encode())
    with pytest.raises(StateFileError, match="^state dimension 1024 exceeds cap 512$"):
        q.read_state(path, cap=512)


def damaged_copies(text):
    """text cut in half, with "x" appended, and with "\\r\\n" and "\\r" line ends."""
    return {"cut": text[:len(text) // 2], "appended": text + "x",
            "crlf": text.replace("\n", "\r\n"), "cr": text.replace("\n", "\r")}


@pytest.mark.parametrize("damage", ["cut", "appended", "crlf", "cr"])
def test_damaged_or_relined_over_cap_files_are_refused_from_their_head(golden, loads_sizes, tmp_path, damage):
    # the writer's head decides before the body, whatever the tail or line ends
    text = q.state_to_text(golden["composite-1024"])
    head = text.index('"entries"')
    path = tmp_path / "composite.json"
    path.write_bytes(damaged_copies(text)[damage].encode())
    message = "^state dimension 1024 exceeds cap 512$"
    tracemalloc.start()
    try:
        with pytest.raises(StateFileError, match=message):
            q.read_state(path, cap=512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6
    loads_sizes.clear()
    with pytest.raises(StateFileError, match=message):
        q.text_to_state(path.read_text(encoding="utf-8"), cap=512)
    assert loads_sizes and max(loads_sizes) <= head


def test_a_body_byte_that_is_not_utf8_keeps_a_cut_files_head_refusal(golden, tmp_path):
    data = damaged_copies(q.state_to_text(golden["composite-1024"]))["cut"].encode()
    at = data.index(b"[0.0, 0.0]", len(data) // 2)
    path = tmp_path / "composite.json"
    path.write_bytes(data[:at] + b"\xff" + data[at + 1:])
    with pytest.raises(StateFileError, match="^state dimension 1024 exceeds cap 512$"):
        q.read_state(path, cap=512)
    with pytest.raises(StateFileError, match=f"in position {at}: invalid start byte$"):
        q.read_state(path)


def test_a_truncated_file_is_refused_for_its_heads_format(max_ent, tmp_path):
    text = q.state_to_text(max_ent.to_density()).replace('"qcr-state/1"', '"qcr-state/2"')
    cut = text[:text.index('"entries"') + 40]
    path = tmp_path / "pair.json"
    path.write_text(cut)
    message = "^unsupported format 'qcr-state/2'; expected 'qcr-state/1'$"
    with pytest.raises(StateFileError, match=message):
        q.text_to_state(cut)
    with pytest.raises(StateFileError, match=message):
        q.read_state(path)
