"""compose against the pipeline it replaces, and its memory at 1024 dims.

The oracle runs the dealer's merge step by step through public functions:
relabel both inputs apart, tensor_product, apply_unitary(cx_matrix(d)),
permuted into the merged order, with_layout onto the merged names. compose
must give the same bytes and the same record. The matmul in apply_unitary
keeps or drops the -0.0 entries of the tensor product depending on the BLAS
kernel that a shape selects; compose writes +0.0 for every zero, so the
oracle's zeros are made +0.0 before the bytes are compared.
"""
import itertools
import json
import tracemalloc

import numpy as np
import pytest

import qcrkit as q
from qcrkit import states
from qcrkit.registers import DEALER, ENV_PARTY, Subsystem, SystemLayout, labeled_layout


def numbered(base, k):
    return base if k == 1 else f"{base}{k}"


def pipeline_compose(a, b):
    d = a.layout.qudit_dim
    joint = q.tensor_product(
        a.relabeled({l: f"a:{l}" for l in a.layout.labels}),
        b.relabeled({l: f"b:{l}" for l in b.layout.labels}),
    )
    a_dbar = f"a:{a.layout.info_label(DEALER)}"
    b_dbar = f"b:{b.layout.info_label(DEALER)}"
    joint = q.apply_unitary(joint, q.cx_matrix(d), [a_dbar, b_dbar])

    # (temporary label, merged register) in merged order
    entries = [(a_dbar, Subsystem("D.info", DEALER, "info", d))]
    dealer_shields = [f"a:{l}" for l in a.layout.party_labels(DEALER) if f"a:{l}" != a_dbar]
    dealer_shields.append(b_dbar)
    dealer_shields += [f"b:{l}" for l in b.layout.party_labels(DEALER) if f"b:{l}" != b_dbar]
    for n, temp in enumerate(dealer_shields, 1):
        dim = joint.layout.subsystem(temp).dim
        entries.append((temp, Subsystem(numbered("D.shield", n), DEALER, "shield", dim)))
    players = [("a", a.layout, p) for p in a.layout.players]
    players += [("b", b.layout, p) for p in b.layout.players]
    for k, (side, lay, p) in enumerate(players, 1):
        shields = 0
        for l in lay.party_labels(p):
            sub = lay.subsystem(l)
            if sub.kind == "info":
                name = f"A{k}.info"
            else:
                shields += 1
                name = numbered(f"A{k}.shield", shields)
            entries.append((f"{side}:{l}", Subsystem(name, f"A{k}", sub.kind, sub.dim)))
    envs = [(f"a:{l}", a.layout) for l in a.layout.env_labels]
    envs += [(f"b:{l}", b.layout) for l in b.layout.env_labels]
    for n, (temp, lay) in enumerate(envs, 1):
        dim = lay.subsystem(temp[2:]).dim
        entries.append((temp, Subsystem(numbered("E", n), ENV_PARTY, "env", dim)))

    layout = SystemLayout(tuple(sub for _, sub in entries))
    merged = joint.permuted([temp for temp, _ in entries]).with_layout(layout)
    final = {temp: sub.label for temp, sub in entries}
    record = q.CompositionRecord(
        qudit_dim=d,
        layout_a=a.layout,
        layout_b=b.layout,
        layout=layout,
        cx_target="D.info",
        cx_control=final[b_dbar],
        relabel_a={l: final[f"a:{l}"] for l in a.layout.labels},
        relabel_b={l: final[f"b:{l}"] for l in b.layout.labels},
    )
    return merged, record


def infos_last(state):
    """Every info register moved behind the shields and environments."""
    lay = state.layout
    return state.permuted(sorted(lay.labels, key=lambda l: lay.subsystem(l).kind == "info"))


def inputs(d, rng):
    """Pure, density, pure-seed and environment-carrying inputs, some reordered."""
    shield = 2 if d == 2 else 1
    out = [
        q.build_ghz_qcr(d, 1, q.ShieldSeed.random([shield, 2], rng, pure=True)),
        q.random_private_state(d, (2, shield), rng),
        q.random_private_state(d, (2, 1), rng, pure_seed=True),
        q.purify(q.random_private_state(d, (1, 2), rng)),
        q.build_ghz_qcr(d, 2),
    ]
    out.append(infos_last(out[1]))
    out.append(infos_last(out[3].to_density()))
    return out


def negative_zeros(arr):
    flat = arr.view(np.float64)
    return int(np.count_nonzero((flat == 0) & np.signbit(flat)))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_compose_matches_the_step_by_step_pipeline(d):
    rng = np.random.default_rng(600 + d)
    fixtures = inputs(d, rng)
    compared = 0
    for a, b in itertools.product(fixtures, repeat=2):
        if a.dim * b.dim > 1024:
            continue
        merged, record = q.compose(a, b, check=False)
        want, want_record = pipeline_compose(a, b)
        assert merged.is_pure == want.is_pure == (a.is_pure and b.is_pure)
        assert merged.layout == want.layout
        assert negative_zeros(merged._data) == 0
        assert merged._data.tobytes() == (want._data + 0.0).tobytes()
        assert record == want_record
        assert json.dumps(record.to_dict()) == json.dumps(want_record.to_dict())
        compared += 1
    assert compared >= 16


def test_compose_merged_order_keeps_each_party_layout_order():
    a = infos_last(q.random_private_state(2, (2, 2), np.random.default_rng(3)))
    b = infos_last(q.purify(q.random_private_state(2, (2, 2), np.random.default_rng(4))))
    merged, record = q.compose(a, b, check=False)
    assert merged.layout.labels == (
        "D.info", "D.shield", "D.shield2", "D.shield3",
        "A1.shield", "A1.info", "A2.shield", "A2.info", "E",
    )
    assert record.cx_control == "D.shield2"
    assert record.relabel_b == {
        "D.shield": "D.shield3", "A1.shield": "A2.shield", "E": "E",
        "D.info": "D.shield2", "A1.info": "A2.info",
    }


def test_compose_numbers_environments_like_purify():
    rng = np.random.default_rng(1203)
    a = q.purify(q.random_private_state(2, (2, 1), rng))
    b = q.purify(q.random_private_state(2, (1, 2), rng))
    merged, record = q.compose(a, b, check=False)
    assert merged.layout.env_labels == ("E", "E2")
    assert record.relabel_a["E"] == "E" and record.relabel_b["E"] == "E2"
    assert record.cx_target == "D.info" and record.cx_control == "D.shield2"
    # purify names the next environment by the same numbering rule
    assert q.purify(merged).layout.env_labels == ("E", "E2", "E3")
    assert q.purify(q.purify(a)).layout.env_labels == ("E", "E2", "E3")
    assert merged.layout == labeled_layout((s.party, s.kind, s.dim) for s in merged.layout.subsystems)


def test_density_compose_peaks_near_one_output_array():
    a = q.random_private_state(2, (2, 2), np.random.default_rng(7))
    b = q.build_example_state().to_density()
    tracemalloc.start()
    try:
        merged, _ = q.compose(a, b, check=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert merged.dim == 1024
    assert peak <= 1.1 * merged.matrix.nbytes


def test_compose_cap_is_refused_before_any_output_sized_allocation():
    a = q.random_private_state(2, (2, 2), np.random.default_rng(8))
    b = q.build_example_state().to_density()
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="^state dimension 1024 exceeds cap 1023$"):
            q.compose(a, b, check=False, cap=1023)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.05 * 1024 * 1024 * 16
    assert q.compose(a, b, check=False, cap=1024)[0].dim == 1024


def kron_gather_compose(a, b, record):
    """The data of compose as one gather from kron(a, b), the formula it replaced."""
    joint = q.tensor_product(a.relabeled(record.relabel_a), b.relabeled(record.relabel_b))
    d = record.qudit_dim
    idx = np.arange(joint.dim)
    pairs, ungroup = states._grouped(joint.layout, idx, [record.cx_target, record.cx_control])
    t, c = np.arange(d)[:, None], np.arange(d)
    src = ungroup(pairs.reshape(d, d, -1)[(t - c) % d, c])
    src = src[states._grouped(joint.layout, idx, record.layout.labels)[0].reshape(-1)]
    data = joint.vector[src] if joint.is_pure else joint.matrix[np.ix_(src, src)]
    return data + 0.0


def many_register_state(d, players, rng, pure):
    """A crypto-form state with five dimension-1 registers after every info register."""
    regs = [(DEALER, "info", d)] + [(DEALER, "shield", 1)] * 5
    for k in range(1, players + 1):
        regs += [(f"A{k}", "info", d)] + [(f"A{k}", "shield", 1)] * 5
    regs[2] = (DEALER, "shield", 2)  # one nontrivial shield between trivial ones
    layout = labeled_layout(regs)
    if pure:
        return q.QuantumState(layout, vector=q.random_pure(layout.total_dim, rng))
    return q.QuantumState(layout, matrix=q.random_density(layout.total_dim, rng))


@pytest.mark.parametrize("d", [2, 3])
def test_compose_past_26_registers_matches_the_kron_gather(d):
    rng = np.random.default_rng(1400 + d)
    for pure_a, pure_b in itertools.product([True, False], repeat=2):
        a = many_register_state(d, 2, rng, pure_a)
        b = many_register_state(d, 1, rng, pure_b)
        merged, record = q.compose(a, b, check=False)
        assert len(merged.layout) == 30
        assert merged._data.tobytes() == kron_gather_compose(a, b, record).tobytes()
        want, want_record = pipeline_compose(a, b)
        assert record == want_record
        assert np.array_equal(merged._data, want._data)


def test_compose_cap_is_refused_before_the_inputs_are_certified(monkeypatch):
    junk = q.QuantumState.basis_state(q.standard_layout(2, 1), (0,) * 4)
    assert not q.is_qcr(junk).verdict

    def no_certification(*args, **kwargs):
        raise AssertionError("an input was certified before the cap was checked")

    monkeypatch.setattr("qcrkit.protocols.is_qcr", no_certification)
    with pytest.raises(ValueError, match="^state dimension 16 exceeds cap 15$"):
        q.compose(junk, q.maximally_entangled(2), check=True, cap=15)
