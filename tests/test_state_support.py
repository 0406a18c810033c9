"""A state is one array and its support, whatever produced it.

``QuantumState`` holds ``layout``, ``_data`` (the read-only vector or
density) and ``_support`` (the ascending rows that hold an exactly nonzero
entry). The oracles are fresh scans: ``np.flatnonzero`` of a vector, and
``states._support`` of a whole density matrix. Every public operation's
output is checked on the fixture families, pure and density.
"""
import itertools

import numpy as np
import pytest

import qcrkit as q
from qcrkit import cli, entanglement, states


def assert_exact_support(s, name=""):
    assert set(vars(s)) == {"layout", "_data", "_support"}, name
    assert not s._data.flags.writeable, name
    assert s._support.dtype.kind == "i", name
    want = np.flatnonzero(s.vector) if s.is_pure else states._support(s.matrix)
    np.testing.assert_array_equal(s._support, want, name)


def families():
    rng = np.random.default_rng(2401)
    yield "example", q.build_example_state()
    yield "phi2", q.maximally_entangled(2)
    yield "phi3", q.maximally_entangled(3)
    yield "ghz(2,3)", q.build_ghz_qcr(2, 3)
    yield "ghz(3,2)", q.build_ghz_qcr(3, 2)
    yield "ghz mixed sigma", q.build_ghz_qcr(2, 2, q.ShieldSeed.random((2, 1, 2), rng))
    yield "ghz pure sigma", q.build_ghz_qcr(2, 2, q.ShieldSeed.random((2, 2, 1), rng, pure=True))
    yield "private d=2", q.random_private_state(2, (2, 1), rng)
    yield "private d=3", q.random_private_state(3, (1, 2), rng)
    base = q.build_ghz_qcr(2, 2, q.ShieldSeed.basis_zero((2, 2, 2)))
    yield "twisted ghz", q.build_twisted_qcr(base, q.random_party_twist(base.layout, rng))[0]


def fixtures():
    """Each family as it is built, and a pure one also as a density."""
    for name, s in families():
        yield name, s
        if s.is_pure:
            yield name + " density", s.to_density()


def outputs(s, tmp_path):
    """Every state that a public operation returns from s."""
    layout = s.layout
    d = layout.qudit_dim
    labels = list(layout.labels)
    yield "to_density", s.to_density()
    yield "permuted", s.permuted(labels[::-1])
    yield "with_layout", s.with_layout(layout.relabeled({labels[0]: "D.key"}))
    yield "basis_state", q.QuantumState.basis_state(layout, [x.dim - 1 for x in layout.subsystems])
    ghz = q.build_ghz_qcr(2, 1)
    ghz = ghz.relabeled({l: "Y" + l for l in ghz.layout.labels})
    for other in (ghz, ghz.to_density()):
        yield "tensor_product", q.tensor_product(s, other)
        yield "tensor_product", q.tensor_product(other, s)
    for other in (q.maximally_entangled(d), s):
        yield "compose", q.compose(s, other, check=False)[0]
    if len(layout.players) > 1:
        for branch in q.reduce(s, layout.players[-1], check=False):
            yield "reduce", branch.state
    for on in ([layout.info_labels[0]], list(layout.info_labels)):
        for outcome in q.measure_computational(s, on):
            yield "measure_computational", outcome.state
    for digit in range(d):
        yield "project_registers", q.project_registers(s, [layout.info_labels[-1]], (digit,))[1]
    for over in (layout.shield_labels, [layout.info_labels[-1]], labels[1:], labels):
        yield "partial_trace", q.partial_trace(s, over)
    yield "apply_unitary", q.apply_unitary(s, q.shift_matrix(d, 1), [layout.info_labels[0]])
    big = [l for l in labels if layout.subsystem(l).dim > 1][-1]
    u = q.haar_unitary(layout.subsystem(big).dim, np.random.default_rng(2402))
    yield "apply_unitary", q.apply_unitary(s, u, [big])
    yield "apply_controlled", q.apply_controlled(
        s, [layout.info_labels[0]], [layout.info_labels[1]], {(1,): q.shift_matrix(d, 1)})
    yield "purify", q.purify(s)
    yield "relabel_negated_player", q.relabel_negated_player(s, layout.players[0])
    path = tmp_path / "s.json"
    q.write_state(s, path)
    yield "read_state", q.read_state(path)


def test_every_output_carries_its_exact_support(tmp_path):
    seen = set()
    count = 0
    for name, s in fixtures():
        assert_exact_support(s, name)
        for op, out in outputs(s, tmp_path):
            if out is None:
                continue
            assert_exact_support(out, f"{op} of {name}")
            seen.add((op, out.is_pure))
            count += 1
    assert count > 400
    # both representations come out of each operation that keeps a vector pure
    for op in ("permuted", "with_layout", "tensor_product", "compose", "reduce",
               "measure_computational", "project_registers", "apply_unitary",
               "apply_controlled", "read_state"):
        assert {(op, True), (op, False)} <= seen, op


def test_builders_carry_their_exact_support():
    rng = np.random.default_rng(2403)
    built = [
        q.build_private_state(3, q.ShieldSeed.random([2, 1], rng)),
        q.build_ghz_qcr(2, 3, q.ShieldSeed.random([2, 1, 2, 1], rng)),
        q.build_ghz_qcr(3, 3, q.ShieldSeed.random([1, 2, 1, 1], rng, pure=True)),
        q.expand_from_private([q.maximally_entangled(3)] * 3, check=False),
        q.QuantumState(q.standard_layout(2, 1), vector=[0.6, 0, 0, 0.8]),
        q.QuantumState(q.standard_layout(2, 1), matrix=np.diag([0.5, 0, 0, 0.5])),
    ]
    for s in built:
        assert_exact_support(s)


def test_a_vector_support_counts_nan_and_tiny_entries_but_not_signed_zeros():
    layout = q.standard_layout(2, 1, (2, 1))
    v = np.zeros(8, dtype=complex)
    v[1] = complex(-0.0, -0.0)
    v[2] = 1e-300
    v[5] = complex(0.0, np.nan)
    v[7] = 1.0
    s = q.QuantumState(layout, vector=v, validate=False)
    assert s._support.tolist() == [2, 5, 7]
    # the tensor product places only the support's rows
    phi = q.maximally_entangled(2).relabeled({"D.info": "x", "D.shield": "y",
                                              "A1.info": "z", "A1.shield": "w"})
    joint = q.tensor_product(s, phi.to_density().permuted(["x", "z", "y", "w"]))
    assert_exact_support(joint)


def test_copy_false_takes_a_vector_buffer_over_read_only():
    layout = q.standard_layout(2, 1)
    v = np.array([0.6, 0, 0, 0.8], dtype=np.complex128)
    s = q.QuantumState(layout, vector=v, copy=False)
    assert s._data is v and not v.flags.writeable
    assert s._support.tolist() == [0, 3]
    with pytest.raises(ValueError):
        v[1] = 1.0


# -- the PPT walk ------------------------------------------------------------


@pytest.fixture
def walks(monkeypatch):
    """The number of walks over a density's nonzero entries."""
    seen = []
    walk = entanglement._nonzero_batches

    def counting(*args, **kwargs):
        seen.append(args[0].shape[0])
        return walk(*args, **kwargs)

    monkeypatch.setattr(entanglement, "_nonzero_batches", counting)
    return seen


def test_a_ppt_report_walks_a_density_once_for_all_its_cuts(walks):
    # one walk over the density serves every cut of a report
    rng = np.random.default_rng(2404)
    private = q.random_private_state(2, (2, 2), rng)
    composite, _ = q.compose(private, q.build_example_state(), check=False)
    walks.clear()
    dealer = q.all_dealer_cuts_ppt(composite)
    assert len(dealer.cuts) == 7 and walks == [1024]
    walks.clear()
    splits = cli._all_cuts(composite)
    report = q.ppt_report(composite, splits)
    assert len(report.cuts) == 511 and walks == [1024]
    # the one walk gives each cut the minimum of its own report
    walks.clear()
    for cut, got in itertools.islice(zip(splits, report.cuts), 0, None, 64):
        assert q.ppt_check(composite, cut).min_eigenvalue == got.min_eigenvalue
    assert walks == [1024] * len(range(0, 511, 64))
    # a pure state is never walked
    walks.clear()
    q.all_dealer_cuts_ppt(q.build_ghz_qcr(2, 3))
    assert walks == []
