import tracemalloc

import numpy as np
import pytest

import qcrkit as q
from qcrkit import states
from qcrkit.registers import Subsystem, SystemLayout


def two_register_layout(da, db):
    return SystemLayout((
        Subsystem("X", "D", "shield", da),
        Subsystem("Y", "A1", "shield", db),
    ))


def random_state(layout, rng, pure=False):
    if pure:
        return q.QuantumState(layout, vector=q.random_pure(layout.total_dim, rng))
    return q.QuantumState(layout, matrix=q.random_density(layout.total_dim, rng))


def test_state_constructor_validation():
    layout = two_register_layout(2, 2)
    with pytest.raises(ValueError):
        q.QuantumState(layout)
    with pytest.raises(ValueError):
        q.QuantumState(layout, vector=np.ones(4), matrix=np.eye(4) / 4)
    with pytest.raises(ValueError):
        q.QuantumState(layout, vector=np.ones(4))  # norm 2
    with pytest.raises(ValueError):
        q.QuantumState(layout, vector=np.ones(3) / np.sqrt(3))  # wrong dim
    bad = np.eye(4, dtype=complex) / 4
    bad[0, 1] = 1j
    with pytest.raises(ValueError):
        q.QuantumState(layout, matrix=bad)  # not Hermitian
    with pytest.raises(ValueError):
        q.QuantumState(layout, matrix=np.eye(4, dtype=complex))  # trace 4



@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
def test_state_constructor_rejects_non_finite_entries(bad):
    layout = two_register_layout(2, 2)
    vector = np.array([bad, 0, 0, 0], dtype=complex)
    with pytest.raises(ValueError):
        q.QuantumState(layout, vector=vector)
    off = np.eye(4, dtype=complex) / 4
    off[0, 1] = off[1, 0] = bad
    with pytest.raises(ValueError):
        q.QuantumState(layout, matrix=off)
    diag = np.eye(4, dtype=complex) / 4
    diag[2, 2] = bad
    with pytest.raises(ValueError):
        q.QuantumState(layout, matrix=diag)
    with pytest.raises(ValueError):
        q.ShieldSeed((2, 2), matrix=off)

@pytest.mark.parametrize("kind", ["list", "float64", "complex64", "complex128"])
def test_state_constructor_copy_false_takes_every_input_kind(kind):
    layout = two_register_layout(2, 2)
    vec = [0.5, 0.5, 0.5, 0.5]
    mat = (np.eye(4) / 4).tolist()
    make = {
        "list": lambda x: x,
        "float64": lambda x: np.array(x, dtype=np.float64),
        "complex64": lambda x: np.array(x, dtype=np.complex64),
        "complex128": lambda x: np.array(x, dtype=np.complex128),
    }[kind]
    for key, value in (("vector", vec), ("matrix", mat)):
        given = make(value)
        s = q.QuantumState(layout, copy=False, **{key: given})
        assert s._data.dtype == np.complex128
        assert np.array_equal(s._data, np.array(value))
        # a complex128 array is kept, buffer and all; anything else is converted once
        assert np.shares_memory(s._data, given) == (kind == "complex128")
        assert not np.shares_memory(q.QuantumState(layout, **{key: make(value)})._data, given)


def test_state_representation_accessors():
    layout = two_register_layout(2, 2)
    v = np.zeros(4, dtype=complex)
    v[0] = 1.0
    s = q.QuantumState(layout, vector=v)
    assert s.is_pure
    assert s.trace() == pytest.approx(1.0)
    assert s.purity() == 1.0
    with pytest.raises(ValueError):
        s.matrix
    dens = s.to_density()
    assert not dens.is_pure
    assert np.array_equal(dens.matrix, np.outer(v, v.conj()))
    with pytest.raises(ValueError):
        dens.vector
    assert dens.purity() == pytest.approx(1.0)


def test_basis_state_digits():
    layout = q.standard_layout(2, 2, (2, 2, 2))
    s = q.QuantumState.basis_state(layout, (1, 0, 1, 0, 0, 0))
    assert s.vector[int("101000", 2)] == 1.0
    assert np.count_nonzero(s.vector) == 1
    with pytest.raises(ValueError):
        q.QuantumState.basis_state(layout, (2, 0, 0, 0, 0, 0))
    with pytest.raises(ValueError):
        q.QuantumState.basis_state(layout, (0, 0))
    with pytest.raises(ValueError):
        q.QuantumState.basis_state(layout, (1.9, 0, 1, 0, 0, 0))
    with pytest.raises(ValueError):
        q.QuantumState.basis_state(layout, (1, 0, "1", 0, 0, 0))


def test_permuted_round_trip():
    rng = np.random.default_rng(3)
    layout = q.standard_layout(2, 2, (2, 1, 3))
    s = random_state(layout, rng)
    order = ["A2.info", "D.info", "A1.shield", "A2.shield", "D.shield", "A1.info"]
    back = s.permuted(order).permuted(list(layout.labels))
    assert np.allclose(back.matrix, s.matrix, atol=1e-14)
    with pytest.raises(ValueError):
        s.permuted(["D.info"])


@pytest.mark.parametrize("density", [False, True])
def test_permuted_takes_a_generator_of_labels(example_state, density):
    state = example_state.to_density() if density else example_state
    order = list(reversed(state.layout.labels))
    want = state.permuted(order)
    got = state.permuted(reversed(state.layout.labels))
    assert got.layout == want.layout and got.dim == 64
    assert np.array_equal(got._data, want._data)
    assert np.array_equal(got._support, want._support)


def test_permuted_matches_kron_swap():
    rng = np.random.default_rng(4)
    a = q.random_density(2, rng)
    b = q.random_density(3, rng)
    layout = two_register_layout(2, 3)
    s = q.QuantumState(layout, matrix=np.kron(a, b))
    swapped = s.permuted(["Y", "X"])
    assert np.allclose(swapped.matrix, np.kron(b, a), atol=1e-14)


def test_with_layout_requires_matching_dims():
    layout = two_register_layout(2, 2)
    other = two_register_layout(4, 1)
    s = q.QuantumState(layout, matrix=np.eye(4) / 4)
    with pytest.raises(ValueError):
        s.with_layout(other)


# -- tensor product ----------------------------------------------------


def test_tensor_product_identity_case():
    a = q.QuantumState(two_register_layout(2, 1), matrix=np.eye(2) / 2)
    b = a.relabeled({"X": "W", "Y": "Z"})
    joint = q.tensor_product(a, b)
    assert np.array_equal(joint.matrix, np.eye(4) / 4)


def test_tensor_product_basis_kets():
    la = SystemLayout((Subsystem("X", "D", "shield", 2),))
    lb = SystemLayout((Subsystem("Y", "A1", "shield", 2),))
    k0 = q.QuantumState(la, vector=np.array([1, 0], dtype=complex))
    k1 = q.QuantumState(lb, vector=np.array([0, 1], dtype=complex))
    joint = q.tensor_product(k0, k1)
    assert joint.is_pure
    assert np.array_equal(joint.vector, np.array([0, 1, 0, 0], dtype=complex))


def test_tensor_product_matches_kron():
    rng = np.random.default_rng(5)
    a = random_state(two_register_layout(2, 3), rng)
    b = random_state(
        SystemLayout((Subsystem("Z", "A2", "shield", 2),)), rng, pure=True
    )
    joint = q.tensor_product(a, b)
    oracle = np.kron(a.matrix, b.density_matrix())
    assert np.allclose(joint.density_matrix(), oracle, atol=1e-14)


def test_tensor_product_label_collision():
    a = q.QuantumState(two_register_layout(2, 2), matrix=np.eye(4) / 4)
    with pytest.raises(ValueError):
        q.tensor_product(a, a)


def test_tensor_product_cap():
    a = q.QuantumState(two_register_layout(8, 8), matrix=np.eye(64) / 64)
    b = a.relabeled({"X": "W", "Y": "Z"})
    with pytest.raises(ValueError):
        q.tensor_product(a, b, cap=1024)
    q.tensor_product(a, b, cap=4096)


# -- partial trace -----------------------------------------------------


def test_partial_trace_maximally_mixed_marginal(max_ent):
    reduced = q.partial_trace(max_ent, ["A1.info", "A1.shield"])
    assert reduced.layout.labels == ("D.info", "D.shield")
    assert np.allclose(reduced.matrix, np.eye(2) / 2, atol=1e-14)


def test_partial_trace_everything_gives_scalar_one():
    rng = np.random.default_rng(6)
    s = random_state(two_register_layout(2, 3), rng)
    out = q.partial_trace(s, ["X", "Y"])
    assert out.dim == 1
    assert out.matrix[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_partial_trace_pure_path_matches_density_path():
    rng = np.random.default_rng(7)
    layout = q.standard_layout(2, 2, (2, 1, 2))
    s = random_state(layout, rng, pure=True)
    for over in (["A1.info"], ["D.info", "A2.shield"], ["D.shield"]):
        fast = q.partial_trace(s, over)
        slow = q.partial_trace(s.to_density(), over)
        assert np.allclose(fast.density_matrix(), slow.matrix, atol=1e-12)


def test_partial_trace_on_kron_factors():
    rng = np.random.default_rng(8)
    a = q.random_density(3, rng)
    b = q.random_density(2, rng)
    s = q.QuantumState(two_register_layout(3, 2), matrix=np.kron(a, b))
    assert np.allclose(q.partial_trace(s, ["Y"]).matrix, a, atol=1e-13)
    assert np.allclose(q.partial_trace(s, ["X"]).matrix, b, atol=1e-13)


def test_partial_trace_trivial_registers_keep_vector():
    rng = np.random.default_rng(9)
    layout = q.standard_layout(2, 1)  # shields have dimension 1
    s = random_state(layout, rng, pure=True)
    out = q.partial_trace(s, ["D.shield", "A1.shield"])
    assert out.is_pure
    assert np.array_equal(out.vector, s.vector)


def test_partial_trace_commutes_with_permutation():
    rng = np.random.default_rng(10)
    layout = q.standard_layout(2, 2, (1, 2, 2))
    s = random_state(layout, rng)
    over = ["A1.shield"]
    keep = [l for l in layout.labels if l != "A1.shield"]
    direct = q.partial_trace(s, over)
    shuffled = s.permuted(["A2.info", "D.info", "A1.shield", "A2.shield",
                           "D.shield", "A1.info"])
    via_permutation = q.partial_trace(shuffled, over).permuted(keep)
    assert np.allclose(direct.matrix, via_permutation.matrix, atol=1e-13)


def test_partial_trace_unknown_label():
    s = q.QuantumState(two_register_layout(2, 2), matrix=np.eye(4) / 4)
    with pytest.raises(KeyError):
        q.partial_trace(s, ["nope"])


def test_partial_trace_empty_selection_is_identity():
    s = q.QuantumState(two_register_layout(2, 2), matrix=np.eye(4) / 4)
    assert q.partial_trace(s, []) is s


# -- partial transpose -------------------------------------------------


def test_partial_transpose_product_state_psd():
    layout = q.standard_layout(2, 1)
    s = q.QuantumState.basis_state(layout, (0, 0, 0, 0)).to_density()
    pt = q.partial_transpose(s, ["A1.info", "A1.shield"])
    assert np.array_equal(pt, s.matrix)
    assert np.linalg.eigvalsh(pt)[0] >= -1e-15


def test_partial_transpose_maximally_entangled(max_ent):
    pt = q.partial_transpose(max_ent, ["A1.info", "A1.shield"])
    eigs = np.linalg.eigvalsh(pt)
    assert abs(eigs[0] + 0.5) < 1e-12
    assert abs(np.trace(pt) - 1.0) < 1e-14


def test_partial_transpose_factorizes():
    rng = np.random.default_rng(11)
    a = q.random_density(2, rng)
    b = q.random_density(3, rng)
    s = q.QuantumState(two_register_layout(2, 3), matrix=np.kron(a, b))
    pt = q.partial_transpose(s, ["Y"])
    assert np.allclose(pt, np.kron(a, b.T), atol=1e-14)


def test_partial_transpose_involution_and_hermiticity():
    rng = np.random.default_rng(12)
    s = random_state(two_register_layout(2, 3), rng)
    pt = q.partial_transpose(s, ["X"])
    assert np.max(np.abs(pt - pt.conj().T)) < 1e-12
    back = q.partial_transpose(
        q.QuantumState(s.layout, matrix=pt, validate=False), ["X"]
    )
    assert np.allclose(back, s.matrix, atol=1e-14)


def test_partial_transpose_rejects_pure_vector():
    layout = q.standard_layout(2, 1)
    s = q.QuantumState.basis_state(layout, (0, 0, 0, 0))
    with pytest.raises(ValueError):
        q.partial_transpose(s, ["A1.info"])


# -- trace norm --------------------------------------------------------


def test_trace_norm_zero_and_orthogonal():
    rng = np.random.default_rng(13)
    rho = q.random_density(4, rng)
    assert q.trace_norm(rho - rho) == 0.0
    p0 = np.diag([1.0, 0.0])
    p1 = np.diag([0.0, 1.0])
    assert q.trace_norm(p0 - p1) == pytest.approx(2.0, abs=1e-14)


def test_trace_norm_matches_eigenvalue_route():
    # for Hermitian input the trace norm is the sum of |eigenvalues|
    rng = np.random.default_rng(14)
    for _ in range(20):
        m = q.random_density(5, rng) - q.random_density(5, rng)
        oracle = float(np.abs(np.linalg.eigvalsh(m)).sum())
        assert abs(q.trace_norm(m) - oracle) < 1e-10


def test_trace_norm_metric_properties():
    rng = np.random.default_rng(15)
    for _ in range(10):
        a = q.random_density(4, rng)
        b = q.random_density(4, rng)
        c = q.random_density(4, rng)
        assert abs(q.trace_norm(a - b) - q.trace_norm(b - a)) < 1e-12
        assert q.trace_norm(a - c) <= q.trace_norm(a - b) + q.trace_norm(b - c) + 1e-12


def test_max_asymmetry_equals_dense_expression():
    # the row-strip maximum is the old np.max(np.abs(m - m^dag)), bit for bit
    rng = np.random.default_rng(16)
    for dim in (0, 1, 2, 31, 32, 33, 64, 100, 257):
        for scale in (1.0, 1e-12):
            m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            m = m + m.conj().T + scale * (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
            want = float(np.max(np.abs(m - m.conj().T))) if dim else 0.0
            assert states._max_asymmetry(m) == want
    m = np.eye(40, dtype=complex)
    m[35, 3] = np.nan
    assert np.isnan(states._max_asymmetry(m))


def test_max_asymmetry_makes_no_full_size_temporary():
    rng = np.random.default_rng(17)
    rho = q.random_density(512, rng, rank=4)
    tracemalloc.start()
    try:
        states._max_asymmetry(rho)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * rho.nbytes


def test_trace_norm_rejects_non_matrix():
    with pytest.raises(ValueError):
        q.trace_norm(np.ones(3))


# -- measurement -------------------------------------------------------


def test_measurement_distribution_example(example_state):
    probs = q.measurement_distribution(
        example_state, ["D.info", "A1.info", "A2.info"]
    )
    assert probs.shape == (2, 2, 2)
    for digits in ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)):
        assert probs[digits] == 0.25
    assert probs.sum() == pytest.approx(1.0, abs=1e-14)


def test_measurement_distribution_respects_register_order(max_ent):
    ab = q.measurement_distribution(max_ent, ["D.info", "A1.info"])
    ba = q.measurement_distribution(max_ent, ["A1.info", "D.info"])
    assert np.array_equal(ab, ba.T)
    assert ab[0, 0] == 0.5
    assert ab[1, 1] == 0.5
    assert ab[0, 1] == 0.0


def test_measurement_distribution_deterministic_ket():
    layout = q.standard_layout(2, 1)
    s = q.QuantumState.basis_state(layout, (0, 0, 0, 0))
    probs = q.measurement_distribution(s, ["D.info"])
    assert np.array_equal(probs, np.array([1.0, 0.0]))


def test_measure_computational_completeness():
    rng = np.random.default_rng(16)
    layout = q.standard_layout(2, 2, (2, 1, 1))
    for pure in (True, False):
        s = random_state(layout, rng, pure=pure)
        outcomes = q.measure_computational(s, ["D.info", "A1.info"])
        total = sum(oc.probability for oc in outcomes)
        assert abs(total - 1.0) < 1e-10
        for oc in outcomes:
            assert abs(oc.state.trace() - 1.0) < 1e-10
            # measuring again reproduces the digits with certainty
            again = q.measurement_distribution(oc.state, ["D.info", "A1.info"])
            assert again[oc.digits] == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("floor", [-1.0, float("nan")])
def test_measure_computational_refuses_a_negative_or_nan_floor(floor):
    # such a floor kept the probability-0 outcomes, with all-NaN states
    for state in (q.maximally_entangled(2), q.build_ghz_qcr(2, 1)):
        info = state.layout.info_labels
        with pytest.raises(ValueError, match="^prob_floor must be >= 0, got"):
            q.measure_computational(state, info, prob_floor=floor)
        assert len(q.measure_computational(state, info, prob_floor=0.0)) == 2
    assert q.build_ghz_qcr(2, 1).is_pure and not q.maximally_entangled(2).is_pure


def test_measure_computational_drops_zero_branches(example_state):
    outcomes = q.measure_computational(
        example_state, ["D.info", "A1.info", "A2.info"]
    )
    assert sorted(oc.digits for oc in outcomes) == [
        (0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0),
    ]
    for oc in outcomes:
        assert oc.probability == 0.25


def test_project_registers_consistent_with_measurement():
    rng = np.random.default_rng(17)
    layout = q.standard_layout(2, 2, (2, 1, 2))
    for pure in (True, False):
        s = random_state(layout, rng, pure=pure)
        probs = q.measurement_distribution(s, ["A1.info"])
        for digit in range(2):
            prob, post = q.project_registers(s, ["A1.info"], (digit,))
            assert abs(prob - float(probs[digit])) < 1e-12
            assert post.layout.labels == tuple(
                l for l in layout.labels if l != "A1.info"
            )
            assert pure == post.is_pure
            # oracle: collapse without removal, then trace the register away
            matching = [
                oc for oc in q.measure_computational(s, ["A1.info"])
                if oc.digits == (digit,)
            ]
            oracle = q.partial_trace(matching[0].state, ["A1.info"])
            assert np.allclose(post.density_matrix(), oracle.density_matrix(), atol=1e-12)


def test_project_registers_zero_probability():
    layout = q.standard_layout(2, 1)
    s = q.QuantumState.basis_state(layout, (0, 0, 0, 0))
    prob, post = q.project_registers(s, ["D.info"], (1,))
    assert prob == 0.0
    assert post is None


def test_project_registers_validation():
    layout = q.standard_layout(2, 1)
    s = q.QuantumState.basis_state(layout, (0, 0, 0, 0))
    with pytest.raises(ValueError):
        q.project_registers(s, ["D.info"], (0, 1))
    with pytest.raises(ValueError):
        q.project_registers(s, ["D.info"], (5,))
    with pytest.raises(ValueError):
        q.project_registers(s, ["D.info"], (1.5,))
    with pytest.raises(ValueError):
        q.project_registers(s, [], ())


# -- purification ------------------------------------------------------


def test_purify_pure_state_gets_trivial_environment(example_state):
    out = q.purify(example_state)
    assert out.layout.labels[-1] == "E"
    assert out.layout.subsystems[-1].dim == 1
    assert np.array_equal(out.vector, example_state.vector)


def test_purify_round_trip_maximally_mixed():
    layout = SystemLayout((Subsystem("X", "D", "shield", 2),))
    s = q.QuantumState(layout, matrix=np.eye(2) / 2)
    pure = q.purify(s)
    assert pure.layout.subsystems[-1].dim == 2
    back = q.partial_trace(pure, ["E"])
    assert np.allclose(back.matrix, np.eye(2) / 2, atol=1e-14)


def test_purify_environment_dim_is_rank():
    rng = np.random.default_rng(18)
    layout = SystemLayout((Subsystem("X", "D", "shield", 4),))
    s = q.QuantumState(layout, matrix=q.random_density(4, rng, rank=3))
    pure = q.purify(s)
    assert pure.layout.subsystems[-1].dim == 3
    back = q.partial_trace(pure, [pure.layout.labels[-1]])
    assert np.max(np.abs(back.matrix - s.matrix)) < 1e-12


def test_purify_rejects_negative_matrix():
    layout = SystemLayout((Subsystem("X", "D", "shield", 2),))
    bad = q.QuantumState(layout, matrix=np.diag([1.5, -0.5]), validate=False)
    with pytest.raises(ValueError):
        q.purify(bad)


def test_purify_avoids_label_collisions():
    layout = SystemLayout((
        Subsystem("E", "D", "shield", 2),
        Subsystem("Y", "A1", "shield", 2),
    ))
    s = q.QuantumState(layout, matrix=np.eye(4) / 4)
    pure = q.purify(s)
    assert pure.layout.labels == ("E", "Y", "E2")


# -- unitaries ---------------------------------------------------------


def test_apply_unitary_identity_and_flip():
    layout = q.standard_layout(2, 1)
    s = q.QuantumState.basis_state(layout, (0, 0, 0, 0))
    same = q.apply_unitary(s, np.eye(2), ["D.info"])
    assert np.array_equal(same.vector, s.vector)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    flipped = q.apply_unitary(s, x, ["D.info"])
    expected = q.QuantumState.basis_state(layout, (1, 0, 0, 0))
    assert np.array_equal(flipped.vector, expected.vector)


def test_apply_unitary_matches_kron_oracle():
    rng = np.random.default_rng(19)
    layout = two_register_layout(3, 2)
    u = q.haar_unitary(3, rng)
    for pure in (True, False):
        s = random_state(layout, rng, pure=pure)
        out = q.apply_unitary(s, u, ["X"])
        big = np.kron(u, np.eye(2))
        oracle = big @ s.density_matrix() @ big.conj().T
        assert np.allclose(out.density_matrix(), oracle, atol=1e-12)


def test_apply_unitary_on_permuted_registers():
    rng = np.random.default_rng(20)
    layout = two_register_layout(2, 3)
    u = q.haar_unitary(3, rng)
    s = random_state(layout, rng, pure=True)
    out = q.apply_unitary(s, u, ["Y"])
    big = np.kron(np.eye(2), u)
    oracle = big @ s.vector
    assert np.allclose(out.vector, oracle, atol=1e-13)


def test_apply_unitary_preserves_spectrum():
    rng = np.random.default_rng(21)
    layout = q.standard_layout(2, 2, (2, 1, 2))
    s = random_state(layout, rng)
    u = q.haar_unitary(4, rng)
    out = q.apply_unitary(s, u, ["D.info", "A2.shield"])
    before = np.sort(np.linalg.eigvalsh(s.matrix))
    after = np.sort(np.linalg.eigvalsh(out.matrix))
    assert np.max(np.abs(before - after)) < 1e-10


def test_apply_unitary_validation():
    layout = two_register_layout(2, 2)
    s = q.QuantumState(layout, matrix=np.eye(4) / 4)
    with pytest.raises(ValueError):
        q.apply_unitary(s, np.ones((2, 2)), ["X"])  # not unitary
    with pytest.raises(ValueError):
        q.apply_unitary(s, np.eye(3), ["X"])  # wrong dimension


def test_apply_controlled_matches_block_matrix():
    rng = np.random.default_rng(22)
    layout = q.standard_layout(2, 2, (2, 1, 2))
    blocks = {(0, 0): q.haar_unitary(2, rng), (1, 1): q.haar_unitary(2, rng)}
    control = ["D.info", "A1.info"]
    target = ["D.shield"]
    # oracle: assemble sum_k |k><k| (x) B_k in the (control, target) frame
    big = np.zeros((8, 8), dtype=complex)
    for k in range(4):
        key = (k // 2, k % 2)
        b = blocks.get(key, np.eye(2))
        big[2 * k: 2 * k + 2, 2 * k: 2 * k + 2] = b
    for pure in (True, False):
        s = random_state(layout, rng, pure=pure)
        out = q.apply_controlled(s, control, target, blocks)
        oracle = q.apply_unitary(s, big, control + target)
        assert np.allclose(out.density_matrix(), oracle.density_matrix(), atol=1e-12)


def test_apply_controlled_validation():
    layout = q.standard_layout(2, 1, (2, 1))
    s = q.QuantumState.basis_state(layout, (0, 0, 0, 0))
    with pytest.raises(ValueError):
        q.apply_controlled(s, ["D.info"], ["D.info"], {})
    with pytest.raises(ValueError):
        q.apply_controlled(s, ["D.info"], ["D.shield"], {(3,): np.eye(2)})
    with pytest.raises(ValueError):
        q.apply_controlled(s, ["D.info"], ["D.shield"], {(1.2,): np.eye(2)})
    with pytest.raises(ValueError):
        q.apply_controlled(s, ["D.info"], ["D.shield"], {(0,): np.ones((2, 2))})
