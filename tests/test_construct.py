import itertools

import numpy as np
import pytest

import qcrkit as q

X = np.array([[0, 1], [1, 0]], dtype=complex)
SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def assert_valid_density(state, atol=1e-10):
    rho = state.density_matrix()
    assert np.max(np.abs(rho - rho.conj().T)) < atol
    assert abs(np.real(np.trace(rho)) - 1.0) < atol
    assert np.linalg.eigvalsh(rho)[0] > -atol


# -- private states ----------------------------------------------------


def test_private_state_trivial_is_maximally_entangled():
    s = q.build_private_state(2)
    # |i, -i> with d=2 makes -i = i, so this is (|00> + |11>)/sqrt(2)
    v = np.zeros(4)
    v[0] = v[3] = 1 / np.sqrt(2)
    assert np.allclose(s.matrix, np.outer(v, v), atol=1e-15)
    assert s.matrix[0, 0] == 0.5


def test_private_state_d3_entries():
    s = q.build_private_state(3)
    expected = np.zeros((9, 9), dtype=complex)
    for i in range(3):
        for j in range(3):
            expected[3 * i + (3 - i) % 3, 3 * j + (3 - j) % 3] = 1 / 3
    assert np.allclose(s.matrix, expected, atol=1e-15)
    assert q.is_qcr(s).verdict


def test_private_state_identity_swap_twist():
    sigma = q.ShieldSeed((2, 2), matrix=np.eye(4) / 4)
    twist = q.TwistingFamily({0: np.eye(4), 1: SWAP})
    s = q.build_private_state(2, sigma, twist)
    assert_valid_density(s)
    report = q.is_qcr(s)
    assert report.verdict
    assert report.condition_i.max_deviation <= 1e-12


def test_private_state_uniform_correlation():
    rng = np.random.default_rng(23)
    for d in (2, 3):
        s = q.random_private_state(d, (d, 2), rng)
        probs = q.measurement_distribution(s, s.layout.info_labels)
        for i in range(d):
            assert abs(probs[i, (d - i) % d] - 1 / d) < 1e-12
        assert abs(probs.sum() - 1.0) < 1e-12


@pytest.mark.parametrize("d", [2, 3])
def test_random_private_states_verify(d):
    for seed in range(5):
        rng = np.random.default_rng(seed)
        s = q.random_private_state(d, (d, d), rng)
        assert_valid_density(s)
        assert q.is_qcr(s, tol=1e-9).verdict


def test_private_state_twist_key_errors():
    sigma = q.ShieldSeed((2, 1), matrix=np.eye(2) / 2)
    with pytest.raises(ValueError):
        q.build_private_state(2, sigma, q.TwistingFamily({0: np.eye(2)}))
    with pytest.raises(ValueError):
        q.build_private_state(
            2, sigma, q.TwistingFamily({0: np.eye(2), 1: np.eye(2), 2: np.eye(2)})
        )
    with pytest.raises(ValueError):
        q.build_private_state(
            2, sigma, q.TwistingFamily({0: np.eye(2), 1: np.ones((2, 2))})
        )


def test_private_state_parameter_errors():
    with pytest.raises(ValueError):
        q.build_private_state(1)
    with pytest.raises(ValueError):
        q.build_private_state(2, q.ShieldSeed((2, 2, 2), vector=np.r_[1, np.zeros(7)]))
    with pytest.raises(ValueError):
        q.build_private_state(5, q.ShieldSeed((13, 13), matrix=np.eye(169) / 169))


def test_maximally_entangled_shortcut(max_ent):
    assert np.array_equal(max_ent.matrix, q.build_private_state(2).matrix)


# -- the worked example ------------------------------------------------


def test_example_state_amplitudes(example_state):
    v = example_state.vector
    nonzero = np.flatnonzero(v)
    assert list(nonzero) == [0, 26, 40, 50]
    assert np.all(v[nonzero] == 0.5)
    assert np.real(np.vdot(v, v)) == 1.0


def test_example_state_layout(example_state):
    layout = example_state.layout
    assert layout.dims == (2, 2, 2, 2, 2, 2)
    assert layout.players == ("A1", "A2")
    assert q.is_qcr(example_state).verdict


# -- GHZ-type states ---------------------------------------------------


def test_ghz_trivial_sigma_is_uniform_superposition():
    s = q.build_ghz_qcr(2, 2)
    v = s.vector
    support = [0, 3, 5, 6]  # (0,0,0), (0,1,1), (1,0,1), (1,1,0) packed in 8 dims
    assert np.allclose(v[support], 0.5, atol=1e-15)
    assert np.count_nonzero(v) == 4


def test_ghz_single_player_matches_maximally_entangled(max_ent):
    s = q.build_ghz_qcr(2, 1)
    assert np.allclose(s.density_matrix(), max_ent.matrix, atol=1e-15)


def test_ghz_mixed_dealer_shield_verifies():
    sigma = q.ShieldSeed((3, 1, 1), matrix=np.eye(3) / 3)
    s = q.build_ghz_qcr(3, 2, sigma)
    assert_valid_density(s)
    assert not s.is_pure
    assert q.is_qcr(s).verdict


def test_ghz_info_marginal_is_projector():
    # the info part factorizes from the shields, for pure and mixed seeds
    rng = np.random.default_rng(24)
    members = q.index_set(3, 0, 2).members
    u = np.zeros(8, dtype=complex)
    for m in members:
        u[m[0] * 4 + m[1] * 2 + m[2]] = 0.5
    projector = np.outer(u, u)
    for sigma in (
        q.ShieldSeed.random((2, 1, 2), rng, pure=True),
        q.ShieldSeed.random((1, 2, 2), rng),
    ):
        s = q.build_ghz_qcr(2, 2, sigma)
        info = q.partial_trace(s, s.layout.shield_labels)
        assert np.allclose(info.density_matrix(), projector, atol=1e-12)


def test_ghz_parameter_errors():
    with pytest.raises(ValueError):
        q.build_ghz_qcr(2, 0)
    with pytest.raises(ValueError):
        q.build_ghz_qcr(2, 2, q.ShieldSeed.trivial(2))
    with pytest.raises(ValueError):
        q.build_ghz_qcr(2, 5, cap=32)


# -- exact entries of every builder branch -----------------------------


def support_entries(layout):
    """(flat index, shield index) of each basis ket whose info digits sum to 0 mod d."""
    info = [layout.position(l) for l in layout.info_labels]
    shield = [layout.position(l) for l in layout.shield_labels]
    s_dims = [layout.dims[p] for p in shield]
    out = []
    for k, digits in enumerate(itertools.product(*[range(x) for x in layout.dims])):
        if sum(digits[p] for p in info) % layout.qudit_dim == 0:
            out.append((k, int(np.ravel_multi_index([digits[p] for p in shield], s_dims))))
    return out


def test_ghz_pure_sigma_exact_entries():
    sigma = q.ShieldSeed.random((2, 1, 3), np.random.default_rng(31), pure=True)
    s = q.build_ghz_qcr(3, 2, sigma)
    want = np.zeros(s.dim, dtype=complex)
    for k, i in support_entries(s.layout):
        want[k] = (1 / np.sqrt(9)) * sigma.vector[i]
    assert s.is_pure
    assert np.array_equal(s.vector, want)


def test_ghz_mixed_sigma_exact_entries():
    sigma = q.ShieldSeed.random((1, 2, 2), np.random.default_rng(32))
    s = q.build_ghz_qcr(2, 2, sigma)
    entries = support_entries(s.layout)
    want = np.zeros((s.dim, s.dim), dtype=complex)
    for (k, i), (l, j) in itertools.product(entries, repeat=2):
        want[k, l] = 0.25 * sigma.matrix[i, j]
    assert not s.is_pure
    assert np.array_equal(s.matrix, want)


def test_private_state_basis_zero_sigma_exact_entries():
    s = q.build_private_state(3, q.ShieldSeed.basis_zero((2, 3)))
    zero = [k for k, i in support_entries(s.layout) if i == 0]
    want = np.zeros((s.dim, s.dim), dtype=complex)
    want[np.ix_(zero, zero)] = 1 / 3
    assert len(zero) == 3
    assert np.array_equal(s.matrix, want)


# -- controlled twists -------------------------------------------------


def test_twisted_identity_leaves_base_unchanged():
    base = q.build_ghz_qcr(2, 2, q.ShieldSeed.basis_zero((2, 1, 1)))
    state, report = q.build_twisted_qcr(base, q.TwistingFamily({}))
    assert np.array_equal(state.vector, base.vector)
    assert report.verdict


def test_twist_reproduces_example_state(example_state):
    # controlled-X on the dealer shield for info strings 011 and 101
    base = q.build_ghz_qcr(2, 2, q.ShieldSeed.basis_zero((2, 1, 1)))
    twist = q.TwistingFamily({(0, 1, 1): X, (1, 0, 1): X}, targets=["D.shield"])
    state, report = q.build_twisted_qcr(base, twist)
    assert report.verdict
    # compare against the example with its trivial player-shield axes sliced off
    expected = example_state.vector.reshape(2, 2, 2, 2, 2, 2)[:, :, :, 0, :, 0]
    assert np.array_equal(state.vector, expected.reshape(-1))


def test_twisted_random_party_unitaries_verify():
    for seed in range(3):
        rng = np.random.default_rng(seed)
        base = q.build_ghz_qcr(2, 2, q.ShieldSeed.basis_zero((2, 2, 2)))
        twist = q.random_party_twist(base.layout, rng)
        state, report = q.build_twisted_qcr(base, twist)
        assert report.verdict
        assert report.condition_i.max_deviation <= 1e-9


def test_twist_marking_dealer_digit_fails_condition_ii():
    # writing the dealer's digit onto a player's shield breaks independence
    base = q.build_ghz_qcr(2, 2, q.ShieldSeed.basis_zero((1, 2, 1)))
    twist = q.TwistingFamily(
        {(1, 0, 1): X, (1, 1, 0): X}, targets=["A1.shield"]
    )
    state, report = q.build_twisted_qcr(base, twist)
    assert not report.verdict
    assert report.failing_conditions == ("condition_ii",)
    assert report.condition_i.passed
    dist = {c.dishonest: c.max_distance for c in report.coalitions}
    assert abs(dist[("A1",)] - 2.0) < 1e-9
    assert dist[("A2",)] < 1e-9


def test_twist_dephasing_invariance():
    rng = np.random.default_rng(25)
    base = q.build_ghz_qcr(2, 2, q.ShieldSeed.basis_zero((2, 2, 2)))
    before = q.measurement_distribution(base, base.layout.info_labels)
    twist = q.random_party_twist(base.layout, rng)
    state, _ = q.build_twisted_qcr(base, twist)
    after = q.measurement_distribution(state, state.layout.info_labels)
    assert np.max(np.abs(before - after)) < 1e-12


def test_twisted_key_validation():
    base = q.build_ghz_qcr(2, 2, q.ShieldSeed.basis_zero((2, 1, 1)))
    with pytest.raises(ValueError):
        q.build_twisted_qcr(base, q.TwistingFamily({(0, 0, 1): X}, targets=["D.shield"]))
    with pytest.raises(ValueError):
        q.build_twisted_qcr(base, q.TwistingFamily({(0, 0): X}, targets=["D.shield"]))
    with pytest.raises(ValueError):
        q.build_twisted_qcr(base, q.TwistingFamily({(0, 2, 0): X}, targets=["D.shield"]))
    bare = q.build_ghz_qcr(2, 2)  # no shield registers worth twisting
    with pytest.raises(ValueError):
        q.build_twisted_qcr(bare, q.TwistingFamily({}, targets=()))


def test_per_party_twist_factorizes():
    layout = q.standard_layout(2, 2, (2, 2, 2))
    tables = {
        "D": {0: np.eye(2), 1: X},
        "A1": {0: X, 1: np.eye(2)},
    }
    fam = q.per_party_twist(layout, tables)
    assert fam.keys() == set(q.index_set(3, 0, 2).members)
    for key in fam.keys():
        i, i1, i2 = key
        expected = np.kron(np.kron(tables["D"][i], tables["A1"][i1]), np.eye(2))
        assert np.array_equal(fam.unitaries[key], expected)


def test_twisting_family_key_normalization():
    fam = q.TwistingFamily({1: np.eye(2), (0,): X})
    assert fam.keys() == {(0,), (1,)}
    with pytest.raises(ValueError):
        q.TwistingFamily({(-1,): np.eye(2)})


def test_relabel_negated_player():
    s = q.build_private_state(3)
    flipped = q.relabel_negated_player(s, "A1")
    probs = q.measurement_distribution(flipped, ["D.info", "A1.info"])
    for i in range(3):
        assert abs(probs[i, i] - 1 / 3) < 1e-12


# -- shield seeds and random helpers ------------------------------------


def test_shield_seed_validation():
    with pytest.raises(ValueError):
        q.ShieldSeed((2,), vector=np.ones(2))  # norm 2
    with pytest.raises(ValueError):
        q.ShieldSeed((2,), matrix=np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        q.ShieldSeed((2,), vector=np.ones(3) / np.sqrt(3))
    with pytest.raises(ValueError):
        q.ShieldSeed((0, 2), vector=np.zeros(0))
    with pytest.raises(ValueError):
        q.ShieldSeed((2,))


def test_shield_seed_constructors():
    t = q.ShieldSeed.trivial(3)
    assert t.dims == (1, 1, 1)
    assert t.density().shape == (1, 1)
    z = q.ShieldSeed.basis_zero((2, 3))
    assert z.is_pure
    assert z.vector[0] == 1.0
    rng = np.random.default_rng(26)
    r = q.ShieldSeed.random((2, 2), rng)
    assert not r.is_pure
    assert abs(np.trace(r.density()) - 1.0) < 1e-12


def test_haar_unitary_is_unitary():
    rng = np.random.default_rng(27)
    for dim in (2, 3, 5):
        u = q.haar_unitary(dim, rng)
        assert np.max(np.abs(u.conj().T @ u - np.eye(dim))) < 1e-12


def test_random_density_properties():
    rng = np.random.default_rng(28)
    rho = q.random_density(6, rng)
    assert abs(np.real(np.trace(rho)) - 1.0) < 1e-12
    assert np.linalg.eigvalsh(rho)[0] > -1e-12
    low = q.random_density(6, rng, rank=2)
    evals = np.linalg.eigvalsh(low)
    assert np.sum(evals > 1e-9) == 2


def test_random_separable_density_properties():
    rng = np.random.default_rng(29)
    rho = q.random_separable_density(2, 3, rng)
    assert rho.shape == (6, 6)
    assert abs(np.real(np.trace(rho)) - 1.0) < 1e-12
    assert np.linalg.eigvalsh(rho)[0] > -1e-12
