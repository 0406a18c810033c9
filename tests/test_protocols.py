import itertools

import numpy as np
import pytest

import qcrkit as q


def proper_subsets(players):
    for size in range(1, len(players)):
        yield from itertools.combinations(players, size)


def test_shift_matrix_adds_modularly():
    for d in (2, 3, 5):
        for beta in range(d):
            w = q.shift_matrix(d, beta)
            assert np.max(np.abs(w.conj().T @ w - np.eye(d))) < 1e-15
            for i in range(d):
                col = w[:, i]
                assert col[(i + beta) % d] == 1.0
                assert np.count_nonzero(col) == 1
    assert np.array_equal(q.shift_matrix(3, 0), np.eye(3))


def test_cx_matrix_adds_control_into_target():
    for d in (2, 3):
        cx = q.cx_matrix(d)
        assert np.max(np.abs(cx.conj().T @ cx - np.eye(d * d))) < 1e-15
        for j in range(d):
            for k in range(d):
                col = cx[:, j * d + k]
                assert col[((j + k) % d) * d + k] == 1.0
                assert np.count_nonzero(col) == 1


# -- reduction ----------------------------------------------------------


def test_reduce_example_keep_one_player(example_state):
    outcomes = q.reduce(example_state, ["A2"], tol=1e-7)
    assert [oc.digits for oc in outcomes] == [(0,), (1,)]
    for oc in outcomes:
        assert oc.probability == 0.5
        assert oc.beta == oc.digits[0]
        assert oc.correction_applied == (oc.beta != 0)
        assert oc.state.layout.players == ("A1",)
        assert q.is_qcr(oc.state, tol=1e-7).verdict


def test_reduce_ghz_branch_equals_smaller_ghz():
    g3 = q.build_ghz_qcr(2, 3)
    g2 = q.build_ghz_qcr(2, 2)
    for oc in q.reduce(g3, ["A3"]):
        assert oc.state.is_pure
        assert np.max(np.abs(oc.state.vector - g2.vector)) == 0.0
        # the resulting registers are exactly the kept parties' registers
        assert oc.state.layout.labels == (
            "D.info", "D.shield", "A1.info", "A1.shield", "A2.info", "A2.shield",
        )


def test_reduce_zero_shift_branch_is_untouched():
    g3 = q.build_ghz_qcr(2, 3)
    g2 = q.build_ghz_qcr(2, 2)
    outcomes = {oc.digits: oc for oc in q.reduce(g3, ["A1"])}
    assert not outcomes[(0,)].correction_applied
    assert np.array_equal(outcomes[(0,)].state.vector, g2.vector)
    assert outcomes[(1,)].correction_applied



@pytest.mark.parametrize("pure", [True, False])
def test_reduce_writes_every_zero_as_positive(pure):
    # the dealer's shift runs through a matmul that can leave -0.0, which
    # qcr-state/1 would write out; values must equal the step-by-step
    # pipeline's (np.array_equal does not see the sign of a zero)
    corrected = 0
    for seed in range(30):
        rng = np.random.default_rng(seed)
        s = q.build_ghz_qcr(3, 3, q.ShieldSeed.random((2, 1, 1, 1), rng, pure=pure))
        for oc in q.reduce(s, ["A3"], check=False):
            _, post = q.project_registers(s, ["A3.info"], oc.digits)
            post = q.partial_trace(post, [l for l in s.layout.party_labels("A3")
                                          if l != "A3.info"])
            if oc.correction_applied:
                corrected += 1
                post = q.apply_unitary(post, q.shift_matrix(3, oc.beta), ["D.info"])
            got = oc.state._data
            assert np.array_equal(got, post._data)
            for part in (got.real, got.imag):
                assert not np.any(np.signbit(part[part == 0]))
    assert corrected > 0

def test_reduce_beta_is_digit_sum():
    g = q.build_ghz_qcr(3, 3)
    for oc in q.reduce(g, ["A2", "A3"]):
        assert oc.beta == q.digit_sum(oc.digits, 3)
        assert len(oc.digits) == 2
    probs = [oc.probability for oc in q.reduce(g, ["A2", "A3"])]
    assert abs(sum(probs) - 1.0) < 1e-12


@pytest.mark.parametrize("fixture", ["example", "ghz22", "ghz23", "ghz32"])
def test_reduce_closure_over_all_subsets(fixture, example_state):
    state = {
        "example": example_state,
        "ghz22": q.build_ghz_qcr(2, 2),
        "ghz23": q.build_ghz_qcr(2, 3),
        "ghz32": q.build_ghz_qcr(3, 2),
    }[fixture]
    for subset in proper_subsets(state.layout.players):
        for oc in q.reduce(state, subset, check=False):
            report = q.is_qcr(oc.state, tol=1e-7)
            assert report.verdict, (fixture, subset, oc.digits)


def test_reduce_on_twisted_state():
    rng = np.random.default_rng(32)
    base = q.build_ghz_qcr(2, 2, q.ShieldSeed.basis_zero((2, 2, 2)))
    state, report = q.build_twisted_qcr(base, q.random_party_twist(base.layout, rng))
    assert report.verdict
    for oc in q.reduce(state, ["A1"], tol=1e-7):
        assert q.is_qcr(oc.state, tol=1e-7).verdict


def test_reduce_sampling_is_seeded():
    g = q.build_ghz_qcr(2, 3)
    first = q.reduce(g, ["A2", "A3"], rng=np.random.default_rng(7))
    second = q.reduce(g, ["A2", "A3"], rng=np.random.default_rng(7))
    assert len(first) == len(second) == 1
    assert first[0].digits == second[0].digits
    assert first[0].probability > 0


def test_reduce_selected_outcome():
    g = q.build_ghz_qcr(2, 3)
    outcomes = q.reduce(g, ["A2", "A3"], outcome=(1, 1))
    assert len(outcomes) == 1
    assert outcomes[0].digits == (1, 1)
    assert outcomes[0].beta == 0


def test_reduce_rejects_bad_subsets(example_state):
    with pytest.raises(ValueError):
        q.reduce(example_state, [])
    with pytest.raises(ValueError):
        q.reduce(example_state, ["A1", "A2"])  # nobody left
    with pytest.raises(ValueError):
        q.reduce(example_state, ["A9"])
    with pytest.raises(ValueError):
        q.reduce(example_state, ["A1", "A1"])
    with pytest.raises(ValueError):
        q.reduce(example_state, ["A1"], outcome=(0,), rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        q.reduce(example_state, ["A1"], outcome=(0.7,))


def test_reduce_rejects_uncertified_input():
    layout = q.standard_layout(2, 2)
    junk = q.QuantumState.basis_state(layout, (0,) * 6)
    with pytest.raises(q.InputVerificationError) as err:
        q.reduce(junk, ["A2"])
    assert not err.value.report.verdict
    # waiving the check lets the measurement go through
    outcomes = q.reduce(junk, ["A2"], check=False)
    assert len(outcomes) == 1


def test_reduce_zero_probability_outcome_raises():
    layout = q.standard_layout(2, 2)
    junk = q.QuantumState.basis_state(layout, (0,) * 6)
    with pytest.raises(ValueError):
        q.reduce(junk, ["A2"], outcome=(1,), check=False)


def test_reduction_outcome_serialization(example_state):
    oc = q.reduce(example_state, ["A2"], outcome=(1,))[0]
    doc = oc.to_dict()
    assert doc["digits"] == [1]
    assert doc["beta"] == 1
    assert doc["correction_applied"] is True
    assert doc["probability"] == 0.5


# -- composition ---------------------------------------------------------


def test_compose_two_maximally_entangled(max_ent):
    merged, record = q.compose(max_ent, max_ent)
    assert merged.layout.players == ("A1", "A2")
    assert merged.layout.qudit_dim == 2
    assert q.is_qcr(merged, tol=1e-7).verdict
    assert record.unitary_descriptor == "cX(d=2) target=D.info control=D.shield2"
    assert record.relabel_b["D.info"] == "D.shield2"
    assert record.relabel_a["A1.info"] == "A1.info"
    assert record.relabel_b["A1.info"] == "A2.info"


def test_compose_entrywise_oracle(max_ent):
    # |i,-i>|j,-j| with the second dealer digit added into the first gives
    # weight 1/2 at (i+j, j, i, j) over the four two-dimensional registers
    merged, _ = q.compose(max_ent, max_ent)
    assert merged.dim == 16
    v = np.zeros(16)
    for i in range(2):
        for j in range(2):
            v[((i + j) % 2) * 8 + j * 4 + i * 2 + j] = 0.5
    assert np.allclose(merged.matrix, np.outer(v, v), atol=1e-15)


def test_compose_example_with_pair(example_state, max_ent):
    merged, record = q.compose(example_state, max_ent)
    assert merged.layout.players == ("A1", "A2", "A3")
    assert merged.dim == 64 * 4
    assert q.is_qcr(merged, tol=1e-7).verdict
    # dealer keeps the absorbed info register as a shield
    absorbed = record.relabel_b["D.info"]
    assert merged.layout.subsystem(absorbed).party == "D"
    assert merged.layout.subsystem(absorbed).kind == "shield"


def test_compose_all_ordered_pairs_pass(example_state, max_ent):
    rng = np.random.default_rng(33)
    fixtures = [max_ent, q.random_private_state(2, (2, 2), rng), example_state]
    for a, b in itertools.product(fixtures, repeat=2):
        merged, _ = q.compose(a, b, tol=1e-7)
        assert q.is_qcr(merged, tol=1e-7).verdict


def test_compose_preserves_purity(example_state):
    pair = q.build_ghz_qcr(2, 1)
    merged, _ = q.compose(example_state, pair)
    assert merged.is_pure
    assert abs(merged.purity() - 1.0) < 1e-10
    dens, _ = q.compose(example_state.to_density(), pair)
    assert abs(dens.purity() - 1.0) < 1e-10


def test_compose_layout_order(max_ent):
    merged, _ = q.compose(max_ent, max_ent)
    assert merged.layout.labels == (
        "D.info", "D.shield", "D.shield2", "D.shield3",
        "A1.info", "A1.shield", "A2.info", "A2.shield",
    )
    assert merged.layout.subsystem("D.shield2").dim == 2


def test_compose_rejects_mismatched_dimensions(max_ent):
    with pytest.raises(ValueError):
        q.compose(max_ent, q.build_private_state(3))


def test_compose_rejects_uncertified_inputs(max_ent):
    layout = q.standard_layout(2, 1)
    junk = q.QuantumState.basis_state(layout, (0,) * 4)
    with pytest.raises(q.InputVerificationError):
        q.compose(max_ent, junk)
    merged, _ = q.compose(max_ent, junk, check=False)
    assert not q.is_qcr(merged, tol=1e-7).verdict


def test_compose_rejects_playerless_input(max_ent):
    from qcrkit.registers import Subsystem, SystemLayout

    layout = SystemLayout((
        Subsystem("D.info", "D", "info", 2),
        Subsystem("D.shield", "D", "shield", 1),
    ))
    dummy = q.QuantumState(layout, vector=np.array([1, 0], dtype=complex))
    with pytest.raises(ValueError):
        q.compose(max_ent, dummy)


def test_reduction_composition_consistency(max_ent):
    merged, _ = q.compose(max_ent, max_ent)
    for oc in q.reduce(merged, ["A2"], tol=1e-7):
        assert oc.state.layout.n_players == 1
        assert q.is_qcr(oc.state, tol=1e-7).verdict


def test_composition_record_serialization(max_ent):
    _, record = q.compose(max_ent, max_ent)
    doc = record.to_dict()
    assert doc["qudit_dim"] == 2
    assert doc["cx_target"] == "D.info"
    assert doc["relabel_b"]["D.info"] == "D.shield2"
    assert len(doc["layout"]) == 8


# -- expansion -----------------------------------------------------------


def test_expand_single_input_comes_back(max_ent):
    out = q.expand_from_private([max_ent])
    assert np.array_equal(out.matrix, max_ent.matrix)


def test_expand_three_pairs_uniform(max_ent):
    out = q.expand_from_private([max_ent] * 3)
    assert out.layout.players == ("A1", "A2", "A3")
    report = q.is_qcr(out, tol=1e-7)
    assert report.verdict
    probs = q.measurement_distribution(out, out.layout.info_labels)
    support = q.index_set(4, 0, 2)
    for m in support.members:
        assert probs[m] == 0.125
    assert report.condition_i.max_deviation == 0.0


def test_expand_with_twisted_private_input(max_ent):
    rng = np.random.default_rng(34)
    twisted = q.random_private_state(2, (2, 2), rng)
    out = q.expand_from_private([max_ent, twisted], tol=1e-7)
    assert out.layout.n_players == 2
    assert q.is_qcr(out, tol=1e-7).verdict


def test_expand_validation(max_ent, example_state):
    with pytest.raises(ValueError):
        q.expand_from_private([])
    with pytest.raises(ValueError):
        q.expand_from_private([example_state])  # two players, not one
    layout = q.standard_layout(2, 1)
    junk = q.QuantumState.basis_state(layout, (0,) * 4)
    with pytest.raises(q.InputVerificationError):
        q.expand_from_private([junk])
