import itertools
import tracemalloc

import numpy as np
import pytest

import qcrkit as q

X = np.array([[0, 1], [1, 0]], dtype=complex)


def noisy_three_player_state(eps=0.25):
    """ghz(2,3) mixed with a classically correlated diagonal: condition (ii)
    fails with a coalition-size-dependent distance, which is what the
    monotonicity checks need."""
    ghz = q.build_ghz_qcr(2, 3)
    layout = ghz.layout
    diag = np.zeros((16, 16), dtype=complex)
    members = q.index_set(4, 0, 2).members
    for m in members:
        k = int(np.ravel_multi_index((m[0], 0, m[1], 0, m[2], 0, m[3], 0), layout.dims))
        diag[k, k] = 1 / len(members)
    rho = (1 - eps) * ghz.density_matrix() + eps * diag
    return q.QuantumState(layout, matrix=rho)


def test_example_passes_exactly(example_state):
    report = q.is_qcr(example_state)
    assert report.verdict
    assert report.condition_i.passed
    assert report.condition_i.max_deviation == 0.0
    assert report.condition_i.off_support_mass == 0.0
    assert report.condition_i.expected_probability == 0.25
    assert report.condition_i.support_size == 4
    assert {c.dishonest for c in report.coalitions} == {("A1",), ("A2",)}
    for c in report.coalitions:
        assert c.passed
        assert c.max_distance <= 1e-9
        assert c.branches == 2
    assert report.failing_conditions == ()


def test_concentrated_state_fails_condition_i():
    layout = q.standard_layout(2, 2, (2, 2, 2))
    s = q.QuantumState.basis_state(layout, (0,) * 6)
    report = q.is_qcr(s)
    assert not report.verdict
    assert report.failing_conditions == ("condition_i",)
    assert report.condition_i.max_deviation == 0.75


def test_biased_state_fails_with_bias_one_sixth(biased_state):
    report = q.is_qcr(biased_state)
    assert not report.verdict
    assert report.failing_conditions == ("condition_i",)
    assert abs(report.condition_i.max_deviation - 1 / 6) < 1e-12
    assert report.condition_i.off_support_mass <= 1e-12


def test_classically_correlated_state_fails_condition_ii(classical_state):
    report = q.is_qcr(classical_state)
    assert not report.verdict
    assert report.condition_i.passed
    assert report.failing_conditions == ("condition_ii",)
    assert abs(report.max_coalition_distance - 2.0) < 1e-9


def test_classical_state_against_explicit_purification(classical_state):
    # oracle: sum_i sqrt(1/2)|ii>|e_i> purifies it, and the environment alone
    # distinguishes the dealer's outcomes perfectly
    layout = classical_state.layout
    pure = q.purify(classical_state)
    assert pure.layout.subsystems[-1].dim == 2
    env = pure.layout.labels[-1]
    branch = {}
    for digit in (0, 1):
        prob, post = q.project_registers(pure, ["D.info"], (digit,))
        assert abs(prob - 0.5) < 1e-12
        gamma = q.partial_trace(post, [l for l in post.layout.labels if l != env])
        branch[digit] = gamma.density_matrix()
    overlap = np.real(np.trace(branch[0] @ branch[1]))
    assert abs(overlap) < 1e-12  # orthogonal environments
    assert abs(q.trace_norm(branch[0] - branch[1]) - 2.0) < 1e-9


def test_product_state_fails():
    layout = q.standard_layout(2, 1)
    s = q.QuantumState.basis_state(layout, (0, 0, 0, 0))
    report = q.is_qcr(s)
    assert not report.verdict
    assert "condition_i" in report.failing_conditions


def test_maximally_entangled_passes(max_ent):
    report = q.is_qcr(max_ent)
    assert report.verdict
    # a single player leaves only the eavesdropper coalition
    assert [c.dishonest for c in report.coalitions] == [()]


def test_builder_outputs_all_pass():
    rng = np.random.default_rng(30)
    states = [
        q.build_private_state(2),
        q.build_private_state(3),
        q.build_ghz_qcr(2, 2),
        q.build_ghz_qcr(3, 2),
        q.build_ghz_qcr(2, 3),
        q.random_private_state(2, (2, 2), rng),
        q.build_ghz_qcr(2, 2, q.ShieldSeed.random((2, 2, 2), rng)),
    ]
    for s in states:
        assert q.is_qcr(s).verdict


def test_condition_i_checks_off_support_mass():
    # uniform over every string, not just the digit-sum-0 set
    layout = q.standard_layout(2, 1)
    s = q.QuantumState(layout, matrix=np.eye(4) / 4)
    report = q.check_condition_i(s)
    assert not report.passed
    assert abs(report.off_support_mass - 0.5) < 1e-12
    assert abs(report.max_deviation - 0.25) < 1e-12


def test_condition_ii_invariant_under_honest_shield_unitary():
    rng = np.random.default_rng(31)
    base = q.build_ghz_qcr(2, 2, q.ShieldSeed.basis_zero((1, 2, 2)))
    twist = q.TwistingFamily({(1, 0, 1): X, (1, 1, 0): X}, targets=["A1.shield"])
    broken, report = q.build_twisted_qcr(base, twist)
    rotated = q.apply_unitary(broken, q.haar_unitary(2, rng), ["A2.shield"])
    after = q.check_condition_ii(rotated)
    before = {c.dishonest: c.max_distance for c in report.coalitions}
    for c in after:
        assert abs(c.max_distance - before[c.dishonest]) < 1e-10


def test_verdict_invariant_under_player_permutation(example_state):
    order = ["D.info", "D.shield", "A2.info", "A2.shield", "A1.info", "A1.shield"]
    swapped = example_state.permuted(order).relabeled(
        {"A1.info": "A2.info", "A1.shield": "A2.shield",
         "A2.info": "A1.info", "A2.shield": "A1.shield"}
    )
    report = q.is_qcr(swapped)
    assert report.verdict
    assert report.condition_i.max_deviation == 0.0


def test_coalition_monotonicity_three_players():
    s = noisy_three_player_state()
    reports = q.check_condition_ii(s, exhaustive=True)
    dist = {frozenset(c.dishonest): c.max_distance for c in reports}
    assert len(dist) == 7  # sizes 0, 1, 2 over three players
    assert max(dist.values()) > 0.01  # the check is not vacuous
    for small, big in itertools.product(dist, dist):
        if small < big:
            assert dist[small] <= dist[big] + 1e-10


def test_exhaustive_agrees_with_maximal_default():
    for s in (noisy_three_player_state(), q.build_ghz_qcr(2, 3)):
        fast = q.is_qcr(s)
        full = q.is_qcr(s, exhaustive=True)
        assert fast.verdict == full.verdict
        assert len(full.coalitions) > len(fast.coalitions)
        assert abs(fast.max_coalition_distance - full.max_coalition_distance) < 1e-10


def test_explicit_coalition_selection(example_state):
    reports = q.check_condition_ii(example_state, coalitions=[(), ("A1",)])
    assert [c.dishonest for c in reports] == [(), ("A1",)]
    with pytest.raises(ValueError):
        q.check_condition_ii(example_state, coalitions=[("A1", "A2")])
    with pytest.raises(ValueError):
        q.check_condition_ii(example_state, coalitions=[("A9",)])


def test_coalition_spec_validation():
    layout = q.standard_layout(2, 2)
    spec = q.CoalitionSpec.for_layout(layout, ["A2"])
    assert spec.honest == ("A1",)
    with pytest.raises(ValueError):
        q.CoalitionSpec(dishonest=("A1",), honest=("A1", "A2"))
    with pytest.raises(ValueError):
        q.CoalitionSpec(dishonest=("A1", "A2"), honest=())
    with pytest.raises(ValueError):
        q.CoalitionSpec.for_layout(layout, ["A1", "A1"])


def test_a_bare_string_names_one_player(example_state):
    layout = q.standard_layout(2, 2)
    assert q.CoalitionSpec.for_layout(layout, "A1").dishonest == ("A1",)
    assert (q.check_condition_ii(example_state, coalitions=["A1"])
            == q.check_condition_ii(example_state, coalitions=[("A1",)]))


def test_exhaustive_and_named_coalitions_are_refused_together(example_state):
    with pytest.raises(ValueError, match="^pass either exhaustive=True or coalitions, not both$"):
        q.check_condition_ii(example_state, exhaustive=True, coalitions=[("A1",)])


def test_report_serialization(example_state):
    doc = q.is_qcr(example_state).to_dict()
    assert doc["verdict"] is True
    assert doc["failing_conditions"] == []
    assert doc["condition_i"]["support_size"] == 4
    assert len(doc["condition_ii"]) == 2
    assert all(entry["passed"] for entry in doc["condition_ii"])


def test_verify_requires_crypto_layout():
    from qcrkit.registers import Subsystem, SystemLayout

    layout = SystemLayout((Subsystem("X", "D", "info", 2),))
    s = q.QuantumState(layout, vector=np.array([1, 0], dtype=complex))
    with pytest.raises(ValueError):
        q.is_qcr(s)


def tuple_loop_condition_i(state, tol=1e-9):
    # the support as a list of digit tuples, walked one string at a time
    info = state.layout.info_labels
    d = state.layout.qudit_dim
    probs = q.measurement_distribution(state, info)
    members = [s for s in itertools.product(range(d), repeat=len(info)) if sum(s) % d == 0]
    expected = 1.0 / len(members)
    max_dev = 0.0
    off = probs.copy()
    for m in members:
        max_dev = max(max_dev, abs(float(probs[m]) - expected))
        off[m] = 0.0
    off_mass = float(off.sum())
    return q.ConditionIReport(
        passed=(max_dev <= tol and off_mass <= tol),
        expected_probability=expected,
        max_deviation=max_dev,
        off_support_mass=off_mass,
        support_size=len(members),
    )


def test_condition_i_against_tuple_loop(biased_state):
    concentrated = q.QuantumState.basis_state(q.standard_layout(2, 2, (2, 2, 2)), (0,) * 6)
    off_support = q.QuantumState(q.standard_layout(2, 1), matrix=np.eye(4) / 4)
    for s in (q.build_ghz_qcr(2, 11), q.build_ghz_qcr(4, 5), biased_state, concentrated,
              off_support, noisy_three_player_state()):
        assert q.check_condition_i(s) == tuple_loop_condition_i(s)


def representation_fixtures():
    rng = np.random.default_rng(47)
    ghz_pure_sigma = q.build_ghz_qcr(2, 2, q.ShieldSeed.random((2, 2, 1), rng, pure=True))
    party, _ = q.build_twisted_qcr(ghz_pure_sigma, q.random_party_twist(ghz_pure_sigma.layout, rng))
    members = q.index_set(3, 0, 2).members
    keyed_by_string = q.TwistingFamily({m: q.haar_unitary(4, rng) for m in members})
    string_twist, _ = q.build_twisted_qcr(ghz_pure_sigma, keyed_by_string)
    layout = q.standard_layout(2, 1)
    biased = np.array([np.sqrt(1 / 3), 0, 0, np.sqrt(2 / 3)], dtype=complex)
    passing = {
        "example": q.build_example_state(),
        "ghz pure sigma": ghz_pure_sigma,
        "ghz(3,2)": q.build_ghz_qcr(3, 2),
        "private, Haar twist": q.random_private_state(2, (2, 2), rng),
        "party twist": party,
    }
    failing = {
        "biased": q.QuantumState(layout, vector=biased),
        "classical": q.QuantumState(layout, matrix=np.diag([0.5, 0, 0, 0.5]).astype(complex)),
        "noisy ghz(2,3)": noisy_three_player_state(),
        "full-string twist": string_twist,
    }
    return passing, failing


@pytest.mark.parametrize("exhaustive", [False, True])
def test_one_state_one_verdict_in_every_representation(exhaustive):
    # aim: the verdict is a property of the state, not of how it is held
    passing, failing = representation_fixtures()
    for name, s in {**passing, **failing}.items():
        density = s.to_density()
        reports = [q.is_qcr(r, exhaustive=exhaustive) for r in (s, density, q.purify(density))]
        first = reports[0]
        assert first.verdict == (name in passing), name
        for r in reports[1:]:
            assert r.verdict == first.verdict, name
            assert r.failing_conditions == first.failing_conditions, name
            assert [c.dishonest for c in r.coalitions] == [c.dishonest for c in first.coalitions]
            assert [c.passed for c in r.coalitions] == [c.passed for c in first.coalitions]
            for a, b in zip(r.coalitions, first.coalitions):
                assert abs(a.max_distance - b.max_distance) <= 1e-12, name
            for key in ("max_deviation", "off_support_mass"):
                gap = abs(getattr(r.condition_i, key) - getattr(first.condition_i, key))
                assert gap <= 1e-12, (name, key)


@pytest.mark.parametrize("name", ["example", "private d=3", "mixed ghz(2,3)", "key state s=4"])
def test_each_branch_factor_gives_the_adversary_state(name):
    # M M^dag is what the dishonest players and the environment hold once
    # the dealer has measured digit i, built here from the public API alone
    from test_ppt_key_state import ppt_key_state
    from qcrkit.verify import _coalition_factors

    rng = np.random.default_rng(2601)
    state = {
        "example": q.build_example_state,
        "private d=3": lambda: q.random_private_state(3, (3, 3), rng),
        "mixed ghz(2,3)": lambda: q.build_ghz_qcr(2, 3, q.ShieldSeed.random((2,) * 4, rng)),
        "key state s=4": lambda: ppt_key_state(4, 1.0),
    }[name]()
    reports = q.check_condition_ii(state, exhaustive=True)
    specs = [q.CoalitionSpec.for_layout(state.layout, c.dishonest) for c in reports]
    yielded = list(_coalition_factors(state, specs))
    assert len(yielded) == len(reports) == 2 ** state.layout.n_players - 1
    pure = q.purify(state)
    dealer = pure.layout.info_label("D")
    for (spec, factors, adv, cols), report in zip(yielded, reports):
        assert spec.dishonest == report.dishonest
        assert len(factors) == report.branches
        adversary = {s.label for s in pure.layout.subsystems
                     if s.kind == "env" or s.party in spec.dishonest}
        for i, m in factors:
            assert m.shape == (adv, cols)
            _, post = q.project_registers(pure, [dealer], [i])
            hidden = [l for l in post.layout.labels if l not in adversary]
            want = q.partial_trace(post, hidden).density_matrix()
            got = m @ m.conj().T
            assert np.max(np.abs(got - want)) <= 1e-12, (spec.dishonest, i)


def test_condition_ii_holds_about_three_purifications_at_its_peak():
    # each coalition's regrouped copy of the purification is dropped once its
    # branch factors are made, before their distances: about 4x without that
    rng = np.random.default_rng(2602)
    layout = q.standard_layout(2, 2, (2, 4, 4))
    pure = q.purify(q.QuantumState(layout, matrix=q.random_density(layout.total_dim, rng)))
    assert pure.vector.nbytes == 16 * 256**2
    tracemalloc.start()
    try:
        reports = q.check_condition_ii(pure)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(reports) == 2 and not any(r.passed for r in reports)
    assert peak <= 3.3 * pure.vector.nbytes
