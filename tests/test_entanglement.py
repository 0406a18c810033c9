import itertools
import logging

import numpy as np
import pytest

import qcrkit as q
from qcrkit.registers import Subsystem, SystemLayout


def two_party_shield_layout(da, db):
    return SystemLayout((
        Subsystem("D.a", "D", "shield", da),
        Subsystem("A1.a", "A1", "shield", db),
    ))


def random_density(dim, rng):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def test_ppt_product_state_has_no_negativity():
    layout = q.standard_layout(2, 1)
    state = q.QuantumState.basis_state(layout, (0, 0, 0, 0))
    cut = q.CutSpec.dealer_cut(layout, ["A1"])
    result = q.ppt_check(state, cut)
    assert result.ppt
    assert abs(result.min_eigenvalue) < 1e-12


def test_a_bare_string_is_one_name_in_a_cut(example_state):
    layout = example_state.layout
    pairs = [(q.CutSpec.dealer_cut(layout, "A1"), q.CutSpec.dealer_cut(layout, ["A1"])),
             (q.CutSpec.from_side_two(layout, "A1.info"),
              q.CutSpec.from_side_two(layout, ["A1.info"]))]
    assert pairs[1][0].side_two == ("A1.info",)
    for bare, listed in pairs:
        assert bare == listed
        for state in (example_state, example_state.to_density()):
            assert q.ppt_check(state, bare) == q.ppt_check(state, listed)


def test_ppt_maximally_entangled_hits_minus_half(max_ent):
    cut = q.CutSpec.dealer_cut(max_ent.layout, ["A1"])
    result = q.ppt_check(max_ent, cut)
    assert not result.ppt
    assert abs(result.min_eigenvalue - (-0.5)) < 1e-10


def test_ppt_ghz_dealer_cuts_negative():
    g = q.build_ghz_qcr(2, 2)
    report = q.all_dealer_cuts_ppt(g)
    assert not report.all_ppt
    assert len(report.cuts) == 3
    for result in report.cuts:
        assert result.min_eigenvalue < -0.2


@pytest.mark.parametrize("seed", range(10))
def test_ppt_tensor_of_separable_factors(seed):
    rng = np.random.default_rng(200 + seed)
    layout = SystemLayout((
        Subsystem("D.a", "D", "shield", 2),
        Subsystem("A1.a", "A1", "shield", 2),
        Subsystem("D.b", "D", "shield", 2),
        Subsystem("A2.b", "A2", "shield", 2),
    ))
    rho = np.kron(q.random_separable_density(2, 2, rng),
                  q.random_separable_density(2, 2, rng))
    state = q.QuantumState(layout, matrix=rho)
    report = q.all_dealer_cuts_ppt(state)
    assert report.all_ppt
    assert len(report.cuts) == 3
    for result in report.cuts:
        assert result.min_eigenvalue >= -1e-9


def test_ppt_cut_sides_are_symmetric(max_ent):
    layout = max_ent.layout
    one = q.ppt_check(max_ent, q.CutSpec(("D.info", "D.shield"),
                                         ("A1.info", "A1.shield")))
    two = q.ppt_check(max_ent, q.CutSpec(("A1.info", "A1.shield"),
                                         ("D.info", "D.shield")))
    assert abs(one.min_eigenvalue - two.min_eigenvalue) < 1e-10


def test_partial_transpose_keeps_trace_and_hermiticity():
    rng = np.random.default_rng(201)
    layout = two_party_shield_layout(2, 3)
    state = q.QuantumState(layout, matrix=random_density(6, rng))
    pt = q.partial_transpose(state, ["A1.a"])
    assert abs(np.trace(pt) - 1.0) < 1e-12
    assert np.max(np.abs(pt - pt.conj().T)) < 1e-12


def test_cut_spec_validation():
    layout = q.standard_layout(2, 2)
    with pytest.raises(ValueError):
        q.CutSpec((), ("A1.info",)).validate(layout)
    with pytest.raises(ValueError):
        q.CutSpec(("D.info",), ("D.info", "A1.info")).validate(layout)
    with pytest.raises(ValueError):
        # leaves A2 uncovered
        q.CutSpec(("D.info", "D.shield"), ("A1.info", "A1.shield")).validate(layout)
    with pytest.raises(ValueError):
        q.CutSpec(("D.info",), ("A1.info", "A9.info")).validate(layout)


def test_all_dealer_cuts_counts_subsets():
    g = q.build_ghz_qcr(2, 3)
    report = q.all_dealer_cuts_ppt(g)
    assert len(report.cuts) == 7
    sides = {tuple(sorted(c.side_two)) for c in report.cuts}
    assert ("A1.info", "A1.shield") in sides
    assert len(sides) == 7


@pytest.mark.parametrize("density", [False, True])
def test_ppt_report_takes_a_generator_of_cuts(example_state, density):
    state = example_state.to_density() if density else example_state
    cuts = [q.CutSpec.dealer_cut(state.layout, p) for p in (["A1"], ["A1", "A2"])]
    want = q.ppt_report(state, cuts).to_dict()
    assert q.ppt_report(state, (c for c in cuts)).to_dict() == want
    assert want["all_ppt"] is False and len(want["cuts"]) == 2


def test_ppt_report_serialization(max_ent):
    report = q.all_dealer_cuts_ppt(max_ent)
    doc = report.to_dict()
    assert doc["all_ppt"] is False
    assert len(doc["cuts"]) == 1
    entry = doc["cuts"][0]
    assert set(entry) == {"side_one", "side_two", "min_eigenvalue", "ppt"}



def test_ppt_and_density_trace_distance_log_their_path(caplog, example_state):
    caplog.set_level(logging.DEBUG, logger="qcrkit")
    dense = example_state.to_density()
    cut = q.CutSpec.dealer_cut(example_state.layout, ["A1"])
    separable = q.QuantumState(two_party_shield_layout(2, 2),
                               matrix=q.random_separable_density(2, 2, np.random.default_rng(205)))
    q.ppt_check(example_state, cut)
    q.ppt_check(dense, cut)
    q.ppt_check(separable, q.CutSpec(("D.a",), ("A1.a",)))
    q.trace_distance(dense, q.build_example_state().to_density())
    q.trace_distance(example_state, example_state)
    records = [r for r in caplog.records if r.name == "qcrkit"]
    assert all(r.levelno == logging.DEBUG for r in records)
    lines = [r.getMessage() for r in records]
    # the two vectors that become densities log that change first
    assert [m for m in lines if m.startswith("to_density:")] == ["to_density: dim 64, support 4"] * 2
    lines = [m for m in lines if not m.startswith("to_density:")]
    assert len(lines) == 4
    assert lines[0] == "ppt: side two A1.info,A1.shield, dim 64, path pure, svd 4x16"
    assert lines[1].startswith("ppt: side two A1.info,A1.shield, dim 64, path blocks, blocks ")
    assert lines[2] == "ppt: side two A1.a, dim 4, path dense, blocks 1, largest 4"
    # equal states differ by exact zeros: 64 single-entry blocks
    assert lines[3] == "trace_distance: dim 64, path blocks, blocks 64, largest 1"

# -- trace distance ------------------------------------------------------


def test_trace_distance_basics():
    layout = q.standard_layout(2, 1)
    zero = q.QuantumState.basis_state(layout, (0, 0, 0, 0))
    one = q.QuantumState.basis_state(layout, (1, 0, 1, 0))
    assert q.trace_distance(zero, zero) == 0.0
    assert abs(q.trace_distance(zero, one) - 2.0) < 1e-12
    with pytest.raises(ValueError):
        q.trace_distance(zero, q.maximally_entangled(3))


@pytest.mark.parametrize("density", [False, True])
def test_trace_distance_refuses_registers_of_other_dimensions(density):
    # equal totals, but digit 1 of the second register is one of four values in
    # a and one of two in b: the flat indices mean different things
    a, b = (q.QuantumState.basis_state(two_party_shield_layout(*dims), (0, 1))
            for dims in ((2, 4), (4, 2)))
    if density:
        a = a.to_density()
    with pytest.raises(ValueError, match=r"^register dimensions differ: \[2, 4\] vs \[4, 2\]$"):
        q.trace_distance(a, b)


def test_trace_distance_leaves_dimension_one_registers_out():
    pair = q.maximally_entangled(2)
    assert pair.layout.dims == (2, 1, 2, 1)
    bare = q.QuantumState(two_party_shield_layout(2, 2), matrix=pair.density_matrix())
    assert q.trace_distance(pair, bare) == 0.0
    assert q.trace_distance(bare, pair) == 0.0
    bell = q.QuantumState(two_party_shield_layout(2, 2), vector=np.array([1, 0, 0, 1]) / np.sqrt(2))
    assert q.trace_distance(bell, pair) <= 1e-15


def test_trace_distance_contracts_under_partial_trace():
    rng = np.random.default_rng(202)
    layout = two_party_shield_layout(2, 2)
    for _ in range(20):
        a = q.QuantumState(layout, matrix=random_density(4, rng))
        b = q.QuantumState(layout, matrix=random_density(4, rng))
        whole = q.trace_distance(a, b)
        part = q.trace_distance(q.partial_trace(a, ["A1.a"]),
                                q.partial_trace(b, ["A1.a"]))
        assert part <= whole + 1e-12


def test_trace_distance_telescoping_bound():
    rng = np.random.default_rng(203)
    layout = two_party_shield_layout(2, 2)
    for _ in range(20):
        s1, s2, t1, t2 = (random_density(2, rng) for _ in range(4))
        left = q.QuantumState(layout, matrix=np.kron(s1, s2))
        right = q.QuantumState(layout, matrix=np.kron(t1, t2))
        lhs = q.trace_distance(left, right)
        rhs = q.trace_norm(s1 - t1) + q.trace_norm(s2 - t2)
        assert lhs <= rhs + 1e-10


def test_trace_distance_unitary_invariance():
    rng = np.random.default_rng(204)
    layout = two_party_shield_layout(2, 2)
    a = q.QuantumState(layout, matrix=random_density(4, rng))
    b = q.QuantumState(layout, matrix=random_density(4, rng))
    u = q.haar_unitary(4, rng)
    ua = q.QuantumState(layout, matrix=u @ a.matrix @ u.conj().T)
    ub = q.QuantumState(layout, matrix=u @ b.matrix @ u.conj().T)
    assert abs(q.trace_distance(a, b) - q.trace_distance(ua, ub)) < 1e-10


# -- one cut constructor, checked against the two formulas it replaced ----


def old_dealer_cut(layout, players_two):
    two = set(players_two)
    side_two = tuple(s.label for s in layout.subsystems if s.kind != "env" and s.party in two)
    side_one = tuple(s.label for s in layout.subsystems if s.kind != "env" and s.party not in two)
    return side_one, side_two


def old_cli_cut(layout, side_two):
    two = set(side_two)
    side_one = tuple(s.label for s in layout.subsystems if s.kind != "env" and s.label not in two)
    return side_one, tuple(side_two)


def cut_layouts():
    rng = np.random.default_rng(1201)
    shielded = q.expand_from_private(
        [q.random_private_state(2, (2, 1), rng) for _ in range(3)], check=False
    )
    density = q.random_private_state(2, (2, 2), rng)
    return {
        "example": q.build_example_state().layout,
        "ghz(2,3)": q.build_ghz_qcr(2, 3).layout,
        "expand x3 shielded": shielded.layout,
        "purified density": q.purify(density).layout,
        "purified twice": q.purify(q.purify(density)).layout,
    }


@pytest.mark.parametrize("name", list(cut_layouts()))
def test_cut_constructor_matches_the_old_formulas(name):
    layout = cut_layouts()[name]
    players = layout.players
    subsets = [
        combo for r in range(1, len(players) + 1) for combo in itertools.permutations(players, r)
    ]
    assert subsets
    for combo in subsets:
        cut = q.CutSpec.dealer_cut(layout, combo)
        assert (cut.side_one, cut.side_two) == old_dealer_cut(layout, combo)
        cut.validate(layout)
        for side_two in (cut.side_two, cut.side_two[::-1]):
            cut = q.CutSpec.from_side_two(layout, side_two)
            assert (cut.side_one, cut.side_two) == old_cli_cut(layout, side_two)
    if layout.env_labels:
        assert not set(layout.env_labels) & set(layout.non_env_labels)

