"""Trace norms from factors against the SVD ``trace_norm`` they replace.

Condition (ii) and pure ``trace_distance`` take ||A A^dag - B B^dag||_1 from
the factors A and B (``states._gram_difference_norm``): from the QR triangle
of [A B] when the factors have fewer columns than rows, else from the
rows x rows difference. The public ``trace_norm``, a full SVD of the dense
difference, is the oracle throughout.
"""
import itertools
import logging
import tracemalloc

import numpy as np
import pytest

import qcrkit as q
from qcrkit import defaults, states
from qcrkit.registers import DEALER


def oracle_norm(a, b):
    return q.trace_norm(a @ a.conj().T - b @ b.conj().T)


def random_factor(rng, rows, cols, rank=None):
    """A complex (rows, cols) factor of the given rank, scaled to unit Gram trace."""
    rank = min(rows, cols) if rank is None else rank
    left = rng.normal(size=(rows, rank)) + 1j * rng.normal(size=(rows, rank))
    right = rng.normal(size=(rank, cols)) + 1j * rng.normal(size=(rank, cols))
    m = left @ right
    return m / np.linalg.norm(m)


# (rows, ka, kb): the first four take the QR route (ka + kb < rows), the
# rest the dense one
SHAPES = [(64, 2, 2), (64, 1, 5), (33, 16, 16), (7, 3, 2), (8, 4, 4), (6, 5, 4), (1, 1, 1), (4, 9, 1)]


@pytest.mark.parametrize("rows, ka, kb", SHAPES)
def test_kernel_matches_svd_oracle(rows, ka, kb):
    side = states._gram_side(rows, ka + kb)
    assert side == ("qr" if ka + kb < rows else "dense")
    rng = np.random.default_rng(500 + rows * 100 + ka * 10 + kb)
    for _ in range(20):
        a = random_factor(rng, rows, ka)
        b = random_factor(rng, rows, kb)
        assert abs(states._gram_difference_norm(a, b) - oracle_norm(a, b)) <= 1e-12


@pytest.mark.parametrize("rows, ka, kb", SHAPES)
def test_kernel_on_rank_deficient_identical_and_orthogonal_factors(rows, ka, kb):
    rng = np.random.default_rng(600 + rows * 100 + ka * 10 + kb)
    a = random_factor(rng, rows, ka, rank=1)
    b = random_factor(rng, rows, kb, rank=1)
    assert abs(states._gram_difference_norm(a, b) - oracle_norm(a, b)) <= 1e-12
    # identical factors, and the same Gram matrix from a rotated factor
    assert states._gram_difference_norm(a, a) <= 1e-12
    u = q.haar_unitary(ka, rng)
    assert states._gram_difference_norm(a, a @ u) <= 1e-12
    # factors on orthogonal row sets: the trace norm is the sum of both traces
    if rows >= 2:
        half = rows // 2
        a0, b0 = a.copy(), b.copy()
        a0[half:] = 0.0
        b0[:half] = 0.0
        want = np.linalg.norm(a0) ** 2 + np.linalg.norm(b0) ** 2
        assert abs(states._gram_difference_norm(a0, b0) - want) <= 1e-12
        assert abs(states._gram_difference_norm(a0, b0) - oracle_norm(a0, b0)) <= 1e-12


# -- condition (ii) against partial_trace + trace_norm ------------------


def oracle_condition_ii(state, coalitions):
    """Per coalition: {dealer digit pair: distance}, from dense adversary densities."""
    pure = state if state.is_pure else q.purify(state)
    dbar = pure.layout.info_label(DEALER)
    branches = []
    for i in range(pure.layout.subsystem(dbar).dim):
        p, branch = q.project_registers(pure, [dbar], [i])
        if p > defaults.PROB_FLOOR:
            branches.append((i, branch))
    out = []
    for coalition in coalitions:
        hidden = [
            s.label for s in pure.layout.subsystems
            if s.kind != "env" and s.party not in set(coalition) and s.label != dbar
        ]
        gammas = [(i, q.partial_trace(b, hidden).density_matrix()) for i, b in branches]
        out.append({
            (i, j): q.trace_norm(ga - gb)
            for (i, ga), (j, gb) in itertools.combinations(gammas, 2)
        })
    return out


def acceptance_fixtures():
    g = q.build_ghz_qcr(2, 3)
    diag = np.zeros(g.dim)
    for m in q.index_set(4, 0, 2).members:
        diag[np.ravel_multi_index((m[0], 0, m[1], 0, m[2], 0, m[3], 0), g.layout.dims)] = 0.25 / 8
    noisy = q.QuantumState(g.layout, matrix=0.75 * g.density_matrix() + np.diag(diag))
    classical = np.zeros((4, 4))
    classical[0, 0] = classical[3, 3] = 0.5
    return [
        q.build_example_state(),
        q.maximally_entangled(2),
        q.maximally_entangled(3),
        q.build_ghz_qcr(2, 3),
        q.build_ghz_qcr(3, 2),
        q.build_ghz_qcr(2, 2, q.ShieldSeed.random((2, 1, 1), np.random.default_rng(3))),
        q.random_private_state(2, (2, 2), np.random.default_rng(8001)),
        q.random_private_state(3, (3, 3), np.random.default_rng(8002)),
        noisy,
        q.QuantumState(q.standard_layout(2, 1), matrix=classical),
    ]


def random_states(count, seed):
    """Seeded private, GHZ, twisted, noisy and composed states, vector and density."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        kind = k % 5
        if kind == 0:
            d = int(rng.integers(2, 4))
            yield q.random_private_state(d, (2, 2), rng, pure_seed=bool(rng.integers(2)))
        elif kind == 1:
            d, n = int(rng.integers(2, 4)), int(rng.integers(1, 4))
            seed_dims = [int(x) for x in rng.integers(1, 3, size=n + 1)]
            yield q.build_ghz_qcr(d, n, q.ShieldSeed.random(seed_dims, rng, pure=bool(rng.integers(2))))
        elif kind == 2:
            base = q.build_ghz_qcr(2, 3, q.ShieldSeed.basis_zero((2, 2, 1, 2)))
            if rng.integers(2):
                yield q.build_twisted_qcr(base, q.random_party_twist(base.layout, rng))[0]
            else:
                # a twist keyed by the full info string: usually not a resource state
                blocks = {m: q.haar_unitary(8, rng) for m in q.index_set(4, 0, 2).members}
                yield q.apply_controlled(base, base.layout.info_labels, base.layout.shield_labels, blocks)
        elif kind == 3:
            g = q.build_ghz_qcr(2, 2, q.ShieldSeed.random([2, 2, 2], rng))
            noise = q.random_density(g.dim, rng, rank=int(rng.integers(1, 9)))
            yield q.QuantumState(g.layout, matrix=0.7 * g.density_matrix() + 0.3 * noise)
        else:
            a = q.random_private_state(2, (2, 1), rng)
            b = q.build_ghz_qcr(2, 2, q.ShieldSeed.random([1, 2, 1], rng, pure=True))
            yield q.compose(a, b, check=False)[0]


def test_condition_ii_matches_dense_oracle():
    cases = acceptance_fixtures() + list(random_states(100, 501))
    assert any(s.is_pure for s in cases) and not all(s.is_pure for s in cases)
    verdicts = set()
    for state in cases:
        report = q.is_qcr(state, exhaustive=True)
        verdicts.add(report.verdict)
        oracle = oracle_condition_ii(state, [c.dishonest for c in report.coalitions])
        for c, pairs in zip(report.coalitions, oracle):
            want = max(pairs.values(), default=0.0)
            assert abs(c.max_distance - want) <= 1e-12
            assert c.passed == (want <= report.tol)
            assert (c.worst_pair is None) == (not pairs)
            if pairs:
                assert abs(pairs[c.worst_pair] - want) <= 1e-12
    assert verdicts == {True, False}


def test_condition_ii_allocates_no_adversary_density():
    state = q.build_ghz_qcr(2, 9)
    # a maximal coalition holds 8 info registers: adversary dim 256
    tracemalloc.start()
    try:
        reports = q.check_condition_ii(state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(r.passed for r in reports)
    assert peak < 256 * 256 * 16


def test_condition_ii_logs_one_line_per_coalition(caplog, example_state, classical_state):
    caplog.set_level(logging.DEBUG, logger="qcrkit")
    q.check_condition_ii(q.build_ghz_qcr(2, 4))
    q.check_condition_ii(example_state, coalitions=[()])
    q.check_condition_ii(classical_state)
    lines = [r for r in caplog.records if r.getMessage().startswith("condition ii:")]
    assert all(r.name == "qcrkit" and r.levelno == logging.DEBUG for r in lines)
    assert all(isinstance(r.args, tuple) and len(r.args) == 5 for r in lines)
    # GHZ(2, 4): three info registers (8 dims) against the honest player's
    # two, so the 8 x 4 pair of factors goes through QR; the example with no
    # dishonest player keeps only its purifying environment (1 dim) against
    # 32 hidden dims; the classical state's environment (2 dims) records
    # the dealer's digit
    heads = [r.getMessage().rsplit(", max distance ", 1) for r in lines]
    assert [h for h, _ in heads] == [
        "condition ii: coalition A2,A3,A4, adversary dim 8, factor columns 2, path qr",
        "condition ii: coalition A1,A3,A4, adversary dim 8, factor columns 2, path qr",
        "condition ii: coalition A1,A2,A4, adversary dim 8, factor columns 2, path qr",
        "condition ii: coalition A1,A2,A3, adversary dim 8, factor columns 2, path qr",
        "condition ii: coalition -, adversary dim 1, factor columns 32, path dense",
        "condition ii: coalition -, adversary dim 2, factor columns 2, path dense",
    ]
    distances = [float(d) for _, d in heads]
    assert max(distances[:-1]) < 1e-12
    assert abs(distances[-1] - 2.0) < 1e-9


# -- trace_distance ----------------------------------------------------


def test_pure_trace_distance_of_near_identical_states():
    rng = np.random.default_rng(502)
    for dim, eps in ((4, 1e-8), (64, 3e-8), (1024, 1e-7), (1024, 1e-9)):
        layout = q.standard_layout(2, 1, (dim // 4, 1))
        a = q.random_pure(dim, rng)
        b = a + eps * (rng.normal(size=dim) + 1j * rng.normal(size=dim))
        b /= np.linalg.norm(b)
        sa = q.QuantumState(layout, vector=a)
        sb = q.QuantumState(layout, vector=b)
        oracle = q.trace_norm(np.outer(a, a.conj()) - np.outer(b, b.conj()))
        got = q.trace_distance(sa, sb)
        assert abs(got - oracle) <= 1e-12
        assert abs(q.trace_distance(sb, sa) - oracle) <= 1e-12
        # the closed form loses most of its digits at these distances
        closed = 2 * np.sqrt(max(0.0, 1 - abs(np.vdot(a, b)) ** 2))
        assert abs(closed - oracle) > 1e-12


def test_density_trace_distance_matches_oracle():
    rng = np.random.default_rng(503)
    layout = q.standard_layout(2, 2)
    for k in range(20):
        rank = int(rng.integers(1, layout.total_dim + 1))
        a = q.QuantumState(layout, matrix=q.random_density(layout.total_dim, rng, rank=rank))
        b = q.QuantumState(layout, vector=q.random_pure(layout.total_dim, rng))
        if k % 2:
            b = b.to_density()
        oracle = q.trace_norm(a.matrix - b.density_matrix())
        assert abs(q.trace_distance(a, b) - oracle) <= 1e-12
        assert abs(q.trace_distance(b, a) - oracle) <= 1e-12
    zero = q.QuantumState.basis_state(layout, [0] * len(layout)).to_density()
    assert q.trace_distance(zero, zero) == 0.0
