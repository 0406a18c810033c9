"""purify's pivoted-Cholesky factor against the eigendecomposition it replaces.

The eigh path (``states._eigh_factor``) stays in purify as the fallback for
an uncertified factor, and serves here as the oracle: the factor must
reconstruct the density, find the same rank, and give the verifier the
same verdicts and coalition distances.
"""
import logging
import tracemalloc

import numpy as np
import pytest

import qcrkit as q
from qcrkit import defaults, states
from qcrkit.registers import Subsystem, SystemLayout


def on_one_register(matrix):
    layout = SystemLayout((Subsystem("X", "D", "shield", len(matrix)),))
    return q.QuantumState(layout, matrix=matrix, validate=False)


def test_factor_reconstructs_density_at_eigh_rank():
    rng = np.random.default_rng(400)
    for dim in range(1, 65):
        ranks = {1, 2, dim // 2, dim - 1, dim, int(rng.integers(1, dim + 1))}
        for rank in sorted(r for r in ranks if 1 <= r <= dim):
            rho = q.random_density(dim, rng, rank=rank)
            a = states._cholesky_factor(rho, defaults.RANK_EPS)
            assert a is not None
            oracle = states._eigh_factor(rho, defaults.RANK_EPS)
            assert a.shape == oracle.shape == (dim, rank)
            np.testing.assert_allclose(a @ a.conj().T, rho, rtol=0, atol=1e-12)
            pure = q.purify(on_one_register(rho))
            np.testing.assert_array_equal(pure.vector, a.reshape(-1))


def random_states(count, seed):
    """Seeded private, GHZ-type, composed, twisted and noisy density states."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        kind = k % 5
        if kind == 0:
            d = int(rng.integers(2, 4))
            yield q.random_private_state(d, (2, 2), rng, pure_seed=bool(rng.integers(2)))
        elif kind == 1:
            n = int(rng.integers(1, 4))
            yield q.build_ghz_qcr(2, n, q.ShieldSeed.random([2] * (n + 1), rng))
        elif kind == 2:
            a = q.random_private_state(2, (2, 1), rng)
            b = q.build_ghz_qcr(2, 2, q.ShieldSeed.random([1, 2, 1], rng))
            yield q.compose(a, b, check=False)[0]
        elif kind == 3:
            base = q.build_ghz_qcr(2, 2, q.ShieldSeed.random([2, 2, 2], rng))
            # a twist keyed by the full info string: usually not a resource state
            blocks = {m: q.haar_unitary(8, rng) for m in q.index_set(3, 0, 2).members}
            yield q.apply_controlled(base, base.layout.info_labels, base.layout.shield_labels, blocks)
        else:
            g = q.build_ghz_qcr(2, 2, q.ShieldSeed.random([2, 2, 2], rng))
            noise = q.random_density(g.dim, rng, rank=int(rng.integers(1, 9)))
            yield q.QuantumState(g.layout, matrix=0.7 * g.density_matrix() + 0.3 * noise)


def acceptance_fixtures():
    g = q.build_ghz_qcr(2, 3)
    diag = np.zeros(g.dim)
    for m in q.index_set(4, 0, 2).members:
        diag[np.ravel_multi_index((m[0], 0, m[1], 0, m[2], 0, m[3], 0), g.layout.dims)] = 0.25 / 8
    noisy = q.QuantumState(g.layout, matrix=0.75 * g.density_matrix() + np.diag(diag))
    classical = np.zeros((4, 4))
    classical[0, 0] = classical[3, 3] = 0.5
    return [
        q.maximally_entangled(2),
        q.maximally_entangled(3),
        q.build_ghz_qcr(2, 2, q.ShieldSeed.random((2, 1, 1), np.random.default_rng(3))),
        q.random_private_state(2, (2, 2), np.random.default_rng(8001)),
        q.random_private_state(3, (3, 3), np.random.default_rng(8002)),
        noisy,
        q.QuantumState(q.standard_layout(2, 1), matrix=classical),
    ]


def test_is_qcr_matches_eigh_path(monkeypatch, caplog):
    cases = acceptance_fixtures() + list(random_states(100, 401))
    caplog.set_level(logging.DEBUG, logger="qcrkit")
    fast = [q.is_qcr(s, exhaustive=True) for s in cases]
    paths = [m.rsplit(" ", 1)[-1] for m in caplog.messages if m.startswith("purify:")]
    assert len(paths) == len(cases) and set(paths) == {"factor"}
    monkeypatch.setattr(states, "_cholesky_factor", lambda *args: None)
    slow = [q.is_qcr(s, exhaustive=True) for s in cases]
    verdicts = [r.verdict for r in slow]
    assert True in verdicts and False in verdicts
    for a, b in zip(fast, slow):
        assert a.verdict == b.verdict
        assert [c.dishonest for c in a.coalitions] == [c.dishonest for c in b.coalitions]
        assert [c.passed for c in a.coalitions] == [c.passed for c in b.coalitions]
        for ca, cb in zip(a.coalitions, b.coalitions):
            assert abs(ca.max_distance - cb.max_distance) <= 1e-12


def indefinite_pair(dim, k):
    """I/dim with rows k, k+1 coupled so that one eigenvalue is -0.2/dim."""
    rho = np.eye(dim) / dim
    rho[k, k + 1] = rho[k + 1, k] = 1.2 / dim
    return rho


@pytest.mark.parametrize("matrix, message", [
    # eigenvalues 1.1 and -0.1: one pivot leaves residual diagonal -0.22
    ([[0.5, 0.6], [0.6, 0.5]], "eigenvalue"),
    ([[1.5, 0.0], [0.0, -0.5]], "eigenvalue"),
    ([[0.0, 0.0], [0.0, 0.0]], "numerically zero"),
    # the residual is summed in row blocks; this defect is far from row 0
    (indefinite_pair(512, 300), "eigenvalue"),
], ids=["2x2", "diagonal", "zero", "512"])
def test_uncertified_factor_falls_back_to_eigh_and_refuses(matrix, message):
    rho = np.array(matrix, dtype=complex)
    assert states._cholesky_factor(rho, defaults.RANK_EPS) is None
    with pytest.raises(ValueError, match=message):
        q.purify(on_one_register(rho))


def test_large_low_rank_states_certify_without_eigh(monkeypatch):
    def no_eigh(*args, **kwargs):
        raise AssertionError("numpy.linalg.eigh was called")

    expansion = q.expand_from_private([q.maximally_entangled(2)] * 5, check=False)
    rng = np.random.default_rng(402)
    composite, _ = q.compose(q.random_private_state(2, (2, 2), rng), q.build_example_state(), check=False)
    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    for state, rank in ((expansion, 1), (composite, 4)):
        assert state.dim == 1024 and not state.is_pure
        assert q.purify(state).layout.subsystems[-1].dim == rank
        assert q.is_qcr(state).verdict


def test_purify_peak_memory_below_two_densities():
    # the Hermitian check runs in row strips; the residual check's one
    # block of 2^16 entries is the largest temporary at 256 dims
    rho = q.random_density(256, np.random.default_rng(403), rank=4)
    state = on_one_register(rho)
    tracemalloc.start()
    try:
        pure = q.purify(state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert pure.layout.subsystems[-1].dim == 4
    assert peak < 1.5 * rho.nbytes


def test_purify_logs_dimension_rank_and_path(caplog, example_state):
    caplog.set_level(logging.DEBUG, logger="qcrkit")
    q.purify(on_one_register(q.random_density(4, np.random.default_rng(5), rank=3)))
    # with rank_eps 0.3 one pivot leaves 0.25 + 0.25 behind, so the factor
    # is not certified and the eigenvalues above 0.3 are kept
    q.purify(on_one_register(np.diag([0.5, 0.25, 0.25])), rank_eps=0.3)
    q.purify(example_state)
    # rows 1 and 3 are zero: the support is the other three rows
    q.purify(on_one_register(np.diag([0.5, 0.0, 0.25, 0.0, 0.25])))
    q.purify(q.random_private_state(2, (2, 2), np.random.default_rng(6)))
    assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
        ("qcrkit", logging.DEBUG, "purify: dim 4, support 4, rank 3, path factor"),
        ("qcrkit", logging.DEBUG, "purify: dim 3, support 3, rank 1, path eigh"),
        ("qcrkit", logging.DEBUG, "purify: dim 5, support 3, rank 3, path factor"),
        ("qcrkit", logging.DEBUG, "purify: dim 16, support 8, rank 4, path factor"),
    ]
