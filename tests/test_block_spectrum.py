"""The block-by-block Hermitian spectrum against dense eigvalsh.

``entanglement._block_spectra`` splits a Hermitian matrix into the connected
components of its exactly nonzero lower-triangle entries and solves the
blocks; ``ppt_check`` on a pure vector reads the minimum eigenvalue off the
Schmidt coefficients. Every case here is held to dense ``np.linalg.eigvalsh``
of the same matrix within 1e-12, plus two memory bounds: the component
search forms no dim x dim index list, and a pure PPT check forms no density.
"""
import itertools
import time
import tracemalloc

import numpy as np
import pytest

import qcrkit as q
from qcrkit import entanglement
from qcrkit.registers import Subsystem, SystemLayout


def random_hermitian(n, rng):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return m + m.conj().T


def block_spectrum(h):
    """Eigenvalues, block count and largest block of h, read through the identity map."""
    return entanglement._block_spectra(h, np.zeros((1, h.shape[0]), dtype=np.intp))[0]


def permuted(h, rng):
    p = rng.permutation(h.shape[0])
    return h[np.ix_(p, p)]


def assert_matches_dense(h):
    got, blocks, largest = block_spectrum(h)
    want = np.linalg.eigvalsh(h)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12
    return blocks, largest


@pytest.fixture(scope="module")
def composites():
    rng = np.random.default_rng(71)
    example = q.build_example_state()
    a, _ = q.compose(q.random_private_state(2, (2, 2), rng), example, check=False)
    b, _ = q.compose(q.random_private_state(2, (2, 2), rng), example, check=False)
    return a, b


def test_dealer_cuts_of_a_1024_dim_composite(composites):
    a, _ = composites
    assert a.dim == 1024 and not a.is_pure
    players = a.layout.players
    cuts = [c for k in range(1, len(players) + 1) for c in itertools.combinations(players, k)]
    assert len(cuts) == 7
    for players_two in cuts:
        cut = q.CutSpec.dealer_cut(a.layout, players_two)
        blocks, largest = assert_matches_dense(q.partial_transpose(a, cut.side_two))
        assert blocks > 100 and largest <= 32


def test_difference_of_two_composites(composites):
    a, b = composites
    blocks, largest = assert_matches_dense(a.matrix - b.matrix)
    assert blocks > 100 and largest <= 32
    want = float(np.abs(np.linalg.eigvalsh(a.matrix - b.matrix)).sum())
    assert abs(q.trace_distance(a, b) - want) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 16, 64, 200])
def test_random_dense_hermitian_is_one_dense_block(n):
    rng = np.random.default_rng(72 + n)
    assert assert_matches_dense(random_hermitian(n, rng)) == (1, n)


def test_permuted_block_diagonal_with_block_sizes_1_to_32():
    rng = np.random.default_rng(73)
    sizes = list(range(1, 33)) + [5, 5, 17]
    n = sum(sizes)
    h = np.zeros((n, n), dtype=np.complex128)
    start = 0
    for k in sizes:
        h[start:start + k, start:start + k] = random_hermitian(k, rng)
        start += k
    h = permuted(h, rng)
    assert assert_matches_dense(h) == (len(sizes), 32)


@pytest.mark.parametrize("n", [1024, 4096])
def test_permuted_path_graph_is_one_component(n):
    # a path visits the nodes in random order, so labels that only spread
    # to neighbours would need about n rounds; the union-find needs few
    rng = np.random.default_rng(74)
    p = rng.permutation(n)
    h = np.zeros((n, n), dtype=np.complex128)
    h[p[1:], p[:-1]] = rng.normal(size=n - 1) + 1j * rng.normal(size=n - 1)
    h[p[:-1], p[1:]] = h[p[1:], p[:-1]].conj()
    start = time.perf_counter()
    root = entanglement._components(h, np.zeros(n, dtype=np.intp))
    assert time.perf_counter() - start < 5.0
    assert not root.any()
    if n == 1024:
        assert assert_matches_dense(h) == (1, n)
    # cut the path in two: the halves are the components, rooted at their minima
    h[p[n // 2], p[n // 2 - 1]] = h[p[n // 2 - 1], p[n // 2]] = 0.0
    root = entanglement._components(h, np.zeros(n, dtype=np.intp))
    halves = (p[:n // 2], p[n // 2:])
    for half in halves:
        assert set(root[half].tolist()) == {int(half.min())}


def test_tiny_entries_are_edges():
    rng = np.random.default_rng(75)
    h = np.zeros((8, 8), dtype=np.complex128)
    h[:4, :4] = random_hermitian(4, rng)
    h[4:, 4:] = random_hermitian(4, rng)
    assert assert_matches_dense(h) == (2, 4)
    h[6, 1] = 1e-300
    h[1, 6] = 1e-300
    assert assert_matches_dense(h) == (1, 8)
    h[6, 1] = h[1, 6] = -0.0  # a signed zero is no edge
    assert assert_matches_dense(h) == (2, 4)


def test_all_zero_rows_are_single_blocks():
    rng = np.random.default_rng(76)
    h = random_hermitian(40, rng)
    zero = rng.choice(40, size=12, replace=False)
    h[zero, :] = 0.0
    h[:, zero] = 0.0
    blocks, largest = assert_matches_dense(h)
    assert (blocks, largest) == (13, 28)
    assert assert_matches_dense(np.zeros((16, 16), dtype=np.complex128)) == (16, 1)


def test_only_the_lower_triangle_is_read():
    # like eigvalsh, the kernel sees an upper-only entry as zero
    rng = np.random.default_rng(77)
    h = np.diag(rng.normal(size=6)).astype(np.complex128)
    h[0, 5] = 1.0
    assert assert_matches_dense(h) == (6, 1)
    h[5, 0] = 1.0
    assert assert_matches_dense(h) == (5, 2)


def pure_states():
    rng = np.random.default_rng(78)
    yield q.build_example_state()
    yield q.build_ghz_qcr(2, 5)
    yield q.build_ghz_qcr(3, 3)
    yield q.build_ghz_qcr(2, 3, q.ShieldSeed.random((2, 2, 1, 1), rng, pure=True))
    for n in (1, 2, 3):
        layout = q.standard_layout(2, n)
        yield q.QuantumState(layout, vector=q.random_pure(layout.total_dim, rng))
    # a product across every cut: Schmidt rank 1
    layout = q.standard_layout(3, 2)
    yield q.QuantumState.basis_state(layout, (1, 0, 2, 0, 0, 0))
    # one Schmidt coefficient only: a dimension-1 side two, and a dimension-1 state
    for dims in ((3, 1), (1, 1)):
        layout = SystemLayout((Subsystem("D.a", "D", "shield", dims[0]),
                               Subsystem("A1.a", "A1", "shield", dims[1])))
        yield q.QuantumState(layout, vector=q.random_pure(layout.total_dim, rng))


@pytest.mark.parametrize("state", list(pure_states()), ids=lambda s: f"dim{s.dim}")
def test_pure_closed_form_matches_the_dense_path(state):
    assert state.is_pure
    dense = state.to_density()
    for k in range(1, state.layout.n_players + 1):
        for players_two in itertools.combinations(state.layout.players, k):
            cut = q.CutSpec.dealer_cut(state.layout, players_two)
            pure = q.ppt_check(state, cut)
            want = float(np.linalg.eigvalsh(q.partial_transpose(dense, cut.side_two))[0])
            assert abs(pure.min_eigenvalue - want) <= 1e-12
            assert abs(q.ppt_check(dense, cut).min_eigenvalue - want) <= 1e-12
            assert pure.ppt == (want >= -q.defaults.PPT_TOL)


def test_pure_ppt_check_at_4096_forms_no_density():
    state = q.build_ghz_qcr(2, 11)
    assert state.dim == 4096 and state.is_pure
    cut = q.CutSpec.dealer_cut(state.layout, ["A1"])
    tracemalloc.start()
    try:
        result = q.ppt_check(state, cut)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one byte per entry would already be 16 MB
    assert peak < state.dim ** 2
    assert abs(result.min_eigenvalue + 0.5) <= 1e-12 and not result.ppt


def test_component_search_memory_on_a_dense_1024_matrix():
    n = 1024
    h = random_hermitian(n, np.random.default_rng(79))
    tracemalloc.start()
    try:
        _, blocks, _ = block_spectrum(h)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert blocks == 1
    assert peak <= 0.25 * 16 * n * n
