"""PPT spectra read from rho through each cut's index map, against the copied transpose.

``entanglement._block_spectra`` never forms a partial transpose: it walks rho's
nonzero entries once for all cuts and gathers each block from rho through
the cut's map B (``entanglement._transpose_shift``). The oracle is
``block_spectrum(partial_transpose(...))``, which copies the transpose and
searches it on its own. Spectra must be ``np.array_equal`` to the oracle's
and block counts and largest block sizes equal, so every ``ppt_check``
minimum eigenvalue is the oracle's own number. Two memory bounds close the
file: the sweep over a composite's dealer cuts forms no density-sized
array, and a dense single-component cut forms exactly one.
"""
import itertools
import tracemalloc

import numpy as np
import pytest

import qcrkit as q
from qcrkit import entanglement
from qcrkit.registers import Subsystem, SystemLayout


def block_spectrum(h):
    """Eigenvalues, block count and largest block of h, read through the identity map."""
    return entanglement._block_spectra(h, np.zeros((1, h.shape[0]), dtype=np.intp))[0]


def dealer_cuts(layout):
    players = layout.players
    return [q.CutSpec.dealer_cut(layout, combo)
            for k in range(1, len(players) + 1)
            for combo in itertools.combinations(players, k)]


def every_cut(layout):
    labels = layout.non_env_labels
    return [q.CutSpec.from_side_two(layout, two)
            for r in range(1, len(labels))
            for two in itertools.combinations(labels[1:], r)]


def assert_reads_the_oracle(state, cuts, report=None):
    """Check every cut against the oracle; returns the (blocks, largest) pairs.

    report, when given, is a ``ppt_report`` over these cuts and others,
    in the same order; by default it is made over these cuts alone.
    """
    shifts = np.array([entanglement._transpose_shift(state.layout, c.side_two) for c in cuts])
    got = entanglement._block_spectra(state.matrix, shifts)
    assert len(got) == len(cuts)
    results = {(c.side_one, c.side_two): c
               for c in (report or q.ppt_report(state, cuts)).cuts}
    shapes = []
    for cut, (vals, blocks, largest) in zip(cuts, got):
        want, want_blocks, want_largest = block_spectrum(
            q.partial_transpose(state, cut.side_two))
        assert np.array_equal(vals, want), cut
        assert (blocks, largest) == (want_blocks, want_largest), cut
        assert results[cut.side_one, cut.side_two].min_eigenvalue == float(want[0])
        shapes.append((blocks, largest))
    return shapes


@pytest.fixture(scope="module")
def composites():
    # the cli-1k pipeline: a random (2, 2)-shield private state composed with the example
    rng = np.random.default_rng(131)
    example = q.build_example_state()
    return [q.compose(q.random_private_state(2, (2, 2), rng), example, check=False)[0]
            for _ in range(2)]


def test_cli_style_composites(composites):
    for state in composites:
        assert state.dim == 1024 and not state.is_pure
        shapes = assert_reads_the_oracle(state, dealer_cuts(state.layout))
        assert len(shapes) == 7
        assert all(blocks > 100 and largest <= 32 for blocks, largest in shapes)


def test_expanded_maximally_entangled_pairs():
    state = q.expand_from_private([q.maximally_entangled(2)] * 5, check=False)
    assert state.dim == 1024 and not state.is_pure
    assert len(assert_reads_the_oracle(state, dealer_cuts(state.layout))) == 31


def test_seeded_separable_products():
    layout = SystemLayout((
        Subsystem("D.a", "D", "shield", 2),
        Subsystem("A1.a", "A1", "shield", 2),
        Subsystem("D.b", "D", "shield", 2),
        Subsystem("A2.b", "A2", "shield", 2),
    ))
    rng = np.random.default_rng(132)
    for _ in range(100):
        rho = np.kron(q.random_separable_density(2, 2, rng), q.random_separable_density(2, 2, rng))
        state = q.QuantumState(layout, matrix=rho)
        assert_reads_the_oracle(state, every_cut(layout))
        report = q.all_dealer_cuts_ppt(state)
        assert report.all_ppt
        cuts = [q.CutSpec(c.side_one, c.side_two) for c in report.cuts]
        assert [q.ppt_check(state, c) for c in cuts] == list(report.cuts)


def test_composite_with_dimension_one_registers():
    private = q.build_private_state(3, q.ShieldSeed.basis_zero((2, 3)))
    ghz = q.build_ghz_qcr(3, 2, q.ShieldSeed.basis_zero((1, 2, 1)))
    state, _ = q.compose(private, ghz, check=False)
    assert state.dim == 2916
    ones = {s.label for s in state.layout.subsystems if s.dim == 1}
    assert ones == {"D.shield3", "A3.shield"}
    cuts = every_cut(state.layout)
    assert len(cuts) == 511
    # all 511 share one walk; the oracle copies 2 x 136 MB per cut, so it
    # checks every 48th cut that holds a dimension-1 register on side two,
    # a few that hold neither, and the cut of every register but D.info
    report = q.ppt_report(state, cuts)
    picked = [c for c in cuts if ones & set(c.side_two)][::48]
    picked += [c for c in cuts if not ones & set(c.side_two)][::61] + [cuts[-1]]
    shapes = assert_reads_the_oracle(state, picked, report)
    assert any(blocks > 1 for blocks, _ in shapes)
    assert not report.all_ppt


@pytest.mark.parametrize("d, n", [(2, 3), (3, 2)])
def test_dense_densities_are_one_gathered_block(d, n):
    layout = q.build_ghz_qcr(d, n).layout
    rng = np.random.default_rng(133 + d)
    state = q.QuantumState(layout, matrix=q.random_density(layout.total_dim, rng))
    shapes = assert_reads_the_oracle(state, every_cut(layout))
    assert shapes == [(1, layout.total_dim)] * len(shapes)


def test_tiny_signed_zero_and_upper_only_entries():
    # two qubits: the transpose over B moves entry (i, j) to
    # (i - B[i] + B[j], j - B[j] + B[i]), with B[x] = x % 2
    layout = SystemLayout((Subsystem("D.a", "D", "shield", 2),
                           Subsystem("A1.a", "A1", "shield", 2)))
    cut = q.CutSpec.from_side_two(layout, ["A1.a"])
    base = np.diag([0.4, 0.3, 0.2, 0.1]).astype(np.complex128)

    def shape(rho):
        state = q.QuantumState(layout, matrix=rho, validate=False)
        return assert_reads_the_oracle(state, [cut])[0]

    assert shape(base) == (4, 1)
    # an entry only above rho's diagonal, (0, 1), lands below it at (1, 0)
    upper = base.copy()
    upper[0, 1] = 0.05
    assert shape(upper) == (3, 2)
    # its mirror (1, 0) lands above, at (0, 1), which is not read
    lower = base.copy()
    lower[1, 0] = 0.05
    assert shape(lower) == (4, 1)
    # 1e-300 is an edge; -0.0 is not
    tiny = base.copy()
    tiny[0, 1] = tiny[1, 0] = 1e-300
    assert shape(tiny) == (3, 2)
    tiny[0, 1] = tiny[1, 0] = -0.0
    assert shape(tiny) == (4, 1)


def test_identity_map_reads_the_matrix_itself():
    rng = np.random.default_rng(134)
    g = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
    h = g + g.conj().T
    shift = np.zeros(64, dtype=np.intp)
    assert entanglement._read_dense(h, shift, np.arange(64)) is h
    (vals, blocks, largest), = entanglement._block_spectra(h, shift[None])
    assert np.array_equal(vals, np.linalg.eigvalsh(h)) and (blocks, largest) == (1, 64)
    a, b = (q.QuantumState(SystemLayout((Subsystem("D.a", "D", "shield", 64),)),
                           matrix=q.random_density(64, rng)) for _ in range(2))
    want = float(np.abs(np.linalg.eigvalsh(a.matrix - b.matrix)).sum())
    assert q.trace_distance(a, b) == want


def test_environment_registers_stay_off_both_sides_of_every_dealer_cut(env_densities):
    for state in env_densities:
        env = set(state.layout.env_labels)
        assert env and not state.is_pure
        report = q.all_dealer_cuts_ppt(state)
        assert len(report.cuts) == 2 ** state.layout.n_players - 1
        for cut in report.cuts:
            assert not env & set(cut.side_one + cut.side_two), cut
            want = np.linalg.eigvalsh(q.partial_transpose(state, cut.side_two))[0]
            assert abs(cut.min_eigenvalue - want) <= 1e-12, cut


def peak_of(fn):
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_dealer_sweep_memory_on_a_1024_composite(composites):
    state = composites[0]
    report, peak = peak_of(lambda: q.all_dealer_cuts_ppt(state))
    assert len(report.cuts) == 7
    assert peak <= 0.05 * 16 * state.dim ** 2


def test_dense_single_component_cut_memory_at_1024():
    layout = SystemLayout((Subsystem("D.a", "D", "shield", 32),
                           Subsystem("A1.a", "A1", "shield", 32)))
    rng = np.random.default_rng(135)
    state = q.QuantumState(layout, matrix=q.random_density(1024, rng))
    cut = q.CutSpec.from_side_two(layout, ["A1.a"])
    result, peak = peak_of(lambda: q.ppt_check(state, cut))
    # one gathered transpose, where the copy through _grouped made two
    assert peak <= 1.25 * 16 * state.dim ** 2
    assert not result.ppt
