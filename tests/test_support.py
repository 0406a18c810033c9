"""Readers of a density's support against the dense forms they replace.

``states._support`` lists the rows or columns of a matrix that hold an
exactly nonzero entry; every entry outside support x support is zero. The
Hermitian check, ``purify``, the density ``trace_distance`` and the PPT
walk read only that block. The oracles here are the dense forms: the
whole-matrix ``!= 0`` mask, ``np.max(np.abs(m - m^dag))``, purify's body
run on all of rho, and the block spectrum of the whole difference.
"""
import itertools
import logging
import re
import tracemalloc

import numpy as np
import pytest

import qcrkit as q
from qcrkit import defaults, states, verify
from qcrkit.registers import ENV_PARTY, Subsystem, SystemLayout


def dense_support(m):
    nz = np.asarray(m) != 0
    return np.flatnonzero(nz.any(axis=0) | nz.any(axis=1))


def sparse_matrix(rng, n, rows, hermitian):
    """Random entries on a random set of rows x rows, zero elsewhere."""
    m = np.zeros((n, n), dtype=complex)
    s = np.sort(rng.choice(n, size=rows, replace=False))
    block = rng.normal(size=(rows, rows)) + 1j * rng.normal(size=(rows, rows))
    block[rng.random((rows, rows)) < 0.5] = 0
    m[np.ix_(s, s)] = block + block.conj().T if hermitian else block
    return m


def support_cases():
    rng = np.random.default_rng(1501)
    neg_zero = np.zeros((6, 6), dtype=complex)
    neg_zero[1, 2] = complex(-0.0, 0.0)
    neg_zero[3, 3] = complex(0.0, -0.0)
    neg_zero[4, 0] = 1e-300
    nan = np.zeros((40, 40), dtype=complex)
    nan[35, 3] = complex(0.0, np.nan)
    inf = np.zeros((40, 40), dtype=complex)
    inf[7, 7] = np.inf
    # row 2 is zero but column 2 is not, and column 9 is zero but row 9 is not
    one_sided = np.zeros((12, 12), dtype=complex)
    one_sided[5, 2] = 0.25j
    one_sided[9, 11] = -1.0
    dense = rng.normal(size=(33, 33)) + 1j * rng.normal(size=(33, 33))
    diagonal = np.diag(np.arange(1.0, 301.0)).astype(complex)
    return {
        "negative zero": neg_zero,
        "nan": nan,
        "inf": inf,
        "zero row, nonzero column": one_sided,
        "zero matrix": np.zeros((17, 17), dtype=complex),
        "full support, dense": dense,
        "full support, diagonal": diagonal,
        "sparse hermitian": sparse_matrix(rng, 300, 20, True),
        "sparse non-hermitian": sparse_matrix(rng, 300, 45, False),
        "fortran order": np.asfortranarray(sparse_matrix(rng, 100, 9, False)),
        "strided view": sparse_matrix(rng, 200, 30, False)[::2, 1::2],
    }


@pytest.mark.parametrize("name", list(support_cases()))
def test_support_matches_the_dense_mask(name):
    m = support_cases()[name]
    got = states._support(m)
    want = dense_support(m)
    assert got.dtype.kind == "i"
    np.testing.assert_array_equal(got, want)
    # every entry off support x support is exactly zero
    off = np.ones(m.shape, dtype=bool)
    off[np.ix_(got, got)] = False
    assert not (m[off] != 0).any()


def test_support_of_the_special_cases():
    cases = support_cases()
    assert states._support(cases["negative zero"]).tolist() == [0, 4]
    assert states._support(cases["nan"]).tolist() == [3, 35]
    assert states._support(cases["inf"]).tolist() == [7]
    assert states._support(cases["zero row, nonzero column"]).tolist() == [2, 5, 9, 11]
    assert states._support(cases["zero matrix"]).size == 0
    assert states._support(cases["full support, diagonal"]).size == 300


def test_support_block_is_copied_only_when_it_holds_a_quarter_of_the_entries(monkeypatch):
    # purify's eigh fallback: with rank_eps 0.3 one pivot leaves the rest
    # behind, so the factor is not certified and eigh runs, on the support
    # block when it holds at most a quarter of rho's entries, else on rho
    seen = []
    eigh_factor = states._eigh_factor
    monkeypatch.setattr(states, "_eigh_factor",
                        lambda m, eps: seen.append(m.shape[0]) or eigh_factor(m, eps))
    for keep, want in ((3, 3), (5, 5), (6, 10), (10, 10)):
        rows = np.arange(10)[::-1][:keep]
        diag = np.zeros(10)
        diag[rows] = [0.5] + [0.5 / (keep - 1)] * (keep - 1)
        a = q.purify(on_one_register(np.diag(diag).astype(complex)), rank_eps=0.3)
        assert seen.pop() == want, keep
        factor = a.vector.reshape(10, -1)
        assert factor.shape == (10, 1) and not np.delete(factor, rows, axis=0).any()
        assert abs(abs(factor[rows[0], 0]) ** 2 - 0.5) <= 1e-12


def test_max_asymmetry_on_sparse_matrices_equals_the_dense_expression():
    rng = np.random.default_rng(1502)
    for k in range(60):
        n = int(rng.integers(1, 200))
        rows = int(rng.integers(0, n + 1))
        m = sparse_matrix(rng, n, rows, hermitian=bool(k % 2))
        if k % 3 == 0:  # a small asymmetric part, on other rows
            m = m + 1e-12 * sparse_matrix(rng, n, rows, hermitian=False)
        want = float(np.max(np.abs(m - m.conj().T)))
        assert states._max_asymmetry(m, states._support(m)) == want
        assert states._max_asymmetry(m) == want
    for name, m in support_cases().items():
        with np.errstate(invalid="ignore"):  # inf - inf
            want = float(np.max(np.abs(m - m.conj().T)))
        got = states._max_asymmetry(m, states._support(m))
        assert got == want or (np.isnan(got) and np.isnan(want)), name


def test_a_block_larger_than_a_strip_is_gathered_to_the_same_values():
    # 300 and 700 support rows hold more than 2^16 block entries, so the
    # readers gather strips from m instead of copying the block
    rng = np.random.default_rng(1509)
    for n, rows in ((700, 300), (1024, 700)):
        m = sparse_matrix(rng, n, rows, hermitian=False)
        s = states._support(m)
        assert s.size**2 > 2**16 and s.size < n
        want = float(np.max(np.abs(m - m.conj().T)))
        assert states._max_asymmetry(m, s) == want
        assert states._max_asymmetry(m[np.ix_(s, s)]) == want
        x = np.zeros((n, n), dtype=complex)
        x[np.ix_(s, s)] = q.random_density(s.size, rng, rank=3)
        factor = states._cholesky_factor(x, defaults.RANK_EPS, s)
        block = states._cholesky_factor(x[np.ix_(s, s)], defaults.RANK_EPS)
        assert factor.tobytes() == block.tobytes()
        a = q.purify(on_one_register(x)).vector.reshape(n, -1)
        assert a.shape == (n, 3)
        np.testing.assert_array_equal(a[s], factor)
        assert not np.delete(a, s, axis=0).any()


def on_one_register(matrix):
    layout = SystemLayout((Subsystem("X", "D", "shield", len(matrix)),))
    return q.QuantumState(layout, matrix=matrix, validate=False)


def test_purify_refuses_a_zero_diagonal_entry_with_an_off_diagonal_one():
    # rho[1, 1] = 0 and rho[0, 1] != 0: no factor reproduces row 1, so the
    # residual check fails and eigh finds the negative eigenvalue; the zero
    # rows around the pair keep the support a strict subset of the rows
    rho = np.zeros((8, 8), dtype=complex)
    rho[2, 2] = rho[5, 5] = 0.5
    rho[2, 4] = rho[4, 2] = 0.1
    assert states._support(rho).tolist() == [2, 4, 5]
    message = rf"^cannot purify: eigenvalue -0\.019\d* below -{re.escape(str(defaults.STATE_TOL))}$"
    with pytest.raises(ValueError, match=message):
        q.purify(on_one_register(rho))
    with pytest.raises(ValueError, match=message):
        dense_purify(on_one_register(rho))


def dense_purify(state, env_label=None, rank_eps=defaults.RANK_EPS):
    """purify as it was before it read only the support: every step on all of rho."""
    label = env_label or state.layout.unique_label(ENV_PARTY)
    if state.is_pure:
        amps = state.vector[:, None]
    else:
        rho = state.matrix
        herm = float(np.max(np.abs(rho - rho.conj().T)))
        if not herm <= defaults.STATE_TOL:
            raise ValueError(f"cannot purify: matrix is not Hermitian (max asymmetry {herm!r})")
        amps = states._cholesky_factor(rho, rank_eps)
        if amps is None:
            amps = states._eigh_factor(rho, rank_eps)
    env = Subsystem(label, ENV_PARTY, "env", amps.shape[1])
    return q.QuantumState(SystemLayout(state.layout.subsystems + (env,)),
                          vector=amps.reshape(-1), validate=False)


def seeded_densities(count, seed):
    """Sparse resource-type densities and dense mixtures of them, alternating kinds."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        kind = k % 6
        if kind == 0:
            d = int(rng.integers(2, 4))
            yield q.random_private_state(d, (2, 2), rng, pure_seed=bool(rng.integers(2)))
        elif kind == 1:
            n = int(rng.integers(1, 4))
            yield q.build_ghz_qcr(2, n, q.ShieldSeed.random([2] * (n + 1), rng)).to_density()
        elif kind == 2:
            a = q.random_private_state(2, (2, 1), rng)
            b = q.build_ghz_qcr(2, 2, q.ShieldSeed.random([1, 2, 1], rng))
            yield q.compose(a, b, check=False)[0]
        elif kind == 3:
            # a sparse mixture: noise only on the private state's support
            p = q.random_private_state(2, (2, 2), rng)
            s = states._support(p.matrix)
            noise = np.zeros_like(p.matrix)
            noise[np.ix_(s, s)] = q.random_density(s.size, rng, rank=int(rng.integers(1, 4)))
            yield q.QuantumState(p.layout, matrix=0.8 * p.matrix + 0.2 * noise)
        else:
            # full support: the dense path, which must be today's bit for bit
            g = q.random_private_state(int(rng.integers(2, 4)), (2, 1), rng)
            noise = q.random_density(g.dim, rng, rank=int(rng.integers(1, g.dim + 1)))
            weight = 1e-3 if kind == 4 else 0.3
            yield q.QuantumState(g.layout, matrix=(1 - weight) * g.matrix + weight * noise)


def test_purify_matches_the_dense_body_on_sparse_and_dense_states(monkeypatch):
    cases = list(seeded_densities(120, 1503))
    sparse = 0
    for s in cases:
        rho = s.matrix
        fast, slow = q.purify(s), dense_purify(s)
        assert fast.layout == slow.layout
        a = fast.vector.reshape(s.dim, -1)
        assert np.max(np.abs(a @ a.conj().T - rho)) <= defaults.STATE_TOL
        support = states._support(rho)
        if support.size == s.dim:
            assert fast.vector.tobytes() == slow.vector.tobytes()
        else:
            sparse += 1
            # rows off the support are +0.0
            off = np.setdiff1d(np.arange(s.dim), support)
            assert not np.signbit(a[off].view(np.float64)).any() and not a[off].any()
    assert sparse == 80  # kinds 0-3 of every six
    fast = [q.is_qcr(s, exhaustive=True) for s in cases]
    monkeypatch.setattr(verify, "purify", dense_purify)
    slow = [q.is_qcr(s, exhaustive=True) for s in cases]
    verdicts = [r.verdict for r in slow]
    assert True in verdicts and False in verdicts
    for a, b in zip(fast, slow):
        assert a.verdict == b.verdict
        assert [c.passed for c in a.coalitions] == [c.passed for c in b.coalitions]
        for ca, cb in zip(a.coalitions, b.coalitions):
            assert abs(ca.max_distance - cb.max_distance) <= 1e-12


def distance_pairs():
    rng = np.random.default_rng(1505)
    ex = q.build_example_state()
    a = q.random_private_state(2, (2, 2), rng)
    b = q.random_private_state(2, (2, 2), rng)
    ghz = q.build_ghz_qcr(2, 1, q.ShieldSeed.random([2, 2], rng, pure=True))
    mixed = q.QuantumState(a.layout, matrix=0.5 * a.matrix + 0.5 * q.random_density(16, rng))
    shifted = q.apply_unitary(a, q.shift_matrix(2, 1), ["D.info"])
    c1, _ = q.compose(a, ex, check=False)
    c2, _ = q.compose(b, ex, check=False)
    return {
        "two sparse densities": (a, b),
        "equal densities": (a, a),
        "disjoint supports": (a, shifted),
        "pure and density": (ghz, a),
        "density and pure": (a, ghz),
        "pure and its density": (ghz, ghz.to_density()),
        "full support": (mixed, a),
        "1024 composites": (c1, c2),
        "1024 pure and density": (q.compose(ghz, ex, check=False)[0], c1),
    }


@pytest.mark.parametrize("name", list(distance_pairs()))
def test_density_trace_distance_equals_the_dense_block_spectrum(name, caplog):
    a, b = distance_pairs()[name]
    assert a.dim == b.dim and not (a.is_pure and b.is_pure)
    caplog.set_level(logging.DEBUG, logger="qcrkit")
    got = q.trace_distance(a, b)
    vals, blocks, largest = states._block_spectrum(a.density_matrix() - b.density_matrix())
    assert got == float(np.abs(vals).sum())
    path = "dense" if blocks == 1 else "blocks"
    assert [r.getMessage() for r in caplog.records if r.name == "qcrkit"] == [
        f"trace_distance: dim {a.dim}, path {path}, blocks {blocks}, largest {largest}"
    ]


def test_nonzero_batches_cover_every_entry_once_in_full_indices():
    rng = np.random.default_rng(1506)
    # 300 support rows of a 1000-dim matrix, about 3/4 of their entries nonzero
    h = sparse_matrix(rng, 1000, 300, hermitian=True)
    every = set(zip(*np.nonzero(h)))
    lower = set(zip(*np.nonzero(np.tril(h))))
    for lower_only in (False, True):
        got = []
        batches = list(states._nonzero_batches(h, lower_only))
        assert len(batches) > 2
        for i, j in batches:
            assert i.size <= 2**14
            got += list(zip(i.tolist(), j.tolist()))
        assert len(got) == len(set(got))
        if lower_only:  # strips end at their diagonal block, which holds a few upper entries
            assert lower <= set(got) <= every
        else:
            assert set(got) == every


def test_components_on_a_sparse_matrix_match_its_dense_support_walk():
    rng = np.random.default_rng(1507)
    h = sparse_matrix(rng, 500, 60, hermitian=True)
    s = states._support(h)
    assert 0 < s.size < 500
    block = h[np.ix_(s, s)]
    # roots in the block, mapped back, against the roots over all of h;
    # rows off the support are their own roots
    inner = states._components(block)
    want = np.arange(500)
    want[s] = s[inner]
    np.testing.assert_array_equal(states._components(h), want)


def traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_near_full_support_is_read_in_place():
    # a support of 1023 of 1024 rows, or of half of them, is read through
    # strips or in place: no reader copies a block that the same reader on
    # a full-support density, or the whole difference, would not
    rng = np.random.default_rng(1508)

    def embedded(keep):
        m = np.zeros((1024, 1024), dtype=complex)
        s = np.sort(rng.choice(1024, size=keep, replace=False))
        m[np.ix_(s, s)] = q.random_density(keep, rng, rank=4)
        return on_one_register(m)

    def peaks(a):
        rho = a.matrix
        return [
            traced_peak(lambda: states._max_asymmetry(rho, states._support(rho))),
            traced_peak(lambda: q.purify(a)),
            traced_peak(lambda: [None for _ in states._nonzero_batches(rho, False)]),
        ]

    full = peaks(embedded(1024))
    slack = 0.1 * 1024**2 * 16  # a tenth of one density
    for keep in (1023, 512):
        a, b = embedded(keep), embedded(keep)
        assert 0 < states._support(a.matrix).size < 1024
        for got, want in zip(peaks(a), full):
            assert got <= want + slack, keep
        whole = traced_peak(lambda: states._block_spectrum(a.matrix - b.matrix))
        assert traced_peak(lambda: q.trace_distance(a, b)) <= whole + slack, keep


# -- the support a density carries ----------------------------------------


@pytest.fixture
def scans(monkeypatch):
    """Every support scan, as (matrix dimension, rows scanned)."""
    seen = []
    scan = states._support

    def counting(h, rows=None):
        seen.append((h.shape[0], h.shape[0] if rows is None else rows.size))
        return scan(h, rows)

    monkeypatch.setattr(states, "_support", counting)
    return seen


def full_scans(seen):
    return [n for n, k in seen if k == n]


def test_a_validated_or_unhinted_density_is_scanned_once_at_full_size(scans, tmp_path):
    p = q.random_private_state(2, (2, 2), np.random.default_rng(1601))
    q.write_state(p, tmp_path / "p.json")
    scans.clear()
    a = q.QuantumState(p.layout, matrix=p.matrix)
    assert scans == [(16, 16)]
    scans.clear()
    b = q.QuantumState(p.layout, matrix=p.matrix, validate=False, copy=False)
    assert scans == [(16, 16)]
    scans.clear()
    c = q.read_state(tmp_path / "p.json")
    assert scans == [(16, 16)]
    # the readers take the field
    scans.clear()
    q.purify(a)
    q.is_qcr(b, exhaustive=True)
    q.all_dealer_cuts_ppt(c)
    assert q.trace_distance(a, c) == 0.0
    assert scans == []
    for s in (a, b, c):
        np.testing.assert_array_equal(s._support, p._support)


def test_no_producer_or_reader_scans_a_whole_matrix(scans):
    rng = np.random.default_rng(1602)
    ex = q.build_example_state()
    p, other = (q.random_private_state(2, (2, 2), rng) for _ in range(2))
    sigma = q.ShieldSeed.random([2, 2], rng)
    twist = q.TwistingFamily({(i,): q.haar_unitary(4, rng) for i in range(2)})
    ghz_sigma = q.ShieldSeed.random([2, 1, 2], rng)
    scans.clear()
    c, _ = q.compose(p, ex, check=False)
    d, _ = q.compose(other, ex.to_density(), check=False)
    outputs = [
        c, d,
        q.expand_from_private([q.maximally_entangled(2)] * 4, check=False),
        q.build_private_state(2, sigma, twist),
        q.build_ghz_qcr(2, 2, ghz_sigma),
        q.tensor_product(p, ex.to_density().relabeled({l: "x" + l for l in ex.layout.labels})),
        q.project_registers(c, ["A1.info"], (1,))[1],
        q.partial_trace(c, ["A1.shield", "A3.info"]),
        q.apply_unitary(c, q.shift_matrix(2, 1), ["D.info"]),
        c.permuted(list(reversed(c.layout.labels))),
        c.relabeled({"A1.info": "A1.key"}),
    ]
    outputs += [o.state for o in q.measure_computational(c, ["A1.info", "A2.info"])]
    outputs += [o.state for o in q.reduce(c, ["A1", "A3"], check=False)]
    assert full_scans(scans) == []
    assert all(0 < s._support.size < s.dim for s in outputs)
    # readers, and the certified protocols
    scans.clear()
    q.is_qcr(c)
    q.purify(d)
    q.all_dealer_cuts_ppt(c)
    q.trace_distance(c, d)
    q.reduce(c, ["A1"], check=True, tol=1e-7)
    q.compose(p, ex, check=True, tol=1e-7)
    assert full_scans(scans) == []


def odd_private_states():
    """Unvalidated private-state densities with a 1e-200 row, signed zeros and NaN."""
    rng = np.random.default_rng(1603)
    p = q.random_private_state(2, (2, 2), rng)
    off = np.setdiff1d(np.arange(p.dim), p._support)
    tiny = p.matrix.copy()
    tiny[off[0], off[0]] = 1e-200
    tiny[off[1], off[2]] = tiny[off[2], off[1]] = 1e-200
    signed = p.matrix.copy()
    signed.real[signed.real == 0] = -0.0
    signed.imag[signed.imag == 0] = -0.0
    nan = p.matrix.copy()
    nan[p._support[0], p._support[1]] = complex(np.nan, 0.0)
    nan_diagonal = p.matrix.copy()
    nan_diagonal[p._support[2], p._support[2]] = np.nan
    return [q.QuantumState(p.layout, matrix=m, validate=False)
            for m in (p.matrix, tiny, signed, nan, nan_diagonal)]


def producer_outputs(a, b):
    """A density output of every producer, from two single-player crypto-form states."""
    ghz = q.build_ghz_qcr(2, 2)
    c, _ = q.compose(a, ghz, check=False)
    yield "compose a b", q.compose(a, b, check=False)[0]
    yield "compose a ghz", c
    yield "compose ghz b", q.compose(ghz, b, check=False)[0]
    yield "tensor", q.tensor_product(a, b.relabeled({l: "b" + l for l in b.layout.labels}))
    yield "to_density", q.build_example_state().to_density()
    for on in (["A1.info"], ["D.info", "A1.shield"]):
        for digits in itertools.product(range(2), repeat=len(on)):
            prob, post = q.project_registers(c, on, digits)
            if post is not None:
                yield f"project {on} {digits}", post
    for over in (["A1.shield"], ["A1.info", "A1.shield"], ["D.shield", "A2.info"], c.layout.labels):
        yield f"trace {over}", q.partial_trace(c, over)
    for o in q.measure_computational(c, ["A2.info", "A1.info"]):
        yield f"measure {o.digits}", o.state
    for keep in (["A1"], ["A2", "A3"]):
        dishonest = [p for p in c.layout.players if p not in keep]
        for o in q.reduce(c, dishonest, check=False):
            yield f"reduce {dishonest} {o.digits}", o.state
    yield "shift", q.apply_unitary(a, q.shift_matrix(2, 1), ["D.info"])
    rng = np.random.default_rng(1605)
    blocks = {(1,): q.haar_unitary(4, rng)}
    yield "controlled", q.apply_controlled(a, ["A1.info"], ["D.shield", "A1.shield"], blocks)
    yield "permuted", c.permuted(list(reversed(c.layout.labels)))
    yield "relabeled", a.relabeled({"D.info": "D.key"})


def test_the_field_is_the_support_of_every_producer_output():
    rng = np.random.default_rng(1606)
    fixtures = odd_private_states()
    fixtures.append(q.build_private_state(2, q.ShieldSeed.random([2, 2], rng)))
    fixtures.append(q.build_ghz_qcr(2, 1, q.ShieldSeed.random([2, 2], rng, pure=True)))
    count = 0
    for a in fixtures:
        for b in fixtures[::-1]:
            with np.errstate(invalid="ignore"):  # NaN in, NaN out
                outputs = list(producer_outputs(a, b))
            for name, s in outputs:
                if not s.is_pure:
                    count += 1
                    np.testing.assert_array_equal(s._support, states._support(s.matrix), name)
    assert count > 1000
    # two 1e-200 rows meet in products that underflow to 0, so the composite's
    # support is smaller than the image of the two supports
    tiny = odd_private_states()[1]
    merged, _ = q.compose(tiny, tiny, check=False)
    assert merged._support.size < tiny._support.size ** 2
    np.testing.assert_array_equal(merged._support, states._support(merged.matrix))
    # builders and the expansion
    for s in (q.build_private_state(3, q.ShieldSeed.random([2, 1], rng)),
              q.build_ghz_qcr(2, 3, q.ShieldSeed.random([2, 1, 2, 1], rng)),
              q.random_private_state(3, (1, 2), rng),
              q.expand_from_private([q.maximally_entangled(3)] * 3, check=False)):
        np.testing.assert_array_equal(s._support, states._support(s.matrix))


def test_a_large_component_beside_small_ones_is_gathered_a_strip_at_a_time():
    # two densities on different random 512-row sets: the difference is one
    # component of about 768 rows beside zero rows, and reading it holds
    # about one block of that size, not the k x k index arrays of a gather
    rng = np.random.default_rng(1604)

    def embedded():
        m = np.zeros((1024, 1024), dtype=complex)
        s = np.sort(rng.choice(1024, size=512, replace=False))
        m[np.ix_(s, s)] = q.random_density(512, rng, rank=4)
        return on_one_register(m)

    a, b = embedded(), embedded()
    diff = a.matrix - b.matrix
    vals, blocks, largest = states._block_spectrum(diff)
    assert 700 < largest < 840 and blocks == 1024 - largest + 1
    block = 16 * largest**2
    assert traced_peak(lambda: states._block_spectrum(diff)) <= 1.2 * block
    assert traced_peak(lambda: q.trace_distance(a, b)) <= 1.3 * block
    assert q.trace_distance(a, b) == float(np.abs(vals).sum())
    want = np.linalg.eigvalsh(diff[np.ix_(*(states._support(diff),) * 2)])
    np.testing.assert_allclose(np.sort(vals)[-10:], want[-10:], atol=1e-12)


def test_to_density_logs_the_change_of_representation(caplog):
    caplog.set_level(logging.DEBUG, logger="qcrkit")
    rho = q.build_example_state().to_density()
    assert rho.to_density() is rho
    assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
        ("qcrkit", logging.DEBUG, "to_density: dim 64, support 4"),
    ]


def test_no_relabel_or_shifted_reduce_branch_scans_a_whole_matrix(scans):
    # the relabels and the dealer shift hand the writer the permuted support
    # rows, so only that block is read for the output's support
    rng = np.random.default_rng(1607)
    p = q.random_private_state(3, (2, 1), rng)
    c, _ = q.compose(q.random_private_state(2, (2, 2), rng), q.build_example_state().to_density(),
                     check=False)
    scans.clear()
    outputs = [q.relabel_negated_player(s, player) for s in (p, c) for player in s.layout.players]
    outputs.append(states._relabel(p, "D.info", np.array([2, 0, 1])))
    for dishonest in (["A1"], ["A2", "A3"], ["A1", "A3"]):
        outputs += [o.state for o in q.reduce(c, dishonest, check=False) if o.beta]
    assert len(outputs) > 8
    assert full_scans(scans) == []
    assert all(0 < s._support.size < s.dim for s in outputs)
    for s in outputs:
        np.testing.assert_array_equal(s._support, states._support(s.matrix))
