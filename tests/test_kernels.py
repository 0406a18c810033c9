"""Register-regrouping kernels against index-arithmetic oracles.

Every oracle works on flat basis indices: each index is expanded into its
per-register digits with itertools.product and recombined by mixed-radix
arithmetic, so no oracle reshapes or transposes register axes. Layouts are
seeded and random (1-6 registers of dimension 1, 2 or 3), plus wide layouts
whose many dimension-1 registers would need more array axes than numpy
allows if every register got one.
"""
import itertools
import tracemalloc
from math import prod

import numpy as np
import pytest

import qcrkit as q
from qcrkit.registers import Subsystem, SystemLayout

SEEDS = range(25)
KINDS = ("vector", "density")


def random_layout(rng):
    dims = rng.choice([1, 2, 3], size=int(rng.integers(1, 7)))
    return SystemLayout(tuple(
        Subsystem(f"R{k}", f"P{k}", "shield", int(d)) for k, d in enumerate(dims)
    ))


def wide_layout(n):
    """n registers, all of dimension 1 except three qubits spread among them."""
    dims = [1] * n
    for p in (1, n // 2, n - 1):
        dims[p] = 2
    return SystemLayout(tuple(
        Subsystem(f"R{k}", f"P{k}", "shield", d) for k, d in enumerate(dims)
    ))


def random_state(layout, rng, kind):
    if kind == "vector":
        return q.QuantumState(layout, vector=q.random_pure(layout.total_dim, rng))
    return q.QuantumState(layout, matrix=q.random_density(layout.total_dim, rng))


def pick(layout, rng, least):
    """A random selection of at least `least` labels, in random order."""
    count = int(rng.integers(least, len(layout) + 1))
    return [layout.labels[i] for i in rng.permutation(len(layout))[:count]]


def dims_of(layout, labels):
    return tuple(layout.subsystem(l).dim for l in labels)


class Digits:
    """Per-register digits of every flat basis index of a layout."""

    def __init__(self, layout):
        self.layout = layout
        rows = list(itertools.product(*[range(d) for d in layout.dims]))
        self.table = np.array(rows, dtype=np.int64).reshape(layout.total_dim, len(layout))

    def column(self, label):
        return self.table[:, self.layout.position(label)]

    def flat(self, labels):
        """Mixed-radix index of the named registers' digits, first label most significant."""
        out = np.zeros(self.layout.total_dim, dtype=np.int64)
        for l in labels:
            out = out * self.layout.subsystem(l).dim + self.column(l)
        return out


def close(got, want):
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def data(state):
    return state.vector if state.is_pure else state.matrix


def check_permuted(state, rng):
    layout = state.layout
    order = [layout.labels[i] for i in rng.permutation(len(layout))]
    out = state.permuted(order)
    new = Digits(layout).flat(order)
    want = np.empty_like(data(state))
    if state.is_pure:
        want[new] = state.vector
    else:
        want[np.ix_(new, new)] = state.matrix
    assert out.layout.labels == tuple(order)
    assert out.is_pure == state.is_pure
    assert np.array_equal(data(out), want)


def check_partial_trace(state, rng):
    layout = state.layout
    over = pick(layout, rng, 0)
    keep = [l for l in layout.labels if l not in over]
    dg = Digits(layout)
    a, o = dg.flat(keep), dg.flat(over)
    keep_dim = prod(dims_of(layout, keep))
    if state.is_pure:
        m = np.zeros((keep_dim, prod(dims_of(layout, over))), dtype=complex)
        m[a, o] = state.vector
        want = m @ m.conj().T
    else:
        want = np.zeros((keep_dim, keep_dim), dtype=complex)
        rows, cols = np.nonzero(o[:, None] == o[None, :])
        np.add.at(want, (a[rows], a[cols]), state.matrix[rows, cols])
    out = q.partial_trace(state, over)
    assert out.layout.labels == tuple(keep)
    close(out.density_matrix(), want)


def check_partial_transpose(state, rng):
    if state.is_pure:
        with pytest.raises(ValueError):
            q.partial_transpose(state, [])
        state = state.to_density()
    layout = state.layout
    over = pick(layout, rng, 0)
    dg = Digits(layout)
    full = dg.flat(layout.labels)
    weight = {l: prod(layout.dims[layout.position(l) + 1:]) for l in layout.labels}
    hi = sum((dg.column(l) * weight[l] for l in over), np.zeros_like(full))
    lo = full - hi
    want = state.matrix[lo[:, None] + hi[None, :], lo[None, :] + hi[:, None]]
    assert np.array_equal(q.partial_transpose(state, over), want)


def check_measurement_distribution(state, rng):
    layout = state.layout
    on = pick(layout, rng, 1)
    dg = Digits(layout)
    if state.is_pure:
        weights = np.abs(state.vector) ** 2
    else:
        weights = np.real(np.diagonal(state.matrix))
    want = np.zeros(dims_of(layout, on))
    np.add.at(want, tuple(dg.column(l) for l in on), weights)
    got = q.measurement_distribution(state, on)
    assert got.shape == want.shape
    close(got, want)


def check_measure_computational(state, rng):
    layout = state.layout
    on = pick(layout, rng, 1)
    index = Digits(layout).flat(on)
    want = []
    for k, digits in enumerate(itertools.product(*[range(d) for d in dims_of(layout, on)])):
        mask = index == k
        if state.is_pure:
            p = float(np.sum(np.abs(state.vector[mask]) ** 2))
            post = np.where(mask, state.vector, 0) / np.sqrt(p) if p > 0 else None
        else:
            p = float(np.real(np.sum(np.diagonal(state.matrix)[mask])))
            post = state.matrix * np.outer(mask, mask) / p if p > 0 else None
        if p > q.defaults.PROB_FLOOR:
            want.append((digits, p, post))
    got = q.measure_computational(state, on)
    assert [o.digits for o in got] == [w[0] for w in want]
    for outcome, (_, p, post) in zip(got, want):
        assert outcome.probability == pytest.approx(p, abs=1e-12)
        assert outcome.state.layout == layout
        assert outcome.state.is_pure == state.is_pure
        close(data(outcome.state), post)


def check_project_registers(state, rng):
    layout = state.layout
    on = pick(layout, rng, 1)
    digits = tuple(int(rng.integers(0, d)) for d in dims_of(layout, on))
    dg = Digits(layout)
    mask = np.ones(layout.total_dim, dtype=bool)
    for l, x in zip(on, digits):
        mask &= dg.column(l) == x
    if state.is_pure:
        sub = state.vector[mask]
        p = float(np.real(np.vdot(sub, sub)))
        want = sub / np.sqrt(p)
    else:
        sub = state.matrix[np.ix_(mask, mask)]
        p = float(np.real(np.trace(sub)))
        want = sub / p
    prob, post = q.project_registers(state, on, digits)
    assert prob == pytest.approx(p, abs=1e-12)
    assert post.layout.labels == tuple(l for l in layout.labels if l not in on)
    assert post.is_pure == state.is_pure
    close(data(post), want)


def evolve(state, u_full):
    if state.is_pure:
        return u_full @ state.vector
    return u_full @ state.matrix @ u_full.conj().T


def check_apply_unitary(state, rng):
    layout = state.layout
    on = pick(layout, rng, 1)
    rest = [l for l in layout.labels if l not in on]
    u = q.haar_unitary(prod(dims_of(layout, on)), rng)
    dg = Digits(layout)
    t, r = dg.flat(on), dg.flat(rest)
    u_full = u[t[:, None], t[None, :]] * (r[:, None] == r[None, :])
    out = q.apply_unitary(state, u, on)
    assert out.layout == layout
    assert out.is_pure == state.is_pure
    close(data(out), evolve(state, u_full))


def check_apply_controlled(state, rng):
    layout = state.layout
    if len(layout) < 2:
        return
    labels = pick(layout, rng, 2)
    n_control = int(rng.integers(1, len(labels)))
    control, target = labels[:n_control], labels[n_control:]
    rest = [l for l in layout.labels if l not in labels]
    c_dims = dims_of(layout, control)
    t_dim = prod(dims_of(layout, target))
    keys = list(itertools.product(*[range(d) for d in c_dims]))
    blocks = {key: q.haar_unitary(t_dim, rng) for key in keys if rng.random() < 0.6}
    stacked = np.array([blocks.get(key, np.eye(t_dim)) for key in keys])
    dg = Digits(layout)
    c, t, r = dg.flat(control), dg.flat(target), dg.flat(rest)
    u_full = (
        stacked[c[:, None], t[:, None], t[None, :]]
        * (c[:, None] == c[None, :])
        * (r[:, None] == r[None, :])
    )
    out = q.apply_controlled(state, control, target, blocks)
    assert out.layout == layout
    assert out.is_pure == state.is_pure
    close(data(out), evolve(state, u_full))


CHECKS = [
    check_permuted,
    check_partial_trace,
    check_partial_transpose,
    check_measurement_distribution,
    check_measure_computational,
    check_project_registers,
    check_apply_unitary,
    check_apply_controlled,
]
CHECK_IDS = [c.__name__[len("check_"):] for c in CHECKS]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("check", CHECKS, ids=CHECK_IDS)
def test_kernel_matches_oracle_on_random_layouts(check, kind):
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        layout = random_layout(rng)
        check(random_state(layout, rng, kind), rng)


@pytest.mark.parametrize("n", (30, 40))
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("check", CHECKS, ids=CHECK_IDS)
def test_kernel_on_many_dimension_one_registers(check, kind, n):
    rng = np.random.default_rng(n)
    layout = wide_layout(n)
    assert layout.total_dim == 8
    for _ in range(5):
        check(random_state(layout, rng, kind), rng)


@pytest.mark.parametrize("d", (2, 3))
def test_permutation_unitaries_on_density_are_exact(d):
    # the dealer's shift and controlled addition move density entries
    # without arithmetic, which keeps dyadic entries exact
    rng = np.random.default_rng(d)
    layout = SystemLayout(tuple(
        Subsystem(label, label, "info", dim) for label, dim in (("T", d), ("R", 2), ("C", d))
    ))
    state = random_state(layout, rng, "density")
    dg = Digits(layout)
    cases = [(q.shift_matrix(d, beta), ["T"]) for beta in range(d)]
    cases += [(q.cx_matrix(d), ["T", "C"]), (q.cx_matrix(d), ["C", "T"])]
    for p, on in cases:
        t, r = dg.flat(on), dg.flat([l for l in layout.labels if l not in on])
        p_full = p[t[:, None], t[None, :]] * (r[:, None] == r[None, :])
        rows, cols = np.nonzero(p_full)
        want = np.empty_like(state.matrix)
        want[np.ix_(rows, rows)] = state.matrix[np.ix_(cols, cols)]
        assert np.array_equal(q.apply_unitary(state, p, on).matrix, want)
    shifts = {(k,): q.shift_matrix(d, k) for k in range(d)}
    controlled = q.apply_controlled(state, ["C"], ["T"], shifts)
    assert np.array_equal(controlled.matrix, q.apply_unitary(state, q.cx_matrix(d), ["T", "C"]).matrix)


@pytest.mark.parametrize("kind", KINDS)
def test_apply_controlled_without_blocks_is_identity(kind):
    rng = np.random.default_rng(7)
    layout = SystemLayout(tuple(
        Subsystem(f"R{k}", f"P{k}", "shield", d) for k, d in enumerate((2, 3, 2))
    ))
    state = random_state(layout, rng, kind)
    out = q.apply_controlled(state, ["R2"], ["R0"], {})
    assert out.is_pure == state.is_pure
    assert np.array_equal(data(out), data(state))


def test_apply_unitary_on_density_keeps_one_working_array():
    # the regrouped copy is worked on in place: besides the input, the peak
    # is the working array plus one product or result, not a third copy
    rng = np.random.default_rng(11)
    layout = q.standard_layout(2, 3, (2, 2, 2, 2))
    state = random_state(layout, rng, "density")
    u = q.haar_unitary(2, rng)
    tracemalloc.start()
    try:
        q.apply_unitary(state, u, ["A1.info"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert layout.total_dim == 256
    assert peak < 2.5 * state.matrix.nbytes
