"""The one writer of a tensor product then a basis permutation, against what it replaced.

``states._placed`` writes the products of one or two states' support blocks
at the rows a caller maps them to with ``states._digits`` and
``states._flat``. Its callers are ``tensor_product`` (kron order),
``compose`` (the controlled addition in merged order) and ``states._relabel``
(``reduce``'s dealer shift, ``relabel_negated_player``). The oracles are the
code they replaced: the stride loops of the old merged product and of the
PPT index map, ``np.kron``, and ``apply_unitary`` with a permutation matrix.
Every output's bytes, support field and signed zeros are compared.
"""
import itertools

import numpy as np
import pytest

import qcrkit as q
from qcrkit import states
from qcrkit.registers import DEALER, labeled_layout


def padded_state(d, players, pad, rng, pure):
    """A crypto-form state with pad dimension-1 shields after each info register."""
    regs = [(DEALER, "info", d), (DEALER, "shield", 2)] + [(DEALER, "shield", 1)] * pad
    for k in range(1, players + 1):
        regs += [(f"A{k}", "info", d)] + [(f"A{k}", "shield", 1)] * pad
    layout = labeled_layout(regs)
    if pure:
        return q.QuantumState(layout, vector=q.random_pure(layout.total_dim, rng))
    return q.QuantumState(layout, matrix=q.random_density(layout.total_dim, rng, rank=3))


def with_negative_zeros(state):
    """state, unvalidated, with every zero real or imaginary part written as -0.0."""
    data = state._data.copy()
    data.real[data.real == 0] = -0.0
    data.imag[data.imag == 0] = -0.0
    kind = "vector" if state.is_pure else "matrix"
    return q.QuantumState(state.layout, validate=False, **{kind: data})


def has_negative_zero(arr):
    parts = arr.view(np.float64)
    return bool(np.any((parts == 0) & np.signbit(parts)))


def fixtures(rng):
    base = [
        q.maximally_entangled(3),
        q.build_example_state(),
        q.random_private_state(2, (2, 2), rng),
        q.random_private_state(3, (1, 2), rng),
        q.build_ghz_qcr(2, 2, q.ShieldSeed.random([2, 1, 2], rng, pure=True)),
        q.build_ghz_qcr(2, 2, q.ShieldSeed.random([2, 1, 2], rng)),
        q.build_ghz_qcr(3, 2, q.ShieldSeed.random([1, 2, 1], rng)),
        q.purify(q.random_private_state(2, (1, 2), rng)),
    ]
    return base + [with_negative_zeros(s) for s in base]


# -- the replaced stride loops ------------------------------------------------


def stride_merged_product(a, b, order, target, control):
    """The old merged product: kron(a, b) after the controlled addition, by strides."""
    ra, rb = states._rows(a), states._rows(b)
    dims = a.dims + b.dims
    stride, left = {}, a.dim * b.dim
    for i in order:
        left //= dims[i]
        stride[i] = left
    parts, digit = [], {}
    for rows, lo, hi, left in ((ra, 0, len(a.dims), a.dim), (rb, len(a.dims), len(dims), b.dim)):
        m = np.zeros_like(rows)
        for i in range(lo, hi):
            left //= dims[i]
            if dims[i] > 1:
                digit[i] = rows // left % dims[i]
                m += 0 if i == target else digit[i] * stride[i]
        parts.append(m)
    shifted = (digit[target][:, None] + digit[control]) % dims[target]
    idx = (parts[0][:, None] + parts[1] + stride[target] * shifted).reshape(-1)
    if a.is_pure and b.is_pure:
        data = np.zeros(a.dim * b.dim, dtype=np.complex128)
        data[idx] = np.multiply.outer(a.vector[ra], b.vector[rb]).reshape(-1) + 0.0
        return data, np.sort(idx)
    xa, xb = a._entries(ra, ra), b._entries(rb, rb)
    data = np.zeros((a.dim * b.dim,) * 2, dtype=np.complex128)
    step = max(1, 2**16 // max(idx.size, 1))
    for s in range(0, idx.size, step):
        i, j = np.divmod(np.arange(s, min(s + step, idx.size)), rb.size)
        block = (xa[i][:, :, None] * xb[j][:, None, :]).reshape(i.size, -1)
        block += 0.0
        data[np.ix_(idx[s:s + step], idx)] = block
    return data, np.sort(idx)


def stride_transpose_shift(layout, over):
    """The old PPT index map B: the named registers' part of each flat index, by strides."""
    index = np.arange(layout.total_dim)
    shift = np.zeros_like(index)
    chosen = set(layout.positions(over))
    stride = layout.total_dim
    for i, d in enumerate(layout.dims):
        stride //= d
        if i in chosen:
            shift += index // stride % d * stride
    return shift


def assert_compose_is_the_stride_product(a, b):
    merged, record = q.compose(a, b, check=False)
    # each merged register's position in kron(a, b)
    kron = {l: i for i, l in enumerate([*record.relabel_a.values(), *record.relabel_b.values()])}
    order = [kron[l] for l in record.layout.labels]
    data, rows = stride_merged_product(a, b, order, kron[record.cx_target],
                                       kron[record.cx_control])
    assert merged._data.tobytes() == data.tobytes()
    if not merged.is_pure:
        np.testing.assert_array_equal(merged._support, states._support(data, rows))
    return merged


def test_compose_is_the_stride_product_of_every_fixture_pair():
    rng = np.random.default_rng(1701)
    states_ = fixtures(rng)
    count = 0
    for a, b in itertools.product(states_, repeat=2):
        if a.layout.qudit_dim == b.layout.qudit_dim and a.dim * b.dim <= 1024:
            assert_compose_is_the_stride_product(a, b)
            count += 1
    assert count > 80


@pytest.mark.parametrize("d", [2, 3])
def test_compose_with_dimension_one_registers_is_the_stride_product(d):
    rng = np.random.default_rng(1702 + d)
    for pure_a, pure_b in itertools.product([True, False], repeat=2):
        a = padded_state(d, 1, 8, rng, pure_a)
        b = padded_state(d, 1, 9, rng, pure_b)
        merged = assert_compose_is_the_stride_product(a, b)
        assert len(merged.layout) == 40
        assert_compose_is_the_stride_product(padded_state(d, 2, 3, rng, pure_a), b)


def test_the_ppt_index_map_is_the_stride_map():
    rng = np.random.default_rng(1704)
    layouts = [
        q.build_example_state().layout,
        q.random_private_state(3, (1, 2), rng).layout,
        padded_state(2, 1, 8, rng, True).layout,
        q.compose(padded_state(2, 1, 8, rng, True), padded_state(2, 1, 9, rng, True),
                  check=False)[0].layout,
        labeled_layout([(DEALER, "info", 1), ("A1", "info", 1)]),  # dimension 1
    ]
    assert len(layouts[3]) == 40
    for layout in layouts:
        labels = layout.labels
        subsets = [[l] for l in labels]
        subsets += [list(rng.choice(labels, size=k, replace=False))
                    for k in range(2, len(labels) + 1) for _ in range(3)]
        for over in subsets:
            got = states._transpose_shift(layout, over)
            want = stride_transpose_shift(layout, over)
            assert got.dtype == want.dtype and np.array_equal(got, want), over


# -- the relabel against the permutation matrix it replaced -------------------


def permutation(image):
    p = np.zeros((image.size,) * 2, dtype=np.complex128)
    p[image, np.arange(image.size)] = 1.0
    return p


def assert_same_state(got, want):
    assert got.is_pure == want.is_pure
    assert got._data.tobytes() == want._data.tobytes()
    if not got.is_pure:
        np.testing.assert_array_equal(got._support, want._support)
        np.testing.assert_array_equal(got._support, states._support(got.matrix))


def test_relabels_are_the_permutation_matrix_product():
    rng = np.random.default_rng(1705)
    count = 0
    for s in fixtures(rng):
        d = s.layout.qudit_dim
        for player in s.layout.players:
            label = s.layout.info_label(player)
            want = q.apply_unitary(s, permutation(-np.arange(d) % d), [label])
            assert_same_state(q.relabel_negated_player(s, player), want)
        for beta in range(1, d):
            want = q.apply_unitary(s, q.shift_matrix(d, beta), ["D.info"])
            assert_same_state(states._relabel(s, "D.info", (np.arange(d) + beta) % d), want)
            count += 1
    assert count > 15


def test_every_shifted_reduce_branch_is_the_shift_matrix_product():
    rng = np.random.default_rng(1706)
    base = fixtures(rng)
    composite = q.compose(base[2], base[1], check=False)[0]  # three players, 1024 dims
    shifted = 0
    for s in base + [composite, with_negative_zeros(composite)]:
        layout = s.layout
        d = layout.qudit_dim
        for dishonest in (p for k in range(1, len(layout.players))
                          for p in itertools.combinations(layout.players, k)):
            measured = [layout.info_label(p) for p in dishonest]
            shields = [l for p in dishonest for l in layout.party_labels(p) if l not in measured]
            for o in q.reduce(s, dishonest, check=False):
                if o.beta:
                    _, post = states._project_trace(s, measured, o.digits, shields)
                    want = q.apply_unitary(post, q.shift_matrix(d, o.beta), ["D.info"])
                    assert_same_state(o.state, want)
                    shifted += 1
    assert shifted >= 30


# -- tensor products and signed zeros -----------------------------------------


def test_tensor_product_keeps_kron_values_and_the_support():
    rng = np.random.default_rng(1707)
    states_ = fixtures(rng)
    signed = 0
    for a, b in itertools.product(states_, repeat=2):
        if a.dim * b.dim > 1024:
            continue
        joint = q.tensor_product(a, b.relabeled({l: "b" + l for l in b.layout.labels}))
        if a.is_pure and b.is_pure:
            want = np.kron(a.vector, b.vector)
        else:
            want = np.kron(a.density_matrix(), b.density_matrix())
            np.testing.assert_array_equal(joint._support, states._support(want))
        assert joint.is_pure == (a.is_pure and b.is_pure)
        assert np.array_equal(joint._data, want)
        signed += joint._data.tobytes() != want.tobytes()
    # np.kron writes -0.0 for 0 times a negative part; the writer writes +0.0
    assert signed > 0


def test_no_writer_output_holds_a_negative_zero():
    rng = np.random.default_rng(1708)
    states_ = fixtures(rng)
    outputs = []
    for a, b in itertools.product(states_, repeat=2):
        if a.dim * b.dim > 1024:
            continue
        outputs.append(q.tensor_product(a, b.relabeled({l: "b" + l for l in b.layout.labels})))
        if a.layout.qudit_dim == b.layout.qudit_dim:
            outputs.append(q.compose(a, b, check=False)[0])
    for s in states_:
        outputs += [q.relabel_negated_player(s, p) for p in s.layout.players]
        for k in range(1, len(s.layout.players)):
            for dishonest in itertools.combinations(s.layout.players, k):
                outputs += [o.state for o in q.reduce(s, dishonest, check=False) if o.beta]
    assert len(outputs) > 250
    assert not [s for s in outputs if has_negative_zero(s._data)]
