"""Density views against the grouped-copy formulas they replaced.

project_registers, partial_trace and measure_computational read a density
through a view with one row and one column axis per run of adjacent
registers (``states._runs``) and copy only what they keep or write. The
oracles below are the formulas they replaced: regroup the whole array
with ``states._grouped``, then take one diagonal block, trace over the
traced axes, or write each outcome's block into a zeroed grouped copy.
Outputs must be the same bytes, +0.0 zeros included.

Where the support leaves most traced blocks zero, a partial trace gathers
each traced digit string's support rows x rows instead of adding whole
blocks through the view (``states._gathers``). Those inputs (sparse
composites, mixed GHZ densities, a PPT key state, -0.0 off the support)
are held to the same oracles, and to the view route itself, run on the
same call with the gather switched off.
"""
import itertools
import tracemalloc

import numpy as np
import pytest

import qcrkit as q
from qcrkit import states
from qcrkit.registers import DEALER, labeled_layout
from test_ppt_key_state import ppt_key_state


def grouped_partial_trace(state, over):
    kept = state.layout.without(over)
    m, _ = states._grouped(state.layout, state.matrix, kept.labels)
    return np.trace(m, axis1=1, axis2=3)


def grouped_branch(grouped, k):
    """Outcome k of a grouped array: its index, probability and normalizer.

    Outcome k is row k of a ``(g, r)`` vector, normalized by sqrt(p), or the
    diagonal block k of a ``(g, r, g, r)`` matrix, normalized by p.
    """
    if grouped.ndim == 2:
        row = grouped[k]
        p = float(np.real(np.vdot(row, row)))
        return (k,), p, np.sqrt(p)
    p = float(np.real(np.trace(grouped[k, :, k, :])))
    return (k, slice(None), k), p, p


def grouped_project(state, on, digits):
    k = states._digit_index(state.layout, on, digits)
    w, _ = states._grouped(state.layout, state._data, on)
    sel, prob, norm = grouped_branch(w, k)
    return prob, (w[sel] / norm if prob > 0.0 else None)


def grouped_measure(state, on, prob_floor=q.defaults.PROB_FLOOR):
    w, ungroup = states._grouped(state.layout, state._data, on)
    dims = [state.layout.subsystem(l).dim for l in on]
    out = []
    for k, digits in enumerate(itertools.product(*map(range, dims))):
        sel, p, norm = grouped_branch(w, k)
        if p <= prob_floor:
            continue
        full = np.zeros_like(w)
        full[sel] = w[sel] / norm
        out.append((digits, p, ungroup(full)))
    return out


def assert_same_as_oracles(state, subsets):
    for over in subsets:
        if state.is_pure or not over:  # both return a pure or an empty-trace input as it is
            continue
        got = q.partial_trace(state, over)
        assert got._data.tobytes() == grouped_partial_trace(state, over).tobytes(), over
    for on in subsets:
        if not on:
            continue
        dims = [state.layout.subsystem(l).dim for l in on]
        for digits in itertools.product(*map(range, dims)):
            prob, post = q.project_registers(state, on, digits)
            want_prob, want = grouped_project(state, on, digits)
            assert prob == want_prob, (on, digits)
            if want is None:
                assert post is None
            else:
                assert post._data.tobytes() == want.tobytes(), (on, digits)
        if np.prod(dims) > 24:  # every outcome is a full-size array; keep the count small
            continue
        got = q.measure_computational(state, on)
        want = grouped_measure(state, on)
        assert [(o.digits, o.probability) for o in got] == [w[:2] for w in want], on
        for outcome, (_, _, post) in zip(got, want):
            assert outcome.state.layout == state.layout
            assert outcome.state._data.tobytes() == post.tobytes(), (on, outcome.digits)


def seeded_fixtures():
    rng = np.random.default_rng(1401)
    return [
        q.random_private_state(2, (2, 2), rng),
        q.random_private_state(3, (1, 2), rng),
        q.purify(q.random_private_state(2, (1, 2), rng)).to_density(),
        q.build_ghz_qcr(2, 2, q.ShieldSeed.random([2, 1, 2], rng, pure=False)),
        q.build_example_state().to_density(),
        q.QuantumState(q.standard_layout(2, 1, (2, 3)),
                       matrix=np.kron(q.random_density(12, rng), np.eye(2) / 2)),
    ]


@pytest.mark.parametrize("index", range(6))
def test_every_register_subset_matches_the_grouped_copy(index):
    state = seeded_fixtures()[index]
    labels = state.layout.labels
    subsets = [list(c) for r in range(len(labels) + 1) for c in itertools.combinations(labels, r)]
    assert_same_as_oracles(state, subsets)
    # the same registers in another order project onto the same block
    assert_same_as_oracles(state, [list(reversed(labels[:3]))])


def many_register_state(rng, pure):
    """40 registers, 32 of dimension 1, in crypto form: 2 x 3 x 4^3 = 384 dims."""
    regs = [(DEALER, "info", 2), (DEALER, "shield", 1), (DEALER, "shield", 3)]
    for k in range(1, 4):
        regs += [(f"A{k}", "info", 2)] + [(f"A{k}", "shield", 1)] * 8 + [(f"A{k}", "shield", 2)]
    regs += [(DEALER, "shield", 1)] * 7
    layout = labeled_layout(regs)
    if pure:
        return q.QuantumState(layout, vector=q.random_pure(layout.total_dim, rng))
    return q.QuantumState(layout, matrix=q.random_density(layout.total_dim, rng))


@pytest.mark.parametrize("pure", [False, True])
def test_past_26_registers_projection_and_trace_match_the_grouped_copy(pure):
    rng = np.random.default_rng(1402)
    state = many_register_state(rng, pure)
    labels = state.layout.labels
    assert len(labels) == 40 and state.dim == 384
    subsets = [
        list(labels[:2]),
        ["A1.info", "A2.shield9", "D.shield"],
        [l for l in labels if "shield" in l],
        [l for l in labels if not l.startswith("A2")],
        list(labels),
        ["A3.shield9", "D.info"],
    ]
    assert_same_as_oracles(state, subsets)
    dens = state.to_density()
    assert_same_as_oracles(dens, subsets)
    # reduce projects A1's info register out, then traces its 9 shields
    for branch in q.reduce(dens, ["A1"], check=False):
        post = q.project_registers(dens, ["A1.info"], branch.digits)[1]
        shields = [l for l in post.layout.labels if l.startswith("A1.")]
        assert len(shields) == 9
        want = q.partial_trace(post, shields)
        if branch.beta:
            want = q.apply_unitary(want, q.shift_matrix(2, branch.beta), ["D.info"])
        assert branch.state._data.tobytes() == want._data.tobytes()


def test_dimension_one_registers_change_no_number():
    # the same arrays on the 8 registers of dimension above 1 of the 40
    rng = np.random.default_rng(1402)
    many = [many_register_state(rng, pure) for pure in (True, False)]
    big = labeled_layout([(s.party, s.kind, s.dim) for s in many[0].layout.subsystems if s.dim > 1])
    assert len(big.labels) == 8 and big.total_dim == 384
    few = [q.QuantumState(big, **{"vector" if s.is_pure else "matrix": s._data}) for s in many]

    def numbers(pure, dens):
        out = [q.trace_distance(pure, dens), q.purify(dens)._data.tobytes()]
        for state in (pure, dens):
            out.append([c.min_eigenvalue for c in q.all_dealer_cuts_ppt(state).cuts])
            out.append(q.is_qcr(state, exhaustive=True).to_dict())
            for dishonest in (["A1"], ["A2", "A3"]):
                out.append([(o.digits, o.probability, o.state._data.tobytes())
                            for o in q.reduce(state, dishonest, check=False)])
        return out

    assert numbers(*many) == numbers(*few)


@pytest.mark.parametrize("pure", [False, True])
def test_selection_errors_on_the_view_paths(pure):
    state = many_register_state(np.random.default_rng(1403), pure)
    with pytest.raises(ValueError, match="repeated register label in selection"):
        q.project_registers(state, ["A1.info", "A1.info"], (0, 0))
    with pytest.raises(ValueError, match="repeated register label in selection"):
        q.partial_trace(state, ["A1.shield", "A2.info", "A1.shield"])
    with pytest.raises(KeyError, match="no register labeled 'nope'"):
        q.project_registers(state, ["A1.info", "nope"], (0, 0))
    with pytest.raises(KeyError, match="no register labeled 'nope'"):
        q.partial_trace(state, ["A1.info", "nope"])


def composite_1024():
    a = q.random_private_state(2, (2, 2), np.random.default_rng(1404))
    merged, _ = q.compose(a, q.build_example_state().to_density(), check=False)
    assert merged.dim == 1024
    return merged


def peak_bytes(call):
    tracemalloc.start()
    try:
        out = call()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_project_registers_at_1024_copies_only_the_kept_block():
    rho = composite_1024()
    (prob, post), peak = peak_bytes(lambda: q.project_registers(rho, ["A1.info"], (1,)))
    assert post.dim == 512 and prob > 0
    assert peak <= 1.1 * post.matrix.nbytes


def test_partial_trace_at_1024_makes_no_array_as_large_as_its_input():
    rho = composite_1024()
    for over in (["D.shield"], ["A1.info", "A1.shield"], ["D.info", "A3.shield"]):
        out, peak = peak_bytes(lambda: q.partial_trace(rho, over))
        assert out.dim == 1024 >> len(over)
        assert peak < rho.matrix.nbytes / 2
        assert out.matrix.tobytes() == grouped_partial_trace(rho, over).tobytes()


def test_measure_computational_at_1024_holds_only_its_outputs():
    rho = composite_1024()
    on = ["A1.info", "A2.info"]
    outcomes, peak = peak_bytes(lambda: q.measure_computational(rho, on))
    assert len(outcomes) == 4
    assert peak <= 4.05 * rho.matrix.nbytes
    want = grouped_measure(rho, on)
    assert [(o.digits, o.probability) for o in outcomes] == [w[:2] for w in want]
    for outcome, (_, _, post) in zip(outcomes, want):
        assert outcome.state.matrix.tobytes() == post.tobytes()


def two_step_reduce(state, dishonest):
    """reduce's branches from the grouped-copy projection and trace it used to run in turn."""
    layout = state.layout
    d = layout.qudit_dim
    measured = [layout.info_label(p) for p in dishonest]
    shields = [l for p in dishonest for l in layout.party_labels(p) if l not in measured]
    out = []
    for digits in itertools.product(*(range(layout.subsystem(l).dim) for l in measured)):
        prob, post = grouped_project(state, measured, digits)
        if prob <= q.defaults.PROB_FLOOR:
            continue
        post = q.QuantumState(layout.without(measured), **{
            "vector" if post.ndim == 1 else "matrix": post}, validate=False)
        if shields and post.is_pure:
            post = q.partial_trace(post, shields)
        elif shields:
            post = q.QuantumState(post.layout.without(shields),
                                  matrix=grouped_partial_trace(post, shields), validate=False)
        if sum(digits) % d:
            post = q.apply_unitary(post, q.shift_matrix(d, sum(digits) % d), [layout.info_label(DEALER)])
        out.append((digits, prob, post._data.tobytes()))
    return out


def reduce_fixtures():
    rng = np.random.default_rng(1607)
    ghz = q.build_ghz_qcr(2, 2, q.ShieldSeed.random([2, 1, 2], rng))
    return [
        q.compose(q.random_private_state(2, (2, 2), rng), ghz, check=False)[0],
        q.compose(q.random_private_state(3, (1, 2), rng), q.build_ghz_qcr(3, 2), check=False)[0],
        q.build_ghz_qcr(2, 3, q.ShieldSeed.random([2, 2, 1, 2], rng)),
        q.build_ghz_qcr(3, 3, q.ShieldSeed.random([1, 2, 1, 1], rng, pure=True)),
        q.build_ghz_qcr(2, 3, q.ShieldSeed.random([2, 1, 1, 2], rng, pure=True)).to_density(),
    ]


@pytest.mark.parametrize("index", range(5))
def test_reduce_matches_the_two_step_projection_and_trace(index):
    state = reduce_fixtures()[index]
    players = state.layout.players
    keep_sets = [set(c) for r in range(1, len(players)) for c in itertools.combinations(players, r)]
    for keep in keep_sets:
        dishonest = [p for p in players if p not in keep]
        got = [(o.digits, o.probability, o.state._data.tobytes())
               for o in q.reduce(state, dishonest, check=False)]
        assert got == two_step_reduce(state, dishonest), dishonest


def test_reduce_of_the_1024_composite_matches_the_two_steps_and_copies_no_block():
    rho = composite_1024()
    for dishonest in (["A1"], ["A2"], ["A1", "A3"], ["A2", "A3"]):
        got = [(o.digits, o.probability, o.state.matrix.tobytes())
               for o in q.reduce(rho, dishonest, check=False)]
        assert got == two_step_reduce(rho, dishonest), dishonest
    outcomes, peak = peak_bytes(lambda: q.reduce(rho, ["A1"], check=False))
    assert len(outcomes) == 2
    assert peak < 0.30 * rho.matrix.nbytes


# -- the gathered partial trace ------------------------------------------


def composite(seed):
    """A 1024-dim composite: a seeded private state composed with the example's density."""
    a = q.random_private_state(2, (2, 2), np.random.default_rng(seed))
    merged, _ = q.compose(a, q.build_example_state().to_density(), check=False)
    assert merged.dim == 1024 and merged._support.size == 32
    return merged


def negative_zeros(state):
    """state's density with every zero entry, off its support and on it, as -0.0 - 0.0j."""
    m = state.matrix.copy()
    m[m == 0] = complex(-0.0, -0.0)
    out = q.QuantumState(state.layout, matrix=m)
    assert np.array_equal(out._support, state._support)
    return out


GATHERED = {
    "composite seed 1": lambda: composite(1),
    "composite seed 2": lambda: composite(2),
    "composite seed 3": lambda: composite(3),
    "mixed ghz(3,3)": lambda: q.build_ghz_qcr(
        3, 3, q.ShieldSeed.random((3, 1, 3, 1), np.random.default_rng(2801))),
    "mixed ghz(3,2)": lambda: q.build_ghz_qcr(
        3, 2, q.ShieldSeed.random((3, 3, 1), np.random.default_rng(2802))),
    "key state and example": lambda: q.compose(
        ppt_key_state(2, 1.0), q.build_example_state(), check=False)[0],
    "-0.0 off the support": lambda: negative_zeros(composite(1)),
}


@pytest.fixture
def routes(monkeypatch):
    """Every ``_gathers`` choice made while the test runs."""
    made = []
    choose = states._gathers

    def spy(*args):
        made.append(bool(choose(*args)))
        return made[-1]

    monkeypatch.setattr(states, "_gathers", spy)
    return made


def by_views(call):
    """call() with the partial trace held to its views."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(states, "_gathers", lambda *args: False)
        return call()


def same_result(got, want):
    (p, a), (r, b) = got, want
    assert p == r
    assert (a is None) == (b is None)
    if a is not None:
        assert a.layout == b.layout
        assert a._data.tobytes() == b._data.tobytes()
        assert np.array_equal(a._support, b._support)


def project_traces(state):
    """Each player's info register picked and its shields traced, as reduce reads them, then
    the first player's info register picked and every other register traced: no run is kept."""
    layout = state.layout
    calls = []
    for player in layout.players:
        info = layout.info_label(player)
        shields = [l for l in layout.party_labels(player) if l != info]
        for x in range(layout.subsystem(info).dim):
            calls.append(([info], (x,), shields))
    info = layout.info_label(layout.players[0])
    rest = [l for l in layout.labels if l != info]
    calls += [([info], (x,), rest) for x in range(layout.subsystem(info).dim)]
    return calls


@pytest.mark.parametrize("name", GATHERED)
def test_gathered_traces_match_the_grouped_copy_and_the_views(name, routes):
    state = GATHERED[name]()
    labels = state.layout.labels
    subsets = [[l] for l in labels] + [
        [l for l in labels if l.startswith(p + ".")] for p in state.layout.players]
    subsets.append([l for l in labels if "shield" in l])
    assert_same_as_oracles(state, subsets)
    for over in subsets:
        same_result((1.0, q.partial_trace(state, over)),
                    (1.0, by_views(lambda: q.partial_trace(state, over))))
    for on, digits, over in project_traces(state):
        same_result(states._project_trace(state, on, digits, over),
                    by_views(lambda: states._project_trace(state, on, digits, over)))
    players = state.layout.players
    for dishonest in [[p] for p in players] + [list(players[1:])]:
        got = [(o.digits, o.probability, o.state._data.tobytes())
               for o in q.reduce(state, dishonest, check=False)]
        assert got == two_step_reduce(state, dishonest), dishonest
    assert True in routes


@pytest.mark.parametrize("ones", [False, True])
def test_a_gathered_trace_that_keeps_no_run(routes, ones):
    # every register of dimension above 1 is picked or traced: a 1 x 1 output,
    # with or without dimension-1 registers left over
    rho = composite(1)
    if ones:
        regs = [(s.party, s.kind, s.dim) for s in rho.layout.subsystems] + [("A2", "shield", 1)] * 3
        rho = q.QuantumState(labeled_layout(regs), matrix=rho.matrix)
    rest = [l for l in rho.layout.labels if l != "A1.info" and rho.layout.subsystem(l).dim > 1]
    for x in (0, 1):
        got = states._project_trace(rho, ["A1.info"], (x,), rest)
        assert got[1].layout.total_dim == 1 and len(got[1].layout.labels) == (3 if ones else 0)
        same_result(got, by_views(lambda: states._project_trace(rho, ["A1.info"], (x,), rest)))
        assert abs(got[1].matrix[0, 0] - 1.0) < 1e-12  # the trace of the normalized branch
    assert routes == [True, True]


def test_every_trace_gathered_matches_the_views(monkeypatch):
    # the gather forced on wherever 1/p is finite, on dense and sparse inputs alike
    monkeypatch.setattr(states, "_gathers",
                        lambda hit, traced, scale: scale is None or np.isfinite(scale))
    fixtures = seeded_fixtures() + reduce_fixtures() + [
        ppt_key_state(2, 0.5), ppt_key_state(4, 1.0), many_register_state(np.random.default_rng(2803), False)]
    for state in fixtures:
        if state.is_pure:
            continue
        labels = state.layout.labels
        for over in [[l] for l in labels] + [list(labels[1:]), list(labels[::2])]:
            if over:
                want = by_views(lambda: q.partial_trace(state, over))
                assert q.partial_trace(state, over)._data.tobytes() == want._data.tobytes(), over
        for on, digits, over in project_traces(state) if state.layout.players else []:
            same_result(states._project_trace(state, on, digits, over),
                        by_views(lambda: states._project_trace(state, on, digits, over)))


def test_full_support_densities_stay_on_the_views(routes):
    rng = np.random.default_rng(2804)
    full = [
        q.QuantumState(composite(1).layout, matrix=q.random_density(1024, rng)),
        many_register_state(rng, False),
    ]
    for state in full:
        assert state._support.size == state.dim
        for player in state.layout.players:
            q.reduce(state, [player], check=False)
        labels = state.layout.labels
        for k in range(1, 4):
            q.partial_trace(state, list(labels[:k]))
    assert routes and not any(routes)


def test_the_gathered_trace_of_the_1024_composite_holds_its_output_and_support_blocks(routes):
    # at the view route, the kept x kept block scaled by 1/p is a second output-sized array
    rho = composite(1)
    shields = [l for l in rho.layout.party_labels("A1") if l != "A1.info"]
    (prob, post), peak = peak_bytes(lambda: states._project_trace(rho, ["A1.info"], (1,), shields))
    assert routes == [True]
    assert post.dim == 256 and prob > 0
    rows = rho._support.size // 2  # the support rows with A1.info = 1
    blocks = 2 * rows * rows * 16  # each gathered block and its scaled copy
    assert peak <= post.matrix.nbytes + blocks + 2**15
