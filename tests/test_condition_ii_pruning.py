"""Condition (ii) on pruned branch factors against the whole factors.

``verify._coalition_factors`` prunes a purified density's branch factors
in its one regrouping pass: the adversary rows that are zero in every
branch and each branch's zero columns are left out, read off that
regrouping's nonzero entries. The oracle compares every pair of whole
factors, made by the same pass with pruning switched off. Distances must
agree within 1e-12, with the same verdicts, branch counts and worst pairs;
a vector's factors are never pruned.
"""
import logging
import math
import tracemalloc

import numpy as np
import pytest

import qcrkit as q
from qcrkit import verify
from qcrkit.states import _gram_difference_norm
from test_ppt_key_state import ppt_key_state


def composite(seed):
    a = q.random_private_state(2, (2, 2), np.random.default_rng(seed))
    return q.compose(a, q.build_example_state(), check=False)[0]


def private(d, k):
    rng = np.random.default_rng(2810 + d)
    return [q.random_private_state(d, (d, d), rng) for _ in range(k + 1)][k]


DENSITIES = {
    "composite seed 1": lambda: composite(1),
    "composite seed 2": lambda: composite(2),
    "composite seed 3": lambda: composite(3),
    "expansion of 5 pairs": lambda: q.expand_from_private([q.maximally_entangled(2)] * 5, check=False),
    "private d=2 #0": lambda: private(2, 0),
    "private d=2 #1": lambda: private(2, 1),
    "private d=3 #0": lambda: private(3, 0),
    "private d=3 #1": lambda: private(3, 1),
    "key state s=2 c=0.5": lambda: ppt_key_state(2, 0.5),
    "key state s=4 c=1": lambda: ppt_key_state(4, 1.0),
    "mixed ghz(2,4)": lambda: q.build_ghz_qcr(2, 4, q.ShieldSeed.random((2,) * 5, np.random.default_rng(2815))),
    "full rank 64": lambda: q.QuantumState(
        q.standard_layout(2, 2, (2, 2, 2)), matrix=q.random_density(64, np.random.default_rng(2812))),
    "full rank 256": lambda: q.QuantumState(
        q.standard_layout(2, 3, (2, 2, 2, 2)), matrix=q.random_density(256, np.random.default_rng(2813))),
}


def whole_factor_reports(state, specs):
    """(max distance, worst pair, branches) per coalition, from every pair of whole factors."""
    out = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "_PRUNE_WORK", math.inf)  # no pair costs that much
        for _, factors, rows, adv, _ in verify._coalition_factors(state, specs):
            assert rows.size == adv
            distances = [(_gram_difference_norm(ma, mb), (i, j))
                         for k, (i, ma) in enumerate(factors) for j, mb in factors[k + 1:]]
            dmax, worst = max(distances, key=lambda t: t[0], default=(0.0, None))
            out.append((dmax, worst, len(factors)))
    return out


def factor_shapes(state, specs):
    """Per coalition: (adversary dim, columns), and each factor's shape, as the pass yields them."""
    return [((adv, cols), [m.shape for _, m in factors])
            for _, factors, _, adv, cols in verify._coalition_factors(state, specs)]


def specs_of(state, reports):
    return [q.CoalitionSpec.for_layout(state.layout, r.dishonest) for r in reports]


@pytest.mark.parametrize("everywhere", [False, True], ids=["by cost", "everywhere"])
@pytest.mark.parametrize("name", DENSITIES)
def test_pruned_distances_match_the_whole_factors(name, everywhere, monkeypatch):
    if everywhere:  # small factors are pruned too
        monkeypatch.setattr(verify, "_PRUNE_WORK", 0)
    state = DENSITIES[name]()
    assert not state.is_pure
    reports = q.check_condition_ii(state, exhaustive=True)
    specs = specs_of(state, reports)
    want = whole_factor_reports(state, specs)
    assert len(reports) == len(want)
    for report, (dmax, worst, branches) in zip(reports, want):
        assert abs(report.max_distance - dmax) <= 1e-12, report.dishonest
        assert report.passed == (dmax <= q.defaults.VERIFY_TOL)
        assert report.worst_pair == worst
        assert report.branches == branches
    dropped = [any(shape != whole for shape in shapes) for whole, shapes in factor_shapes(state, specs)]
    if name.startswith("full rank"):
        assert not any(dropped)  # a density with no zero row is never pruned
    elif everywhere or name.startswith("composite"):
        assert any(dropped)


def test_the_composite_prunes_every_coalition_and_keeps_its_verdict():
    state = composite(1)
    report = q.is_qcr(state, tol=1e-9)
    assert report.verdict and report.max_coalition_distance < 1e-12
    # rank 4: 64 adversary rows (A1 or A2 with A3, and a 4-dim environment) by 32 hidden columns
    assert factor_shapes(state, specs_of(state, report.coalitions)) == [
        ((64, 32), [(16, 16)] * 2), ((64, 32), [(32, 8)] * 2), ((64, 32), [(32, 8)] * 2)]
    # the smaller exhaustive coalitions cost less than ``_PRUNE_WORK`` whole, so stay whole
    reports = q.check_condition_ii(state, exhaustive=True)
    assert all(r.passed for r in reports)
    assert [r.dishonest for r in reports] == [
        (), ("A1",), ("A2",), ("A3",), ("A1", "A2"), ("A1", "A3"), ("A2", "A3")]
    assert factor_shapes(state, specs_of(state, reports)) == [
        ((4, 512), [(4, 512)] * 2),
        ((16, 128), [(16, 128)] * 2), ((16, 128), [(16, 128)] * 2), ((16, 128), [(16, 128)] * 2),
        ((64, 32), [(32, 8)] * 2), ((64, 32), [(32, 8)] * 2), ((64, 32), [(16, 16)] * 2),
    ]


def test_condition_ii_on_the_composite_peaks_below_four_purified_vectors():
    # the pass gathers only the kept entries of each factor; copying the
    # whole 64 x 32 factors first peaked at 4.3 times the purified vector
    state = composite(1)
    pure = q.purify(state)
    q.check_condition_ii(state)
    tracemalloc.start()
    try:
        reports = q.check_condition_ii(state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(r.passed for r in reports)
    assert peak <= 3.8 * pure.vector.nbytes


def test_the_debug_line_names_the_pruned_path(caplog):
    caplog.set_level(logging.DEBUG, logger="qcrkit")
    q.check_condition_ii(composite(1))
    lines = [r for r in caplog.records if r.getMessage().startswith("condition ii:")]
    assert all(len(r.args) == 5 for r in lines)
    # the whole 64 x 32 factors would take the dense path, 64 x 64; pruned,
    # the 16 x 16 pair stays dense and the 32 x 8 pairs go through QR
    assert [r.getMessage().rsplit(", max distance ", 1)[0] for r in lines] == [
        "condition ii: coalition A2,A3, adversary dim 64, factor columns 32, path dense",
        "condition ii: coalition A1,A3, adversary dim 64, factor columns 32, path qr",
        "condition ii: coalition A1,A2, adversary dim 64, factor columns 32, path qr",
    ]


@pytest.mark.parametrize("name", ["ghz(2,4)", "ghz(3,3)", "example", "purified composite"])
def test_vectors_are_never_pruned(name, monkeypatch):
    state = {
        "ghz(2,4)": lambda: q.build_ghz_qcr(2, 4),
        "ghz(3,3)": lambda: q.build_ghz_qcr(3, 3, q.ShieldSeed.random((3, 1, 1, 3), np.random.default_rng(2814), pure=True)),
        "example": q.build_example_state,
        "purified composite": lambda: q.purify(composite(1)),
    }[name]()
    assert state.is_pure and state._support.size < state.dim
    monkeypatch.setattr(verify, "_PRUNE_WORK", 0)
    reports = q.check_condition_ii(state, exhaustive=True)
    specs = specs_of(state, reports)
    for _, factors, rows, adv, cols in verify._coalition_factors(state, specs):
        assert np.array_equal(rows, np.arange(adv))
        assert all(m.shape == (adv, cols) for _, m in factors)
    assert [(r.max_distance, r.worst_pair, r.branches) for r in reports] == \
        whole_factor_reports(state, specs)
