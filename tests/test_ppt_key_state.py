"""The PPT key states of Horodecki, Horodecki, Horodecki & Oppenheim on the PPT sweep.

The paper's headline state is PPT across the dealer : player cut, so
nothing can be distilled across it, and still carries key. It is built here
from numpy and the public API alone, on ``standard_layout(2, 1, (s, s))``:
with u the Sylvester Hadamard over sqrt(s), X = sum_ij u_ij |ij><ji| and
P = sum_i |ii><ii| on the two shields, the info blocks |00><00| and
|11><11| are I / sqrt(s), |00><11| is X, |11><00| is X^dag, and |01><01|
and |10><10| are c P, all over the trace. At c = 1 the dealer cut is PPT;
at c = 0.9 it is not. Neither condition of ``is_qcr`` holds, since the
|01> and |10> blocks carry mass c / (sqrt(s) + c) off the digit-sum-0
support.
"""
import numpy as np
import pytest

import qcrkit as q


def sylvester(s):
    h = np.ones((1, 1))
    while h.shape[0] < s:
        h = np.block([[h, h], [h, -h]])
    return h


def ppt_key_state(s, c):
    """The key state on D.info, D.shield, A1.info, A1.shield, shields of dimension s."""
    u = sylvester(s) / np.sqrt(s)
    i, j = np.divmod(np.arange(s * s), s)
    x = np.zeros((s * s, s * s), dtype=complex)
    x[i * s + j, j * s + i] = u[i, j]
    p = np.diag((i == j).astype(complex))
    eye = np.eye(s * s) / np.sqrt(s)
    zero = np.zeros_like(x)
    # rows and columns in (D.info, A1.info, D.shield, A1.shield) order
    m = np.block([
        [eye, zero, zero, x],
        [zero, c * p, zero, zero],
        [zero, zero, c * p, zero],
        [x.conj().T, zero, zero, eye],
    ])
    m = m.reshape((2, 2, s, s) * 2).transpose(0, 2, 1, 3, 4, 6, 5, 7).reshape(4 * s * s, -1)
    return q.QuantumState(q.standard_layout(2, 1, (s, s)), matrix=m / np.trace(m).real)


@pytest.mark.parametrize("s, below", [(2, -1.080e-2), (4, -4.310e-3), (16, -6.378e-4)])
def test_the_dealer_cut_is_ppt_at_c_1_and_not_at_c_0_9(s, below):
    cut = q.CutSpec.dealer_cut(q.standard_layout(2, 1, (s, s)), ["A1"])
    at_one = q.ppt_check(ppt_key_state(s, 1.0), cut)
    assert at_one.ppt and at_one.min_eigenvalue >= -1e-12
    at_nine = q.ppt_check(ppt_key_state(s, 0.9), cut)
    assert not at_nine.ppt
    assert at_nine.min_eigenvalue == pytest.approx(below, rel=1e-3)


@pytest.mark.parametrize("s", [2, 4, 16])
def test_the_key_state_fails_both_conditions(s):
    report = q.is_qcr(ppt_key_state(s, 1.0))
    assert report.failing_conditions == ("condition_i", "condition_ii")
    assert abs(report.condition_i.off_support_mass - 1 / (np.sqrt(s) + 1)) <= 1e-12


def test_composed_with_a_bell_pair_only_the_key_state_cut_is_ppt():
    composite, _ = q.compose(ppt_key_state(16, 1.0), q.maximally_entangled(2), check=False)
    report = q.all_dealer_cuts_ppt(composite)
    got = {c.side_two: c.min_eigenvalue for c in report.cuts}
    want = {("A1",): 0.0, ("A2",): -3.125e-3, ("A1", "A2"): -6.25e-3}
    assert len(got) == len(want)
    layout = composite.layout
    for players, value in want.items():
        cut = q.CutSpec.dealer_cut(layout, players)
        assert abs(got[cut.side_two] - value) <= 1e-9, players
    assert [c.ppt for c in report.cuts] == [True, False, False]
