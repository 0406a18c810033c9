"""Dealer-side protocol transformations between resource states.

reduce: a dishonest subset measures its info registers and announces the
digits; the dealer shifts its own register by the announced digit sum and
the remaining parties are left holding a smaller resource state. The
projection and the trace over the measured players' shields are one step
(``states._project_trace``), which copies no block of a density.

compose: the dealer merges two resource states it shares with disjoint
player groups by adding one info register into the other (modular
controlled addition), after which the absorbed register joins the dealer's
shield. The addition and the register reorder that follows only permute
basis states, so every entry of the result is one product of an entry of
a and an entry of b. compose maps each pair of the inputs' support rows
to its merged row, and ``states._placed`` writes the products of the two
support blocks there, once each; kron(a, b) is never formed. reduce's
dealer shift is a relabel of the dealer's digit by the same writer
(``states._relabel``).

expand_from_private: left fold of compose over a list of two-party states.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import defaults
from .registers import (
    DEALER, ENV_PARTY, SystemLayout, _require_integer, digit_sum, labeled_layout, standard_parties,
)
from .states import (
    QuantumState, _check_cap, _digits, _flat, _placed, _project_trace, _relabel,
    measurement_distribution,
)
from .verify import CoalitionSpec, VerificationReport, is_qcr


class InputVerificationError(ValueError):
    """An input state failed certification; the report rides along."""

    def __init__(self, message: str, report: VerificationReport):
        super().__init__(message)
        self.report = report


def shift_matrix(d: int, beta: int) -> np.ndarray:
    """Modular shift sum_i |i+beta mod d><i|."""
    _require_integer(d, "qudit dimension")
    _require_integer(beta, "shift")
    if d < 2:
        raise ValueError("qudit dimension must be >= 2")
    w = np.zeros((d, d), dtype=np.complex128)
    for i in range(d):
        w[(i + beta) % d, i] = 1.0
    return w


def cx_matrix(d: int) -> np.ndarray:
    """Modular controlled addition sum_{j,k} |j+k mod d, k><j, k|.

    First tensor slot is the target, second the control.
    """
    _require_integer(d, "qudit dimension")
    if d < 2:
        raise ValueError("qudit dimension must be >= 2")
    m = np.zeros((d * d, d * d), dtype=np.complex128)
    for j in range(d):
        for k in range(d):
            m[((j + k) % d) * d + k, j * d + k] = 1.0
    return m


@dataclass(frozen=True)
class ReductionOutcome:
    """One measurement branch of a reduction."""

    dishonest: tuple[str, ...]
    digits: tuple[int, ...]
    beta: int
    probability: float
    state: QuantumState
    correction_applied: bool

    def to_dict(self) -> dict:
        return {
            "dishonest": list(self.dishonest),
            "digits": list(self.digits),
            "beta": self.beta,
            "probability": self.probability,
            "correction_applied": self.correction_applied,
        }


@dataclass(frozen=True)
class CompositionRecord:
    """Provenance of a composition: layouts, relabeling, and the unitary used."""

    qudit_dim: int
    layout_a: SystemLayout
    layout_b: SystemLayout
    layout: SystemLayout
    cx_target: str
    cx_control: str
    relabel_a: dict = field(default_factory=dict)
    relabel_b: dict = field(default_factory=dict)

    @property
    def unitary_descriptor(self) -> str:
        return f"cX(d={self.qudit_dim}) target={self.cx_target} control={self.cx_control}"

    def to_dict(self) -> dict:
        return {
            "qudit_dim": self.qudit_dim,
            "unitary": self.unitary_descriptor,
            "cx_target": self.cx_target,
            "cx_control": self.cx_control,
            "layout_a": self.layout_a.to_dict(),
            "layout_b": self.layout_b.to_dict(),
            "layout": self.layout.to_dict(),
            "relabel_a": dict(self.relabel_a),
            "relabel_b": dict(self.relabel_b),
        }


def _require_certified(state: QuantumState, tol: float, role: str) -> None:
    report = is_qcr(state, tol=tol)
    if not report.verdict:
        raise InputVerificationError(
            f"{role} failed certification (failing: {', '.join(report.failing_conditions)})",
            report,
        )


def reduce(
    state: QuantumState,
    dishonest: Sequence[str] | str,
    outcome: Sequence[int] | None = None,
    *,
    rng: np.random.Generator | None = None,
    check: bool = True,
    tol: float = defaults.VERIFY_TOL,
) -> list[ReductionOutcome]:
    """Measure out a proper subset of players and correct the dealer register.

    Branches are enumerated exhaustively unless a specific outcome is named
    or an rng is supplied to sample a single branch. Each returned state
    lives on the layout with the measured players' registers removed.
    """
    layout = state.layout
    d = layout.qudit_dim
    p2 = CoalitionSpec.for_layout(layout, dishonest).dishonest
    if not p2:
        raise ValueError("need at least one player to measure out")
    if outcome is not None and rng is not None:
        raise ValueError("pass either a fixed outcome or an rng, not both")
    if check:
        _require_certified(state, tol, "reduction input")
    measured = [layout.info_label(p) for p in p2]
    meas_dims = [layout.subsystem(l).dim for l in measured]
    if outcome is not None:
        want = tuple(outcome)
        if len(want) != len(measured):
            raise ValueError(f"outcome needs {len(measured)} digits, got {len(want)}")
        candidates = [want]
    elif rng is not None:
        probs = measurement_distribution(state, measured)
        flat = probs.reshape(-1)
        pick = int(rng.choice(flat.size, p=flat / flat.sum()))
        candidates = [np.unravel_index(pick, probs.shape)]
    else:
        candidates = itertools.product(*[range(n) for n in meas_dims])
    # the measured info registers are removed by projection; the measured
    # players' shields still need tracing out
    shields = [
        l for p in p2 for l in layout.party_labels(p) if l not in set(measured)
    ]
    dealer_info = layout.info_label(DEALER)
    results = []
    for digits in candidates:
        prob, post = _project_trace(state, measured, tuple(digits), shields)
        digits = tuple(int(x) for x in digits)
        if prob <= defaults.PROB_FLOOR:
            if outcome is not None:
                raise ValueError(f"outcome {digits} has zero probability")
            continue
        beta = digit_sum(digits, d)
        corrected = beta != 0
        if corrected:
            post = _relabel(post, dealer_info, (np.arange(d) + beta) % d)
        results.append(
            ReductionOutcome(
                dishonest=p2,
                digits=digits,
                beta=beta,
                probability=prob,
                state=post,
                correction_applied=corrected,
            )
        )
    return results


def compose(
    a: QuantumState,
    b: QuantumState,
    *,
    check: bool = True,
    tol: float = defaults.VERIFY_TOL,
    cap: int | None = None,
) -> tuple[QuantumState, CompositionRecord]:
    """Merge two resource states held by one dealer with disjoint player groups.

    The joint state gets b's dealer info register added into a's (modular
    controlled addition, target on a's side); b's dealer info register is
    then reclassified as a dealer shield, players are renumbered A1..A_{N+M}
    (a's first), and the relabeling is recorded. Addition and reorder are
    one basis permutation of kron(a, b): each pair of support rows is
    mapped to its merged row, and ``states._placed`` writes the products
    there, into one array; cap is checked before the inputs are certified.
    """
    d = a.layout.qudit_dim
    if b.layout.qudit_dim != d:
        raise ValueError(
            f"qudit dimensions differ: {d} vs {b.layout.qudit_dim}"
        )
    _check_cap(a.dim * b.dim, cap)
    if check:
        _require_certified(a, tol, "first composition input")
        _require_certified(b, tol, "second composition input")
    regs = a.layout.subsystems + b.layout.subsystems
    sides = ((a.layout, 0), (b.layout, len(a.layout)))
    a_dealer, b_dealer = (
        [off + lay.position(l) for l in lay.party_labels(DEALER)] for lay, off in sides
    )
    target, control = (off + lay.position(lay.info_label(DEALER)) for lay, off in sides)
    shields = (
        [i for i in a_dealer if i != target] + [control] + [i for i in b_dealer if i != control]
    )
    players = [(lay, off, p) for lay, off in sides for p in lay.players]
    # each merged register as (its position in kron(a, b), party, kind), in
    # merged order
    merged = [(target, DEALER, "info")] + [(i, DEALER, "shield") for i in shields]
    merged += [
        (off + lay.position(l), name, lay.subsystem(l).kind)
        for name, (lay, off, p) in zip(standard_parties(len(players))[1:], players)
        for l in lay.party_labels(p)
    ]
    merged += [
        (off + lay.position(l), ENV_PARTY, "env") for lay, off in sides for l in lay.env_labels
    ]
    layout = labeled_layout((party, kind, regs[i].dim) for i, party, kind in merged)
    # each register's new label, in kron(a, b) order
    names = [l for _, l in sorted(zip((i for i, _, _ in merged), layout.labels))]
    n_a = len(a.layout)
    relabel_a = dict(zip(a.layout.labels, names[:n_a]))
    relabel_b = dict(zip(b.layout.labels, names[n_a:]))
    # each pair of support rows' digits in kron(a, b) order, then the addition
    digits = _digits(a._support[:, None], a.dims) + _digits(b._support, b.dims)
    digits[target] = (digits[target] + digits[control]) % d
    idx = _flat([digits[i] for i, _, _ in merged], layout.dims)

    record = CompositionRecord(
        qudit_dim=d,
        layout_a=a.layout,
        layout_b=b.layout,
        layout=layout,
        cx_target=names[target],
        cx_control=names[control],
        relabel_a=relabel_a,
        relabel_b=relabel_b,
    )
    return _placed(layout, idx.reshape(-1), a, b), record


def expand_from_private(
    privates: Sequence[QuantumState],
    *,
    check: bool = True,
    tol: float = defaults.VERIFY_TOL,
    cap: int | None = None,
) -> QuantumState:
    """Fold a list of dealer-player pair states into one many-player state."""
    states = list(privates)
    if not states:
        raise ValueError("need at least one input state")
    for s in states:
        s.layout.require_crypto_form()
        if s.layout.n_players != 1:
            raise ValueError(
                f"inputs must have exactly one player, got {s.layout.n_players}"
            )
    acc = states[0]
    if len(states) == 1:
        if check:
            _require_certified(acc, tol, "expansion input")
        return acc
    for s in states[1:]:
        acc, _ = compose(acc, s, check=check, tol=tol, cap=cap)
    return acc
