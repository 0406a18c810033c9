"""Operational certification of cryptographic resource states.

Two checks, together necessary and sufficient:

condition (i)  -- measuring every info register in the computational basis
gives probability 1/d^N on each digit-sum-0 string and nothing elsewhere.

condition (ii) -- purify the state, let the dealer measure its info
register, and hand a coalition of dishonest players plus the purifying
environment everything except the dealer's lab and the honest players'
registers: the coalition's state must not depend on the dealer's outcome.
Only maximal coalitions (all players but one) are checked by default;
trace distance can only shrink when a subsystem is discarded, so smaller
coalitions are dominated. The eavesdropper-only coalition is likewise
implied, and shows up explicitly only for a single player or in
exhaustive mode.

Condition (i) reads the support as one boolean mask, ``_digit_sum_mask``.

Condition (ii) works from branch factors, never from adversary-sized
densities, made in one pass by ``_coalition_factors``. A density is
purified, and the pure vector is split by dealer digit once, for the branch
probabilities p. Per coalition it is regrouped once as
m = (dealer digit, adversary, hidden), and branch i's factor
M = m[i] / sqrt(p_i) gives the adversary's state M M^dag. When a purified
density's pair would cost enough, that same regrouping's nonzero entries
prune M: only the adversary rows that some live branch uses and each
branch's nonzero columns are kept, which leaves M M^dag's nonzero
eigenvalues as they are. The resource states are supported on
digit-sum-zero strings, so on the 1024-dim composite a 64 x 64 difference
becomes 16 x 16 or a 32 x 16 QR. A vector's factors are never pruned. The
trace distance of two branches, ||Ma Ma^dag - Mb Mb^dag||_1, is then taken
on the smaller side: from the QR triangle of [Ma Mb] when the two factors
have fewer columns than they have rows, else from the difference itself.
"""
from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import defaults
from .registers import DEALER, SystemLayout, _digit_sum_mask, _names, _require_tolerance
from .states import (
    QuantumState,
    _branch,
    _gram_difference_norm,
    _gram_side,
    _gram_work,
    _grouped,
    measurement_distribution,
    purify,
)

logger = logging.getLogger("qcrkit")

# a pair of branch factors that costs fewer flops (``_gram_work``) than
# this is cheaper to compare whole than to prune (``_coalition_factors``)
_PRUNE_WORK = 2**15


@dataclass(frozen=True)
class CoalitionSpec:
    """A split of the players into dishonest and honest camps."""

    dishonest: tuple[str, ...]
    honest: tuple[str, ...]

    def __post_init__(self) -> None:
        if set(self.dishonest) & set(self.honest):
            raise ValueError("a player cannot be both dishonest and honest")
        if not self.honest:
            raise ValueError("at least one player must stay honest")

    @classmethod
    def for_layout(cls, layout: SystemLayout, dishonest: Sequence[str] | str) -> CoalitionSpec:
        """Layout's players split with the named ones dishonest; a bare string is one player."""
        dishonest = _names(dishonest)
        unknown = set(dishonest) - set(layout.players)
        if unknown:
            raise ValueError(f"unknown players in coalition: {sorted(unknown)}")
        if len(set(dishonest)) != len(dishonest):
            raise ValueError("repeated player in coalition")
        honest = tuple(p for p in layout.players if p not in set(dishonest))
        return cls(dishonest=dishonest, honest=honest)


@dataclass(frozen=True)
class ConditionIReport:
    passed: bool
    expected_probability: float
    max_deviation: float
    off_support_mass: float
    support_size: int

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "expected_probability": self.expected_probability,
            "max_deviation": self.max_deviation,
            "off_support_mass": self.off_support_mass,
            "support_size": self.support_size,
        }


@dataclass(frozen=True)
class CoalitionReport:
    """One coalition's condition-(ii) result.

    worst_pair holds the dealer digits of the two branches at max_distance
    (the first such pair), or None when fewer than two branches exist.
    """

    dishonest: tuple[str, ...]
    passed: bool
    max_distance: float
    branches: int
    worst_pair: tuple[int, int] | None = None

    def to_dict(self) -> dict:
        return {
            "dishonest": list(self.dishonest),
            "passed": self.passed,
            "max_distance": self.max_distance,
            "branches": self.branches,
            "worst_pair": None if self.worst_pair is None else list(self.worst_pair),
        }


@dataclass(frozen=True)
class VerificationReport:
    verdict: bool
    tol: float
    exhaustive: bool
    condition_i: ConditionIReport
    coalitions: tuple[CoalitionReport, ...]

    @property
    def condition_ii_passed(self) -> bool:
        return all(c.passed for c in self.coalitions)

    @property
    def failing_conditions(self) -> tuple[str, ...]:
        out = []
        if not self.condition_i.passed:
            out.append("condition_i")
        if not self.condition_ii_passed:
            out.append("condition_ii")
        return tuple(out)

    @property
    def max_coalition_distance(self) -> float:
        return max((c.max_distance for c in self.coalitions), default=0.0)

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "tol": self.tol,
            "exhaustive": self.exhaustive,
            "failing_conditions": list(self.failing_conditions),
            "condition_i": self.condition_i.to_dict(),
            "condition_ii": [c.to_dict() for c in self.coalitions],
        }


def check_condition_i(state: QuantumState, tol: float = defaults.VERIFY_TOL) -> ConditionIReport:
    """Uniform perfect correlation of the info-register measurement."""
    _require_tolerance(tol)
    layout = state.layout
    d = layout.qudit_dim
    info = layout.info_labels
    probs = measurement_distribution(state, info)
    on = _digit_sum_mask(len(info), 0, d)
    size = int(np.count_nonzero(on))
    expected = 1.0 / size
    max_dev = float(np.max(np.abs(probs[on] - expected)))
    off_mass = float(np.where(on, 0.0, probs).sum())
    return ConditionIReport(
        passed=(max_dev <= tol and off_mass <= tol),
        expected_probability=expected,
        max_deviation=max_dev,
        off_support_mass=off_mass,
        support_size=size,
    )


def _adversary(layout: SystemLayout, spec: CoalitionSpec) -> list[str]:
    """The dishonest players' registers and the environment; the dealer's lab and honest players stay hidden."""
    bad = set(spec.dishonest)
    return [s.label for s in layout.subsystems if s.kind == "env" or s.party in bad]


def _coalition_factors(state: QuantumState, specs: Sequence[CoalitionSpec]):
    """Per coalition: spec, [(dealer digit, M)] per live branch, M's adversary rows, adversary dim, columns.

    Lazy, so the coalitions' regroupings are never all held at once. Branches
    are weighed on the dealer split's rows; ``np.vdot`` on a regrouping's can
    differ in the last bits. A purified density whose support misses a row
    has its factors pruned when the whole pair costs at least ``_PRUNE_WORK``:
    the kept rows and columns are gathered, then divided by sqrt(p), and the
    adversary's state is zero off the rows. Other factors are whole.
    """
    pure = state if state.is_pure else purify(state)
    sparse = not state.is_pure and state._support.size < state.dim
    dbar = pure.layout.info_label(DEALER)
    rows, _ = _grouped(pure.layout, pure.vector, [dbar])
    split = [_branch(row) for row in rows]  # (p, sqrt(p)) per dealer digit
    branches = [(i, norm) for i, (p, norm) in enumerate(split) if p > defaults.PROB_FLOOR]
    for spec in specs:
        g, _ = _grouped(pure.layout, pure.vector, [dbar] + _adversary(pure.layout, spec))
        m = g.reshape(len(rows), -1, g.shape[1])  # (dealer digit, adversary, hidden)
        _, adv, cols = m.shape
        if sparse and _gram_work(adv, 2 * cols) >= _PRUNE_WORK:
            hit = m[[i for i, _ in branches]] != 0
            kept = np.flatnonzero(hit.any(axis=(0, 2)))
            factors = [(i, m[i][np.ix_(kept, np.flatnonzero(c))] / norm)
                       for (i, norm), c in zip(branches, hit.any(axis=1))]
        else:
            kept = np.arange(adv)
            factors = [(i, m[i] / norm) for i, norm in branches]
        del g, m  # the factors are copies; the regrouping need not outlive them
        yield spec, factors, kept, adv, cols


def check_condition_ii(
    state: QuantumState,
    tol: float = defaults.VERIFY_TOL,
    exhaustive: bool = False,
    coalitions: Sequence[Sequence[str] | str] | None = None,
) -> tuple[CoalitionReport, ...]:
    """Adversary independence from the dealer's digit, coalition by coalition.

    ``coalitions`` replaces the default list; a string in it names one player.

    Every coalition logs one DEBUG line on the ``qcrkit`` logger: adversary
    dimension, columns of each branch factor, the trace-norm path (``qr``
    or ``dense``) that the pair at the maximum distance took (``-``
    without a pair) and the maximum distance. The coalitions' factors come
    from one pass (``_coalition_factors``), which purifies a density and may
    prune its factors, so that path is read from the pruned pair.
    """
    _require_tolerance(tol)
    layout = state.layout
    layout.require_crypto_form()
    players = layout.players
    if coalitions is None:
        if exhaustive:
            coalitions = [c for k in range(len(players)) for c in itertools.combinations(players, k)]
        else:
            coalitions = [tuple(p for p in players if p != honest) for honest in players]
    elif exhaustive:
        raise ValueError("pass either exhaustive=True or coalitions, not both")
    specs = [CoalitionSpec.for_layout(layout, c) for c in coalitions]
    reports = []
    for spec, factors, _, adv, cols in _coalition_factors(state, specs):
        distances = [
            (_gram_difference_norm(ma, mb), (i, j), _gram_side(ma.shape[0], ma.shape[1] + mb.shape[1]))
            for (i, ma), (j, mb) in itertools.combinations(factors, 2)
        ]
        dmax, worst, path = max(distances, key=lambda t: t[0], default=(0.0, None, "-"))
        logger.debug(
            "condition ii: coalition %s, adversary dim %d, factor columns %d, "
            "path %s, max distance %.3e",
            ",".join(spec.dishonest) or "-", adv, cols, path, dmax,
        )
        reports.append(
            CoalitionReport(
                dishonest=spec.dishonest,
                passed=dmax <= tol,
                max_distance=dmax,
                branches=len(factors),
                worst_pair=worst,
            )
        )
    return tuple(reports)


def is_qcr(
    state: QuantumState,
    tol: float = defaults.VERIFY_TOL,
    exhaustive: bool = False,
) -> VerificationReport:
    """Full certification: condition (i) and condition (ii) over coalitions."""
    cond_i = check_condition_i(state, tol=tol)
    cond_ii = check_condition_ii(state, tol=tol, exhaustive=exhaustive)
    verdict = cond_i.passed and all(c.passed for c in cond_ii)
    return VerificationReport(
        verdict=verdict,
        tol=tol,
        exhaustive=exhaustive,
        condition_i=cond_i,
        coalitions=cond_ii,
    )
