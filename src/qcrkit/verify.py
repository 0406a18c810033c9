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
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from . import defaults
from .registers import DEALER, SystemLayout, index_set
from .states import (
    QuantumState,
    measurement_distribution,
    partial_trace,
    project_registers,
    purify,
    trace_norm,
)


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
    def for_layout(cls, layout: SystemLayout, dishonest: Sequence[str]) -> CoalitionSpec:
        dishonest = tuple(dishonest)
        players = layout.players
        unknown = set(dishonest) - set(players)
        if unknown:
            raise ValueError(f"unknown players in coalition: {sorted(unknown)}")
        if len(set(dishonest)) != len(dishonest):
            raise ValueError("repeated player in coalition")
        honest = tuple(p for p in players if p not in set(dishonest))
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
    dishonest: tuple[str, ...]
    passed: bool
    max_distance: float
    branches: int

    def to_dict(self) -> dict:
        return {
            "dishonest": list(self.dishonest),
            "passed": self.passed,
            "max_distance": self.max_distance,
            "branches": self.branches,
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
    layout = state.layout
    layout.require_crypto_form()
    d = layout.qudit_dim
    info = layout.info_labels
    probs = measurement_distribution(state, info)
    support = index_set(len(info), 0, d)
    expected = 1.0 / support.size
    max_dev = 0.0
    off = probs.copy()
    for m in support.members:
        max_dev = max(max_dev, abs(float(probs[m]) - expected))
        off[m] = 0.0
    off_mass = float(off.sum())
    return ConditionIReport(
        passed=(max_dev <= tol and off_mass <= tol),
        expected_probability=expected,
        max_deviation=max_dev,
        off_support_mass=off_mass,
        support_size=support.size,
    )


def _global_pure(state: QuantumState) -> QuantumState:
    """The state itself if already a vector, else a purification."""
    return state if state.is_pure else purify(state)


def _dealer_branches(pure: QuantumState, dbar: str) -> list[QuantumState]:
    """Split a global pure state by the digit of the dealer info register dbar.

    Returns the normalized pure state, on the layout without dbar, of every
    digit with probability above the floor.
    """
    branches = []
    for i in range(pure.layout.subsystem(dbar).dim):
        p, branch = project_registers(pure, [dbar], [i])
        if p > defaults.PROB_FLOOR:
            branches.append(branch)
    return branches


def _default_coalitions(players: tuple[str, ...], exhaustive: bool) -> list[tuple[str, ...]]:
    if exhaustive:
        out = []
        for size in range(len(players)):
            out.extend(itertools.combinations(players, size))
        return out
    return [tuple(p for p in players if p != honest) for honest in players]


def check_condition_ii(
    state: QuantumState,
    tol: float = defaults.VERIFY_TOL,
    exhaustive: bool = False,
    coalitions: Sequence[Sequence[str]] | None = None,
) -> tuple[CoalitionReport, ...]:
    """Adversary independence from the dealer's digit, coalition by coalition."""
    layout = state.layout
    layout.require_crypto_form()
    players = layout.players
    if coalitions is None:
        chosen = _default_coalitions(players, exhaustive)
    else:
        chosen = [tuple(c) for c in coalitions]
    specs = [CoalitionSpec.for_layout(layout, c) for c in chosen]
    pure = _global_pure(state)
    dbar = layout.info_label(DEALER)
    branches = _dealer_branches(pure, dbar)
    reports = []
    for spec in specs:
        bad = set(spec.dishonest)
        # the honest players and the dealer's lab; the adversary keeps the rest
        hidden = [
            s.label
            for s in pure.layout.subsystems
            if s.kind != "env" and s.party not in bad and s.label != dbar
        ]
        gammas = [partial_trace(b, hidden).density_matrix() for b in branches]
        dmax = 0.0
        for a, b in itertools.combinations(gammas, 2):
            dmax = max(dmax, trace_norm(a - b))
        reports.append(
            CoalitionReport(
                dishonest=spec.dishonest,
                passed=dmax <= tol,
                max_distance=dmax,
                branches=len(branches),
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
