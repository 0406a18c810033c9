"""PPT analysis across bipartite cuts and trace-distance diagnostics."""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import defaults
from .registers import DEALER, SystemLayout
from .states import QuantumState, _gram_difference_norm, _hermitian_trace_norm, partial_transpose


@dataclass(frozen=True)
class CutSpec:
    """A bipartition of the non-environment registers, by label."""

    side_one: tuple[str, ...]
    side_two: tuple[str, ...]

    def validate(self, layout: SystemLayout) -> None:
        one, two = set(self.side_one), set(self.side_two)
        if not one or not two:
            raise ValueError("both cut sides must be nonempty")
        if one & two:
            raise ValueError(f"cut sides overlap: {sorted(one & two)}")
        non_env = {s.label for s in layout.subsystems if s.kind != "env"}
        if one | two != non_env:
            missing = non_env - (one | two)
            extra = (one | two) - non_env
            parts = []
            if missing:
                parts.append(f"uncovered registers {sorted(missing)}")
            if extra:
                parts.append(f"unknown or environment registers {sorted(extra)}")
            raise ValueError("invalid cut: " + "; ".join(parts))

    @classmethod
    def dealer_cut(cls, layout: SystemLayout, players_two: Sequence[str]) -> CutSpec:
        """Dealer plus remaining players on side one; the named players on side two."""
        two_set = set(players_two)
        unknown = two_set - set(layout.players)
        if unknown:
            raise ValueError(f"unknown players: {sorted(unknown)}")
        side_two = tuple(
            s.label for s in layout.subsystems if s.kind != "env" and s.party in two_set
        )
        side_one = tuple(
            s.label
            for s in layout.subsystems
            if s.kind != "env" and s.party not in two_set
        )
        return cls(side_one=side_one, side_two=side_two)


@dataclass(frozen=True)
class CutResult:
    side_one: tuple[str, ...]
    side_two: tuple[str, ...]
    min_eigenvalue: float
    ppt: bool

    def to_dict(self) -> dict:
        return {
            "side_one": list(self.side_one),
            "side_two": list(self.side_two),
            "min_eigenvalue": self.min_eigenvalue,
            "ppt": self.ppt,
        }


@dataclass(frozen=True)
class PptReport:
    tol: float
    cuts: tuple[CutResult, ...]

    @property
    def all_ppt(self) -> bool:
        return all(c.ppt for c in self.cuts)

    def to_dict(self) -> dict:
        return {
            "tol": self.tol,
            "all_ppt": self.all_ppt,
            "cuts": [c.to_dict() for c in self.cuts],
        }


def ppt_check(state: QuantumState, cut: CutSpec, tol: float = defaults.PPT_TOL) -> CutResult:
    """Minimum eigenvalue of the partial transpose over side_two of the cut.

    Environment registers, if any, are left untransposed (they sit with
    side one). The flag is True when the minimum eigenvalue is >= -tol.
    """
    cut.validate(state.layout)
    pt = partial_transpose(state.to_density(), cut.side_two)
    min_eig = float(np.linalg.eigvalsh(pt)[0])
    return CutResult(
        side_one=cut.side_one,
        side_two=cut.side_two,
        min_eigenvalue=min_eig,
        ppt=min_eig >= -tol,
    )


def all_dealer_cuts_ppt(state: QuantumState, tol: float = defaults.PPT_TOL) -> PptReport:
    """PPT check for every cut {dealer + kept players : discarded players}.

    Player subsets on the discarded side run over every nonempty subset,
    including all players (the {dealer : everyone} cut).
    """
    layout = state.layout
    if DEALER not in layout.parties:
        raise ValueError("layout has no dealer party 'D'")
    players = layout.players
    if not players:
        raise ValueError("layout has no player parties")
    results = []
    for size in range(1, len(players) + 1):
        for combo in itertools.combinations(players, size):
            cut = CutSpec.dealer_cut(layout, combo)
            results.append(ppt_check(state, cut, tol))
    return PptReport(tol=tol, cuts=tuple(results))


def trace_distance(a: QuantumState, b: QuantumState) -> float:
    """Trace norm of the difference of two states; ranges over [0, 2].

    Two pure vectors are taken as (dim, 1) factors of their densities, so
    the norm comes from a QR of the (dim, 2) pair and a 2 x 2 eigenproblem;
    no dim x dim matrix is formed. The closed form 2 sqrt(1 - |<a|b>|^2) is
    not used, because it cancels catastrophically for nearly equal states.
    When either state is a density, the sum of |eigenvalues| of the
    Hermitian difference is taken (``eigvalsh``, about half the cost of the
    SVD in ``trace_norm``).
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if a.is_pure and b.is_pure:
        return _gram_difference_norm(a.vector[:, None], b.vector[:, None])
    return _hermitian_trace_norm(a.density_matrix() - b.density_matrix())
