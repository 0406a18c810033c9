"""Register bookkeeping: who holds which qudit, and the index sets.

A multipartite state is laid out as an ordered list of registers, each owned
by a party. The dealer party "D" holds one info register plus any number of
shield registers; each player holds one info register and optional shields;
purifying environments are registers of kind "env". Layout order fixes the
tensor order of every array in the package.

Each layout rule has one home here. Names: ``labeled_layout`` labels a
register party.kind, or E for an environment, and ``_numbered`` numbers the
second and later under one name (D.shield2, E2); players are A1..An
(``standard_parties``). Cuts: ``SystemLayout.non_env_labels`` is what a cut
covers, and ``entanglement.CutSpec.from_side_two`` takes side one as its
complement. Name lists: ``_names`` reads a bare string as one name (cuts,
coalitions). Digits and dimensions: ``is_integer_in`` is the one
integer-and-range test, and ``_require_integer`` refuses by name an argument
that fails it; ``_require_tolerance`` refuses a tol that is not a finite
number >= 0. The support, the digit strings that sum to t mod d:
``_digit_sum_mask``, read by ``index_set``, the verifier and the builders.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from math import inf, isfinite, prod
from numbers import Integral, Real
from typing import Container, Iterable, Sequence

import numpy as np

DEALER = "D"
ENV_PARTY = "E"
KINDS = ("info", "shield", "env")


def is_integer_in(x: object, lo: float = -inf, hi: float = inf) -> bool:
    """True when x is an integer, numpy's included and bool not, with lo <= x < hi."""
    # the int test first: isinstance against the Integral ABC is several times slower
    return (type(x) is int or (isinstance(x, Integral) and type(x) is not bool)) and lo <= x < hi


def _require_integer(x: object, what: str) -> None:
    """Refuse a non-integer argument by name, before any range test compares it."""
    if not is_integer_in(x):
        raise ValueError(f"{what} must be an integer, got {x!r}")


def _require_tolerance(tol: object) -> None:
    """Refuse a tolerance that is not a finite number >= 0: NaN fails every test, inf passes them all."""
    if not (isinstance(tol, Real) and type(tol) is not bool and isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be a finite number >= 0, got {tol!r}")


def _names(x: Iterable[str] | str) -> tuple[str, ...]:
    """x as a tuple of names; a bare string is one name, not its characters."""
    return (x,) if isinstance(x, str) else tuple(x)


@dataclass(frozen=True)
class Subsystem:
    """One register: a label unique within its layout, an owner, a role, a dimension."""

    label: str
    party: str
    kind: str
    dim: int

    def __post_init__(self) -> None:
        if not self.label:
            raise ValueError("register label must be nonempty")
        if self.kind not in KINDS:
            raise ValueError(f"unknown register kind {self.kind!r}; expected one of {KINDS}")
        if not is_integer_in(self.dim, 1):
            raise ValueError(f"register {self.label!r} has dimension {self.dim!r}; need an integer >= 1")
        if type(self.dim) is not int:
            object.__setattr__(self, "dim", int(self.dim))

    def to_dict(self) -> dict:
        return {"label": self.label, "party": self.party, "kind": self.kind, "dim": self.dim}

    @classmethod
    def from_dict(cls, doc: dict) -> Subsystem:
        """Read a register as written by to_dict: three strings and an integer dim."""
        label, party, kind, dim = (doc[k] for k in ("label", "party", "kind", "dim"))
        if not all(isinstance(x, str) for x in (label, party, kind)):
            raise TypeError("register label, party and kind must be strings")
        if type(dim) is not int:
            raise TypeError(f"register dim must be an integer, got {dim!r}")
        return cls(label, party, kind, dim)


@dataclass(frozen=True)
class SystemLayout:
    """Ordered collection of registers; order equals tensor order."""

    subsystems: tuple[Subsystem, ...]

    def __post_init__(self) -> None:
        labels = [s.label for s in self.subsystems]
        if len(set(labels)) != len(labels):
            dupes = sorted({l for l in labels if labels.count(l) > 1})
            raise ValueError(f"duplicate register labels: {dupes}")

    @cached_property
    def _positions(self) -> dict[str, int]:
        return {s.label: i for i, s in enumerate(self.subsystems)}

    @cached_property
    def dims(self) -> tuple[int, ...]:
        return tuple(s.dim for s in self.subsystems)

    @cached_property
    def total_dim(self) -> int:
        return prod(self.dims)

    @cached_property
    def labels(self) -> tuple[str, ...]:
        return tuple(s.label for s in self.subsystems)

    def __len__(self) -> int:
        return len(self.subsystems)

    def position(self, label: str) -> int:
        try:
            return self._positions[label]
        except KeyError:
            raise KeyError(f"no register labeled {label!r}; have {list(self.labels)}") from None

    def subsystem(self, label: str) -> Subsystem:
        return self.subsystems[self.position(label)]

    def positions(self, labels: Iterable[str]) -> list[int]:
        out = [self.position(l) for l in labels]
        if len(set(out)) != len(out):
            raise ValueError("repeated register label in selection")
        return out

    @cached_property
    def non_env_labels(self) -> tuple[str, ...]:
        """Every register a bipartite cut covers: all but the environments."""
        return tuple(s.label for s in self.subsystems if s.kind != "env")

    @cached_property
    def parties(self) -> tuple[str, ...]:
        """Parties in order of first appearance, environments excluded."""
        return tuple(dict.fromkeys(s.party for s in self.subsystems if s.kind != "env"))

    @cached_property
    def players(self) -> tuple[str, ...]:
        return tuple(p for p in self.parties if p != DEALER)

    @property
    def n_players(self) -> int:
        return len(self.players)

    def party_labels(self, party: str) -> tuple[str, ...]:
        out = tuple(s.label for s in self.subsystems if s.party == party and s.kind != "env")
        if not out:
            raise KeyError(f"no registers owned by party {party!r}")
        return out

    def info_label(self, party: str) -> str:
        infos = [s.label for s in self.subsystems if s.party == party and s.kind == "info"]
        if len(infos) != 1:
            raise ValueError(f"party {party!r} has {len(infos)} info registers; need exactly 1")
        return infos[0]

    @cached_property
    def info_labels(self) -> tuple[str, ...]:
        """Dealer info first, then player info registers in player order."""
        return tuple(self.info_label(p) for p in (DEALER,) + self.players)

    @cached_property
    def shield_labels(self) -> tuple[str, ...]:
        return tuple(s.label for s in self.subsystems if s.kind == "shield")

    @cached_property
    def env_labels(self) -> tuple[str, ...]:
        return tuple(s.label for s in self.subsystems if s.kind == "env")

    @cached_property
    def qudit_dim(self) -> int:
        """Common info-register dimension d (requires crypto form)."""
        self.require_crypto_form()
        return self.subsystem(self.info_label(DEALER)).dim

    def require_crypto_form(self) -> None:
        """Raise unless this layout is dealer + players, one info register each."""
        if DEALER not in self.parties:
            raise ValueError("layout has no dealer party 'D'")
        if not self.players:
            raise ValueError("layout has no player parties")
        dims = {self.subsystem(self.info_label(party)).dim for party in self.parties}
        if len(dims) != 1:
            raise ValueError(f"info registers disagree on qudit dimension: {sorted(dims)}")
        d = dims.pop()
        if d < 2:
            raise ValueError(f"qudit dimension must be >= 2, got {d}")

    def relabeled(self, mapping: dict[str, str]) -> SystemLayout:
        """New layout with labels renamed; labels absent from the map are kept."""
        subs = tuple(
            Subsystem(mapping.get(s.label, s.label), s.party, s.kind, s.dim)
            for s in self.subsystems
        )
        return SystemLayout(subs)

    def without(self, labels: Iterable[str]) -> SystemLayout:
        drop = set(labels)
        missing = drop - set(self.labels)
        if missing:
            raise KeyError(f"cannot drop unknown registers {sorted(missing)}")
        return SystemLayout(tuple(s for s in self.subsystems if s.label not in drop))

    def unique_label(self, base: str) -> str:
        return _numbered(base, self._positions)

    def to_dict(self) -> list[dict]:
        return [s.to_dict() for s in self.subsystems]

    @classmethod
    def from_dict(cls, doc: Sequence[dict]) -> SystemLayout:
        return cls(tuple(Subsystem.from_dict(entry) for entry in doc))


@dataclass(frozen=True)
class IndexSet:
    """All length-k digit strings over Z_d whose digit sum is t mod d."""

    digits: int
    modulus: int
    target: int
    members: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        _check_index_params(self.digits, self.target, self.modulus)
        for m in self.members:
            if len(m) != self.digits:
                raise ValueError(f"member {m} does not have {self.digits} digits")
            if not all(is_integer_in(x, 0, self.modulus) for x in m):
                raise ValueError(f"member {m} has digits outside Z_{self.modulus}")
            if sum(m) % self.modulus != self.target:
                raise ValueError(f"member {m} sums to {sum(m) % self.modulus}, not {self.target}")
        if list(self.members) != sorted(set(self.members)):
            raise ValueError("members must be sorted and unique")

    @property
    def size(self) -> int:
        return len(self.members)

    def __contains__(self, string: Sequence[int]) -> bool:
        """Membership as a set would answer it, by bisection of the sorted members."""
        key = tuple(string)
        try:
            i = bisect_left(self.members, key)
        except TypeError:  # a digit that does not order against ints, such as a str
            return key in self.members
        return i < len(self.members) and self.members[i] == key


def digit_sum(digits: Sequence[int], modulus: int) -> int:
    """Sum of digits mod the qudit dimension."""
    _require_integer(modulus, "digit modulus")
    if modulus < 2:
        raise ValueError("digit modulus must be >= 2")
    total = 0
    for x in digits:
        if not is_integer_in(x, 0, modulus):
            raise ValueError(f"digit {x} outside Z_{modulus}")
        total += int(x)
    return total % modulus


def index_set(digits: int, target: int, modulus: int) -> IndexSet:
    """Enumerate, in lexicographic order, strings in Z_d^k with digit sum t mod d."""
    _check_index_params(digits, target, modulus)
    members = tuple(map(tuple, np.argwhere(_digit_sum_mask(digits, target, modulus)).tolist()))
    return IndexSet(digits=digits, modulus=modulus, target=target, members=members)


def _check_index_params(digits: int, target: int, modulus: int) -> None:
    """The refusals index_set and IndexSet share: integers first, then their ranges."""
    _require_integer(digits, "digit count")
    _require_integer(modulus, "digit modulus")
    _require_integer(target, "target")
    if digits < 1:
        raise ValueError("need at least one digit")
    if modulus < 2:
        raise ValueError("digit modulus must be >= 2")
    if not 0 <= target < modulus:
        raise ValueError(f"target {target} outside Z_{modulus}")


def _digit_sum_mask(digits: int, target: int, modulus: int) -> np.ndarray:
    """Boolean (modulus,) * digits array: True where the digit sum is target mod modulus.

    Built by ``np.add.outer`` from modulus^digits ints, with no index grid;
    ``np.argwhere`` lists its strings in lexicographic order.
    """
    sums = np.zeros((), dtype=np.intp)
    for _ in range(digits):
        sums = np.add.outer(sums, np.arange(modulus)) % modulus
    return sums == target


def standard_parties(n_players: int) -> tuple[str, ...]:
    """The dealer, then players A1..An: the party order of standard_layout."""
    return (DEALER,) + tuple(f"A{k}" for k in range(1, n_players + 1))


def _numbered(base: str, taken: Container[str]) -> str:
    """base if it is free, else base2, base3, ...: the first name not taken."""
    k = 1
    while (name := base if k == 1 else f"{base}{k}") in taken:
        k += 1
    return name


def labeled_layout(registers: Iterable[tuple[str, str, int]]) -> SystemLayout:
    """Layout of (party, kind, dim) registers, in order, labeled by the one naming rule."""
    taken: set[str] = set()
    subs = []
    for party, kind, dim in registers:
        label = _numbered(ENV_PARTY if kind == "env" else f"{party}.{kind}", taken)
        taken.add(label)
        subs.append(Subsystem(label, party, kind, dim))
    return SystemLayout(tuple(subs))


def standard_layout(
    d: int,
    n_players: int,
    shield_dims: Sequence[int] | None = None,
) -> SystemLayout:
    """Dealer-first layout: D.info, D.shield, A1.info, A1.shield, ...

    shield_dims gives the dealer's shield dimension first, then one per
    player; trivial shields are kept as dimension-1 registers so the layout
    shape never depends on whether a shield is in use.
    """
    if is_integer_in(d, hi=2):  # a non-integer d fails its registers' dimension check
        raise ValueError("qudit dimension must be >= 2")
    if not is_integer_in(n_players, 1):
        raise ValueError(f"player count {n_players!r} is not an integer >= 1")
    shield_dims = (1,) * (n_players + 1) if shield_dims is None else tuple(shield_dims)
    if len(shield_dims) != n_players + 1:
        raise ValueError(
            f"expected {n_players + 1} shield dimensions (dealer first), got {len(shield_dims)}"
        )
    parties = zip(standard_parties(n_players), shield_dims)
    return labeled_layout(r for p, s in parties for r in ((p, "info", d), (p, "shield", s)))
