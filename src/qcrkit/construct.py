"""Builders for the supported state families.

Families: private states (dealer + one player, digit-keyed shield twist),
the 6-qubit worked example, GHZ-type correlated states with an arbitrary
shield seed, and info-controlled twists of the latter. Builders construct
candidates; certification is the verifier's job, and build_twisted_qcr
returns the verification report alongside the state rather than asserting
structural correctness.

GHZ-type and private states share one support filler, ``_fill_support``,
which writes a vector or a density matrix over the digit-sum-0 info
strings. Density outputs are written with exact 1/d entries, so for
power-of-two d the downstream measurement statistics are exact dyadics.
"""
from __future__ import annotations

import itertools
from typing import Callable, Mapping, Sequence

import numpy as np

from . import defaults
from .registers import (
    DEALER, SystemLayout, _digit_sum_mask, _require_integer, is_integer_in, labeled_layout,
    standard_layout, standard_parties,
)
from .states import (
    QuantumState, _check_cap, _check_unitary, _grouped, _relabel, _wrap, apply_controlled,
)
from .verify import is_qcr


class ShieldSeed:
    """Initial joint state of the shield registers, dealer's shield first."""

    def __init__(
        self,
        dims: Sequence[int],
        *,
        vector: np.ndarray | None = None,
        matrix: np.ndarray | None = None,
    ) -> None:
        layout = _shield_layout(dims)
        self.dims = layout.dims
        state = QuantumState(layout, vector=vector, matrix=matrix)
        self.vector: np.ndarray | None = state.vector if state.is_pure else None
        self.matrix: np.ndarray | None = None if state.is_pure else state.matrix
        self.total_dim = layout.total_dim

    @property
    def is_pure(self) -> bool:
        return self.vector is not None

    def density(self) -> np.ndarray:
        if self.matrix is not None:
            return self.matrix
        return np.outer(self.vector, self.vector.conj())

    @classmethod
    def trivial(cls, n_parties: int) -> ShieldSeed:
        """Dimension-1 shield on every party: no shield at all."""
        return cls((1,) * n_parties, vector=np.ones(1))

    @classmethod
    def basis_zero(cls, dims: Sequence[int]) -> ShieldSeed:
        v = np.zeros(_shield_layout(dims).total_dim, dtype=np.complex128)
        v[0] = 1.0
        return cls(dims, vector=v)

    @classmethod
    def random(
        cls, dims: Sequence[int], rng: np.random.Generator, pure: bool = False
    ) -> ShieldSeed:
        total = _shield_layout(dims).total_dim
        if pure:
            return cls(dims, vector=random_pure(total, rng))
        return cls(dims, matrix=random_density(total, rng))


def _shield_layout(dims: Sequence[int]) -> SystemLayout:
    """The shield registers of standard_layout, dealer's first, with these dims."""
    dims = tuple(dims)
    if not dims:
        raise ValueError("need at least one shield dimension")
    return labeled_layout(
        (party, "shield", d) for party, d in zip(standard_parties(len(dims) - 1), dims)
    )


class TwistingFamily:
    """Digit-keyed unitaries applied to shield registers.

    Keys are digit tuples (a bare digit is accepted for single-digit keys):
    the dealer digit for private states, the full info string for
    controlled twists. targets names the shield registers the unitaries act
    on; None means every shield register of the state being built.
    """

    def __init__(
        self,
        unitaries: Mapping[tuple[int, ...] | int, np.ndarray],
        targets: Sequence[str] | None = None,
    ) -> None:
        table: dict[tuple[int, ...], np.ndarray] = {}
        for key, u in unitaries.items():
            if not isinstance(key, tuple):
                key = (key,)
            if not all(is_integer_in(x) for x in key):
                raise ValueError(f"twist key {key} has digits that are not integers")
            if not all(is_integer_in(x, 0) for x in key):
                raise ValueError(f"twist key {key} has negative digits")
            key = tuple(int(x) for x in key)
            arr = np.array(u, dtype=np.complex128)
            arr.setflags(write=False)
            table[key] = arr
        self.unitaries = table
        self.targets = tuple(targets) if targets is not None else None

    def keys(self) -> set[tuple[int, ...]]:
        return set(self.unitaries)


def build_private_state(
    d: int,
    sigma: ShieldSeed | None = None,
    twist: TwistingFamily | None = None,
    cap: int | None = None,
) -> QuantumState:
    """Dealer-player pair (1/d) sum_{i,j} |i,-i><j,-j| (x) U_i sigma U_j^dag.

    With trivial sigma and no twist this is the maximally entangled state in
    the |i, -i> basis. The result is always in density representation; the
    diagonal weights are written as exact 1/d.
    """
    layout, sigma = _seeded_layout(d, 1, sigma, cap)
    s_dim = sigma.total_dim
    if twist is None:
        blocks = {i: np.eye(s_dim, dtype=np.complex128) for i in range(d)}
    else:
        wanted = {(i,) for i in range(d)}
        if twist.keys() != wanted:
            raise ValueError(
                f"private-state twist needs exactly the keys {{(0,)..({d - 1},)}}, got {sorted(twist.keys())}"
            )
        blocks = {
            key[0]: _check_unitary(u, s_dim, defaults.UNITARY_TOL)
            for key, u in twist.unitaries.items()
        }
    sig = sigma.density()
    return _fill_support(layout, 2, lambda i, j: blocks[i] @ sig @ blocks[j].conj().T)


def maximally_entangled(d: int) -> QuantumState:
    """The simplest private state: trivial shields, identity twist."""
    return build_private_state(d)


def build_example_state() -> QuantumState:
    """The 6-qubit worked example: 1/2 (|000>|000> + |011>|100> + |101>|100> + |110>|000>).

    Kets are written info-then-shield (dealer, player 1, player 2); the
    returned layout interleaves each party's info and shield registers.
    """
    layout = standard_layout(2, 2, (2, 2, 2))
    terms = [
        ((0, 0, 0), (0, 0, 0)),
        ((0, 1, 1), (1, 0, 0)),
        ((1, 0, 1), (1, 0, 0)),
        ((1, 1, 0), (0, 0, 0)),
    ]
    v = np.zeros(layout.total_dim, dtype=np.complex128).reshape(layout.dims)
    for info, shield in terms:
        v[info[0], shield[0], info[1], shield[1], info[2], shield[2]] = 0.5
    return _wrap(layout, v.reshape(-1))


def build_ghz_qcr(
    d: int,
    n_players: int,
    sigma: ShieldSeed | None = None,
    cap: int | None = None,
) -> QuantumState:
    """Untwisted correlated state: (1/d^N) sum_{iI, jJ in S0} |iI><jJ| (x) sigma.

    A pure sigma gives a pure output vector; a mixed sigma gives the density
    form with exact 1/d^N block weights.
    """
    layout, sigma = _seeded_layout(d, n_players, sigma, cap)
    seed = sigma.vector if sigma.is_pure else sigma.density()
    return _fill_support(layout, seed.ndim, lambda *digits: seed)


def _seeded_layout(
    d: int, n_players: int, sigma: ShieldSeed | None, cap: int | None
) -> tuple[SystemLayout, ShieldSeed]:
    """Standard layout for sigma (trivial when None), checked against the cap."""
    layout = standard_layout(d, n_players, None if sigma is None else sigma.dims)
    _check_cap(layout.total_dim, cap)
    return layout, ShieldSeed.trivial(n_players + 1) if sigma is None else sigma


def _fill_support(
    layout: SystemLayout,
    copies: int,
    block: Callable[..., np.ndarray],
) -> QuantumState:
    """Write weight * block(*dealer_digits) at each `copies`-tuple of S0 info strings.

    copies=1 gives a vector with weight 1/sqrt|S0|, copies=2 a density
    matrix with the exact weight 1/|S0|; zero off the digit-sum-0 support.
    The block depends only on the dealer digit of each string, so all strings
    sharing it are written in one assignment, at their rows of the index
    range regrouped with the info registers in front (``_grouped``).
    """
    d = layout.qudit_dim
    index, _ = _grouped(layout, np.arange(layout.total_dim, dtype=np.intp), layout.info_labels)
    strings = np.flatnonzero(_digit_sum_mask(len(layout.info_labels), 0, d))  # dealer digit first
    weight = 1.0 / np.sqrt(strings.size) if copies == 1 else 1.0 / strings.size
    # rows[i][k, s]: S0 string k with dealer digit i, shield string s
    rows = [index[strings[strings // (len(index) // d) == i]] for i in range(d)]
    data = np.zeros((layout.total_dim,) * copies, dtype=np.complex128)
    if copies == 1:
        for i in range(d):
            data[rows[i]] = weight * block(i)
    else:
        for i, j in itertools.product(range(d), repeat=2):
            # block(i, j)[s, t] at every row pair (rows[i][k, s], rows[j][l, t])
            data[rows[i][:, :, None, None], rows[j]] = weight * block(i, j)[:, None]
    return _wrap(layout, data, np.sort(np.concatenate(rows, axis=None)))


def build_twisted_qcr(
    base: QuantumState,
    twist: TwistingFamily,
    tol: float = defaults.VERIFY_TOL,
    exhaustive: bool = False,
):
    """Apply an info-controlled shield twist to a GHZ-type base and certify it.

    Twist keys are full info strings (dealer digit first). Keys must lie on
    the digit-sum-0 support; missing support strings act as the identity.
    Returns (state, report) where report is the verifier's full output --
    the twisted state is a candidate, and callers should trust the verdict,
    not the construction.
    """
    layout = base.layout
    d = layout.qudit_dim
    n_info = len(layout.info_labels)
    support = _digit_sum_mask(n_info, 0, d)
    for key in twist.keys():
        if len(key) != n_info or not all(is_integer_in(x, 0, d) for x in key):
            raise ValueError(f"twist key {key} is not a length-{n_info} string over Z_{d}")
        if not support[key]:
            raise ValueError(f"twist key {key} lies outside the digit-sum-0 support")
    targets = twist.targets if twist.targets is not None else layout.shield_labels
    if not targets:
        raise ValueError("layout has no shield registers to twist")
    state = apply_controlled(base, control=layout.info_labels, target=targets, blocks=twist.unitaries)
    report = is_qcr(state, tol=tol, exhaustive=exhaustive)
    return state, report


def per_party_twist(
    layout: SystemLayout,
    per_party: Mapping[str, Mapping[int, np.ndarray]],
) -> TwistingFamily:
    """Full-string twist from per-party digit-keyed shield unitaries.

    Party p's unitary is selected by p's own info digit, so the combined
    W^{iI} = U_D^i (x) V_1^{i_1} (x) ... factors across the shields. This is
    the family whose outputs are QCR by construction (each party's shield is
    only ever correlated with that party's own digit).
    """
    d = layout.qudit_dim
    parties = (DEALER,) + layout.players
    shield_owner = {l: layout.subsystem(l).party for l in layout.shield_labels}
    for party in per_party:
        owned = [l for l, p in shield_owner.items() if p == party]
        if len(owned) != 1:
            raise ValueError(
                f"per-party twist needs exactly one shield register for {party!r}, found {len(owned)}"
            )
    unitaries: dict[tuple[int, ...], np.ndarray] = {}
    for key in map(tuple, np.argwhere(_digit_sum_mask(len(parties), 0, d)).tolist()):
        digit_of = dict(zip(parties, key))
        factors = []
        for label in layout.shield_labels:
            dim = layout.subsystem(label).dim
            party = shield_owner[label]
            table = per_party.get(party)
            u = table.get(digit_of[party]) if table else None
            factors.append(np.eye(dim, dtype=np.complex128) if u is None else np.asarray(u))
        block = factors[0]
        for f in factors[1:]:
            block = np.kron(block, f)
        unitaries[key] = block
    return TwistingFamily(unitaries, targets=layout.shield_labels)


def relabel_negated_player(state: QuantumState, player: str) -> QuantumState:
    """Basis relabel |i> -> |-i mod d> on one player's info register.

    Converts between the |i, -i> correlation convention and |i, i>.
    """
    layout = state.layout
    d = layout.qudit_dim  # raises unless the layout is in crypto form
    return _relabel(state, layout.info_label(player), -np.arange(d) % d)


# -- seeded random instances ------------------------------------------


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r).copy()
    phases /= np.abs(phases)
    return q * phases


def random_pure(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_density(dim: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    """Random full(ish)-rank density matrix from a Wishart draw."""
    if rank is not None and not is_integer_in(rank, 1):
        raise ValueError(f"rank must be an integer >= 1, got {rank!r}")
    rank = dim if rank is None else rank
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = g @ g.conj().T
    return rho / np.real(np.trace(rho))


def random_separable_density(
    dim_a: int, dim_b: int, rng: np.random.Generator, terms: int = 4
) -> np.ndarray:
    """Convex mixture of product densities: separable, hence PPT."""
    weights = rng.dirichlet(np.ones(terms))
    rho = np.zeros((dim_a * dim_b, dim_a * dim_b), dtype=np.complex128)
    for w in weights:
        rho += w * np.kron(random_density(dim_a, rng), random_density(dim_b, rng))
    return rho


def random_private_state(
    d: int,
    shield_dims: Sequence[int],
    rng: np.random.Generator,
    pure_seed: bool = False,
) -> QuantumState:
    """Seeded random (sigma, twist) instance of the private-state family."""
    _require_integer(d, "qudit dimension")
    # an over-cap state is refused before sigma and d unitaries are drawn
    shield_dims = _shield_layout(shield_dims).dims
    _check_cap(standard_layout(d, 1, shield_dims).total_dim, None)
    sigma = ShieldSeed.random(shield_dims, rng, pure=pure_seed)
    twist = TwistingFamily({(i,): haar_unitary(sigma.total_dim, rng) for i in range(d)})
    return build_private_state(d, sigma, twist)


def random_party_twist(layout: SystemLayout, rng: np.random.Generator) -> TwistingFamily:
    """Haar per-party twist on every nontrivial shield register."""
    d = layout.qudit_dim
    per_party: dict[str, dict[int, np.ndarray]] = {}
    for label in layout.shield_labels:
        sub = layout.subsystem(label)
        if sub.dim == 1:
            continue
        per_party[sub.party] = {i: haar_unitary(sub.dim, rng) for i in range(d)}
    return per_party_twist(layout, per_party)
