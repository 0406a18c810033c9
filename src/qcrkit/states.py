"""Dense state algebra over register layouts.

States are numpy complex128 arrays bound to a SystemLayout: either a pure
vector or a density matrix, chosen per state. Pure states stay vectors
through every operation that allows it (tensor products, unitaries,
measurement, reduced densities via M @ M^dag), which is what keeps the
largest composed fixtures fast; nothing here ever eigendecomposes a matrix
bigger than the caller's own density representation.

Axis convention: arrays are flat, in layout order. Every operation that
acts on some registers goes through ``_grouped``, which moves the named
registers to the front of a vector, as ``(g, r)``, or of a matrix, as
``(g, r, g, r)``, and hands back the map to flat layout order. Dimension-1
registers carry no axis there, so the register count sets no ceiling.

One block loop, ``_apply_blocks``, applies unitaries to vectors and
densities alike: each block multiplies its rows of the grouped array and
then, for a density, its columns by the block's adjoint. Permutation
blocks, such as the dealer's shift and controlled addition, keep dyadic
entries exact.
"""
from __future__ import annotations

import itertools
from math import prod
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from . import defaults
from .registers import ENV_PARTY, Subsystem, SystemLayout


class QuantumState:
    """A pure vector or a density matrix on a register layout."""

    def __init__(
        self,
        layout: SystemLayout,
        *,
        vector: np.ndarray | None = None,
        matrix: np.ndarray | None = None,
        validate: bool = True,
        copy: bool = True,
    ) -> None:
        if (vector is None) == (matrix is None):
            raise ValueError("provide exactly one of vector= or matrix=")
        self.layout = layout
        dim = layout.total_dim
        if vector is not None:
            arr = np.array(vector, dtype=np.complex128, copy=copy)
            if arr.shape != (dim,):
                raise ValueError(f"vector shape {arr.shape} does not match layout dim {dim}")
            if validate:
                norm2 = float(np.real(np.vdot(arr, arr)))
                if abs(norm2 - 1.0) > defaults.STATE_TOL:
                    raise ValueError(f"vector norm^2 = {norm2!r}, expected 1 within tolerance")
            self._vector: np.ndarray | None = arr
            self._matrix: np.ndarray | None = None
        else:
            arr = np.array(matrix, dtype=np.complex128, copy=copy)
            if arr.shape != (dim, dim):
                raise ValueError(f"matrix shape {arr.shape} does not match layout dim {dim}")
            if validate:
                herm = float(np.max(np.abs(arr - arr.conj().T))) if dim else 0.0
                if herm > defaults.STATE_TOL:
                    raise ValueError(f"matrix is not Hermitian (max asymmetry {herm!r})")
                tr = float(np.real(np.trace(arr)))
                if abs(tr - 1.0) > defaults.STATE_TOL:
                    raise ValueError(f"matrix trace = {tr!r}, expected 1 within tolerance")
            self._vector = None
            self._matrix = arr
        arr.setflags(write=False)

    # -- representation ------------------------------------------------

    @property
    def is_pure(self) -> bool:
        """True when held as a vector (a density matrix may still be rank 1)."""
        return self._vector is not None

    @property
    def vector(self) -> np.ndarray:
        if self._vector is None:
            raise ValueError("state is held as a density matrix; no vector available")
        return self._vector

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            raise ValueError("state is held as a pure vector; use density_matrix() or to_density()")
        return self._matrix

    @property
    def dim(self) -> int:
        return self.layout.total_dim

    @property
    def dims(self) -> tuple[int, ...]:
        return self.layout.dims

    @property
    def _data(self) -> np.ndarray:
        return self._vector if self._vector is not None else self._matrix

    def density_matrix(self) -> np.ndarray:
        """The density matrix, projecting a pure vector if needed."""
        if self._matrix is not None:
            return self._matrix
        v = self._vector
        return np.outer(v, v.conj())

    def to_density(self) -> QuantumState:
        if self._matrix is not None:
            return self
        return QuantumState(self.layout, matrix=self.density_matrix(), validate=False, copy=False)

    def purity(self) -> float:
        if self._vector is not None:
            return 1.0
        m = self._matrix
        return float(np.real(np.einsum("ij,ji->", m, m)))

    def trace(self) -> float:
        if self._vector is not None:
            return float(np.real(np.vdot(self._vector, self._vector)))
        return float(np.real(np.trace(self._matrix)))

    # -- layout manipulation -------------------------------------------

    def permuted(self, label_order: Sequence[str]) -> QuantumState:
        """Reorder registers; label_order must be a permutation of the layout."""
        if sorted(label_order) != sorted(self.layout.labels):
            raise ValueError("label_order must be a permutation of the layout labels")
        new_layout = SystemLayout(tuple(self.layout.subsystem(l) for l in label_order))
        grouped, _ = _grouped(self.layout, self._data, label_order)
        return _wrap(new_layout, grouped.reshape(self._data.shape))

    def relabeled(self, mapping: dict[str, str]) -> QuantumState:
        """Rename registers without touching the data."""
        return self.with_layout(self.layout.relabeled(mapping))

    def with_layout(self, new_layout: SystemLayout) -> QuantumState:
        """Swap layout metadata; register count and dimensions must match."""
        if new_layout.dims != self.layout.dims:
            raise ValueError(
                f"layout dims {new_layout.dims} incompatible with state dims {self.layout.dims}"
            )
        return _wrap(new_layout, self._data)

    @classmethod
    def basis_state(cls, layout: SystemLayout, digits: Sequence[int]) -> QuantumState:
        """Computational basis ket |digits> in layout order."""
        digits = tuple(int(x) for x in digits)
        if len(digits) != len(layout):
            raise ValueError(f"need {len(layout)} digits, got {len(digits)}")
        for x, sub in zip(digits, layout.subsystems):
            if not 0 <= x < sub.dim:
                raise ValueError(f"digit {x} out of range for register {sub.label!r} (dim {sub.dim})")
        v = np.zeros(layout.total_dim, dtype=np.complex128)
        v[int(np.ravel_multi_index(digits, layout.dims))] = 1.0
        return cls(layout, vector=v, validate=False, copy=False)

    def __repr__(self) -> str:
        rep = "pure" if self.is_pure else "density"
        return f"QuantumState({rep}, dim={self.dim}, registers={list(self.layout.labels)})"


class MeasurementOutcome(NamedTuple):
    digits: tuple[int, ...]
    probability: float
    state: QuantumState


def tensor_product(a: QuantumState, b: QuantumState, cap: int | None = None) -> QuantumState:
    """Join two states on disjoint register sets; pure inputs give a pure output."""
    overlap = set(a.layout.labels) & set(b.layout.labels)
    if overlap:
        raise ValueError(f"register labels collide: {sorted(overlap)}")
    limit = defaults.DIM_CAP if cap is None else cap
    joint_dim = a.dim * b.dim
    if joint_dim > limit:
        raise ValueError(f"joint dimension {joint_dim} exceeds cap {limit}")
    layout = SystemLayout(a.layout.subsystems + b.layout.subsystems)
    if a.is_pure and b.is_pure:
        return QuantumState(layout, vector=np.kron(a.vector, b.vector), validate=False, copy=False)
    m = np.kron(a.density_matrix(), b.density_matrix())
    return QuantumState(layout, matrix=m, validate=False, copy=False)


def _wrap(layout: SystemLayout, arr: np.ndarray) -> QuantumState:
    """A state on layout holding arr: a vector when 1-D, else a density matrix."""
    if arr.ndim == 1:
        return QuantumState(layout, vector=arr, validate=False, copy=False)
    return QuantumState(layout, matrix=arr, validate=False, copy=False)


def _grouped(
    layout: SystemLayout, arr: np.ndarray, labels: Sequence[str]
) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """Regroup a flat vector or matrix with the named registers in front.

    A vector ``(dim,)`` comes back as ``(g, r)`` and a matrix ``(dim, dim)``
    as ``(g, r, g, r)``: g runs over the named registers in the given order,
    r over the other registers in layout order. The second value maps any
    array with that element order back to flat layout order. Dimension-1
    registers get no axis, so at most 2 x (nontrivial registers) axes are
    ever used, far below numpy's limit at any dimension up to the cap.
    """
    pos = layout.positions(labels)
    dims = layout.dims
    chosen = set(pos)
    order = pos + [i for i in range(len(dims)) if i not in chosen]
    axis_of = {i: a for a, i in enumerate(i for i, d in enumerate(dims) if d > 1)}
    perm = [axis_of[i] for i in order if i in axis_of]
    shape = tuple(dims[i] for i in axis_of)
    g = 1
    for p in pos:
        g *= dims[p]
    n, k, flat = len(shape), arr.ndim, arr.shape
    axes = perm if k == 1 else perm + [a + n for a in perm]
    moved = tuple(shape[a] for a in perm) * k
    grouped = arr.reshape(shape * k).transpose(axes).reshape((g, flat[0] // g) * k)

    def ungroup(a: np.ndarray) -> np.ndarray:
        inverse = sorted(range(len(axes)), key=axes.__getitem__)
        return a.reshape(moved).transpose(inverse).reshape(flat)

    return grouped, ungroup


def _branch(grouped: np.ndarray, k: int) -> tuple[tuple, float, float]:
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


def partial_trace(state: QuantumState, over: Sequence[str]) -> QuantumState:
    """Trace out the named registers; result is a density state on the rest.

    Fast path: tracing only dimension-1 registers preserves a pure vector.
    """
    over = list(over)
    if not over:
        return state
    layout = state.layout
    pos = layout.positions(over)
    new_layout = layout.without(over)
    if state.is_pure and all(layout.dims[p] == 1 for p in pos):
        # dropping dimension-1 registers leaves the flat vector unchanged
        return QuantumState(new_layout, vector=state.vector, validate=False, copy=False)
    m, _ = _grouped(layout, state._data, new_layout.labels)
    if state.is_pure:
        rho = m @ m.conj().T
    else:
        rho = np.trace(m, axis1=1, axis2=3)
    return QuantumState(new_layout, matrix=rho, validate=False, copy=False)


def partial_transpose(state: QuantumState, over: Sequence[str]) -> np.ndarray:
    """Transpose the named registers inside the density matrix.

    Refuses a pure-vector state: project with to_density() first, since the
    result of a partial transpose is not a state and cannot stay a vector.
    """
    if state.is_pure:
        raise ValueError("partial_transpose needs a density matrix; call to_density() first")
    m, ungroup = _grouped(state.layout, state.matrix, list(over))
    return ungroup(m.swapaxes(0, 2))


def trace_norm(a: np.ndarray) -> float:
    """Sum of singular values. For a difference of states the range is [0, 2]."""
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError(f"trace_norm expects a matrix, got shape {a.shape}")
    return float(np.linalg.svd(a, compute_uv=False).sum())


def measurement_distribution(state: QuantumState, on: Sequence[str]) -> np.ndarray:
    """Computational-basis outcome probabilities on the named registers.

    Returns an array indexed by one axis per requested register, in the
    requested order. No post-measurement states are formed, so this is cheap
    even on the largest states.
    """
    on = list(on)
    if not on:
        raise ValueError("need at least one register to measure")
    if state.is_pure:
        weights = np.abs(state.vector) ** 2
    else:
        weights = np.real(np.diagonal(state.matrix))
    grouped, _ = _grouped(state.layout, weights, on)
    return grouped.sum(axis=1).reshape([state.layout.subsystem(l).dim for l in on])


def measure_computational(
    state: QuantumState,
    on: Sequence[str],
    prob_floor: float = defaults.PROB_FLOOR,
) -> list[MeasurementOutcome]:
    """Measure the named registers, returning every branch above prob_floor.

    Post-measurement states keep the full layout, with measured registers
    collapsed onto the observed basis state. Probabilities sum to 1 up to the
    discarded floor mass.
    """
    on = list(on)
    if not on:
        raise ValueError("need at least one register to measure")
    layout = state.layout
    w, ungroup = _grouped(layout, state._data, on)
    outcomes: list[MeasurementOutcome] = []
    digit_strings = itertools.product(*[range(layout.subsystem(l).dim) for l in on])
    for k, digits in enumerate(digit_strings):
        sel, p, norm = _branch(w, k)
        if p <= prob_floor:
            continue
        full = np.zeros_like(w)
        full[sel] = w[sel] / norm
        outcomes.append(MeasurementOutcome(digits, p, _wrap(layout, ungroup(full))))
    return outcomes


def project_registers(
    state: QuantumState, on: Sequence[str], digits: Sequence[int]
) -> tuple[float, QuantumState | None]:
    """Project the named registers onto given digits and drop them.

    Returns (probability, conditional state on the remaining layout); the
    state is None when the probability is exactly zero. Unlike
    measure_computational this removes the measured registers, and a pure
    input stays pure.
    """
    on = list(on)
    if not on:
        raise ValueError("need at least one register to project")
    digits = tuple(int(x) for x in digits)
    if len(digits) != len(on):
        raise ValueError(f"need {len(on)} digits, got {len(digits)}")
    layout = state.layout
    k = 0
    for label, x in zip(on, digits):
        d = layout.subsystem(label).dim
        if not 0 <= x < d:
            raise ValueError(f"digit {x} out of range for register {label!r} (dim {d})")
        k = k * d + x
    w, _ = _grouped(layout, state._data, on)
    sel, prob, norm = _branch(w, k)
    if prob <= 0.0:
        return max(prob, 0.0), None
    return prob, _wrap(layout.without(on), w[sel] / norm)


def purify(
    state: QuantumState,
    env_label: str | None = None,
    rank_eps: float = defaults.RANK_EPS,
) -> QuantumState:
    """Append an environment register and return a pure state reducing to the input.

    The environment dimension equals the numerical rank of the density matrix
    (eigenvalues above rank_eps); a state already held as a vector gets a
    dimension-1 environment and is otherwise unchanged.
    """
    label = env_label or state.layout.unique_label("E")
    if state.is_pure:
        env = Subsystem(label, ENV_PARTY, "env", 1)
        layout = SystemLayout(state.layout.subsystems + (env,))
        return QuantumState(layout, vector=state.vector, validate=False, copy=False)
    rho = state.matrix
    herm = float(np.max(np.abs(rho - rho.conj().T)))
    if herm > defaults.STATE_TOL:
        raise ValueError(f"cannot purify: matrix is not Hermitian (max asymmetry {herm!r})")
    vals, vecs = np.linalg.eigh(rho)
    if float(vals.min()) < -defaults.STATE_TOL:
        raise ValueError(f"cannot purify: eigenvalue {float(vals.min())!r} below -{defaults.STATE_TOL}")
    keep = vals > rank_eps
    rank = int(np.count_nonzero(keep))
    if rank == 0:
        raise ValueError("cannot purify: matrix is numerically zero")
    amps = vecs[:, keep] * np.sqrt(vals[keep])
    env = Subsystem(label, ENV_PARTY, "env", rank)
    layout = SystemLayout(state.layout.subsystems + (env,))
    return QuantumState(layout, vector=amps.reshape(-1), validate=False, copy=False)


def _check_unitary(u: np.ndarray, dim: int, tol: float) -> np.ndarray:
    u = np.asarray(u, dtype=np.complex128)
    if u.shape != (dim, dim):
        raise ValueError(f"unitary shape {u.shape} does not match target dimension {dim}")
    dev = float(np.max(np.abs(u.conj().T @ u - np.eye(dim))))
    if dev > tol:
        raise ValueError(f"matrix is not unitary within {tol} (max deviation {dev!r})")
    return u


def apply_unitary(
    state: QuantumState,
    u: np.ndarray,
    on: Sequence[str],
    unitary_tol: float = defaults.UNITARY_TOL,
) -> QuantumState:
    """Apply a unitary to the named registers (in the given order)."""
    return _apply_blocks(state, [], list(on), {(): u}, unitary_tol)


def apply_controlled(
    state: QuantumState,
    control: Sequence[str],
    target: Sequence[str],
    blocks: Mapping[tuple[int, ...], np.ndarray],
    unitary_tol: float = defaults.UNITARY_TOL,
) -> QuantumState:
    """Apply sum_k |k><k| (x) B_k with k running over control-register digits.

    blocks maps control digit tuples to unitaries on the target registers;
    missing keys act as the identity. Control and target register sets must
    be disjoint.
    """
    control = list(control)
    target = list(target)
    if set(control) & set(target):
        raise ValueError("control and target registers must be disjoint")
    if not control or not target:
        raise ValueError("need at least one control and one target register")
    return _apply_blocks(state, control, target, blocks, unitary_tol)


def _apply_blocks(
    state: QuantumState,
    control: list[str],
    target: list[str],
    blocks: Mapping[tuple[int, ...], np.ndarray],
    unitary_tol: float,
) -> QuantumState:
    """Apply sum_k |k><k| (x) B_k; apply_unitary is the case with no control.

    Row block k of the array grouped as (control, target, rest) is multiplied
    by B_k, then for a density column block k by B_k^dag. Blocks are checked
    before the state is regrouped.
    """
    layout = state.layout
    c_dims = tuple(layout.subsystem(l).dim for l in control)
    t_dim = prod(layout.subsystem(l).dim for l in target)
    checked: dict[tuple[int, ...], np.ndarray] = {}
    for key, b in blocks.items():
        key = tuple(int(x) for x in key)
        if len(key) != len(control) or any(
            not 0 <= x < d for x, d in zip(key, c_dims)
        ):
            raise ValueError(f"control key {key} out of range for dims {c_dims}")
        checked[key] = _check_unitary(b, t_dim, unitary_tol)
    w, ungroup = _grouped(layout, state._data, control + target)
    c_dim = prod(c_dims)
    # (c, t, rest) for a vector, (c, t, rest, c, t, rest) for a density
    out = w.reshape((c_dim, t_dim, w.shape[1]) * (w.ndim // 2)).copy()
    rows = out.reshape(c_dim, t_dim, -1)
    for k, key in enumerate(itertools.product(*[range(d) for d in c_dims])):
        b = checked.get(key)
        if b is None:
            continue
        rows[k] = b @ rows[k]
        if not state.is_pure:
            out[:, :, :, k] = b.conj() @ out[:, :, :, k]
    return _wrap(layout, ungroup(out))
