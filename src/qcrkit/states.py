"""Dense state algebra over register layouts.

States are numpy complex128 arrays bound to a SystemLayout: either a pure
vector or a density matrix, chosen per state. Pure states stay vectors
through every operation that allows it (tensor products, unitaries,
measurement, reduced densities via M @ M^dag), which is what keeps the
largest composed fixtures fast. A density is purified by a pivoted
Cholesky factor of its support block, at a cost of support^2 x rank, and
is eigendecomposed only when that factor fails its residual check.

Arrays are flat, in layout order, and each dense job has one kernel.
``_grouped`` does every regrouping and index table, moving the named
registers of a vector, a matrix or the index range to the front. The
``_runs`` views do density picks: a density reshaped to one row and one
column axis per run of adjacent registers in one group (picked, traced or
kept) is indexed in place. ``_digits`` and ``_flat`` do maps of support
rows. ``_project_trace`` does every projection and partial trace. A
density's partial trace adds each traced digit string's block through a
view or, where the support leaves most of those blocks zero, only each
string's support rows x rows, gathered; ``_gathers`` makes that choice,
as ``_strips`` chooses between a view and a gather of a support block.
Dimension-1 registers carry no axis, so the register count sets no
ceiling.

``trace_norm`` and ``partial_transpose`` stay as the public forms and the
tests' oracles.

A state is one read-only array, ``_data``, and its support, ``_support``:
the ascending rows of a vector, or rows or columns of a density, that
hold an exactly nonzero entry; every entry off support x support is zero.
The resource states are supported on digit-sum-zero info strings, so a
1024-dim composite holds its 1,024 nonzero entries in a 32 x 32 block.
The support is fixed when the state is made: a vector's is its nonzero
rows; for a density the constructor scans the whole matrix
(``_support``), and an operation's output (``_wrap``) at most the block
on the rows that its producer knows can be nonzero, so the field is exact
even where a product underflows to 0. With ``copy=False`` the constructor
takes the caller's buffer over, vector or matrix, read-only; writing to it
through another reference leaves the field stale. Every reader takes the
field: the Hermitian check, ``purify``, the PPT walk and the density trace
distance read only the support block, a strip at a time (``_strips``). A
tensor product followed by a basis permutation (``tensor_product``,
``compose``, ``_relabel``) has one writer, ``_placed``, which writes only
the products of the support entries, at the rows that its caller maps
them to (``_digits``, ``_flat``).
"""
from __future__ import annotations

import itertools
import logging
from math import isfinite, prod
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from . import defaults
from .registers import ENV_PARTY, Subsystem, SystemLayout, is_integer_in

logger = logging.getLogger("qcrkit")


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
        dim = layout.total_dim
        # copy=False converts only what is not complex128 already (np.array's
        # copy=False would raise for it), and hands the buffer over
        as_complex = np.array if copy else np.asarray
        if vector is not None:
            arr = as_complex(vector, dtype=np.complex128)
            if arr.shape != (dim,):
                raise ValueError(f"vector shape {arr.shape} does not match layout dim {dim}")
            if validate:
                norm2 = float(np.real(np.vdot(arr, arr)))
                if not abs(norm2 - 1.0) <= defaults.STATE_TOL:
                    raise ValueError(f"vector norm^2 = {norm2!r}, expected 1 within tolerance")
            support = np.flatnonzero(arr)
        else:
            arr = as_complex(matrix, dtype=np.complex128)
            if arr.shape != (dim, dim):
                raise ValueError(f"matrix shape {arr.shape} does not match layout dim {dim}")
            support = _support(arr)
            if validate:
                herm = _max_asymmetry(arr, support)
                if not herm <= defaults.STATE_TOL:
                    raise ValueError(f"matrix is not Hermitian (max asymmetry {herm!r})")
                tr = float(np.real(np.trace(arr)))
                if not abs(tr - 1.0) <= defaults.STATE_TOL:
                    raise ValueError(f"matrix trace = {tr!r}, expected 1 within tolerance")
        self._hold(layout, arr, support)

    def _hold(self, layout: SystemLayout, arr: np.ndarray, support: np.ndarray) -> None:
        """Bind layout and arr, made read-only, with arr's support."""
        self.layout = layout
        self._data = arr
        self._support = support
        arr.setflags(write=False)

    # -- representation ------------------------------------------------

    @property
    def is_pure(self) -> bool:
        """True when held as a vector (a density matrix may still be rank 1)."""
        return self._data.ndim == 1

    @property
    def vector(self) -> np.ndarray:
        if not self.is_pure:
            raise ValueError("state is held as a density matrix; no vector available")
        return self._data

    @property
    def matrix(self) -> np.ndarray:
        if self.is_pure:
            raise ValueError("state is held as a pure vector; use density_matrix() or to_density()")
        return self._data

    @property
    def dim(self) -> int:
        return self.layout.total_dim

    @property
    def dims(self) -> tuple[int, ...]:
        return self.layout.dims

    def density_matrix(self) -> np.ndarray:
        """The density matrix, projecting a pure vector if needed."""
        v = self._data
        return np.outer(v, v.conj()) if self.is_pure else v

    def to_density(self) -> QuantumState:
        if not self.is_pure:
            return self
        rows = _product_rows(self._support, self._data)
        state = _wrap(self.layout, self.density_matrix(), rows)
        logger.debug("to_density: dim %d, support %d", self.dim, state._support.size)
        return state

    def _entries(self, r: np.ndarray, c: np.ndarray) -> np.ndarray:
        """The density's entries on rows r and columns c, without a vector's whole projector."""
        x = self._data
        return np.outer(x[r], x[c].conj()) if self.is_pure else x[np.ix_(r, c)]

    def purity(self) -> float:
        if self.is_pure:
            return 1.0
        m = self._data
        return float(np.real(np.einsum("ij,ji->", m, m)))

    def trace(self) -> float:
        x = self._data
        return float(np.real(np.vdot(x, x) if self.is_pure else np.trace(x)))

    # -- layout manipulation -------------------------------------------

    def permuted(self, label_order: Sequence[str]) -> QuantumState:
        """Reorder registers; label_order must be a permutation of the layout."""
        label_order = list(label_order)
        if sorted(label_order) != sorted(self.layout.labels):
            raise ValueError("label_order must be a permutation of the layout labels")
        new_layout = SystemLayout(tuple(self.layout.subsystem(l) for l in label_order))
        grouped, _ = _grouped(self.layout, self._data, label_order)
        rows = np.flatnonzero(_grouped(self.layout, _mask(self.dim, self._support), label_order)[0])
        return _wrap(new_layout, grouped.reshape(self._data.shape), rows)

    def relabeled(self, mapping: dict[str, str]) -> QuantumState:
        """Rename registers without touching the data."""
        return self.with_layout(self.layout.relabeled(mapping))

    def with_layout(self, new_layout: SystemLayout) -> QuantumState:
        """Swap layout metadata; register count and dimensions must match."""
        if new_layout.dims != self.layout.dims:
            raise ValueError(
                f"layout dims {new_layout.dims} incompatible with state dims {self.layout.dims}"
            )
        return _wrap(new_layout, self._data, self._support)

    @classmethod
    def basis_state(cls, layout: SystemLayout, digits: Sequence[int]) -> QuantumState:
        """Computational basis ket |digits> in layout order."""
        v = np.zeros(layout.total_dim, dtype=np.complex128)
        v[_digit_index(layout, layout.labels, digits)] = 1.0
        return _wrap(layout, v)

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
    _check_cap(a.dim * b.dim, cap)
    layout = SystemLayout(a.layout.subsystems + b.layout.subsystems)
    idx = np.ravel_multi_index((a._support[:, None], b._support), (a.dim, b.dim))  # kron's order
    return _placed(layout, idx.reshape(-1), a, b)


def _check_cap(dim: int, cap: int | None, error: type[ValueError] = ValueError) -> None:
    """Raise error when a state of dimension dim would exceed cap (DIM_CAP when None)."""
    limit = defaults.DIM_CAP if cap is None else cap
    if dim > limit:
        raise error(f"state dimension {dim} exceeds cap {limit}")


def _support(h: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
    """Ascending indices of the rows or columns of h that hold an exactly nonzero entry.

    NaN and inf count, +-0.0 does not. Given rows, an ascending superset of
    the support, they are the support when each holds a nonzero diagonal
    entry, as in a density; else the block on them is read. The block (all
    of h when rows is None) is read in strips of about 2^16 entries seen as
    float64 pairs, until every column is hit.
    """
    if rows is not None and (h.diagonal()[rows] != 0).all():
        return rows
    n, part = _strips(h, rows)
    hit = np.zeros(n, dtype=bool)
    cols = np.zeros(n, dtype=bool)
    step = max(1, 2**16 // max(n, 1))
    for s in range(0, n, step):
        nz = np.ascontiguousarray(part(slice(s, s + step), slice(None))).view(np.float64) != 0
        np.logical_or.reduce(nz, axis=1, out=hit[s:s + step])
        cols |= np.logical_or.reduce(nz, axis=0).reshape(n, 2).any(axis=1)
        if cols.all():
            break
    found = np.flatnonzero(hit | cols)
    return found if n == h.shape[0] else rows[found]


def _placed(layout: SystemLayout, idx: np.ndarray, a: QuantumState,
            b: QuantumState | None = None) -> QuantumState:
    """The products of a's and b's support entries on layout, placed by the row map idx.

    Row i of a's and row k of b's support meet in output row
    idx[i * nb + k]: a density gets a[i, j] * b[k, l] there and in column
    idx[j * nb + l], a pure output (both inputs pure) a[i] * b[k]. Without
    b, a is relabeled (times a 1 x 1 factor of 1.0). Each product is
    written once, +0.0 for -0.0 since qcr-state/1 writes the sign, about
    2^16 at a time; every other entry is zero.
    """
    pure = a.is_pure and (b is None or b.is_pure)

    def entries(s: QuantumState) -> np.ndarray:
        r = s._support
        return s._data[r] if pure else s._entries(r, r)

    x = entries(a)
    y = np.ones((1,) * x.ndim) if b is None else entries(b)
    if pure:
        data = np.zeros(layout.total_dim, dtype=np.complex128)
        data[idx] = np.multiply.outer(x, y).reshape(-1) + 0.0
        return _wrap(layout, data)
    data = np.zeros((layout.total_dim,) * 2, dtype=np.complex128)
    step = max(1, 2**16 // max(idx.size, 1))
    for s in range(0, idx.size, step):
        i, k = np.divmod(np.arange(s, min(s + step, idx.size)), len(y))
        block = (x[i][:, :, None] * y[k][:, None, :]).reshape(i.size, -1)
        block += 0.0
        data[np.ix_(idx[s:s + step], idx)] = block
    return _wrap(layout, data, np.sort(idx))


def _relabel(state: QuantumState, label: str, image: np.ndarray) -> QuantumState:
    """state with basis digit x of the named register renamed image[x], a permutation."""
    digits = _digits(state._support, state.dims)
    k = state.layout.position(label)
    digits[k] = image[digits[k]]
    return _placed(state.layout, _flat(digits, state.dims), state)


def _digits(index: np.ndarray, dims: Sequence[int]) -> list:
    """Each register's row-major digit of the flat indices, as ``_flat`` reads them back.

    A dimension-1 register's is 0, kept out of numpy's call: the register count sets no ceiling.
    """
    big = [i for i, d in enumerate(dims) if d > 1] or [0]
    found = dict(zip(big, np.unravel_index(index, [dims[i] for i in big])))
    return [found.get(i, 0) for i in range(len(dims))]


def _flat(digits: Sequence, dims: Sequence[int]) -> np.ndarray:
    """The row-major flat index of one digit per register; the digit arrays broadcast."""
    big = [i for i, d in enumerate(dims) if d > 1] or [0]
    return np.ravel_multi_index([digits[i] for i in big], [dims[i] for i in big])


def _product_rows(rows: np.ndarray, *factors) -> np.ndarray | None:
    """rows, or None when a factor's sum is not finite: NaN or inf times 0 is NaN, on any row."""
    return rows if all(np.isfinite(np.sum(f)) for f in factors) else None


def _mask(n: int, rows: np.ndarray) -> np.ndarray:
    """A length-n boolean mask, True on rows."""
    return np.bincount(rows, minlength=n) > 0


def _strips(m: np.ndarray, support: np.ndarray | None) -> tuple[int, Callable]:
    """The size of m's principal block on support, and a reader of the block's slices.

    The reader returns the block's part on a row and a column slice: a view
    of m when support is None or every row, of a copy of a block of at most
    2^16 entries (one strip), else a gather from m.
    """
    if support is not None and support.size < m.shape[0]:
        if support.size**2 > 2**16:
            return support.size, lambda r, c: m[np.ix_(support[r], support[c])]
        m = m[np.ix_(support, support)]
    return m.shape[0], lambda r, c: m[r, c]


# the cost of each step of a gathered partial trace, in entries added
# through a view: per entry gathered, per traced string gathered, and once
_GATHER_ENTRY, _GATHER_STRING, _GATHER_SETUP = 5, 7600, 8000
_VIEW_STRING = 600


def _gathers(hit: np.ndarray, traced: tuple, scale: float | None) -> bool:
    """Whether a partial trace gathers each traced string's support block rather than adding views.

    hit marks the picked block's support rows, with its traced axes at
    traced and its kept axes at the rest. A view adds a whole kept x kept
    block per traced digit string; a gather adds only the string's support
    rows x rows, at a higher cost per entry and per string
    (``_trace_groups``). Like ``_strips`` for a support block, it gathers
    when that costs less. A 1/p scale that is not finite makes the zeros
    off the support NaN, so then only the views are exact.
    """
    strings = prod(hit.shape[i] for i in traced)
    block = hit.size // strings
    views = strings * (block * block + _VIEW_STRING)
    if views <= _GATHER_SETUP or (scale is not None and not isfinite(scale)):
        return False
    counts = hit.sum(axis=tuple(i for i in range(hit.ndim) if i not in traced))
    gather = _GATHER_ENTRY * int(np.sum(counts * counts)) + _GATHER_STRING * int(np.count_nonzero(counts))
    return _GATHER_SETUP + gather < views


def _trace_groups(hit: np.ndarray, traced: tuple, index: np.ndarray):
    """Per traced digit string that holds support rows, ascending: its rows of rho and of the output.

    hit and index (rho's row numbers) span the picked block, as ``_gathers`` reads hit.
    """
    axes = traced + tuple(i for i in range(hit.ndim) if i not in traced)
    strings = prod(hit.shape[i] for i in traced)
    t, c = np.nonzero(hit.transpose(axes).reshape(strings, -1))
    r = index.transpose(axes).reshape(strings, -1)[t, c]
    cuts = np.flatnonzero(np.diff(t)) + 1
    return zip(np.split(r, cuts), np.split(c, cuts))


def _max_asymmetry(m: np.ndarray, support: np.ndarray | None = None) -> float:
    """max |m - m^dag| over all entries, without a dim x dim temporary.

    Only the block on m's support is read (``_strips``): every pair off it
    is 0 - conj(0). |m[i, j] - conj(m[j, i])| equals |m[j, i] - conj(m[i, j])|
    bit for bit, so only the upper triangle is visited, 32 rows at a time.
    NaN and inf propagate (inf - inf is NaN): ``not result <= tol`` rejects them.
    """
    n, part = _strips(m, support)
    out = np.float64(0.0)
    with np.errstate(invalid="ignore"):
        for i in range(0, n, 32):
            d = part(slice(i, None), slice(i, i + 32)).T.conj()
            np.subtract(part(slice(i, i + 32), slice(i, None)), d, out=d)
            out = np.maximum(out, np.max(np.abs(d)))
    return float(out)


def _wrap(layout: SystemLayout, arr: np.ndarray, rows: np.ndarray | None = None) -> QuantumState:
    """An operation's output on layout, unchecked: arr as a vector when 1-D, else as a density.

    A vector's support is its nonzero rows; a density's is found from rows,
    which its producer knows to hold it (``_support``).
    """
    state = QuantumState.__new__(QuantumState)
    state._hold(layout, arr, np.flatnonzero(arr) if arr.ndim == 1 else _support(arr, rows))
    return state


def _grouped(
    layout: SystemLayout, arr: np.ndarray, labels: Sequence[str]
) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """Regroup a flat vector or matrix with the named registers in front.

    A vector ``(dim,)`` comes back as ``(g, r)`` and a matrix ``(dim, dim)``
    as ``(g, r, g, r)``: g runs over the named registers in the given order,
    r over the others in layout order. The second value maps any array with
    that element order back to flat layout order. Dimension-1 registers get
    no axis, so the axis count stays far below numpy's limit.
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


def _runs(layout: SystemLayout, *groups: Sequence[str]) -> list[tuple[int, int, list[str]]]:
    """Registers of dimension > 1 in layout order, cut into runs of adjacent ones in one group.

    Each run is (group, dimension, labels): group k for the registers named
    in groups[k - 1], 0 for the rest. A flat array reshaped to the run
    dimensions, once per array axis, has one axis per run, on which
    ``_pick`` selects the digits of group 1 in place.
    """
    layout.positions([l for g in groups for l in g])  # raises on an unknown or repeated label
    group = {l: k for k, g in enumerate(groups, 1) for l in g}
    runs: list[tuple[int, int, list[str]]] = []
    for s in layout.subsystems:
        if s.dim == 1:
            continue
        k = group.get(s.label, 0)
        if runs and runs[-1][0] == k:
            runs[-1] = (k, runs[-1][1] * s.dim, runs[-1][2] + [s.label])
        else:
            runs.append((k, s.dim, [s.label]))
    return runs


def _pick(
    layout: SystemLayout, runs: list[tuple[int, int, list[str]]], on: Sequence[str],
    digits: Sequence[int],
) -> tuple:
    """Index into one half (rows or columns) of an array reshaped to its runs.

    Each run of group 1 gets the digits of its registers, named in on with
    one digit each, joined into one; the other runs are kept whole.
    """
    digit = dict(zip(on, digits))
    return tuple(
        _digit_index(layout, ls, [digit[l] for l in ls]) if g == 1 else slice(None)
        for g, _, ls in runs
    )


def _block_trace(diag: np.ndarray, pick: tuple) -> float:
    """The real trace of the diagonal block at pick, from rho's diagonal reshaped to its runs."""
    # summed over one contiguous copy of the block's diagonal, as np.trace
    # sums it; the trailing ... keeps a view even when every run is picked
    return float(np.real(diag[pick + (...,)].reshape(-1).sum()))


def _branch(row: np.ndarray) -> tuple[float, float]:
    """One row of a grouped vector: its probability p and normalizer sqrt(p)."""
    p = float(np.real(np.vdot(row, row)))
    return p, np.sqrt(p)


def partial_trace(state: QuantumState, over: Sequence[str]) -> QuantumState:
    """Trace out the named registers; result is a density state on the rest.

    Tracing only dimension-1 registers keeps a pure vector. The trace is
    ``_project_trace``'s, with nothing projected.
    """
    over = list(over)
    if not over:
        return state
    state.layout.positions(over)  # raises on an unknown or repeated label
    return _project_trace(state, [], (), over)[1]


def _project_trace(
    state: QuantumState, on: list[str], digits: tuple, over: list[str]
) -> tuple[float, QuantumState | None]:
    """``project_registers(state, on, digits)``, then the partial trace of its state over over.

    A vector's picked row (``_grouped``) is divided by sqrt(p); tracing registers of
    dimension above 1 from it gives M M^dag, M regrouped with the kept registers in front.
    A density is read through one view of its runs (``_runs``): the traced
    diagonal blocks of the block at the picked digits are scaled by 1/p, as
    complex division by its trace p scales, and added into a zeroed output
    in ascending digit order onto +0.0, as the two steps add them. Where
    ``_gathers`` finds it cheaper, each block's entries on the support rows
    alone are gathered and added at the output rows they keep: every entry
    left out is a zero, which adds nothing to +0.0 or to a sum, so the
    bytes are the same. Without over the block is divided as it is;
    without on nothing is divided.
    """
    layout = state.layout
    k = _digit_index(layout, on, digits)
    new_layout = layout.without(on + over)
    if state.is_pure:
        w, _ = _grouped(layout, state.vector, on)
        p, norm = _branch(w[k]) if on else (1.0, 1.0)
        if p <= 0.0:
            return max(p, 0.0), None
        v = w[k] / norm if on else state.vector
        if all(layout.subsystem(l).dim == 1 for l in over):
            return p, _wrap(new_layout, v)  # the flat vector, less its dimension-1 registers
        m, _ = _grouped(layout.without(on), v, new_layout.labels)
        return p, _wrap(new_layout, m @ m.conj().T, _product_rows(np.flatnonzero(m.any(axis=1)), m))
    runs = _runs(layout, on, over)
    shape = tuple(n for _, n, _ in runs)
    if not on and all(g for g, _, _ in runs):
        # a 1 x 1 result: one np.trace, not a loop over dim scalar blocks
        return 1.0, _wrap(new_layout, np.trace(state.matrix).reshape(1, 1))
    view = state.matrix.reshape(shape * 2)
    pick = _pick(layout, runs, on, digits)
    p = _block_trace(np.diagonal(state.matrix).reshape(shape), pick) if on else 1.0
    if p <= 0.0:
        return max(p, 0.0), None
    rho = np.zeros((new_layout.total_dim,) * 2, dtype=np.complex128)
    out = rho.reshape(tuple(n for g, n, _ in runs if not g) * 2)
    # the picked block's support rows, one axis per run not picked; the
    # output's support lies on their kept digits
    hit = _mask(state.dim, state._support).reshape(shape)[pick]
    traced = tuple(i for i, g in enumerate(g for g, _, _ in runs if g != 1) if g == 2)
    rows = np.flatnonzero(hit.any(axis=traced))
    scale = 1.0 / p if on else None
    if not over:
        np.divide(view[pick * 2], p, out=out)
    elif _gathers(hit, traced, scale):
        # a zero entry added onto +0.0 or onto a sum leaves it as it is, so
        # only each string's support rows x rows are added, strings ascending
        index = np.arange(state.dim, dtype=np.intp).reshape(shape)[pick]
        for r, c in _trace_groups(hit, traced, index):
            block = state.matrix[np.ix_(r, r)]
            rho[np.ix_(c, c)] += block * scale if on else block
    else:  # traced digit strings in ascending order, as np.ndindex runs them
        strings = (range(n) if g == 2 else [x] for (g, n, _), x in zip(runs, pick))
        for idx in itertools.product(*strings):
            block = view[idx * 2]
            np.add(out, block * scale if on else block, out=out)
    return p, _wrap(new_layout, rho, _product_rows(rows, p))


def partial_transpose(state: QuantumState, over: Sequence[str]) -> np.ndarray:
    """Transpose the named registers inside the density matrix.

    Refuses a pure-vector state: project with to_density() first, since the
    result of a partial transpose is not a state and cannot stay a vector.
    The result is a new dim x dim array, built through two copies; the PPT
    checks of ``entanglement`` read the transpose through its index maps
    instead.
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


def _gram_side(rows: int, cols: int) -> str:
    """Where ``_gram_difference_norm`` works for factors of cols columns in total.

    ``"qr"``: on the cols x cols triangle of a QR, when the factors are
    taller than they are wide together; ``"dense"``: on the rows x rows
    difference itself.
    """
    return "qr" if cols < rows else "dense"


def _gram_work(rows: int, cols: int) -> int:
    """About the flops of ``_gram_difference_norm`` on factors of cols columns in total."""
    return rows * cols * cols + cols**3 if _gram_side(rows, cols) == "qr" else rows**3


def _gram_difference_norm(a: np.ndarray, b: np.ndarray) -> float:
    """||A A^dag - B B^dag||_1 for factors A (n, ka) and B (n, kb), on the smaller side.

    With [A B] = Q R and Q's columns orthonormal, A A^dag - B B^dag equals
    Q (Ra Ra^dag - Rb Rb^dag) Q^dag, where Ra and Rb are R's first ka and
    last kb columns, so both have the same nonzero eigenvalues. The QR route
    costs O(n (ka + kb)^2) and is taken when ka + kb < n; otherwise the
    n x n difference is formed. Unlike 2 sqrt(1 - |<a|b>|^2) for two pure
    states, neither route cancels catastrophically for nearly equal states.
    """
    n, ka = a.shape
    if _gram_side(n, ka + b.shape[1]) == "qr":
        r = np.linalg.qr(np.concatenate((a, b), axis=1), mode="r")
        a, b = r[:, :ka], r[:, ka:]
    # trace norm of the Hermitian difference; eigvalsh reads only its lower triangle
    return float(np.abs(np.linalg.eigvalsh(a @ a.conj().T - b @ b.conj().T)).sum())


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
    if not prob_floor >= 0.0:  # a negative or NaN floor would keep probability-0 branches
        raise ValueError(f"prob_floor must be >= 0, got {prob_floor!r}")
    on = list(on)
    if not on:
        raise ValueError("need at least one register to measure")
    layout = state.layout
    digit_strings = itertools.product(*[range(layout.subsystem(l).dim) for l in on])
    outcomes: list[MeasurementOutcome] = []
    if not state.is_pure:
        runs = _runs(layout, on)
        shape = tuple(n for _, n, _ in runs) * 2
        view = state.matrix.reshape(shape)
        diag = np.diagonal(state.matrix).reshape(shape[:len(runs)])
        support = _mask(state.dim, state._support).reshape(diag.shape)
        for digits in digit_strings:
            pick = _pick(layout, runs, on, digits)
            p = _block_trace(diag, pick)
            if p <= prob_floor:
                continue
            rho = np.zeros(state.matrix.shape, dtype=np.complex128)
            block = pick * 2 + (...,)
            np.divide(view[block], p, out=rho.reshape(shape)[block])
            hit = np.zeros_like(support)
            hit[pick] = support[pick]
            rows = np.flatnonzero(hit)
            post = _wrap(layout, rho, _product_rows(rows, p))
            outcomes.append(MeasurementOutcome(digits, p, post))
        return outcomes
    w, ungroup = _grouped(layout, state.vector, on)
    for k, digits in enumerate(digit_strings):
        p, norm = _branch(w[k])
        if p <= prob_floor:
            continue
        full = np.zeros_like(w)
        full[k] = w[k] / norm
        outcomes.append(MeasurementOutcome(digits, p, _wrap(layout, ungroup(full))))
    return outcomes


def _digit_index(layout: SystemLayout, labels: Sequence[str], digits: Sequence[int]) -> int:
    """Flat row-major index of one digit per named register, after the digit check."""
    digits = tuple(digits)
    if len(digits) != len(labels):
        raise ValueError(f"need {len(labels)} digits, got {len(digits)}")
    k = 0
    for label, x in zip(labels, digits):
        d = layout.subsystem(label).dim
        if not is_integer_in(x, 0, d):
            raise ValueError(f"digit {x} out of range for register {label!r} (dim {d})")
        k = k * d + int(x)
    return k


def project_registers(
    state: QuantumState, on: Sequence[str], digits: Sequence[int]
) -> tuple[float, QuantumState | None]:
    """Project the named registers onto given digits and drop them.

    Returns (probability, conditional state on the remaining layout); the
    state is None when the probability is exactly zero. Unlike
    measure_computational this removes the measured registers, and a pure
    input stays pure. A density is read through ``_project_trace``.
    """
    on = list(on)
    if not on:
        raise ValueError("need at least one register to project")
    return _project_trace(state, on, tuple(digits), [])


def purify(
    state: QuantumState,
    env_label: str | None = None,
    rank_eps: float = defaults.RANK_EPS,
) -> QuantumState:
    """Append an environment register and return a pure state reducing to the input.

    Any factor A with rho = A A^dag purifies rho. A is found by pivoted
    Cholesky, which stops once the largest residual diagonal entry is at
    most rank_eps, so the environment dimension is the numerical rank. It
    is accepted only when ||rho - A A^dag||_F <= STATE_TOL, which by Weyl's
    inequality puts no eigenvalue below -STATE_TOL; otherwise the
    eigenvectors scaled by sqrt(eigenvalue), for eigenvalues above
    rank_eps, are used, and an eigenvalue below -STATE_TOL is refused. A
    vector gets a dimension-1 environment and is otherwise unchanged.

    Every step reads only the block of rho on the state's support, a strip
    at a time; the ``eigh`` fallback copies the block when it holds at most
    a quarter of rho's entries, and runs on rho otherwise. rho is zero off
    the block, so the block's factor, with its rows scattered into a zero
    (dim, rank) array, is rho's.
    """
    label = env_label or state.layout.unique_label(ENV_PARTY)
    if state.is_pure:
        amps = state.vector[:, None]
    else:
        rho, support = state.matrix, state._support
        herm = _max_asymmetry(rho, support)
        if not herm <= defaults.STATE_TOL:
            raise ValueError(f"cannot purify: matrix is not Hermitian (max asymmetry {herm!r})")
        amps, path = _cholesky_factor(rho, rank_eps, support), "factor"
        if amps is None:
            block = rho[np.ix_(support, support)] if 0 < 2 * support.size <= rho.shape[0] else rho
            amps, path = _eigh_factor(block, rank_eps), "eigh"
        if amps.shape[0] < rho.shape[0]:  # the factor's rows are the support's
            factor = amps
            amps = np.zeros((rho.shape[0], factor.shape[1]), dtype=np.complex128)
            amps[support] = factor
        logger.debug("purify: dim %d, support %d, rank %d, path %s",
                     rho.shape[0], support.size, amps.shape[1], path)
    env = Subsystem(label, ENV_PARTY, "env", amps.shape[1])
    return _wrap(SystemLayout(state.layout.subsystems + (env,)), amps.reshape(-1))


def _cholesky_factor(
    rho: np.ndarray, rank_eps: float, support: np.ndarray | None = None
) -> np.ndarray | None:
    """A (dim, rank) factor of rho by pivoted Cholesky, or None if uncertified.

    Costs O(dim^2 rank), one column per unit of rank, then the residual
    check ||rho - A A^dag||_F <= STATE_TOL in row blocks. None also stands
    for a numerically zero matrix. Given rho's support, only the block on
    it is read (``_strips``), and the factor has the support's rows.
    """
    dim, part = _strips(rho, support)
    resid = np.real(np.diagonal(rho))
    resid = resid.copy() if dim == rho.shape[0] else resid[support]
    cols = np.empty((min(dim, 16), dim), dtype=np.complex128)  # rows are A's columns
    r = 0
    while r < dim:
        j = int(np.argmax(resid))
        d = resid[j]
        if not d > rank_eps:
            break
        if r == len(cols):
            cols = np.concatenate((cols, np.empty_like(cols)))[:dim]
        column = part(slice(None), slice(j, j + 1))[:, 0]
        col = (column - cols[:r].T @ cols[:r, j].conj()) / np.sqrt(d)
        cols[r] = col
        resid -= col.real**2 + col.imag**2
        r += 1
    if r == 0:
        return None
    a = cols[:r].T
    err2 = 0.0
    step = max(1, 2**16 // dim)
    for s in range(0, dim, step):
        # rows s.. of A A^dag as conj(conj(A[s:]) @ A^T): A^T is a view, so
        # at full rank no conjugated copy of the whole factor is made
        e = a[s:s + step].conj() @ a.T
        np.conjugate(e, out=e)
        e -= part(slice(s, s + step), slice(None))
        err2 += float(np.real(np.vdot(e, e)))
    return a if np.sqrt(err2) <= defaults.STATE_TOL else None


def _eigh_factor(rho: np.ndarray, rank_eps: float) -> np.ndarray:
    """Eigenvectors scaled by sqrt(eigenvalue), for eigenvalues above rank_eps."""
    vals, vecs = np.linalg.eigh(rho)
    if float(vals.min()) < -defaults.STATE_TOL:
        raise ValueError(f"cannot purify: eigenvalue {float(vals.min())!r} below -{defaults.STATE_TOL}")
    keep = vals > rank_eps
    if not keep.any():
        raise ValueError("cannot purify: matrix is numerically zero")
    return vecs[:, keep] * np.sqrt(vals[keep])


def _check_unitary(u: np.ndarray, dim: int, tol: float) -> np.ndarray:
    u = np.asarray(u, dtype=np.complex128)
    if u.shape != (dim, dim):
        raise ValueError(f"unitary shape {u.shape} does not match target dimension {dim}")
    dev = float(np.max(np.abs(u.conj().T @ u - np.eye(dim))))
    if not dev <= tol:
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
    c_dim = prod(layout.subsystem(l).dim for l in control)
    t_dim = prod(layout.subsystem(l).dim for l in target)
    checked = {
        _digit_index(layout, control, key): _check_unitary(b, t_dim, unitary_tol)
        for key, b in blocks.items()
    }
    w, ungroup = _grouped(layout, state._data, control + target)
    # _grouped hands back a fresh array unless it could return a view of the
    # read-only input; only that view needs copying before the in-place steps
    out = w if w.flags.writeable else w.copy()
    # (c, t, rest) for a vector, (c, t, rest, c, t, rest) for a density
    out = out.reshape((c_dim, t_dim, w.shape[1]) * (w.ndim // 2))
    rows = out.reshape(c_dim, t_dim, -1)
    # ascending k fixes the rounding order of each entry block B_j X B_k^dag
    for k, b in sorted(checked.items()):
        rows[k] = b @ rows[k]
        if not state.is_pure:
            out[:, :, :, k] = b.conj() @ out[:, :, :, k]
    # a matmul can leave zeros as -0.0 (0 * -x), depending on the BLAS
    # kernel; make them +0.0, since qcr-state/1 writes the sign
    out += 0.0
    support = None
    if not state.is_pure:  # moved along each applied block's nonzero pattern
        m, back = _grouped(layout, _mask(state.dim, state._support), control + target)
        m = m.reshape(c_dim, t_dim, -1)
        for k, b in checked.items():
            m[k] = (b != 0) @ m[k]
        # rho is 0 off its support, so any NaN or inf is in the support block
        support = _product_rows(np.flatnonzero(back(m)), state.matrix)
    return _wrap(layout, ungroup(out), support)
