"""PPT analysis across bipartite cuts and trace-distance diagnostics.

Every spectrum here has three paths, and each call logs the one it took on
the ``qcrkit`` logger at DEBUG:

- ``pure``: a PPT check on a pure vector reads its minimum eigenvalue off
  the Schmidt coefficients across the cut (one small SVD), so no density
  is formed even at the dimension cap.
- ``blocks``: a density's partial transpose, or the difference of two
  states, whose exactly nonzero entries split into several connected
  components is solved block by block (``_block_spectra``), with one
  batched ``eigvalsh`` per block size. States with a cryptographic layout
  split into hundreds of blocks of at most a few dozen rows.
- ``dense``: a matrix with one component gets one dense ``eigvalsh``.

No partial transpose is copied whole: each cut's is read from the density
through its index map (``_transpose_shift``), one walk over the density's
nonzero entries finds the components of every cut in a ``ppt_report``
(``all_dealer_cuts_ppt`` and ``qcr ppt`` pass their whole cut list), and
only the blocks, or the single dense array of a one-component cut, are
gathered. The walk visits only the block of rows and columns that hold a
nonzero entry, the support that the density carries from when it was made
(``states.QuantumState``), a strip at a time (``states._strips``): a
1024-dim composite of the benchmark holds its 1,024 nonzero entries in a
32 x 32 block.

A density trace distance likewise forms the difference only on the union
of the two states' supports, a strip of rows at a time; the rows off it
are 1 x 1 blocks of 0, and are counted as such. Trace distances of two
pure vectors come from their (dim, 2) factor pair
(``states._gram_difference_norm``) and log nothing.
"""
from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import defaults
from .registers import DEALER, SystemLayout, _names, _require_tolerance
from .states import QuantumState, _gram_difference_norm, _grouped, _mask, _strips

logger = logging.getLogger("qcrkit")


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
        non_env = set(layout.non_env_labels)
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
    def from_side_two(cls, layout: SystemLayout, side_two: Sequence[str] | str) -> CutSpec:
        """side_two as given (a bare string is one label) against the rest, in layout order."""
        side_two = _names(side_two)
        return cls(tuple(l for l in layout.non_env_labels if l not in side_two), side_two)

    @classmethod
    def dealer_cut(cls, layout: SystemLayout, players_two: Sequence[str] | str) -> CutSpec:
        """Dealer plus remaining players on side one; the named players (or one) on side two."""
        two_set = set(_names(players_two))
        unknown = two_set - set(layout.players)
        if unknown:
            raise ValueError(f"unknown players: {sorted(unknown)}")
        side_two = [s.label for s in layout.subsystems if s.kind != "env" and s.party in two_set]
        return cls.from_side_two(layout, side_two)


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
    This is ``ppt_report`` with the one cut; see there for the paths.
    """
    return ppt_report(state, [cut], tol).cuts[0]


def ppt_report(
    state: QuantumState, cuts: Sequence[CutSpec], tol: float = defaults.PPT_TOL
) -> PptReport:
    """``ppt_check`` of every cut in the list, with one pass over a density.

    A pure vector with Schmidt coefficients s_1 >= s_2 >= ... across a cut
    (side two against everything else) has a partial transpose with
    spectrum {s_i^2, +-s_i s_j (i < j), 0}, so its minimum is -s_1 s_2, or
    0 at Schmidt rank 1: one SVD of the (side two, rest) matrix per cut,
    and no density is formed (path ``pure``). A density's partial
    transposes are never formed: ``_block_spectra`` reads each from
    the density through the cut's index map, finds the components of all
    of them in one walk over the density's nonzero entries, and solves
    each block by block when it splits into several components (path
    ``blocks``, as for states with a cryptographic layout) or as one dense
    array otherwise (path ``dense``). Each cut logs its path on the
    ``qcrkit`` logger at DEBUG. Every cut, and tol, is validated before any work.
    """
    _require_tolerance(tol)
    layout = state.layout
    cuts = list(cuts)
    for cut in cuts:
        cut.validate(layout)
    if state.is_pure:
        mins = [_pure_min_eigenvalue(state, cut) for cut in cuts]
    else:
        shifts = np.array([_transpose_shift(layout, cut.side_two) for cut in cuts],
                          dtype=np.intp).reshape(len(cuts), state.dim)
        mins = []
        spectra = _block_spectra(state.matrix, shifts, state._support)
        for cut, (vals, blocks, largest) in zip(cuts, spectra):
            logger.debug("ppt: side two %s, dim %d, path %s, blocks %d, largest %d",
                         ",".join(cut.side_two), state.dim, _path(blocks), blocks, largest)
            mins.append(float(vals[0]))
    return PptReport(tol=tol, cuts=tuple(
        CutResult(side_one=cut.side_one, side_two=cut.side_two,
                  min_eigenvalue=m, ppt=m >= -tol)
        for cut, m in zip(cuts, mins)
    ))


def _pure_min_eigenvalue(state: QuantumState, cut: CutSpec) -> float:
    """-s_1 s_2 from the Schmidt coefficients of a pure vector across the cut."""
    m, _ = _grouped(state.layout, state.vector, cut.side_two)
    s = np.linalg.svd(m, compute_uv=False)
    if s.size > 1:
        min_eig = -float(s[0] * s[1]) + 0.0
    else:
        # a product across the cut: {1, 0, ...}, or {1} at dimension 1
        min_eig = 0.0 if state.dim > 1 else float(s[0] ** 2)
    logger.debug("ppt: side two %s, dim %d, path pure, svd %dx%d",
                 ",".join(cut.side_two), state.dim, *m.shape)
    return min_eig


def _path(blocks: int) -> str:
    return "dense" if blocks == 1 else "blocks"


def all_dealer_cuts_ppt(state: QuantumState, tol: float = defaults.PPT_TOL) -> PptReport:
    """PPT check for every cut {dealer + kept players : discarded players}.

    Player subsets on the discarded side run over every nonempty subset,
    including all players (the {dealer : everyone} cut). All cuts share one
    ``ppt_report`` pass.
    """
    layout = state.layout
    if DEALER not in layout.parties:
        raise ValueError("layout has no dealer party 'D'")
    players = layout.players
    if not players:
        raise ValueError("layout has no player parties")
    cuts = [
        CutSpec.dealer_cut(layout, combo)
        for size in range(1, len(players) + 1)
        for combo in itertools.combinations(players, size)
    ]
    return ppt_report(state, cuts, tol)


def trace_distance(a: QuantumState, b: QuantumState) -> float:
    """Trace norm of the difference of two states; ranges over [0, 2].

    The states' register dimensions must agree in order, dimension-1
    registers aside: equal totals alone can index different registers.
    Two pure vectors are taken as (dim, 1) factors of their densities, so
    the norm comes from a QR of the (dim, 2) pair and a 2 x 2 eigenproblem;
    no dim x dim matrix is formed. The closed form 2 sqrt(1 - |<a|b>|^2) is
    not used, because it cancels catastrophically for nearly equal states.
    When either state is a density, the sum of |eigenvalues| of the
    Hermitian difference comes from ``_block_spectra`` through the
    identity map: block by block when the difference's nonzero entries
    split into several components (path ``blocks``), else by one dense
    ``eigvalsh`` (path ``dense``), about half the cost of the SVD in
    ``trace_norm``. The difference is formed only on the union of the two
    supports (a pure vector's nonzero amplitudes, a density's support), a
    strip of rows at a time, so a pure operand's dim x dim projector is
    never built; every row off the union is a 1 x 1 block with eigenvalue
    0, and these are added back, so the value, the block count and the
    largest block are those of the whole difference. A density call logs
    its path on the ``qcrkit`` logger at DEBUG.
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    dims_a, dims_b = ([n for n in s.layout.dims if n != 1] for s in (a, b))
    if dims_a != dims_b:
        raise ValueError(f"register dimensions differ: {dims_a} vs {dims_b}")
    if a.is_pure and b.is_pure:
        return _gram_difference_norm(a.vector[:, None], b.vector[:, None])
    # the union as a mask: np.union1d imports numpy.ma
    union = np.flatnonzero(_mask(a.dim, a._support) | _mask(a.dim, b._support))
    identity = np.zeros((1, union.size), dtype=np.intp)
    (vals, blocks, largest), = _block_spectra(_difference(a, b, union), identity)
    # the difference is zero off its block: one 1 x 1 block of 0 per row left out
    pad = a.dim - union.size
    vals = np.sort(np.concatenate((vals, np.zeros(pad))))
    blocks += pad
    logger.debug("trace_distance: dim %d, path %s, blocks %d, largest %d",
                 a.dim, _path(blocks), blocks, largest)
    return float(np.abs(vals).sum())


def _difference(a: QuantumState, b: QuantumState, rows: np.ndarray) -> np.ndarray:
    """a's density minus b's on the given rows and columns, gathered a strip of rows at a time."""
    if rows.size == a.dim:
        return a.density_matrix() - b.density_matrix()
    out = np.empty((rows.size,) * 2, dtype=np.complex128)
    step = max(1, 2**16 // max(rows.size, 1))
    for s in range(0, rows.size, step):
        r = rows[s:s + step]
        out[s:s + step] = a._entries(r, rows) - b._entries(r, rows)
    return out


def _transpose_shift(layout: SystemLayout, over: Sequence[str]) -> np.ndarray:
    """B[x], the part of flat index x that the named registers' digits make up.

    Transposing those registers moves entry (p, q) of a matrix to
    (p - B[p] + B[q], q - B[q] + B[p]), a swap that is its own inverse, so
    the partial transpose of rho is read as rho[p + B[q] - B[p],
    q - (B[q] - B[p])]. B[x] is x with the other registers' digits at 0: column 0 of the
    index range regrouped with the named ones in front (``_grouped``), repeated and mapped back.
    """
    index, ungroup = _grouped(layout, np.arange(layout.total_dim, dtype=np.intp), over)
    return ungroup(index[:, :1].repeat(index.shape[1], axis=1))


def _read(h: np.ndarray, shift: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Entries (p, q) of the matrix read from h through shift; p and q broadcast."""
    d = shift[q] - shift[p]
    r = p + d
    np.subtract(q, d, out=d)
    return h[r, d]


def _block_spectra(
    h: np.ndarray, shifts: np.ndarray, support: np.ndarray | None = None
) -> list[tuple[np.ndarray, int, int]]:
    """Spectra of the Hermitian matrices read from h through each map, block by block.

    Row c of shifts is a map B (``_transpose_shift``): its matrix has entry
    h[p + B[q] - B[p], q - (B[q] - B[p])] at (p, q), so B = 0 is h itself
    and the map of some registers is h's partial transpose over them; only
    its lower triangle is read. Its exactly nonzero entries (1e-300 counts,
    -0.0 does not) link rows into components, found for every map in one
    walk over h's support (``_components``). Blocks of equal size are solved
    by one batched ``eigvalsh``, one of more than 2^15 entries alone
    (``_read_dense``). Returns, per map, the ascending eigenvalues, the
    number of blocks and the largest block size.
    """
    n = h.shape[0]
    out = []
    for shift, root in zip(shifts, _components(h, shifts, support)):
        # sizes[r] is the size of the component rooted at r, 0 off the roots;
        # bincount and cumsum, not np.unique, whose first call imports numpy.ma
        sizes = np.bincount(root, minlength=n)
        order = np.argsort(root, kind="stable")
        starts = np.cumsum(sizes) - sizes
        parts = []
        for k in np.flatnonzero(np.bincount(sizes)[1:]) + 1:  # each block size in use
            # rows of idx are the components of size k, each in ascending
            # order, so every block's lower triangle is the matrix's
            idx = order[starts[sizes == k][:, None] + np.arange(k)]
            if k * k > 2**15:
                parts += [np.linalg.eigvalsh(_read_dense(h, shift, rows)) for rows in idx]
            else:
                parts.append(np.linalg.eigvalsh(
                    _read(h, shift, idx[:, :, None], idx[:, None, :])).reshape(-1))
        out.append((np.sort(np.concatenate(parts)), int(np.count_nonzero(sizes)),
                    int(sizes.max())))
    return out


def _read_dense(h: np.ndarray, shift: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The matrix read from h through shift, on the ascending rows and columns.

    All of it under shift 0 is h itself. Otherwise the block is gathered
    into one new array in row strips of about 2^15 entries, so the index
    arrays stay small.
    """
    if rows.size == h.shape[0] and not shift.any():
        return h
    k = rows.size
    out = np.empty((k, k), dtype=h.dtype)
    step = max(1, 2**15 // k)
    for s in range(0, k, step):
        out[s:s + step] = _read(h, shift, rows[s:s + step, None], rows)
    return out


def _components(
    h: np.ndarray, shifts: np.ndarray, support: np.ndarray | None = None
) -> np.ndarray:
    """Smallest index in each row's component, for the matrix read from h through each map.

    The graph of a map's matrix (see ``_block_spectra``) has an edge p > q
    wherever its entry (p, q) is exactly nonzero; entry (i, j) of h is entry
    (i - B[i] + B[j], j - B[j] + B[i]) of B's matrix, so one walk over h's
    support (every row when None), in batches (``_nonzero_batches``), finds
    the edges of every map for a union-find (``_join``). A map leaves the
    walk once its matrix is one component. The result has the shape of
    shifts.
    """
    n = h.shape[0]
    maps = shifts.reshape(-1, n)
    roots = np.tile(np.arange(n), (len(maps), 1))
    live = list(range(len(maps)))
    # under the identity map alone only h's own lower triangle has edges
    for i, j in _nonzero_batches(h, not maps.any(), support):
        if not live:
            break
        for c in list(live):
            d = maps[c][j] - maps[c][i]
            p = i + d
            q = np.subtract(j, d, out=d)
            lower = p > q
            _join(roots[c], p[lower], q[lower])
            if not roots[c].any():
                live.remove(c)  # one component already
    return roots.reshape(shifts.shape)


def _nonzero_batches(h: np.ndarray, lower_only: bool, support: np.ndarray | None = None):
    """Rows and columns of h's exactly nonzero entries, at most 2^14 at a time.

    Only the block on h's support (every row when None) is scanned
    (``_strips``), and mapped back to h's indices in order, so its lower
    triangle is h's. Strips of about 2^14 entries, up to the diagonal block
    when lower_only, are joined into batches: 2.3 MB in all for a dense
    1024-dim matrix, with the union-find's arrays (tracemalloc).
    """
    n, part = _strips(h, support)
    step = max(1, 2**14 // max(n, 1))
    rows, cols, pending = [], [], 0
    for s in range(0, n, step):
        i, j = np.nonzero(part(slice(s, s + step), slice(0, s + step if lower_only else n)) != 0)
        i += s
        if n < h.shape[0]:
            i, j = support[i], support[j]
        if pending and pending + i.size > 2**14:
            batch = np.concatenate(rows), np.concatenate(cols)
            rows, cols, pending = [], [], 0
            yield batch
        rows.append(i)
        cols.append(j)
        pending += i.size
    if pending:
        yield np.concatenate(rows), np.concatenate(cols)


def _join(root: np.ndarray, u: np.ndarray, v: np.ndarray) -> None:
    """Union-find, in place: join the components of every edge (u[k], v[k]).

    Until the edges join no two components, the larger root of every edge
    is hooked onto the smaller, then pointers jump until every row points
    at its root: O(log dim) rounds per batch on a random path graph.
    """
    while True:
        ru, rv = root[u], root[v]
        apart = ru != rv
        if not apart.any():
            return
        u, v, ru, rv = u[apart], v[apart], ru[apart], rv[apart]
        np.minimum.at(root, np.maximum(ru, rv), np.minimum(ru, rv))
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root[:] = up
