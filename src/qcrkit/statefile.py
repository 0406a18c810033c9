"""Versioned JSON state files.

The entries are the state's complex128 buffer seen as float64 [real,
imaginary] pairs, one pair per line in row-major order, so small fixtures
diff cleanly in review. The writer prints each float with its shortest
round-trip repr and the reader views the parsed pairs back as the complex
buffer, so write-then-read is bit-exact, signed zeros included.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .registers import SystemLayout
from .states import QuantumState, _check_cap

FORMAT = "qcr-state/1"


class StateFileError(ValueError):
    """The file is not a loadable state: wrong format, shape, or values."""


def state_to_text(state: QuantumState, note: str | None = None) -> str:
    flat = state.vector if state.is_pure else state.matrix.reshape(-1)
    if not np.isfinite(flat).all():
        raise StateFileError("state contains non-finite entries")
    note_line = [] if note is None else [f' "note": {json.dumps(str(note))},']
    subs = state.layout.to_dict()
    layout = [",\n".join(f"  {json.dumps(sub)}" for sub in subs)] if subs else []
    rep = "pure" if state.is_pure else "density"
    # repr is what json.dumps writes for a finite float, -0.0 included
    pairs = zip(flat.real.tolist(), flat.imag.tolist())
    entries = ",\n".join(f"  [{re!r}, {im!r}]" for re, im in pairs)
    lines = [
        "{", f' "format": {json.dumps(FORMAT)},', *note_line, ' "layout": [', *layout, " ],",
        f' "representation": {json.dumps(rep)},', ' "entries": [', entries, " ]", "}", "",
    ]
    return "\n".join(lines)


def text_to_state(text: str, cap: int | None = None) -> QuantumState:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise StateFileError(f"not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise StateFileError("top-level JSON value must be an object")
    fmt = doc.get("format")
    if fmt != FORMAT:
        raise StateFileError(f"unsupported format {fmt!r}; expected {FORMAT!r}")
    layout_doc = doc.get("layout")
    if not isinstance(layout_doc, list):
        raise StateFileError("missing or malformed layout")
    try:
        layout = SystemLayout.from_dict(layout_doc)
    except (KeyError, TypeError, ValueError) as e:
        raise StateFileError(f"bad layout: {e}") from None
    _check_cap(layout.total_dim, cap, StateFileError)
    rep = doc.get("representation")
    if rep not in ("pure", "density"):
        raise StateFileError(f"unknown representation {rep!r}")
    entries = doc.get("entries")
    if not isinstance(entries, list):
        raise StateFileError("missing or malformed entries")
    dim = layout.total_dim
    expected = dim if rep == "pure" else dim * dim
    if len(entries) != expected:
        raise StateFileError(f"expected {expected} entries, found {len(entries)}")
    try:
        pairs = np.array(entries)
    except (TypeError, ValueError):
        raise StateFileError("entries must be [real, imaginary] number pairs") from None
    # only JSON numbers: a float64 conversion would also parse strings like "0.5"
    if pairs.dtype.kind not in "iuf" or pairs.shape != (expected, 2):
        raise StateFileError("entries must be [real, imaginary] number pairs")
    if not np.all(np.isfinite(pairs)):
        raise StateFileError("entries contain non-finite values")
    # the checked pairs are the complex buffer itself: exact for every sign
    data = pairs.astype(np.float64, copy=False).view(np.complex128).reshape(-1)
    try:
        if rep == "pure":
            return QuantumState(layout, vector=data, copy=False)
        return QuantumState(layout, matrix=data.reshape(dim, dim), copy=False)
    except ValueError as e:
        raise StateFileError(f"entries do not form a valid state: {e}") from None


def write_state(state: QuantumState, path: str | Path, note: str | None = None) -> None:
    Path(path).write_text(state_to_text(state, note=note), encoding="utf-8")


def read_state(path: str | Path, cap: int | None = None) -> QuantumState:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise StateFileError(f"cannot read {path}: {e}") from None
    return text_to_state(text, cap=cap)
