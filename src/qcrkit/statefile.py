"""Versioned JSON state files.

The entries are the state's complex128 buffer seen as float64 [real,
imaginary] pairs, one pair per line in row-major order, so small fixtures
diff cleanly in review. The writer prints each float with its shortest
round-trip repr and the reader views the parsed pairs back as the complex
buffer, so write-then-read is bit-exact, signed zeros included.

Both sides walk the entries in chunks of ``CHUNK`` lines and handle each
distinct line of a chunk once: a density file is mostly repeats of a few
lines, such as ``[0.0, 0.0]``. The reader takes this path only for text in
the writer's own shape; any other JSON, and any chunk that fails a check,
goes through one whole-document ``json.loads`` with the same checks.
"""
from __future__ import annotations

import json
from collections.abc import Iterator
from itertools import chain
from pathlib import Path

import numpy as np

from .registers import SystemLayout
from .states import QuantumState, _check_cap

FORMAT = "qcr-state/1"

# entry lines per chunk on both sides: bounds the per-chunk Python objects
CHUNK = 2**16
# the widest entry line the writer prints, "  [-2.2250738585072014e-308, ...]"
# with its separator, is 56 characters, so a window holds CHUNK lines of it
_WINDOW = 64 * CHUNK
_ENTRIES = '\n "entries": [\n'
_TAIL = "\n ]\n}\n"
_NUMBER_PAIRS = "entries must be [real, imaginary] number pairs"


class StateFileError(ValueError):
    """The file is not a loadable state: wrong format, shape, or values."""


def _head(state: QuantumState, note: str | None) -> str:
    """Everything before the first entry line; checks the entries are finite."""
    if not np.isfinite(_pairs_of(state)).all():
        raise StateFileError("state contains non-finite entries")
    note_line = [] if note is None else [f' "note": {json.dumps(str(note))},']
    subs = state.layout.to_dict()
    layout = [",\n".join(f"  {json.dumps(sub)}" for sub in subs)] if subs else []
    rep = "pure" if state.is_pure else "density"
    lines = [
        "{", f' "format": {json.dumps(FORMAT)},', *note_line, ' "layout": [', *layout, " ],",
        f' "representation": {json.dumps(rep)},',
    ]
    return "\n".join(lines) + _ENTRIES


def _pairs_of(state: QuantumState) -> np.ndarray:
    flat = state.vector if state.is_pure else state.matrix.reshape(-1)
    return np.ascontiguousarray(flat).view(np.float64).reshape(-1, 2)


def _entry_chunks(state: QuantumState) -> Iterator[str]:
    """The entry lines, CHUNK at a time, each chunk joined by ",\\n"."""
    pairs = _pairs_of(state)
    for start in range(0, len(pairs), CHUNK):
        # key on bit patterns, never values: 0.0 == -0.0 but they print apart
        bits = pairs[start:start + CHUNK].view(np.uint64)
        re_bits, re_at = np.unique(bits[:, 0], return_inverse=True)
        im_bits, im_at = np.unique(bits[:, 1], return_inverse=True)
        keys, at = np.unique(re_at * len(im_bits) + im_at, return_inverse=True)
        res = re_bits[keys // len(im_bits)].view(np.float64).tolist()
        ims = im_bits[keys % len(im_bits)].view(np.float64).tolist()
        # repr is what json.dumps writes for a finite float, -0.0 included
        lines = np.array([f"  [{re!r}, {im!r}]" for re, im in zip(res, ims)], dtype=object)
        yield ",\n".join(lines[at].tolist())


def state_to_text(state: QuantumState, note: str | None = None) -> str:
    return _head(state, note) + ",\n".join(_entry_chunks(state)) + _TAIL


def _check_entries(entries: list, expected: int) -> np.ndarray:
    """The count, number-pairs and finiteness rules, as an (expected, 2) float64 array."""
    if len(entries) != expected:
        raise StateFileError(f"expected {expected} entries, found {len(entries)}")
    try:
        pairs = np.array(entries)
    except (TypeError, ValueError):
        raise StateFileError(_NUMBER_PAIRS) from None
    # only JSON numbers: a float64 conversion would also parse strings like
    # "0.5", and np.array turns booleans among numbers into 0 and 1
    if (
        pairs.dtype.kind not in "iuf" or pairs.shape != (expected, 2)
        or not {int, float}.issuperset(map(type, chain.from_iterable(entries)))
    ):
        raise StateFileError(_NUMBER_PAIRS)
    if not np.all(np.isfinite(pairs)):
        raise StateFileError("entries contain non-finite values")
    return pairs.astype(np.float64, copy=False)


def _check_head(doc: dict, cap: int | None) -> tuple[SystemLayout, str, int]:
    """Format, layout, cap and representation; returns them with the entry count."""
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
    dim = layout.total_dim
    return layout, rep, dim if rep == "pure" else dim * dim


def _read_body(text: str, start: int, stop: int, expected: int) -> np.ndarray | None:
    """The pairs of the entry lines in text[start:stop], or None if any check fails.

    Each chunk's distinct lines are parsed by one json.loads of their join,
    then gathered by each line's position among them.
    """
    out = np.empty((expected, 2))
    filled = 0
    while start < stop:
        window = text[start:min(start + _WINDOW, stop)]
        lines = window.split(",\n", CHUNK)
        if len(lines) > CHUNK or start + len(window) < stop:
            # the last piece is the unsplit rest, or a line cut by the window
            start += len(window) - len(lines.pop())
        else:
            start = stop
        if not lines or filled + len(lines) > expected:
            return None
        index = dict.fromkeys(lines)
        joined = ",\n".join(index)
        # no line holds ",\n", so this proves every line is one "  [...]" pair
        if not (joined.startswith("  [") and joined.endswith("]")
                and joined.count("],\n  [") == len(index) - 1):
            return None
        try:
            pairs = _check_entries(json.loads(f"[{joined}]"), len(index))
        except (json.JSONDecodeError, StateFileError):
            return None
        dest = out[filled:filled + len(lines)]
        if len(index) == len(lines):
            dest[...] = pairs
        else:
            for i, line in enumerate(index):
                index[line] = i
            at = np.fromiter(map(index.__getitem__, lines), np.intp, len(lines))
            np.take(pairs, at, axis=0, out=dest)
        filled += len(lines)
    return out if filled == expected else None


def text_to_state(text: str, cap: int | None = None) -> QuantumState:
    pairs = None
    at = text.find(_ENTRIES)
    if at > 0 and text[at - 1] == "," and text.endswith(_TAIL):
        # the writer's shape: check the head alone before touching the body
        try:
            doc = json.loads(text[:at - 1] + "}")
        except json.JSONDecodeError:
            doc = None
        if isinstance(doc, dict):
            layout, rep, expected = _check_head(doc, cap)
            pairs = _read_body(text, at + len(_ENTRIES), len(text) - len(_TAIL), expected)
    if pairs is None:
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as e:
            raise StateFileError(f"not valid JSON: {e}") from None
        if not isinstance(doc, dict):
            raise StateFileError("top-level JSON value must be an object")
        layout, rep, expected = _check_head(doc, cap)
        entries = doc.get("entries")
        if not isinstance(entries, list):
            raise StateFileError("missing or malformed entries")
        pairs = _check_entries(entries, expected)
    # the checked pairs are the complex buffer itself: exact for every sign
    data = pairs.view(np.complex128).reshape(-1)
    try:
        if rep == "pure":
            return QuantumState(layout, vector=data, copy=False)
        dim = layout.total_dim
        return QuantumState(layout, matrix=data.reshape(dim, dim), copy=False)
    except ValueError as e:
        raise StateFileError(f"entries do not form a valid state: {e}") from None


def write_state(state: QuantumState, path: str | Path, note: str | None = None) -> None:
    head = _head(state, note)
    with open(path, "w", encoding="utf-8") as f:
        f.write(head)
        for i, chunk in enumerate(_entry_chunks(state)):
            f.write(",\n" + chunk if i else chunk)
        f.write(_TAIL)


def read_state(path: str | Path, cap: int | None = None) -> QuantumState:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise StateFileError(f"cannot read {path}: {e}") from None
    return text_to_state(text, cap=cap)
