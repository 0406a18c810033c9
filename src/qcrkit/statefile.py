"""Versioned JSON state files.

The entries are the state's complex128 buffer seen as float64 [real,
imaginary] pairs, one pair per line in row-major order, so small fixtures
diff cleanly in review. The writer prints each float with its shortest
round-trip repr and the reader views the parsed pairs back as the complex
buffer, so write-then-read is bit-exact, signed zeros included.

A density file is mostly the zero line ``  [0.0, 0.0]`` (+0.0 in both
parts), so both sides set it apart and work in proportion to the other
lines. The writer maps every (+0.0, +0.0) entry straight to it and formats
each distinct other line of a ``CHUNK``-entry chunk once. The reader walks
the body in windows of at most ``_WINDOW`` characters, finds each line's
start and length with numpy from its separators, and marks a line as zero
when its 12 characters are the zero line's. The zero lines stay zeros of
the output; only the other lines are joined and parsed, each distinct line
of a window once, and their pairs scattered to their places. The reader
takes this path only for text with the writer's head and tail; any other
JSON, and any window that fails a check, goes through one whole-document
``json.loads`` with the same checks. The writer's head is judged first,
dimension cap included, whatever the tail or line ends, and ``read_state``
judges a file's head before it reads the rest of the file.
"""
from __future__ import annotations

import json
import logging
from collections.abc import Iterator
from itertools import chain
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .registers import SystemLayout
from .states import QuantumState, _check_cap

FORMAT = "qcr-state/1"

logger = logging.getLogger("qcrkit")

# entries per writer chunk: bounds the per-chunk Python objects
CHUNK = 2**16
# body characters per reader window: bounds the per-window arrays and strings
_WINDOW = 2**18
# the bytes read_state searches for the head before it reads a whole file
_HEAD_BYTES = 2**16
_ENTRIES = '\n "entries": [\n'
_TAIL = "\n ]\n}\n"
_ZERO = "  [0.0, 0.0]"
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
    formatted = 0
    for start in range(0, len(pairs), CHUNK):
        # key on bit patterns, never values: 0.0 == -0.0 but they print apart
        bits = pairs[start:start + CHUNK].view(np.uint64)
        rest = np.flatnonzero(bits[:, 0] | bits[:, 1])
        re_bits, re_at = np.unique(bits[:, 0][rest], return_inverse=True)
        im_bits, im_at = np.unique(bits[:, 1][rest], return_inverse=True)
        keys, at = np.unique(re_at * len(im_bits) + im_at, return_inverse=True)
        res = re_bits[keys // len(im_bits)].view(np.float64).tolist()
        ims = im_bits[keys % len(im_bits)].view(np.float64).tolist()
        # repr is what json.dumps writes for a finite float, -0.0 included
        lines = np.array([_ZERO, *(f"  [{re!r}, {im!r}]" for re, im in zip(res, ims))], dtype=object)
        line_at = np.zeros(len(bits), np.intp)
        line_at[rest] = at + 1
        formatted += len(keys)
        yield ",\n".join(lines[line_at].tolist())
    logger.debug("write state: %d entries, %d distinct lines formatted", len(pairs), formatted)


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


def _parse_lines(lines: list[str]) -> tuple[np.ndarray, int] | None:
    """The pairs of entry lines that hold no ",\n", with the count of distinct
    lines, or None if any check fails.

    The distinct lines are parsed by one json.loads of their join, then
    gathered by each line's position among them.
    """
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
    if len(index) < len(lines):
        for i, line in enumerate(index):
            index[line] = i
        pairs = pairs[np.fromiter(map(index.__getitem__, lines), np.intp, len(lines))]
    return pairs, len(index)


def _words(buf: np.ndarray) -> np.ndarray:
    """The little-endian 8-byte word that starts at each byte of buf, as a view."""
    return np.ndarray((len(buf) - 7,), "<u8", buf, strides=(1,))


# a 12-byte line is the zero line when its words at offsets 0 and 4, which
# cover bytes 0-7 and 4-11, are these; two compares instead of twelve
_ZERO_WORDS = _words(np.frombuffer(_ZERO.encode(), np.uint8))[[0, 4]]


def _read_body(text: str, start: int, stop: int, expected: int) -> tuple[np.ndarray, list[int]] | None:
    """The pairs of the entry lines in text[start:stop] and the counts of
    zero, parsed and distinct lines, or None if any check fails.

    Lines are the pieces between ",\n" separators, as str.split finds them.
    Each window ends at a separator; the lines that are exactly the zero
    line are left as zeros of the output, and the rest are parsed.
    """
    out = np.zeros((expected, 2))
    filled = 0
    counts = [0, 0, 0]
    while start < stop:
        end = stop if stop - start <= _WINDOW else text.rfind(",\n", start, start + _WINDOW)
        if end <= start:
            return None
        try:
            # an entry line is ASCII, and one byte per character keeps positions
            window = np.frombuffer(text[start:end].encode("ascii"), np.uint8)
        except UnicodeEncodeError:
            return None
        start = end + 2
        sep = np.flatnonzero((window[:-1] == ord(",")) & (window[1:] == ord("\n")))
        starts = np.concatenate(([0], sep + 2))
        if filled + len(starts) > expected:
            return None
        lengths = np.append(sep, len(window)) - starts
        zero = lengths == len(_ZERO)
        if zero.any():
            words, at = _words(window), starts[zero]
            zero[zero] = (words[at] == _ZERO_WORDS[0]) & (words[at + 4] == _ZERO_WORDS[1])
        rest = np.flatnonzero(~zero)
        if len(rest):
            # each kept line with the separator after it, which the window's last
            # line lacks: the join of the kept lines, in which every ",\n" is one of theirs
            keep = np.repeat(~zero, np.diff(starts, append=len(window)))
            joined = window[keep].tobytes().decode("ascii")
            lines = (joined[:-2] if zero[-1] else joined).split(",\n")
            parsed = _parse_lines(lines)
            if parsed is None:
                return None
            out[filled + rest] = parsed[0]
            counts[2] += parsed[1]
        counts[0] += len(starts) - len(rest)
        counts[1] += len(rest)
        filled += len(starts)
    return (out, counts) if filled == expected else None


def _writer_head(text: str, cap: int | None) -> tuple[int, SystemLayout, str, int] | None:
    """Where the body starts, with the checked head, for text that opens in
    the writer's shape, whatever its tail; None otherwise."""
    at = text.find(_ENTRIES)
    if at <= 0 or text[at - 1] != ",":
        return None
    try:
        doc = json.loads(text[:at - 1] + "}")  # ending in "}", it parses only as an object
    except json.JSONDecodeError:
        return None
    return at + len(_ENTRIES), *_check_head(doc, cap)


def text_to_state(text: str, cap: int | None = None) -> QuantumState:
    body = None
    head = _writer_head(text, cap)
    if head is not None and text.endswith(_TAIL):
        # the writer's shape, whose head _writer_head checked before the body
        at, layout, rep, expected = head
        body = _read_body(text, at, len(text) - len(_TAIL), expected)
    if body is None:
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
        body = _check_entries(entries, expected), [0, expected, expected]
        path = "document"
    else:
        path = "lines"
    pairs, (zero, parsed, distinct) = body
    logger.debug("read state: %d entries, %d zero lines, %d parsed lines, %d distinct lines, path %s",
                 expected, zero, parsed, distinct, path)
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


def _check_file_head(f: BinaryIO, cap: int | None) -> None:
    """Refuse a file in the writer's shape for its head before its body is read.

    The head runs through the line holding ``"entries": [``, its line ends
    read as the text-mode read reads them, and is judged whatever the tail,
    as text_to_state judges it; a body byte that is not UTF-8 would preempt
    that. A head not in the first _HEAD_BYTES, or not UTF-8, is left to the
    whole read, which names the first byte that does not decode.
    """
    head = f.read(_HEAD_BYTES).replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    f.seek(0)
    at = head.find(_ENTRIES.encode())
    if at > 0:
        try:
            text = head[:at + len(_ENTRIES)].decode("utf-8")
        except UnicodeDecodeError:
            return
        _writer_head(text, cap)


def read_state(path: str | Path, cap: int | None = None) -> QuantumState:
    try:
        # text mode, as Path.read_text: universal newlines, and one whole read
        # whose decode error names its byte's place in the file
        with open(path, encoding="utf-8") as f:
            if f.seekable():
                _check_file_head(f.buffer, cap)
            text = f.read()
    except (OSError, UnicodeDecodeError) as e:
        raise StateFileError(f"cannot read {path}: {e}") from None
    return text_to_state(text, cap=cap)
