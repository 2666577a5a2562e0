"""Flat binary container for the dense float64 arrays the tools exchange.

A file is one JSON header line then raw little-endian float64 payload:

    {"magic":"DGT1","kind":"adjacency","dims":[N,N,T],"dtype":"f64le"}\\n
    <N*N*T little-endian float64, row-major, slice-major>

dims are logical [rows, cols, slices] for order-3 kinds and [rows, cols] for
signatures. In memory, slice stacks put the slice axis first, so adjacency
dims [N, N, T] load as a (T, N, N) array (:func:`_file_dims`, :func:`_array_shape`).
Round-trips are bit-exact. :func:`load_dgt` reads a whole file; :class:`DgtSlices`
reads an order-3 file one slice at a time, after the same header and size checks.
:func:`save_dgt` writes a whole array; a writer that appends one slice at a time
writes :func:`dgt_header`, then each slice's :func:`dgt_payload`.
:func:`write_csv` writes the tools' CSV tables.
"""

from __future__ import annotations

import json
import operator
import os
from math import prod

import numpy as np

MAGIC = "DGT1"
DTYPE = "f64le"

# kind -> logical order of the payload
KINDS = {
    "adjacency": 3,
    "mask": 3,
    "signals": 3,
    "latents": 3,
    "signatures": 2,
}

_HEADER_KEYS = {"magic", "kind", "dims", "dtype"}
_HEADER_SCAN_LIMIT = 65536


class DgtError(ValueError):
    """Malformed container; byte_offset points at the offending position."""

    def __init__(self, message, byte_offset=0):
        super().__init__(f"{message} (byte offset {byte_offset})")
        self.byte_offset = byte_offset


def save_dgt(path, arr, kind):
    """Write an array under one of the known kinds.

    Order-3 kinds take the slice-first in-memory layout ((T, N, N) style) and
    store dims as [rows, cols, slices]; signatures store [T, R] directly
    (:func:`_file_dims`).
    """
    arr = np.asarray(arr, dtype=np.float64)
    header = dgt_header(kind, arr.shape)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(dgt_payload(arr))


def dgt_header(kind, shape):
    """The header line, newline included, of an array of in-memory `shape`
    stored as `kind`; ValueError for an unknown kind or a shape of another
    order."""
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}; expected one of {sorted(KINDS)}")
    order = KINDS[kind]
    if len(shape) != order:
        raise ValueError(f"kind {kind!r} stores order-{order} data, got shape {shape}")
    header = {"magic": MAGIC, "kind": kind, "dims": _file_dims(shape), "dtype": DTYPE}
    return json.dumps(header, separators=(",", ":")).encode("utf-8") + b"\n"


def dgt_payload(arr):
    """The payload bytes of arr: little-endian float64, row-major, with no
    copy of a C-contiguous native float64 array on a little-endian host."""
    return memoryview(np.ascontiguousarray(arr, dtype="<f8")).cast("B")


def load_dgt(path, kind=None):
    """Read a container back; returns (array, kind) in the in-memory layout
    (:func:`_array_shape`).

    The header is checked and the payload length compared with the file
    size before any payload byte is read (:func:`_open_payload`); the payload
    is then read straight into one writable, C-contiguous native float64
    array, with no intermediate bytes copy. A given kind must match the
    file's.
    """
    with open(path, "rb") as fh:
        found_kind, dims, start = _open_payload(fh, path, kind)
        flat = np.empty(prod(dims), dtype="<f8")
        _read_into(fh, flat, start)
    # astype is a no-op on little-endian hosts
    return flat.astype(np.float64, copy=False).reshape(_array_shape(dims)), found_kind


class DgtSlices:
    """An order-3 container read one slice at a time.

    Opening checks the header, the kind and the payload size exactly as
    :func:`load_dgt` does; ``reader[t]`` then reads slice t alone into a
    fresh (rows, cols) float64 array, bit-identical to ``load_dgt(path)[0][t]``.
    ``shape`` is the in-memory (slices, rows, cols) shape (:func:`_array_shape`).
    The file stays open until :meth:`close` or the end of a ``with`` block.
    """

    def __init__(self, path, kind=None):
        self._fh = open(path, "rb")
        try:
            self.kind, dims, self._start = _open_payload(self._fh, path, kind)
            if KINDS[self.kind] != 3:
                raise DgtError(f"{path}: kind {self.kind!r} is not a slice stack")
        except BaseException:
            self._fh.close()
            raise
        self.shape = _array_shape(dims)

    def __getitem__(self, t):
        t = operator.index(t)
        slices, rows, cols = self.shape
        if not 0 <= t < slices:
            raise IndexError(f"slice {t} out of range for {slices} slices")
        offset = self._start + t * rows * cols * 8
        out = np.empty((rows, cols), dtype="<f8")
        _read_into(self._fh, out, offset)
        return out.astype(np.float64, copy=False)

    def close(self):
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _file_dims(shape):
    """Header dims of an in-memory shape: (slices, rows, cols) -> [rows, cols, slices]."""
    return [*shape[1:], shape[0]] if len(shape) == 3 else list(shape)


def _array_shape(dims):
    """In-memory shape of header dims: [rows, cols, slices] -> (slices, rows, cols)."""
    return (dims[-1], *dims[:-1]) if len(dims) == 3 else tuple(dims)


def write_csv(path, columns, rows):
    """Write a header of columns, then one line per row of values, in UTF-8 with LF
    endings; a float as repr(float(v)), which reads back bit-exact, anything else by str."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            cells = (repr(float(v)) if isinstance(v, float) else str(v) for v in row)
            fh.write(",".join(cells) + "\n")


def _open_payload(fh, path, kind):
    """Check the header, kind and payload size of an open container.

    Returns (kind, dims, payload start offset). Only the header is parsed;
    a payload shorter or longer than the dims promise raises here.
    """
    head = fh.read(_HEADER_SCAN_LIMIT)
    nl = head.find(b"\n")
    if nl < 0:
        raise DgtError("header terminator newline not found", byte_offset=0)
    found_kind, dims = _parse_header(head[:nl])
    if kind is not None and found_kind != kind:
        raise DgtError(f"{path}: expected kind {kind!r}, found {found_kind!r}")
    start = nl + 1
    expected = prod(dims) * 8
    found = os.fstat(fh.fileno()).st_size - start
    if found > expected:
        raise DgtError(
            f"trailing data: expected {expected} payload bytes, found {found}",
            byte_offset=start + expected,
        )
    if found < expected:
        raise _truncated(expected, found, start)
    return found_kind, dims, start


def _read_into(fh, arr, offset):
    """Fill arr from the file's bytes at offset; a short read is a truncated payload.

    readinto stops short only at end of file, so a file that shrinks after
    the size check shows here.
    """
    fh.seek(offset)
    view = memoryview(arr).cast("B")
    found = fh.readinto(view)
    if found < len(view):
        raise _truncated(len(view), found, offset)


def _truncated(expected, found, offset):
    return DgtError(
        f"payload truncated: expected {expected} bytes, found {found}",
        byte_offset=offset + found,
    )


def _parse_header(line):
    """Validate one header line; returns (kind, dims)."""
    try:
        header = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise DgtError(f"header is not valid JSON: {err}", byte_offset=0) from None
    if not isinstance(header, dict):
        raise DgtError("header must be a JSON object", byte_offset=0)
    extra = sorted(set(header) - _HEADER_KEYS)
    if extra:
        raise DgtError(f"unknown header field {extra[0]!r}", byte_offset=0)
    missing = sorted(_HEADER_KEYS - set(header))
    if missing:
        raise DgtError(f"missing header field {missing[0]!r}", byte_offset=0)
    if header["magic"] != MAGIC:
        raise DgtError(f"bad magic {header['magic']!r}", byte_offset=0)
    kind = header["kind"]
    if kind not in KINDS:
        raise DgtError(f"unknown kind {kind!r}", byte_offset=0)
    if header["dtype"] != DTYPE:
        raise DgtError(f"unsupported dtype {header['dtype']!r}", byte_offset=0)
    dims = header["dims"]
    order = KINDS[kind]
    if (
        not isinstance(dims, list)
        or len(dims) != order
        or not all(isinstance(d, int) and not isinstance(d, bool) and d > 0 for d in dims)
    ):
        raise DgtError(
            f"dims must be {order} positive integers for kind {kind!r}, got {dims!r}",
            byte_offset=0,
        )
    return kind, dims
