"""swirl's file formats: the container and the CSV report.

A container is one JSON header line, then raw complex128 payload.  The
header is canonical JSON (sorted keys, compact separators) terminated by a
newline; arrays follow back to back as little-endian complex128 in C
order.  Coefficient payload ordering is (batch, channel, degree, order)
with the order ascending from -degree within each degree.

A report is a CSV file whose first line is the format comment, then a
header row and one row per record.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os

import numpy as np

from .grid import make_grid
from .signal import SpinCoefficients, SpinSignal, num_coefficients

FORMAT_NAME = "swirl-container"
FORMAT_VERSION = 1
CONVENTION = "swirl-swsft-v1"
CSV_HEADER_COMMENT = "# swirl-csv v1"
# the header fields that pack_blocks writes and the block readers check
_GEOMETRY = ("domain", "convention", "grid_n", "band_limit", "ordering")


class ContainerError(ValueError):
    """Malformed or mismatched container file."""


def write_container(path, header: dict, arrays) -> None:
    header = dict(header)
    header.setdefault("format", FORMAT_NAME)
    header.setdefault("version", FORMAT_VERSION)
    blocks = header.get("blocks")
    if blocks is None or len(blocks) != len(arrays):
        raise ContainerError("header 'blocks' must describe every payload array")
    for block, arr in zip(blocks, arrays):
        if tuple(block.get("shape", ())) != tuple(np.shape(arr)):
            raise ContainerError(f"block shape {block.get('shape')} does not match array {np.shape(arr)}")
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8"))
        fh.write(b"\n")
        for arr in arrays:
            fh.write(np.ascontiguousarray(arr, dtype="<c16").tobytes())


def _block_shape(block) -> tuple:
    shape = block.get("shape") if isinstance(block, dict) else None
    if not isinstance(shape, list) or not all(type(d) is int for d in shape):
        raise ContainerError(f"block shape must be a list of integers, got {shape!r}")
    if any(d < 0 for d in shape):
        raise ContainerError(f"block shape {shape} has a negative dimension")
    if len(shape) > 32:
        raise ContainerError(f"block shape has {len(shape)} dimensions, at most 32 are supported")
    return tuple(shape)


def read_container(path):
    """Returns (header, list of complex128 arrays), each block read straight into its array."""
    with open(path, "rb") as fh:
        first = fh.readline()
        try:
            header = json.loads(first.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise ContainerError(f"invalid container header: {exc}") from None
        if not isinstance(header, dict) or header.get("format") != FORMAT_NAME:
            raise ContainerError(f"not a {FORMAT_NAME} file")
        blocks = header.get("blocks", [])
        if not isinstance(blocks, list):
            raise ContainerError(f"header 'blocks' must be a list, got {type(blocks).__name__}")
        shapes = [_block_shape(block) for block in blocks]
        payload = fh if fh.seekable() else io.BytesIO(fh.read())  # a pipe's size is known once it is read
        start = payload.tell()
        excess = payload.seek(0, os.SEEK_END) - start - sum(16 * math.prod(shape) for shape in shapes)
        if excess < 0:
            raise ContainerError("payload shorter than the header promises")
        if excess > 0:
            raise ContainerError(f"{excess} trailing payload bytes beyond the header blocks")
        version = header.get("version")
        if type(version) is not int or version != FORMAT_VERSION:
            raise ContainerError(f"expected container version {FORMAT_VERSION}, got {version!r}")
        payload.seek(start)
        arrays = [np.empty(shape, dtype="<c16") for shape in shapes]
        for arr in arrays:
            if payload.readinto(arr.reshape(-1).view(np.uint8)) != arr.nbytes:
                raise ContainerError("payload shorter than the header promises")
    return header, arrays


def pack_blocks(items, header: dict | None = None) -> tuple[dict, list]:
    """Header and payload of SpinSignals, or of SpinCoefficients, of one band limit.

    Keys of `header` other than the geometry fields written here carry over,
    and so do keys of its i-th block other than shape and spins.
    """
    items = list(items)
    spatial = bool(items) and isinstance(items[0], SpinSignal)
    bands = {item.grid.band_limit if spatial else item.band_limit for item in items}
    if len(bands) != 1:
        raise ContainerError(f"a container holds blocks of one band limit, got {sorted(bands)}")
    (L,) = bands
    header = {k: v for k, v in (header or {}).items() if k not in _GEOMETRY}
    old_blocks = header.pop("blocks", None) or [{}] * len(items)
    if len(old_blocks) != len(items):
        raise ContainerError(f"header has {len(old_blocks)} blocks for {len(items)} arrays")
    arrays = [item.samples if spatial else item.coeffs for item in items]
    _check_finite(arrays)
    header.update(domain="spatial" if spatial else "spectral", convention=CONVENTION, grid_n=2 * L, band_limit=L)
    if not spatial:
        header["ordering"] = "(batch, channel, degree, order), order ascending from -degree"
    header["blocks"] = [
        {**old, "shape": list(arr.shape), "spins": [int(s) for s in item.spins]}
        for old, arr, item in zip(old_blocks, arrays, items)
    ]
    return header, arrays


def header_positive_int(header: dict, field: str) -> int:
    """The header field as a positive int; anything else (bool, list, ...) is a ContainerError."""
    value = header.get(field)
    if type(value) is not int or value < 1:
        raise ContainerError(f"header field {field!r} must be a positive integer, got {value!r}")
    return value


def _check_finite(arrays):
    bad = [i for i, arr in enumerate(arrays) if not np.isfinite(arr).all()]
    if bad:
        raise ContainerError(f"blocks {bad} have non-finite entries")


def _read_blocks(header: dict, arrays, domain: str) -> tuple[int, list]:
    """(band limit, [(array, spins)]) of a spatial or spectral container, with every field checked."""
    for field, value in {"convention": CONVENTION, "domain": domain}.items():
        if header.get(field) != value:
            raise ContainerError(f"expected {field} {value!r}, got {header.get(field)!r}")
    n, L = header_positive_int(header, "grid_n"), header_positive_int(header, "band_limit")
    if n != 2 * L:
        raise ContainerError(f"header grid_n {n} must be twice band_limit {L}")
    blocks = header.get("blocks")
    if not isinstance(blocks, list) or not blocks or len(blocks) != len(arrays):
        raise ContainerError("container must have at least one block, one per payload array")
    spins = [block.get("spins") for block in blocks]
    if not all(isinstance(s, list) and all(type(x) is int for x in s) for s in spins):
        raise ContainerError(f"block spins must be lists of integers, got {spins}")
    _check_finite(arrays)
    return L, [(arr, np.array(s, dtype=int)) for arr, s in zip(arrays, spins)]


def unpack_signal(header: dict, arrays) -> list[SpinSignal]:
    L, blocks = _read_blocks(header, arrays, "spatial")
    grid = make_grid(2 * L)
    return [SpinSignal(arr, spins, grid) for arr, spins in blocks]


def unpack_coefficients(header: dict, arrays) -> list[SpinCoefficients]:
    L, blocks = _read_blocks(header, arrays, "spectral")
    for arr, _ in blocks:
        if arr.shape[-1:] != (num_coefficients(L),):
            raise ContainerError(f"coefficient block shape {arr.shape} does not end in {num_coefficients(L)} entries")
    return [SpinCoefficients(arr, spins, L) for arr, spins in blocks]


def write_report_csv(path, columns, rows) -> None:
    """The format comment, the column names, then one CSV line per row of already formatted values."""
    with open(path, "w", newline="") as fh:
        fh.write(CSV_HEADER_COMMENT + "\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)
