"""Container file format: one JSON header line, then raw complex128 payload.

The header is canonical JSON (sorted keys, compact separators) terminated
by a newline; arrays follow back to back as little-endian complex128 in C
order.  Coefficient payload ordering is (batch, channel, degree, order)
with the order ascending from -degree within each degree.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import os
from contextlib import contextmanager

import numpy as np

from .grid import make_grid
from .signal import SpinCoefficients, SpinSignal, num_coefficients

FORMAT_NAME = "swirl-container"
FORMAT_VERSION = 1
CONVENTION = "swirl-swsft-v1"
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


def pack_signal(signal: SpinSignal) -> tuple[dict, list]:
    return pack_blocks([signal])


def pack_coefficients(coeffs: SpinCoefficients) -> tuple[dict, list]:
    return pack_blocks([coeffs])


def header_positive_int(header: dict, field: str) -> int:
    """The header field as a positive int; anything else (bool, list, ...) is a ContainerError."""
    value = header.get(field)
    if type(value) is not int or value < 1:
        raise ContainerError(f"header field {field!r} must be a positive integer, got {value!r}")
    return value


def _check_tags(header: dict, **tags):
    for field, value in {"convention": CONVENTION, **tags}.items():
        if header.get(field) != value:
            raise ContainerError(f"expected {field} {value!r}, got {header.get(field)!r}")


def _check_finite(arrays):
    bad = [i for i, arr in enumerate(arrays) if not np.isfinite(arr).all()]
    if bad:
        raise ContainerError(f"blocks {bad} have non-finite entries")


def _read_blocks(header: dict, arrays, domain: str) -> tuple[int, list]:
    """(band limit, [(array, spins)]) of a spatial or spectral container, with every field checked."""
    _check_tags(header, domain=domain)
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


# --- layer parameters -------------------------------------------------------
#
# Layer parameters reuse the same container: real-valued parameters are
# stored as complex128 with zero imaginary part.  The readers check the file; the layer types, the values.


@contextmanager
def _layer_values(kind: str):
    """Re-raise a layer type's ValueError on values read from a file as a ContainerError."""
    try:
        yield
    except ValueError as exc:
        raise ContainerError(f"{kind}: {exc}") from None


def pack_filter_bank(bank) -> tuple[dict, list]:
    """One (C_in, C_out, L) block per (spin_in, spin_out) pair, in ascending pair order."""
    blocks = {
        (si, so): block
        for si, row in zip(bank.spins_in, np.split(bank.weights, len(bank.spins_in)))
        for so, block in zip(bank.spins_out, np.split(row, len(bank.spins_out), axis=1))
    }
    pairs = sorted(blocks)
    header = {
        "domain": "parameters",
        "kind": "filter-bank",
        "convention": CONVENTION,
        "band_limit": bank.band_limit,
        "spins_in": list(bank.spins_in),
        "spins_out": list(bank.spins_out),
        "blocks": [
            {"shape": list(blocks[pair].shape), "spin_in": pair[0], "spin_out": pair[1]}
            for pair in pairs
        ],
    }
    return header, [blocks[pair] for pair in pairs]


def unpack_filter_bank(header: dict, arrays):
    """Assemble the dense taps from exactly one block per pair of spins_in x spins_out."""
    from .layers import FilterBank

    _check_tags(header, kind="filter-bank")
    L = header_positive_int(header, "band_limit")
    spins_in, spins_out = header.get("spins_in"), header.get("spins_out")
    for spins in (spins_in, spins_out):
        ints = isinstance(spins, list) and all(type(s) is int for s in spins)
        if not ints:
            raise ContainerError(f"filter-bank spins must be a list of integers, got {spins!r}")
    pairs = [(block.get("spin_in"), block.get("spin_out")) for block in header.get("blocks", [])]
    expected = sorted(itertools.product(spins_in, spins_out))
    if any(type(s) is not int for pair in pairs for s in pair) or sorted(pairs) != expected:
        raise ContainerError(f"filter-bank blocks {pairs} are not one per pair of {spins_in} x {spins_out}")
    if any(arr.ndim != 3 or arr.shape != arrays[0].shape or arr.shape[-1] != L for arr in arrays):
        raise ContainerError(f"filter-bank blocks must share one (C_in, C_out, {L}) shape")
    blocks = dict(zip(pairs, arrays))
    with _layer_values("filter-bank"):
        weights = np.concatenate([np.concatenate([blocks[si, so] for so in spins_out], axis=1) for si in spins_in])
        return FilterBank(weights, spins_in, spins_out)


def _pack_roles(kind: str, by_role: dict, **fields) -> tuple[dict, list]:
    arrays = [np.asarray(arr, dtype=complex) for arr in by_role.values()]
    blocks = [{"shape": list(arr.shape), "role": role} for role, arr in zip(by_role, arrays)]
    return {"domain": "parameters", "kind": kind, "convention": CONVENTION, **fields, "blocks": blocks}, arrays


def _read_roles(header: dict, arrays, kind: str, required, optional=(), real=()) -> dict:
    """The arrays of a parameter container by block role: each required role once, each
    optional role at most once and no other role; the arrays of `real` roles come back real."""
    _check_tags(header, kind=kind)
    roles = [block.get("role") for block in header.get("blocks", [])]
    known = all(role in required + optional for role in roles)
    if not known or len(set(roles)) < len(roles) or not set(required) <= set(roles):
        raise ContainerError(f"{kind} block roles {roles} must be each of {required} once, "
                             f"plus at most one of each of {optional}")
    _check_finite(arrays)
    if any(role in real and np.any(arr.imag != 0) for role, arr in zip(roles, arrays)):
        raise ContainerError(f"{kind} blocks {real} are real but have a nonzero imaginary part")
    return {role: arr.real if role in real else arr for role, arr in zip(roles, arrays)}


def pack_batch_norm(state) -> tuple[dict, list]:
    by_role = {"scale": state.scale, "bias": state.bias}
    if state.running_variance is not None:
        by_role["running_variance"] = state.running_variance
    return _pack_roles("batch-norm", by_role, momentum=state.momentum, epsilon=state.epsilon)


def unpack_batch_norm(header: dict, arrays):
    from .layers import BatchNormState

    by_role = _read_roles(header, arrays, "batch-norm", ("scale", "bias"), ("running_variance",),
                          real=("scale", "running_variance"))
    numbers = [header.get("momentum"), header.get("epsilon")]
    if any(type(x) not in (int, float) for x in numbers):
        raise ContainerError(f"batch-norm momentum and epsilon must be numbers, got {numbers}")
    with _layer_values("batch-norm"):
        return BatchNormState(by_role["scale"], by_role["bias"], by_role.get("running_variance"), *map(float, numbers))


def pack_phase_collapse(params) -> tuple[dict, list]:
    return _pack_roles("phase-collapse", {"w1": params.w1, "w2": params.w2, "bias": params.bias})


def unpack_phase_collapse(header: dict, arrays):
    from .layers import PhaseCollapseParams

    by_role = _read_roles(header, arrays, "phase-collapse", ("w1", "w2", "bias"), real=("w2",))
    with _layer_values("phase-collapse"):
        return PhaseCollapseParams(by_role["w1"], by_role["w2"], by_role["bias"])
