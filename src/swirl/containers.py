"""Container file format: one JSON header line, then raw complex128 payload.

The header is canonical JSON (sorted keys, compact separators) terminated
by a newline; arrays follow back to back as little-endian complex128 in C
order.  Coefficient payload ordering is (batch, channel, degree, order)
with the order ascending from -degree within each degree.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

from .grid import make_grid
from .signal import SpinCoefficients, SpinSignal, num_coefficients

FORMAT_NAME = "swirl-container"
FORMAT_VERSION = 1
CONVENTION = "swirl-swsft-v1"


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
    """Returns (header, list of complex128 arrays)."""
    with open(path, "rb") as fh:
        first = fh.readline()
        try:
            header = json.loads(first.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise ContainerError(f"invalid container header: {exc}") from None
        if not isinstance(header, dict) or header.get("format") != FORMAT_NAME:
            raise ContainerError(f"not a {FORMAT_NAME} file")
        payload = fh.read()
    blocks = header.get("blocks", [])
    if not isinstance(blocks, list):
        raise ContainerError(f"header 'blocks' must be a list, got {type(blocks).__name__}")
    arrays = []
    offset = 0
    for block in blocks:
        shape = _block_shape(block)
        count = math.prod(shape)
        nbytes = count * 16
        if offset + nbytes > len(payload):
            raise ContainerError("payload shorter than the header promises")
        arr = np.frombuffer(payload, dtype="<c16", count=count, offset=offset).reshape(shape)
        arrays.append(arr.copy())
        offset += nbytes
    if offset != len(payload):
        raise ContainerError(f"{len(payload) - offset} trailing payload bytes beyond the header blocks")
    return header, arrays


def pack_signal(signal: SpinSignal) -> tuple[dict, list]:
    header = {
        "domain": "spatial",
        "convention": CONVENTION,
        "grid_n": signal.grid.n,
        "band_limit": signal.grid.band_limit,
        "blocks": [
            {
                "shape": list(signal.samples.shape),
                "spins": [int(s) for s in signal.spins],
            }
        ],
    }
    return header, [signal.samples]


def pack_coefficients(coeffs: SpinCoefficients) -> tuple[dict, list]:
    header = {
        "domain": "spectral",
        "convention": CONVENTION,
        "grid_n": 2 * coeffs.band_limit,
        "band_limit": coeffs.band_limit,
        "ordering": "(batch, channel, degree, order), order ascending from -degree",
        "blocks": [
            {
                "shape": list(coeffs.coeffs.shape),
                "spins": [int(s) for s in coeffs.spins],
            }
        ],
    }
    return header, [coeffs.coeffs]


def header_positive_int(header: dict, field: str) -> int:
    """The header field as a positive int; anything else (bool, list, ...) is a ContainerError."""
    value = header.get(field)
    if type(value) is not int or value < 1:
        raise ContainerError(f"header field {field!r} must be a positive integer, got {value!r}")
    return value


def _check_convention(header):
    if header.get("convention") != CONVENTION:
        raise ContainerError(
            f"convention tag {header.get('convention')!r} does not match {CONVENTION!r}"
        )


def unpack_signal(header: dict, arrays) -> list[SpinSignal]:
    _check_convention(header)
    if header.get("domain") != "spatial":
        raise ContainerError(f"expected a spatial container, got domain {header.get('domain')!r}")
    grid = make_grid(header_positive_int(header, "grid_n"))
    out = []
    for block, arr in zip(header["blocks"], arrays):
        out.append(SpinSignal(arr, np.asarray(block["spins"], dtype=int), grid))
    return out


def unpack_coefficients(header: dict, arrays) -> list[SpinCoefficients]:
    _check_convention(header)
    if header.get("domain") != "spectral":
        raise ContainerError(f"expected a spectral container, got domain {header.get('domain')!r}")
    L = header_positive_int(header, "band_limit")
    out = []
    for block, arr in zip(header["blocks"], arrays):
        if arr.shape[-1] != num_coefficients(L):
            raise ContainerError(f"coefficient block has {arr.shape[-1]} entries, expected {num_coefficients(L)}")
        out.append(SpinCoefficients(arr, np.asarray(block["spins"], dtype=int), L))
    return out


# --- layer parameters -------------------------------------------------------
#
# Layer parameters reuse the same container: real-valued parameters are
# stored as complex128 with zero imaginary part.


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

    _check_convention(header)
    if header.get("kind") != "filter-bank":
        raise ContainerError(f"expected a filter-bank container, got {header.get('kind')!r}")
    L = header_positive_int(header, "band_limit")
    spins_in, spins_out = header.get("spins_in"), header.get("spins_out")
    for spins in (spins_in, spins_out):
        ints = isinstance(spins, list) and all(type(s) is int for s in spins)
        if not ints or not spins or len(set(spins)) < len(spins):
            raise ContainerError(f"filter-bank spins must be a non-empty list of distinct integers, got {spins!r}")
    pairs = [(block.get("spin_in"), block.get("spin_out")) for block in header.get("blocks", [])]
    expected = sorted(itertools.product(spins_in, spins_out))
    if any(type(s) is not int for pair in pairs for s in pair) or sorted(pairs) != expected:
        raise ContainerError(f"filter-bank blocks {pairs} are not one per pair of {spins_in} x {spins_out}")
    if any(arr.ndim != 3 or arr.shape != arrays[0].shape or arr.shape[-1] != L for arr in arrays):
        raise ContainerError(f"filter-bank blocks must share one (C_in, C_out, {L}) shape")
    blocks = dict(zip(pairs, arrays))
    weights = np.concatenate([np.concatenate([blocks[si, so] for so in spins_out], axis=1) for si in spins_in])
    return FilterBank(weights, spins_in, spins_out)


def pack_batch_norm(state) -> tuple[dict, list]:
    arrays = [state.scale.astype(complex), state.bias.astype(complex)]
    blocks = [{"shape": list(state.scale.shape), "role": "scale"},
              {"shape": list(state.bias.shape), "role": "bias"}]
    if state.running_variance is not None:
        arrays.append(np.asarray(state.running_variance, dtype=complex))
        blocks.append({"shape": list(arrays[-1].shape), "role": "running_variance"})
    header = {
        "domain": "parameters",
        "kind": "batch-norm",
        "convention": CONVENTION,
        "momentum": state.momentum,
        "epsilon": state.epsilon,
        "blocks": blocks,
    }
    return header, arrays


def unpack_batch_norm(header: dict, arrays):
    from .layers import BatchNormState

    _check_convention(header)
    if header.get("kind") != "batch-norm":
        raise ContainerError(f"expected a batch-norm container, got {header.get('kind')!r}")
    by_role = {block["role"]: arr for block, arr in zip(header["blocks"], arrays)}
    running = by_role.get("running_variance")
    return BatchNormState(
        scale=by_role["scale"].real,
        bias=by_role["bias"],
        running_variance=None if running is None else running.real,
        momentum=float(header["momentum"]),
        epsilon=float(header["epsilon"]),
    )


def pack_phase_collapse(params) -> tuple[dict, list]:
    arrays = [params.w1, params.w2.astype(complex), params.bias]
    header = {
        "domain": "parameters",
        "kind": "phase-collapse",
        "convention": CONVENTION,
        "blocks": [
            {"shape": list(arrays[0].shape), "role": "w1"},
            {"shape": list(arrays[1].shape), "role": "w2"},
            {"shape": list(arrays[2].shape), "role": "bias"},
        ],
    }
    return header, arrays


def unpack_phase_collapse(header: dict, arrays):
    from .layers import PhaseCollapseParams

    _check_convention(header)
    if header.get("kind") != "phase-collapse":
        raise ContainerError(f"expected a phase-collapse container, got {header.get('kind')!r}")
    by_role = {block["role"]: arr for block, arr in zip(header["blocks"], arrays)}
    return PhaseCollapseParams(by_role["w1"], by_role["w2"].real, by_role["bias"])
