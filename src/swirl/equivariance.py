"""Exact spectral rotation machinery and the equivariance measurement harness.

Rotations act on coefficients as ghat_l = D^l(R) @ fhat_l, which realizes
g = f o R^-1 (plus the spin phase) without any spatial interpolation.
Spatial-domain layers are tested by sandwiching: forward transform,
rotate spectrally, inverse transform, apply the layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layers import _grouped_spins
from .signal import (
    SpinCoefficients, SpinSignal, _integer_spins, _integers, degree_of_index, degree_slice, flat_index, num_coefficients
)
from .transforms import _check_tables, forward, inverse
from .wigner import Rotation, WignerTables, _rotate_degree, _rotation_phases, compute_delta


def rotate_coefficients(coeffs: SpinCoefficients, rot: Rotation, tables: WignerTables) -> SpinCoefficients:
    """Apply a rotation degree-wise: ghat_l = D^l(rot) @ fhat_l; spins unchanged.

    The gamma and alpha phases of D^l multiply the whole flat layout, held as
    (L^2, batch*channels), once each; per degree only Delta^T diag(beta phases) Delta is applied.
    """
    L = coeffs.band_limit
    _check_tables(L, tables)
    first, middle, last = _rotation_phases(L, rot)
    l = degree_of_index(L)
    column = np.arange(L * L) - l * l - l + L - 1  # the order m of each flat index, as its column m + L - 1
    x = np.ascontiguousarray((coeffs.coeffs.reshape(-1, L * L) * first[column]).T)
    out = np.empty_like(x)
    for d in range(L):
        block = degree_slice(d)
        _rotate_degree(tables[d], middle[L - 1 - d : L + d, None], x[block], out[block])
    out = np.multiply(out.T, last[column], order="C")
    return SpinCoefficients(out.reshape(coeffs.coeffs.shape), coeffs.spins.copy(), L)


def rotate_signal(signal: SpinSignal, rot: Rotation) -> SpinSignal:
    """Rotate a band-limited signal exactly via the spectral domain (default transform config)."""
    tables = compute_delta(signal.grid.band_limit)
    return inverse(rotate_coefficients(forward(signal, tables), rot, tables), tables)


@dataclass(frozen=True)
class EquivarianceReport:
    layer: str
    band_limit: int
    n_rotations: int
    max_rel_err: float
    seed: int


def _flat(x) -> np.ndarray:
    return (x.samples if isinstance(x, SpinSignal) else x.coeffs).ravel()


def _rotate(x, rot):
    if isinstance(x, SpinSignal):
        return rotate_signal(x, rot)
    return rotate_coefficients(x, rot, compute_delta(x.band_limit))


def max_rel_error(a, b) -> float:
    """Largest |a - b| over the largest |b|; the absolute error when b is zero."""
    scale = np.abs(b).max()
    return float(np.abs(a - b).max() / scale) if scale > 0 else float(np.abs(a - b).max())


def equivariance_error(layer, x, rotations, layer_name: str = "layer", seed: int = 0) -> EquivarianceReport:
    """Measure ||layer(rotate(x)) - rotate(layer(x))||_2 / ||layer(x)||_2 over rotations.

    Signals are rotated through the default transform config.  A
    degenerate layer output (zero norm) makes the metric undefined and is
    reported as NaN rather than zero.
    """
    band_limit = x.grid.band_limit if isinstance(x, SpinSignal) else x.band_limit
    base = layer(x)
    denom = np.linalg.norm(_flat(base))
    errors = []
    for rot in rotations:
        lhs = layer(_rotate(x, rot))
        rhs = _rotate(base, rot)
        num = np.linalg.norm(_flat(lhs) - _flat(rhs))
        errors.append(num / denom if denom > 0 else np.nan)
    return EquivarianceReport(
        layer=layer_name,
        band_limit=band_limit,
        n_rotations=len(errors),
        max_rel_err=float(np.max(errors)) if len(errors) else np.nan,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Harness inputs.
#
# Purely spectral layers are exactly equivariant on any input, so dense
# random coefficients are used for them.  The pointwise phase collapse is
# exactly equivariant only when every channel modulus stays band-limited;
# the smooth family below has that property (real positive spin-0 fields,
# single top-order harmonics for nonzero spins), so the measured error is
# pure floating-point accumulation rather than grid truncation.
# ---------------------------------------------------------------------------


def random_coefficients(rng: np.random.Generator, batch: int, spins, band_limit: int) -> SpinCoefficients:
    """Dense random coefficients, zero below each channel's spin."""
    spins = _integer_spins(spins)
    co = rng.normal(size=(batch, len(spins), num_coefficients(band_limit)))
    co = co + 1j * rng.normal(size=co.shape)
    for c, s in enumerate(spins):
        co[:, c, : num_coefficients(abs(s))] = 0.0
    return SpinCoefficients(co, spins, band_limit)


def _real_positive_coefficients(rng, band_limit, max_degree):
    """Coefficients of a real band-limited field, lifted to be strictly positive."""
    co = np.zeros(num_coefficients(band_limit), dtype=complex)
    for l in range(max_degree + 1):
        for m in range(l + 1):
            v = rng.normal() + 1j * rng.normal()
            if m == 0:
                v = complex(rng.normal())
            co[flat_index(l, m)] = v
            co[flat_index(l, -m)] = (-1) ** m * np.conj(v)
    return co


def smooth_harness_signal(
    rng: np.random.Generator,
    band_limit: int,
    spin_set,
    channels_per_spin: int,
    max_degree: int | None = None,
    shared_orders: bool = False,
) -> SpinSignal:
    """Batch-1 band-limited signal whose channel moduli are themselves band-limited.

    Spin-0 channels are real positive fields (modulus equals the field);
    spin-s channels are single harmonics of order m = +l with l = |s| mod 2,
    whose modulus is an exactly band-limited degree-l function.  With
    shared_orders every channel of one spin uses the same degree, so
    channel mixing by a spin-diagonal filter bank preserves the
    single-harmonic structure.  Synthesis uses the default transform
    config.
    """
    L = int(_integers(band_limit, "band limit"))
    if max_degree is None:
        max_degree = max((L - 1) // 2, 1)
    tables = compute_delta(L)
    spins = _grouped_spins(spin_set, channels_per_spin)

    def degree(s):
        choices = [l for l in range(abs(s), max_degree + 1) if (l + s) % 2 == 0]
        return int(rng.choice(choices)) if choices else abs(s)

    shared_degree = {s: degree(s) for s in set(spins.tolist()) if s != 0}
    co = np.zeros((1, len(spins), num_coefficients(L)), dtype=complex)
    for c, s in enumerate(spins.tolist()):
        if s == 0:
            co[0, c] = _real_positive_coefficients(rng, L, max_degree)
        else:
            l = shared_degree[s] if shared_orders else degree(s)
            co[0, c, flat_index(l, l)] = rng.normal() + 1j * rng.normal()
    samples = inverse(SpinCoefficients(co, spins, L), tables).samples
    # Lift spin-0 channels above zero so modulus == field holds everywhere.
    for c in np.flatnonzero(spins == 0):
        floor = samples[0, c].real.min()
        lift = -floor * 1.5 + 0.2 * max(1.0, abs(floor))
        co[0, c, 0] += lift * np.sqrt(4 * np.pi)
    return inverse(SpinCoefficients(co, spins, L), tables)
