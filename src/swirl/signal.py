"""Data model for spin-tagged spherical samples and harmonic coefficients."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import SphericalGrid, _integers, make_grid  # in grid, as make_grid checks its resolution with it


def num_coefficients(band_limit: int) -> int:
    return band_limit * band_limit


def flat_index(degree: int, order: int) -> int:
    """Index of (degree, order) in the flat triangular coefficient layout.

    Coefficients are stored degree-major with orders ascending from
    -degree, so flat index = degree**2 + order + degree.
    """
    if abs(order) > degree:
        raise ValueError(f"|order| must not exceed degree, got ({degree}, {order})")
    return degree * degree + order + degree


def degree_slice(degree: int) -> slice:
    return slice(degree * degree, (degree + 1) * (degree + 1))


def degree_of_index(band_limit: int) -> np.ndarray:
    """Maps each flat coefficient index to its degree, shape (L*L,)."""
    return np.repeat(np.arange(band_limit), 2 * np.arange(band_limit) + 1)


def _integer_spins(spins) -> np.ndarray:
    """The spins as an int array, rejecting any that is not an integer rather than truncating it."""
    return _integers(spins, "spin")


@dataclass(frozen=True)
class SpinSignal:
    """Batched multi-channel complex samples on a spherical grid.

    samples has shape (batch, channels, n, n); spins tags each channel
    with its spin weight.
    """

    samples: np.ndarray
    spins: np.ndarray
    grid: SphericalGrid

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=complex)
        spins = _integer_spins(self.spins)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "spins", spins)
        if samples.ndim != 4:
            raise ValueError(f"samples must be 4-D (batch, channels, n, n), got shape {samples.shape}")
        n = self.grid.n
        if samples.shape[-2:] != (n, n):
            raise ValueError(f"samples shape {samples.shape[-2:]} does not match grid ({n}, {n})")
        if spins.shape != (samples.shape[1],):
            raise ValueError(f"spins must have one entry per channel, got {spins.shape}")
        if np.any(np.abs(spins) >= self.grid.band_limit):
            raise ValueError(f"|spin| must be < band limit {self.grid.band_limit}, got {spins}")

    @property
    def batch(self) -> int:
        return self.samples.shape[0]

    @property
    def channels(self) -> int:
        return self.samples.shape[1]


@dataclass(frozen=True)
class SpinCoefficients:
    """Ragged-triangular harmonic coefficients, flat layout of length L*L per channel.

    coeffs has shape (batch, channels, L*L); entries with degree < |spin|
    are identically zero (the harmonics are undefined there).
    """

    coeffs: np.ndarray
    spins: np.ndarray
    band_limit: int

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=complex)
        spins = _integer_spins(self.spins)
        L = int(_integers(self.band_limit, "band limit"))
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "spins", spins)
        object.__setattr__(self, "band_limit", L)
        if L < 1:
            raise ValueError(f"band limit must be positive, got {L}")
        if coeffs.ndim != 3 or coeffs.shape[-1] != num_coefficients(L):
            raise ValueError(
                f"coeffs must have shape (batch, channels, {num_coefficients(L)}), got {coeffs.shape}"
            )
        if spins.shape != (coeffs.shape[1],):
            raise ValueError(f"spins must have one entry per channel, got {spins.shape}")
        if np.any(np.abs(spins) >= L):
            raise ValueError(f"|spin| must be < band limit {L}, got {spins}")
        size = np.abs(spins)
        top = int(size.max(initial=0))
        low = degree_of_index(top) < size[:, None]  # (channels, top^2): the entries below each channel's spin
        bad = np.flatnonzero(np.any((coeffs[..., : top * top] != 0) & low, axis=(0, 2)))
        if bad.size:
            raise ValueError(f"channel {bad[0]} has nonzero coefficients below degree |spin|={size[bad[0]]}")

    @property
    def batch(self) -> int:
        return self.coeffs.shape[0]

    @property
    def channels(self) -> int:
        return self.coeffs.shape[1]

    def degree_block(self, degree: int) -> np.ndarray:
        """View of the coefficients of one degree, shape (batch, channels, 2*degree+1)."""
        return self.coeffs[..., degree_slice(degree)]

    def grid(self) -> SphericalGrid:
        """The implied sampling grid (n = 2L)."""
        return make_grid(2 * self.band_limit)
