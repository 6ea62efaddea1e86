"""Equiangular spherical sampling and its quadrature weights.

The sampling is an n x n grid (colatitude x longitude) with pole-free
colatitudes theta_j = pi*(2j+1)/(2n) and uniform longitudes
phi_k = 2*pi*k/n.  The colatitude-frequency weights w(k) realize the
sin(theta) measure exactly for band-limited integrands: weight_matrix
applies them to colatitude spectra (the transforms' colatitude maps) and
colatitude_weights to the samples' rows (spherical_integral).
extend_samples is the torus extension those weights presume, mirroring
the colatitude axis with a spin-dependent parity; the verify rows
grid.extension.* check that rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class SphericalGrid:
    """Equiangular n x n sampling of the sphere with band limit L = n/2."""

    n: int
    colatitudes: np.ndarray
    longitudes: np.ndarray
    band_limit: int

    def __post_init__(self):
        self.colatitudes.flags.writeable = False
        self.longitudes.flags.writeable = False

    def unit_vectors(self) -> np.ndarray:
        """Cartesian unit vectors of all grid points, shape (n, n, 3)."""
        th = self.colatitudes[:, None]
        ph = self.longitudes[None, :]
        return np.stack(
            [np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.broadcast_to(np.cos(th), (self.n, self.n))],
            axis=-1,
        )


def _integers(values, name: str) -> np.ndarray:
    """values as an int array: an integral float converts (4.0 becomes 4), any other value raises a
    ValueError that names it rather than being truncated."""
    given = np.asarray(values)
    if given.dtype.kind in "bi":  # already integers
        return given.astype(int)
    try:
        with np.errstate(invalid="ignore"):  # nan and inf cast to arbitrary integers, which the check rejects
            out = given.astype(int)
    except (TypeError, ValueError):
        raise ValueError(f"{name} {values!r} must be an integer") from None
    if np.any(bad := given != out):
        listed = f", got {name}s {given.tolist()}" if given.ndim else ""
        raise ValueError(f"{name} {given[bad][0]} must be an integer{listed}")
    return out


def make_grid(n: int) -> SphericalGrid:
    """Build the equiangular grid for an even resolution n >= 2 (an integral float such as 8.0 is that integer)."""
    size = _integers(n, "grid resolution")
    if size.ndim or size < 2 or size % 2 != 0:
        raise ValueError(f"grid resolution must be a positive even integer, got {n!r}")
    n = int(size)
    j = np.arange(n)
    colatitudes = np.pi * (2 * j + 1) / (2 * n)
    longitudes = 2 * np.pi * j / n
    return SphericalGrid(n=n, colatitudes=colatitudes, longitudes=longitudes, band_limit=n // 2)


def parity_sign(spin: int) -> float:
    return -1.0 if spin % 2 else 1.0


def extend_samples(samples: np.ndarray, spin: int, n: int) -> np.ndarray:
    """Extend samples (..., n, n) to the torus (..., 2n, n).

    The appended rows satisfy f(2*pi - theta, phi + pi) = (-1)**spin * f(theta, phi).
    Row j of the extension mirrors row 2n-1-j of the input with the
    longitude axis rolled by n/2 (exact because n is even).
    """
    if samples.shape[-2:] != (n, n):
        raise ValueError(f"expected trailing sample shape ({n}, {n}), got {samples.shape[-2:]}")
    mirrored = np.roll(samples[..., ::-1, :], n // 2, axis=-1) * parity_sign(spin)
    return np.concatenate([samples, mirrored], axis=-2)


@lru_cache(maxsize=None)
def frequency_weights(n: int) -> np.ndarray:
    """Colatitude-frequency quadrature weights w(k) = int_0^pi e^{ik theta} sin(theta) dtheta.

    Returned for k = -(2L-2) .. 2L-2 with L = n/2 (index k + 2L - 2).
    These realize the sin(theta) measure exactly for band-limited
    integrands once the signal has been extended to the torus.
    """
    L = n // 2
    k = np.arange(-(2 * L - 2), 2 * L - 1)
    w = np.zeros(k.shape, dtype=complex)
    even = k % 2 == 0
    w[even] = 2.0 / (1.0 - k[even].astype(float) ** 2)
    w[k == 1] = 1j * np.pi / 2
    w[k == -1] = -1j * np.pi / 2
    w.flags.writeable = False
    return w


def weight_matrix(n: int) -> np.ndarray:
    """Toeplitz application of the frequency weights.

    W[p, q] = 2*pi*w(q - p) for m' (rows) and m'' (columns) in
    [-(L-1), L-1]; the torus inner products are I = W @ F.  Not cached:
    the transforms cache the colatitude maps built from it.
    """
    L = n // 2
    idx = np.arange(-(L - 1), L)
    return 2 * np.pi * frequency_weights(n)[(idx[None, :] - idx[:, None]) + 2 * L - 2]


@lru_cache(maxsize=None)
def colatitude_weights(n: int) -> np.ndarray:
    """Spatial per-row weights for spin-0 spherical integration.

    lambda_j = (2*pi/n**2) * sum_k w(k) cos(k*theta_j); the integral of a
    band-limited f is sum_j lambda_j sum_k f[j, k].
    """
    L = n // 2
    k = np.arange(-(L - 1), L)
    w = frequency_weights(n)[(k + 2 * L - 2)]
    theta = make_grid(n).colatitudes
    lam = (2 * np.pi / n**2) * (w[None, :] * np.cos(k[None, :] * theta[:, None])).sum(axis=1).real
    lam.flags.writeable = False
    return lam


def spherical_integral(samples: np.ndarray, grid: SphericalGrid) -> np.ndarray:
    """Integral over the sphere of samples (..., n, n), exact for band-limited input."""
    lam = colatitude_weights(grid.n)
    return np.einsum("...jk,j->...", samples, lam)


def spherical_mean(samples: np.ndarray, grid: SphericalGrid) -> np.ndarray:
    """Mean over the sphere (integral divided by 4*pi)."""
    return spherical_integral(samples, grid) / (4 * np.pi)
