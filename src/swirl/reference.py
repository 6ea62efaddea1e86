"""Direct-evaluation reference implementations used as independent oracles.

Nothing here touches the production transform path: Wigner d values come
from the explicit factorial sum formula, spherical integrals from
Gauss-Legendre nodes in colatitude crossed with uniform longitudes.
These routines are slow and exist to arbitrate correctness.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .signal import degree_slice, num_coefficients


def wigner_d_explicit(degree: int, a: int, b: int, beta) -> np.ndarray:
    """Explicit factorial sum for d^l_{a,b}(beta), float64, vectorized over beta.

    Trustworthy for degree <= ~25 where the alternating sum loses at most
    a few digits.
    """
    beta = np.asarray(beta, dtype=float)
    c, s = np.cos(beta / 2), np.sin(beta / 2)
    total = np.zeros_like(beta)
    pref = math.sqrt(
        math.factorial(degree + a)
        * math.factorial(degree - a)
        * math.factorial(degree + b)
        * math.factorial(degree - b)
    )
    for k in range(max(0, b - a), min(degree + b, degree - a) + 1):
        den = (
            math.factorial(degree + b - k)
            * math.factorial(k)
            * math.factorial(a - b + k)
            * math.factorial(degree - a - k)
        )
        total += (
            (-1.0) ** (a - b + k)
            / den
            * c ** (2 * degree + b - a - 2 * k)
            * s ** (a - b + 2 * k)
        )
    return pref * total


def wigner_d_explicit_mp(degree: int, a: int, b: int, beta) -> float:
    """The same sum evaluated in 30-digit arithmetic (for tight tolerances)."""
    import mpmath as mp  # imported here, so importing swirl (and its verification) does not load mpmath

    with mp.workdps(30):
        beta = mp.mpf(beta)
        c, s = mp.cos(beta / 2), mp.sin(beta / 2)
        pref = mp.sqrt(
            mp.factorial(degree + a)
            * mp.factorial(degree - a)
            * mp.factorial(degree + b)
            * mp.factorial(degree - b)
        )
        total = mp.mpf(0)
        for k in range(max(0, b - a), min(degree + b, degree - a) + 1):
            den = (
                mp.factorial(degree + b - k)
                * mp.factorial(k)
                * mp.factorial(a - b + k)
                * mp.factorial(degree - a - k)
            )
            total += (-1) ** (a - b + k) / den * c ** (2 * degree + b - a - 2 * k) * s ** (a - b + 2 * k)
        return float(pref * total)


@lru_cache(maxsize=64)
def wigner_d_matrix_mp(degree: int, beta: float) -> np.ndarray:
    """Full d^l(beta) from the high-precision sum.

    Only the wedge a >= |b| is summed explicitly; the rest follows from
    the transpose and double-negation symmetries of the sum formula
    (valid at any angle), which keeps the oracle affordable at l = 20.
    """
    c = degree
    size = 2 * degree + 1
    D = np.full((size, size), np.nan)
    for a in range(0, degree + 1):
        for b in range(-a, a + 1):
            D[a + c, b + c] = wigner_d_explicit_mp(degree, a, b, beta)
    for a in range(0, degree + 1):
        for b in range(-a, a + 1):
            sign = -1.0 if (a - b) % 2 else 1.0
            D[c - a, c - b] = sign * D[c + a, c + b]
    missing = np.isnan(D)
    ii, jj = np.meshgrid(np.arange(-c, c + 1), np.arange(-c, c + 1), indexing="ij")
    signs = np.where((ii - jj) % 2 == 0, 1.0, -1.0)
    D[missing] = (signs * D.T)[missing]
    return D


def spin_harmonic(spin: int, degree: int, order: int, theta, phi) -> np.ndarray:
    """Spin-weighted spherical harmonic via the Wigner-d relation.

    sYlm(theta, phi) = (-1)^s sqrt((2l+1)/(4pi)) d^l_{m,-s}(theta) e^{i m phi};
    for spin 0 this reduces to the orthonormal Condon-Shortley Ylm.
    """
    if degree < abs(spin) or abs(order) > degree:
        raise ValueError(f"invalid (spin, degree, order) = ({spin}, {degree}, {order})")
    d = wigner_d_explicit(degree, order, -spin, theta)
    return (
        (-1.0) ** spin
        * math.sqrt((2 * degree + 1) / (4 * math.pi))
        * d
        * np.exp(1j * order * np.asarray(phi))
    )


def gauss_legendre_nodes(band_limit: int):
    """Quadrature nodes exact for products of two band-limited functions.

    Gauss-Legendre in cos(theta) crossed with uniform longitudes; the
    theta weights already absorb the sin(theta) measure.  Returns
    (theta (K,), theta_weights (K,), phi (Nphi,), phi_weight).
    """
    K = 2 * band_limit + 4
    x, w = np.polynomial.legendre.leggauss(K)
    theta = np.arccos(x)
    n_phi = 4 * band_limit + 4
    phi = 2 * np.pi * np.arange(n_phi) / n_phi
    return theta, w, phi, 2 * np.pi / n_phi


def theta_quadrature_nodes(band_limit: int):
    """Gauss-Legendre nodes in theta itself (for integrands with e^{i k theta} factors).

    Not exact for trigonometric integrands but superexponentially accurate
    with this node count; the sin(theta) measure is NOT absorbed in the
    weights.  Returns (theta (K,), theta_weights (K,), phi (Nphi,), phi_weight).
    """
    K = 6 * band_limit + 16
    x, w = np.polynomial.legendre.leggauss(K)
    theta = (x + 1.0) * (np.pi / 2)
    n_phi = 4 * band_limit + 4
    phi = 2 * np.pi * np.arange(n_phi) / n_phi
    return theta, w * (np.pi / 2), phi, 2 * np.pi / n_phi


def synthesize_at(flat_coeffs: np.ndarray, spin: int, band_limit: int, theta, phi) -> np.ndarray:
    """Evaluate the band-limited expansion at arbitrary points (reference path).

    theta and phi are broadcast against each other; beware the cost, every
    (degree, order) pair triggers an explicit d evaluation.
    """
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    out = np.zeros(np.broadcast(theta, phi).shape, dtype=complex)
    for l in range(abs(spin), band_limit):
        block = flat_coeffs[degree_slice(l)]
        if not np.any(block):
            continue
        for m in range(-l, l + 1):
            if block[m + l] == 0:
                continue
            out = out + block[m + l] * spin_harmonic(spin, l, m, theta, phi)
    return out


def forward_quadrature(flat_coeffs: np.ndarray, spin: int, band_limit: int) -> np.ndarray:
    """Brute-force forward transform by dense quadrature of the defining integral.

    The input function is synthesized from flat_coeffs at the quadrature
    nodes; the output should reproduce flat_coeffs for any band-limited
    input, providing the oracle for the torus-pipeline transform.
    """
    theta, tw, phi, pw = gauss_legendre_nodes(band_limit)
    TH = theta[:, None]
    PH = phi[None, :]
    values = synthesize_at(flat_coeffs, spin, band_limit, TH, PH)
    out = np.zeros(num_coefficients(band_limit), dtype=complex)
    for l in range(abs(spin), band_limit):
        for m in range(-l, l + 1):
            Y = spin_harmonic(spin, l, m, TH, PH)
            phi_sum = (values * np.conj(Y)).sum(axis=1) * pw
            out[l * l + m + l] = (phi_sum * tw).sum()
    return out


def spectral_conv_per_pair(coeffs: np.ndarray, weights: np.ndarray, spins_in, spins_out) -> np.ndarray:
    """Spherical convolution summed one (spin_in, spin_out) block and one degree at a time.

    coeffs is (batch, S_in*C_in, L**2) and weights (S_in*C_in, S_out*C_out, L),
    both spin-major: row i*C_in + a is channel a of spins_in[i], and column
    o*C_out + b is channel b of spins_out[o].  Output channel (o, b) at
    degree l is sum_i sum_a weights[(i, a), (o, b), l] * coeffs[(i, a), l].
    """
    cin = weights.shape[0] // len(spins_in)
    cout = weights.shape[1] // len(spins_out)
    out = np.zeros((coeffs.shape[0], weights.shape[1], coeffs.shape[2]), dtype=complex)
    for i in range(len(spins_in)):
        rows = slice(i * cin, (i + 1) * cin)
        for o in range(len(spins_out)):
            cols = slice(o * cout, (o + 1) * cout)
            for l in range(weights.shape[2]):
                taps = weights[rows, cols, l]
                out[:, cols, degree_slice(l)] += np.einsum("ab,zam->zbm", taps, coeffs[:, rows, degree_slice(l)])
    return out


def spherical_integral_quadrature(values_fn, band_limit: int) -> complex:
    """Integral over the sphere of values_fn(theta, phi) on the reference nodes."""
    theta, tw, phi, pw = gauss_legendre_nodes(band_limit)
    vals = values_fn(theta[:, None], phi[None, :])
    return complex((vals.sum(axis=1) * pw * tw).sum())


def spatial_variance_quadrature(flat_coeffs: np.ndarray, spin: int, band_limit: int) -> float:
    """Variance of the synthesized function over the normalized sphere measure.

    For spin 0 the spherical mean (the (0,0) coefficient slot) is
    subtracted; nonzero spins have no mean slot in the coefficient model,
    so their spectral variance is the plain mean square and the spatial
    counterpart follows suit.
    """
    theta, tw, phi, pw = gauss_legendre_nodes(band_limit)
    vals = synthesize_at(flat_coeffs, spin, band_limit, theta[:, None], phi[None, :])
    mean = (vals.sum(axis=1) * pw * tw).sum() / (4 * np.pi) if spin == 0 else 0.0
    sq = ((np.abs(vals - mean) ** 2).sum(axis=1) * pw * tw).sum() / (4 * np.pi)
    return float(sq.real)
