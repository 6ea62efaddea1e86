"""Forward and inverse spin-weighted spherical Fourier transforms.

A spin-s transform on the n x n grid (n = 2L) is three linear stages:
1. Longitude: a DFT (np.fft or a DFT-matrix product: the backend) over the
   n longitudes of every colatitude row gives the orders m in [-(L-1), L-1].
2. Colatitude: one matmul per parity p = (-1)^(m+s), whose orders are two strided
   slices of the longitude spectrum (m < 0 at 2L + m, then m >= 0; no index arrays),
   takes the n rows theta_j to the rows m' of the inner products I_{m',m}, and the rows of G back:

       analysis_p = W (E + p E[::-1]) / (2 n^2),    synthesis_p = conj(E)^T,

   with E[m'', j] = e^{-i m'' theta_j} and W = grid.weight_matrix: the torus
   extension of McEwen & Wiaux (2011) in closed form, whose mirrored row of
   theta_j sits at 2 pi - theta_j with sign p.  As the kernel satisfies
   K_s[m, l, -m'] = p K_s[m, l, m'], only the rows m' >= 0 of R_p I enter the
   sum, where row m' > 0 of R_p x is row m' plus p times row -m'; in turn
   G_{-m',m} = p G_{m',m}, so G is R_p^T applied to its rows m' >= 0.
   The symmetry path is where R_p is applied: the reduced path bakes it into
   the cached maps (analysis R_p analysis_p, synthesis synthesis_p R_p^T),
   the full path folds I and unfolds G by slicing around the all-row maps.
3. Orders: one matmul per order m against the kernel on the rows m' >= 0,
   K_s[m, l, m'] = alpha_l Delta^l_{m',m} Delta^l_{m',-s}, alpha_l = sqrt((2l+1)/(4pi)):

       coeff(l, m) = (-1)^s i^(m+s) sum_{m'} K_s[m, l, m'] (R_p I)_{m',m},
       G_{-m',m} = (-1)^s i^(m+s) sum_l K_s[m, l, m'] coeff(l, m).

   The kernel is read from the quadrant of the tables: K_s[m, l, m'] = (-1)^(m+s)
   alpha_l Delta^l_{m,m'} Delta^l_{-s,m'}, with Delta^l_{-s,m'} = (-1)^(l-m')
   Delta^l_{s,m'}, and G_{m',m} is the same sum up to (-1)^(m+s) as
   Delta^l_{-m',b} = (-1)^(l-b) Delta^l_{m',b}.  Orders m < 0 reuse the kernel
   of -m, as Delta^l_{m',-m} = (-1)^(l+m') Delta^l_{m',m} exactly in the tables:
   (-1)^m' moves onto the input (forward) or output (inverse), (-1)^l the other way.

All four backend/path combinations agree to rounding.  Kernels are rebuilt per call
in chunks of _KERNEL_CHUNK_BYTES bytes; only the colatitude maps are cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import SphericalGrid, make_grid, weight_matrix
from .signal import SpinCoefficients, SpinSignal, degree_of_index, num_coefficients
from .wigner import WignerTables, _I_POW, _signs

FOURIER_BACKENDS = ("dft_matrix", "fft")
SYMMETRY_PATHS = ("reduced", "full")


@dataclass(frozen=True)
class TransformConfig:
    """Computation-path selection; every combination gives the same results to rounding.

    The default, fft/reduced, is the fastest cell at every benchmarked size
    from L=64 up and the most accurate in the round-trip checks.
    """

    fourier_backend: str = "fft"
    symmetry_path: str = "reduced"

    def __post_init__(self):
        if self.fourier_backend not in FOURIER_BACKENDS:
            raise ValueError(f"fourier_backend must be one of {FOURIER_BACKENDS}, got {self.fourier_backend!r}")
        if self.symmetry_path not in SYMMETRY_PATHS:
            raise ValueError(f"symmetry_path must be one of {SYMMETRY_PATHS}, got {self.symmetry_path!r}")


DEFAULT_CONFIG = TransformConfig()

_KERNEL_CHUNK_BYTES = 4 << 20  # byte budget of one chunk of kernel orders


@lru_cache(maxsize=32)
def _dft_matrix(n: int) -> np.ndarray:
    q = np.arange(n)
    E = np.exp(-2j * np.pi * np.outer(q, q) / n)
    E.flags.writeable = False
    return E


def _dft(values: np.ndarray, direction: str, backend: str) -> np.ndarray:
    # unnormalized 1-D DFT over the last axis, kernel e^{-2 pi i km/n} ('analysis') or its conjugate
    if backend == "fft":
        return np.fft.fft(values) if direction == "analysis" else np.fft.ifft(values, norm="forward")
    if backend != "dft_matrix":
        raise ValueError(f"backend must be one of {FOURIER_BACKENDS}, got {backend!r}")
    E = _dft_matrix(values.shape[-1])  # symmetric
    return values @ (E if direction == "analysis" else E.conj())


def fourier_2d(values: np.ndarray, direction: str, backend: str = "fft") -> np.ndarray:
    """Standard 2D DFT over the trailing two axes.

    'analysis' is the unnormalized forward DFT, 'synthesis' the
    1/N-normalized inverse; the two backends agree to rounding.
    """
    if direction not in ("analysis", "synthesis"):
        raise ValueError(f"direction must be 'analysis' or 'synthesis', got {direction!r}")
    out = _dft(_dft(values, direction, backend).swapaxes(-1, -2), direction, backend).swapaxes(-1, -2)
    return out if direction == "analysis" else out / values.shape[-1] / values.shape[-2]


def _parities(L: int, spin: int):
    # (p, columns, split, neg, nonneg) of the orders m = -(L-1) .. L-1 with (-1)^(m+s) = p: the first split
    # columns are the orders m < 0, at the longitudes 2L + m (slice neg), the rest m >= 0 (slice nonneg)
    for first in (0, 1):
        p = 1 if (first - L + 1 + spin) % 2 == 0 else -1
        yield p, slice(first, None, 2), (L - first) // 2, slice(L + 1 + first, None, 2), slice((first + L + 1) % 2, L, 2)


def _fold(x: np.ndarray, p) -> np.ndarray:
    """Rows m' >= 0 of R_p x, for x on the rows m' = -(L-1) .. L-1 (axis -2): row m' plus p times row -m'."""
    c = x.shape[-2] // 2
    out = x[..., c:, :].copy()
    out[..., 1:, :] += p * x[..., c - 1 :: -1, :]
    return out


def _unfold(G: np.ndarray, spin: int) -> np.ndarray:
    """R_p^T G: all rows m' of G from its rows m' >= 0 (axis -2), as G_{-m',m} = (-1)^(m+s) G_{m',m}."""
    L = G.shape[-2]
    return np.concatenate([_signs(np.arange(1 - L, L) + spin) * G[..., :0:-1, :], G], axis=-2)


@lru_cache(maxsize=32)
def _colatitude_maps(L: int, parity: int, reduced: bool) -> tuple[np.ndarray, np.ndarray]:
    """Analysis (rows, n) and synthesis (n, rows) for the orders of parity p; R_p is baked in when reduced."""
    n = 2 * L
    E = np.exp(-1j * np.outer(np.arange(-(L - 1), L), make_grid(n).colatitudes))
    analysis = weight_matrix(n) @ (E + parity * E[::-1]) / (2 * n * n)
    if reduced:
        analysis, E = _fold(analysis, parity), _fold(E, parity)
    synthesis = np.ascontiguousarray(E.conj().T)
    analysis.flags.writeable = synthesis.flags.writeable = False
    return analysis, synthesis


def _analysis(samples, spin, L, backend, reduced):
    """I_{m',m} on the path's rows m' of samples (..., n, n), shape (..., rows, 2L-1)."""
    spec = _dft(np.asarray(samples, dtype=complex), "analysis", backend)
    out = np.empty(spec.shape[:-2] + (L if reduced else 2 * L - 1, 2 * L - 1), dtype=complex)
    for p, cols, _, neg, nonneg in _parities(L, spin):
        out[..., cols] = _colatitude_maps(L, p, reduced)[0] @ np.concatenate([spec[..., neg], spec[..., nonneg]], axis=-1)
    return out


def _synthesis(G, spin, L, backend, reduced):
    """Samples (..., n, n) of G_{m',m} given on the path's rows m', (..., rows, 2L-1)."""
    spec = np.zeros(G.shape[:-2] + (2 * L, 2 * L), dtype=complex)
    for p, cols, split, neg, nonneg in _parities(L, spin):
        spec[..., neg], spec[..., nonneg] = np.split(_colatitude_maps(L, p, reduced)[1] @ G[..., cols], [split], axis=-1)
    return _dft(spec, "synthesis", backend)


def inner_products(samples: np.ndarray, spin: int, grid: SphericalGrid) -> np.ndarray:
    """Inner products I_{m',m} of samples (..., n, n).

    I_{m',m} = integral of f(theta, phi) e^{-i m' theta} e^{-i m phi}
    over the sphere, exact for band-limited f; m', m in [-(L-1), L-1].
    """
    if np.shape(samples)[-2:] != (grid.n, grid.n):
        raise ValueError(f"samples end in shape {np.shape(samples)[-2:]}, the grid needs {(grid.n, grid.n)}")
    if spin != int(spin) or abs(spin) >= grid.band_limit:
        raise ValueError(f"spin {spin} must be an integer with |spin| < band limit {grid.band_limit}")
    return _analysis(samples, int(spin), grid.band_limit, "fft", reduced=False)


def _check_tables(band_limit: int, tables: WignerTables):
    if tables.band_limit < band_limit:
        raise ValueError(f"tables band limit {tables.band_limit} is smaller than required {band_limit}")


def forward(signal: SpinSignal, tables: WignerTables, config: TransformConfig = DEFAULT_CONFIG) -> SpinCoefficients:
    """Forward transform of every channel of a signal."""
    L = signal.grid.band_limit
    _check_tables(L, tables)
    out = np.zeros(signal.samples.shape[:2] + (num_coefficients(L),), dtype=complex)
    for spin in np.unique(signal.spins):
        sel = signal.spins == spin
        out[:, sel] = _forward_block(signal.samples[:, sel], int(spin), L, tables, config)
    return SpinCoefficients(out, signal.spins.copy(), L)


def _flat_orders(L: int, spin: int):
    # order |m|, degree l, sign half [m < 0] and phase (-1)^s i^(m+s), times (-1)^l for m < 0, of every
    # flat index l^2 + l + m; the forward takes the conjugate, (-1)^(m+s) times the phase, exactly
    l = degree_of_index(L)
    m = np.arange(L * L) - l * l - l
    half = (m < 0).astype(int)
    return np.abs(m), l, half, (-1.0) ** spin * _I_POW[(m + spin) % 4] * np.where(half, _signs(l), 1.0)


def _kernel(tables, rows, mu0, mu1):
    """Orders mu0 <= m < mu1 of the kernel on the rows m' >= 0, shape (mu1 - mu0, L - l0, L).

    Entry [m, l, m'] is alpha_l Delta^l_{m,m'} Delta^l_{-s,m'} (K_s up to the
    order sign (-1)^(m+s)) for degrees l >= l0 = max(mu0, |s|), given the spin
    rows alpha_l Delta^l_{-s,m'} of the degrees l >= |s|, (L - |s|, L); the
    quadrant's zeros fill the entries m > l and m' > l.
    """
    L = rows.shape[1]
    l0 = max(mu0, L - len(rows))
    return tables.delta[mu0:mu1, l0:L, :L] * rows[l0 - L :]


def _per_order(x, spin, L, tables, adjoint):
    """One matmul per order against the kernel, built in bounded chunks from spin rows built once.

    x is real, (L, L, k) with axes (|m|, m', k) for the forward and (|m|, l, k)
    for the adjoint; the output has the other of the two middle axes.
    """
    out = np.zeros((L, L, x.shape[-1]))
    l = np.arange(abs(spin), L)[:, None]
    signs = _signs(l - np.arange(L)) if spin > 0 else 1.0  # Delta^l_{-s,m'} = (-1)^(l-m') Delta^l_{s,m'}
    rows = np.sqrt((2 * l + 1) / (4 * np.pi)) * signs * tables.delta[abs(spin), abs(spin) : L, :L]
    step = max(1, _KERNEL_CHUNK_BYTES // (8 * L * L))
    for mu0 in range(0, L, step):
        mu1 = min(mu0 + step, L)
        K = _kernel(tables, rows, mu0, mu1)
        l0 = L - K.shape[1]
        if adjoint:
            out[mu0:mu1] = np.matmul(K.transpose(0, 2, 1), x[mu0:mu1, l0:])
        else:
            out[mu0:mu1, l0:] = np.matmul(K, x[mu0:mu1])
    return out


def _forward_block(samples, spin, L, tables, config):
    c = L - 1
    I = _analysis(samples, spin, L, config.fourier_backend, config.symmetry_path == "reduced")
    if config.symmetry_path == "full":
        I = _fold(I, _signs(np.arange(-c, L) + spin))
    lead = I.shape[:-2]
    B = int(np.prod(lead))
    I = I.reshape((B, L, 2 * L - 1))
    # x[|m|, m', 0] = I[m', m] for m >= 0; x[|m|, m', 1] = (-1)^m' I[m', m] for m <= 0
    x = np.empty((L, L, 2, B), dtype=complex)
    x[:, :, 0] = I[:, :, c:].transpose(2, 1, 0)
    x[:, :, 1] = _signs(np.arange(L))[:, None] * I[:, :, c::-1].transpose(2, 1, 0)
    y = _per_order(x.view(float).reshape(L, L, 4 * B), spin, L, tables, adjoint=False)
    y = y.view(complex).reshape(L, L, 2, B)
    mu, l, half, phases = _flat_orders(L, spin)
    return (y[mu, l, half] * phases.conj()[:, None]).T.reshape(lead + (L * L,))


def g_matrix(coeffs: SpinCoefficients, tables: WignerTables) -> np.ndarray:
    """The synthesis G matrix, shape (batch, channels, 2L-1, 2L-1).

    Satisfies G_{m',m} = (-1)^(m+s) G_{-m',m} exactly: the rows m' >= 0 are
    computed and unfolded.
    """
    L = coeffs.band_limit
    _check_tables(L, tables)
    out = np.zeros(coeffs.coeffs.shape[:2] + (2 * L - 1, 2 * L - 1), dtype=complex)
    for spin in np.unique(coeffs.spins):
        sel = coeffs.spins == spin
        out[:, sel] = _unfold(_g_rows(coeffs.coeffs[:, sel], int(spin), L, tables), int(spin))
    return out


def _g_rows(flat, spin, L, tables):
    """G_{m',m} on the rows m' >= 0, shape flat.shape[:-1] + (L, 2L-1)."""
    c = L - 1
    lead = flat.shape[:-1]
    B = int(np.prod(lead))
    mu, l, half, phases = _flat_orders(L, spin)
    x = np.zeros((L, L, 2, B), dtype=complex)
    x[mu, l, half] = (flat.reshape(B, L * L) * phases).T
    y = _per_order(x.view(float).reshape(L, L, 4 * B), spin, L, tables, adjoint=True)
    y = y.view(complex).reshape(L, L, 2, B)
    G = np.empty((B, L, 2 * L - 1), dtype=complex)
    G[:, :, c:] = y[:, :, 0].transpose(2, 1, 0)
    G[:, :, :c] = (_signs(np.arange(L))[:, None] * y[:0:-1, :, 1]).transpose(2, 1, 0)  # (-1)^m'
    return G.reshape(lead + (L, 2 * L - 1))


def inverse(coeffs: SpinCoefficients, tables: WignerTables, config: TransformConfig = DEFAULT_CONFIG) -> SpinSignal:
    """Inverse transform, synthesizing samples on the implied n = 2L grid."""
    L = coeffs.band_limit
    _check_tables(L, tables)
    grid = coeffs.grid()
    out = np.empty(coeffs.coeffs.shape[:2] + (grid.n, grid.n), dtype=complex)
    reduced = config.symmetry_path == "reduced"
    for spin in np.unique(coeffs.spins):
        sel = coeffs.spins == spin
        G = _g_rows(coeffs.coeffs[:, sel], int(spin), L, tables)
        out[:, sel] = _synthesis(G if reduced else _unfold(G, int(spin)), int(spin), L, config.fourier_backend, reduced)
    return SpinSignal(out, coeffs.spins.copy(), grid)
