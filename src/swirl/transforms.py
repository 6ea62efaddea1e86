"""Forward and inverse spin-weighted spherical Fourier transforms.

The forward transform extends the signal to the torus, runs a 2D Fourier
analysis (FFT or explicit DFT-matrix products) and applies the
colatitude-frequency quadrature weights, giving the inner products
I_{m',m}.  It then contracts them with the Delta tables, one matmul per
order m against the kernel

    K_s[m, l, m'] = alpha_l Delta^l_{m',m} Delta^l_{m',-s},
    alpha_l = sqrt((2l+1)/(4pi)),

    coeff(l, m) = (-1)^s i^(m+s) sum_{m'} K_s[m, l, m'] I_{m',m}.

The inverse applies the transpose of the same kernel to assemble

    G_{-m',m} = (-1)^s i^(m+s) sum_l K_s[m, l, m'] coeff(l, m)

and synthesizes samples with a 2D Fourier synthesis.  The kernel is read
from rows of the tables: by the transpose symmetry
K_s[m, l, m'] = (-1)^(m+s) alpha_l Delta^l_{m,m'} Delta^l_{-s,m'}, and
since Delta^l_{-m',b} = (-1)^(l-b) Delta^l_{m',b}, G_{m',m} is the same
sum up to (-1)^(m+s).  Both signs join the per-order phase.  Orders m < 0
reuse the kernel of -m: Delta^l_{m',-m} = (-1)^(l+m') Delta^l_{m',m}
holds exactly in the stored tables, so the sign (-1)^m' moves onto the
input (forward) or output (inverse) and (-1)^l onto the other side.

The two symmetry paths differ only in the kernel rows m'.  The full path
builds every row from the tables, so G is computed without imposing its
symmetry G_{-m',m} = (-1)^(m+s) G_{m',m}.  The reduced path builds only
m' >= 0: the forward folds I_{m',m} + (-1)^(m+s) I_{-m',m} into those rows
before the matmul, and the inverse fills the rows m' < 0 of G by that
symmetry after it.  All four backend/path combinations are numerically
equivalent; they differ only in speed.

Kernels are transient: each call rebuilds them from the WignerTables in
chunks of orders of at most _KERNEL_CHUNK_BYTES, and nothing beyond the
tables is cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import grid as grid_mod
from .grid import SphericalGrid, weight_matrix
from .signal import SpinCoefficients, SpinSignal, degree_of_index, num_coefficients
from .wigner import WignerTables, _I_POW

FOURIER_BACKENDS = ("dft_matrix", "fft")
SYMMETRY_PATHS = ("reduced", "full")


@dataclass(frozen=True)
class TransformConfig:
    """Computation-path selection; every combination gives identical results."""

    fourier_backend: str = "dft_matrix"
    symmetry_path: str = "full"

    def __post_init__(self):
        if self.fourier_backend not in FOURIER_BACKENDS:
            raise ValueError(f"fourier_backend must be one of {FOURIER_BACKENDS}, got {self.fourier_backend!r}")
        if self.symmetry_path not in SYMMETRY_PATHS:
            raise ValueError(f"symmetry_path must be one of {SYMMETRY_PATHS}, got {self.symmetry_path!r}")


DEFAULT_CONFIG = TransformConfig()

# Byte budget of one chunk of kernel orders: the kernels are rebuilt from
# the tables on every call and never held beyond one chunk.
_KERNEL_CHUNK_BYTES = 4 << 20


@lru_cache(maxsize=32)
def _dft_matrix(n: int) -> np.ndarray:
    q = np.arange(n)
    E = np.exp(-2j * np.pi * np.outer(q, q) / n)
    E.flags.writeable = False
    return E


def fourier_2d(values: np.ndarray, direction: str, backend: str = "fft") -> np.ndarray:
    """Standard 2D DFT over the trailing two axes.

    'analysis' is the unnormalized forward DFT, 'synthesis' the
    1/N-normalized inverse; the two backends agree to rounding.
    """
    if direction not in ("analysis", "synthesis"):
        raise ValueError(f"direction must be 'analysis' or 'synthesis', got {direction!r}")
    if backend not in FOURIER_BACKENDS:
        raise ValueError(f"backend must be one of {FOURIER_BACKENDS}, got {backend!r}")
    if backend == "fft":
        if direction == "analysis":
            return np.fft.fft2(values)
        return np.fft.ifft2(values)
    rows, cols = values.shape[-2:]
    Er, Ec = _dft_matrix(rows), _dft_matrix(cols)
    if direction == "analysis":
        return np.matmul(np.matmul(Er, values), Ec.T)
    return np.matmul(np.matmul(Er.conj(), values), Ec.T.conj()) / (rows * cols)


def _signs(k) -> np.ndarray:
    # (-1)^k, elementwise
    return np.where(np.asarray(k) % 2 == 0, 1.0, -1.0)


def _phase_vector(L: int, spin: int) -> np.ndarray:
    # (-1)^s * i^(m+s) for m = -(L-1) .. L-1
    m = np.arange(-(L - 1), L)
    return (-1.0) ** spin * _I_POW[(m + spin) % 4]


def _parity_signs(L: int, spin: int) -> np.ndarray:
    return _signs(np.arange(-(L - 1), L) + spin)


def inner_products(samples: np.ndarray, spin: int, grid: SphericalGrid, backend: str = "fft") -> np.ndarray:
    """Torus-pipeline inner products I_{m',m} of samples (..., n, n).

    I_{m',m} = integral of f(theta, phi) e^{-i m' theta} e^{-i m phi}
    over the sphere, exact for band-limited f; m', m in [-(L-1), L-1].
    """
    n = grid.n
    L = grid.band_limit
    ext = grid_mod.extend_samples(np.asarray(samples, dtype=complex), spin, n)
    spec = fourier_2d(ext, "analysis", backend) / (2 * n * n)
    t_idx = np.arange(-(L - 1), L) % (2 * n)
    p_idx = np.arange(-(L - 1), L) % n
    F = spec[..., t_idx[:, None], p_idx[None, :]]
    offset = np.exp(-1j * np.arange(-(L - 1), L) * np.pi / (2 * n))
    F = F * offset[:, None]
    return weight_matrix(n) @ F


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
        out[:, sel] = _forward_block(signal.samples[:, sel], int(spin), signal.grid, tables, config)
    return SpinCoefficients(out, signal.spins.copy(), L)


def _flat_orders(L: int):
    # order |m|, degree l and sign half [m < 0] of every flat index l^2 + l + m
    l = degree_of_index(L)
    m = np.arange(L * L) - l * l - l
    return np.abs(m), l, (m < 0).astype(int), m


def _kernel(tables, spin, L, mu0, mu1, reduced):
    """Orders mu0 <= m < mu1 of the kernel, shape (mu1 - mu0, L - l0, rows).

    Entry [m, l, m'] is alpha_l Delta^l_{m,m'} Delta^l_{-s,m'} (rows of the
    tables, which is K_s up to the order sign (-1)^(m+s)) for degrees
    l >= l0 = max(mu0, |s|); rows are m' >= 0 on the reduced path and all
    m' on the full path.
    """
    c = L - 1
    l0 = max(mu0, abs(spin))
    K = np.zeros((mu1 - mu0, L - l0, L if reduced else 2 * L - 1))
    for l in range(l0, L):
        D = tables[l]
        first = l if reduced else 0
        top = min(mu1, l + 1) - mu0
        col = 0 if reduced else c - l
        K[:top, l - l0, col : col + 2 * l + 1 - first] = (
            np.sqrt((2 * l + 1) / (4 * np.pi)) * D[mu0 + l : mu0 + top + l, first:] * D[l - spin, first:]
        )
    return K


def _per_order(x, spin, L, tables, reduced, adjoint):
    """One matmul per order against the kernel, built in bounded chunks.

    x is real, (L, rows, k) for the forward (out (L, L, k)) and (L, L, k)
    for the adjoint (out (L, rows, k)); axis 0 is the order |m|.
    """
    rows = L if reduced else 2 * L - 1
    out = np.zeros((L, rows if adjoint else L, x.shape[-1]))
    step = max(1, _KERNEL_CHUNK_BYTES // (8 * L * rows))
    for mu0 in range(0, L, step):
        mu1 = min(mu0 + step, L)
        K = _kernel(tables, spin, L, mu0, mu1, reduced)
        l0 = L - K.shape[1]
        if adjoint:
            out[mu0:mu1] = np.matmul(K.transpose(0, 2, 1), x[mu0:mu1, l0:])
        else:
            out[mu0:mu1, l0:] = np.matmul(K, x[mu0:mu1])
    return out


def _forward_block(samples, spin, grid, tables, config):
    L = grid.band_limit
    c = L - 1
    I = inner_products(samples, spin, grid, config.fourier_backend)
    lead = I.shape[:-2]
    B = int(np.prod(lead))
    I = I.reshape((B, 2 * L - 1, 2 * L - 1))
    reduced = config.symmetry_path == "reduced"
    if reduced:
        J = I[:, c:, :].copy()
        if L > 1:
            J[:, 1:, :] += _parity_signs(L, spin) * I[:, c - 1 :: -1, :]
        I = J
    rows = I.shape[1]
    row_signs = _signs(np.arange(rows) - (0 if reduced else c))[:, None]  # (-1)^m'
    # x[|m|, m', 0] = I[m', m] for m >= 0; x[|m|, m', 1] = (-1)^m' I[m', m] for m <= 0
    x = np.empty((L, rows, 2, B), dtype=complex)
    x[:, :, 0] = I[:, :, c:].transpose(2, 1, 0)
    x[:, :, 1] = row_signs * I[:, :, c::-1].transpose(2, 1, 0)
    y = _per_order(x.view(float).reshape(L, rows, 4 * B), spin, L, tables, reduced, adjoint=False)
    y = y.view(complex).reshape(L, L, 2, B)
    mu, l, half, m = _flat_orders(L)
    phases = _phase_vector(L, spin)[m + c] * _signs(m + spin) * np.where(half, _signs(l), 1.0)
    return (y[mu, l, half] * phases[:, None]).T.reshape(lead + (L * L,))


def g_matrix(coeffs: SpinCoefficients, tables: WignerTables, config: TransformConfig = DEFAULT_CONFIG) -> np.ndarray:
    """The synthesis G matrix, shape (batch, channels, 2L-1, 2L-1).

    Satisfies G_{m',m} = (-1)^(m+s) G_{-m',m}; in the reduced path only
    m' >= 0 is computed and the negative rows are filled by that symmetry.
    """
    L = coeffs.band_limit
    _check_tables(L, tables)
    out = np.zeros(coeffs.coeffs.shape[:2] + (2 * L - 1, 2 * L - 1), dtype=complex)
    for spin in np.unique(coeffs.spins):
        sel = coeffs.spins == spin
        out[:, sel] = _g_block(coeffs.coeffs[:, sel], int(spin), L, tables, config)
    return out


def _g_block(flat, spin, L, tables, config):
    c = L - 1
    reduced = config.symmetry_path == "reduced"
    lead = flat.shape[:-1]
    B = int(np.prod(lead))
    mu, l, half, m = _flat_orders(L)
    phases = _phase_vector(L, spin)[m + c] * np.where(half, _signs(l), 1.0)
    x = np.zeros((L, L, 2, B), dtype=complex)
    x[mu, l, half] = (flat.reshape(B, L * L) * phases).T
    y = _per_order(x.view(float).reshape(L, L, 4 * B), spin, L, tables, reduced, adjoint=True)
    rows = y.shape[1]
    y = y.view(complex).reshape(L, rows, 2, B)
    row_signs = _signs(np.arange(rows) - (0 if reduced else c))[:, None]  # (-1)^m'
    G = np.empty((B, 2 * L - 1, 2 * L - 1), dtype=complex)
    top = slice(c, None) if reduced else slice(None)
    G[:, top, c:] = y[:, :, 0].transpose(2, 1, 0)
    G[:, top, :c] = (row_signs * y[:0:-1, :, 1]).transpose(2, 1, 0)
    if reduced and L > 1:
        G[:, :c, :] = _parity_signs(L, spin) * G[:, 2 * c : c : -1, :]
    return G.reshape(lead + (2 * L - 1, 2 * L - 1))


def inverse(coeffs: SpinCoefficients, tables: WignerTables, config: TransformConfig = DEFAULT_CONFIG) -> SpinSignal:
    """Inverse transform, synthesizing samples on the implied n = 2L grid."""
    L = coeffs.band_limit
    _check_tables(L, tables)
    grid = coeffs.grid()
    out = np.empty(coeffs.coeffs.shape[:2] + (grid.n, grid.n), dtype=complex)
    for spin in np.unique(coeffs.spins):
        sel = coeffs.spins == spin
        G = _g_block(coeffs.coeffs[:, sel], int(spin), L, tables, config)
        out[:, sel] = _synthesize(G, L, config)
    return SpinSignal(out, coeffs.spins.copy(), grid)


def _synthesize(G, L, config):
    n = 2 * L
    offset = np.exp(1j * np.arange(-(L - 1), L) * np.pi / (2 * n))
    G = G * offset[:, None]
    S = np.zeros(G.shape[:-2] + (2 * n, n), dtype=complex)
    t_idx = np.arange(-(L - 1), L) % (2 * n)
    p_idx = np.arange(-(L - 1), L) % n
    S[..., t_idx[:, None], p_idx[None, :]] = G
    f = fourier_2d(S, "synthesis", config.fourier_backend) * (2 * n * n)
    return f[..., :n, :]
