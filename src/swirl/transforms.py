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

All four backend/path combinations agree to rounding.  The colatitude maps and the
flat-order maps are cached per (L, parity) and (L, spin).  Every spin's kernel that fits one
chunk of _KERNEL_CHUNK_BYTES (4 MiB, so L <= 80) is built once and kept on the tables
(WignerTables._keep); any other is rebuilt per call, one chunk at a time.

Besides its input and output, a call holds the per-order buffers of one spin (the
order-major operand and product, each half the samples of the spin's maps, freed
before the next spin) and the temporaries of one chunk of maps: the longitude and
colatitude stages, folds and order-major transposes run over chunks of the flat
(batch * channel) axis whose samples take at most _MAP_CHUNK_BYTES (1 MiB).  The
per-order product stays whole-batch, so kernels are read once per spin and call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import SphericalGrid, _integers, make_grid, weight_matrix
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
_MAP_CHUNK_BYTES = 1 << 20  # byte budget of the samples of one chunk of maps in the per-map stages


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
    return _analysis(samples, int(_integers(spin, "spin")), grid.band_limit, "fft", reduced=False)


def _check_tables(band_limit: int, tables: WignerTables):
    if tables.band_limit < band_limit:
        raise ValueError(f"tables band limit {tables.band_limit} is smaller than required {band_limit}")


def _spin_maps(spins: np.ndarray, batch: int):
    """(spin, flat indices b * channels + c of its maps, batch-major) for each distinct spin."""
    for spin in np.unique(spins):
        yield int(spin), (np.arange(batch)[:, None] * len(spins) + np.flatnonzero(spins == spin)).ravel()


def _chunks(count: int, item_bytes: int, budget: int) -> list:
    """Slices of count items, as many to a chunk as fit budget bytes at item_bytes each (at least one)."""
    step = max(1, budget // item_bytes)
    return [slice(k, min(k + step, count)) for k in range(0, count, step)]


def forward(signal: SpinSignal, tables: WignerTables, config: TransformConfig = DEFAULT_CONFIG) -> SpinCoefficients:
    """Forward transform of every channel of a signal."""
    L = signal.grid.band_limit
    _check_tables(L, tables)
    out = np.zeros(signal.samples.shape[:2] + (num_coefficients(L),), dtype=complex)
    samples, flat = signal.samples.reshape((-1,) + signal.samples.shape[2:]), out.reshape(-1, L * L)
    for spin, maps in _spin_maps(signal.spins, signal.batch):
        _forward_block(samples, maps, spin, L, tables, config, flat)
    return SpinCoefficients(out, signal.spins.copy(), L)


@lru_cache(maxsize=32)
def _flat_orders(L: int, spin: int):
    # row (|m| L + l) 2 + [m < 0] of the (L, L, 2) order-major layout and phase (-1)^s i^(m+s), times (-1)^l
    # for m < 0, of every flat index l^2 + l + m; the forward takes the conjugate, (-1)^(m+s) times the phase
    l = degree_of_index(L)
    m = np.arange(L * L) - l * l - l
    half = (m < 0).astype(int)
    rows = (np.abs(m) * L + l) * 2 + half
    phases = (-1.0) ** spin * _I_POW[(m + spin) % 4] * np.where(half, _signs(l), 1.0)
    rows.flags.writeable = phases.flags.writeable = False
    return rows, phases


def _kernel(tables, spin, L, mu0, mu1):
    """Kernel of the orders mu0 <= m < mu1, shape (mu1 - mu0, L - l0, L): entry [m, l, m'] is alpha_l Delta^l_{m,m'}
    Delta^l_{-s,m'} (K_s up to the order sign (-1)^(m+s)) for the degrees l >= l0 = max(mu0, |s|), with the
    quadrant's zeros at m > l and m' > l.  Only degrees and orders below L are read from the tables."""
    a, l0 = abs(spin), max(mu0, abs(spin))
    l = np.arange(l0, L)[:, None]
    signs = _signs(l - np.arange(L)) if spin > 0 else 1.0  # Delta^l_{-s,m'} = (-1)^(l-m') Delta^l_{s,m'}
    rows = np.sqrt((2 * l + 1) / (4 * np.pi)) * signs * tables.delta[a, l0:L, :L]  # alpha_l Delta^l_{-s,m'}
    return tables.delta[mu0:mu1, l0:L, :L] * rows


def _per_order(x, spin, L, tables, adjoint):
    """One matmul per order against the kernel, on the real and imaginary parts at once, written in place.

    x is complex, (L, L, 2, k) with axes (|m|, m', half, map) for the forward and (|m|, l, half, map)
    for the adjoint; the product has the other of the two middle axes.  The orders run in chunks of
    _KERNEL_CHUNK_BYTES: a kernel of one chunk (8 L^3 bytes, so L <= 80 at 4 MiB) is kept on the tables
    under ("kernel", L, spin), any other is built per call, one chunk alive at a time.
    """
    real = x.view(float).reshape(L, L, -1)
    out = np.zeros(real.shape)  # not zeros_like, which touches every page: the forward writes only the rows l >= l0
    chunks = _chunks(L, 8 * L * L, _KERNEL_CHUNK_BYTES)
    for mu in chunks:
        if len(chunks) == 1:
            K = tables._keep(("kernel", L, spin), lambda: _kernel(tables, spin, L, 0, L))
        else:
            K = _kernel(tables, spin, L, mu.start, mu.stop)
        l0 = L - K.shape[1]
        if adjoint:
            np.matmul(K.transpose(0, 2, 1), real[mu, l0:], out=out[mu])
        else:
            np.matmul(K, real[mu], out=out[mu, l0:])
        del K  # or the chunk stays alive while the next one is built
    return out.view(complex).reshape(x.shape)


def _forward_block(samples, maps, spin, L, tables, config, out):
    """Write the coefficients of the maps samples[maps] of one spin into the rows out[maps]."""
    c = L - 1
    reduced = config.symmetry_path == "reduced"
    # x[|m|, m', 0] = I[m', m] for m >= 0; x[|m|, m', 1] = (-1)^m' I[m', m] for m <= 0
    x = np.empty((L, L, 2, len(maps)), dtype=complex)
    chunks = _chunks(len(maps), 64 * L * L, _MAP_CHUNK_BYTES)
    for chunk in chunks:
        I = _analysis(samples[maps[chunk]], spin, L, config.fourier_backend, reduced)
        if not reduced:
            I = _fold(I, _signs(np.arange(-c, L) + spin))
        x[:, :, 0, chunk] = I[:, :, c:].transpose(2, 1, 0)
        x[:, :, 1, chunk] = _signs(np.arange(L))[:, None] * I[:, :, c::-1].transpose(2, 1, 0)
    y = _per_order(x, spin, L, tables, adjoint=False).reshape(2 * L * L, len(maps))
    rows, phases = _flat_orders(L, spin)
    for chunk in chunks:
        out[maps[chunk]] = (y[rows, chunk] * phases.conj()[:, None]).T


def g_matrix(coeffs: SpinCoefficients, tables: WignerTables) -> np.ndarray:
    """The synthesis G matrix, shape (batch, channels, 2L-1, 2L-1).

    Satisfies G_{m',m} = (-1)^(m+s) G_{-m',m} exactly: the rows m' >= 0 are
    computed and unfolded.
    """
    L = coeffs.band_limit
    _check_tables(L, tables)
    out = np.zeros(coeffs.coeffs.shape[:2] + (2 * L - 1, 2 * L - 1), dtype=complex)
    flat = out.reshape((-1,) + out.shape[2:])
    for spin, maps, G in _g_rows(coeffs, tables):
        flat[maps] = _unfold(G, spin)
    return out


def _g_rows(coeffs, tables):
    """(spin, flat indices of a chunk of its maps, G_{m',m} of those maps on the rows m' >= 0, (k, L, 2L-1))
    for every spin and chunk of maps; the per-order product is made once for all of a spin's maps."""
    L = coeffs.band_limit
    c = L - 1
    flat = coeffs.coeffs.reshape(-1, L * L)
    for spin, maps in _spin_maps(coeffs.spins, coeffs.batch):
        rows, phases = _flat_orders(L, spin)
        x = np.zeros((2 * L * L, len(maps)), dtype=complex)
        x[rows] = (flat[maps] * phases).T
        y = _per_order(x.reshape(L, L, 2, len(maps)), spin, L, tables, adjoint=True)
        del x
        for chunk in _chunks(len(maps), 64 * L * L, _MAP_CHUNK_BYTES):
            G = np.empty((len(maps[chunk]), L, 2 * L - 1), dtype=complex)
            G[:, :, c:] = y[:, :, 0, chunk].transpose(2, 1, 0)
            G[:, :, :c] = (_signs(np.arange(L))[:, None] * y[:0:-1, :, 1, chunk]).transpose(2, 1, 0)  # (-1)^m'
            yield spin, maps[chunk], G
        del y  # before the next spin's product


def inverse(coeffs: SpinCoefficients, tables: WignerTables, config: TransformConfig = DEFAULT_CONFIG) -> SpinSignal:
    """Inverse transform, synthesizing samples on the implied n = 2L grid."""
    L = coeffs.band_limit
    _check_tables(L, tables)
    grid = coeffs.grid()
    out = np.empty(coeffs.coeffs.shape[:2] + (grid.n, grid.n), dtype=complex)
    flat = out.reshape((-1, grid.n, grid.n))
    reduced = config.symmetry_path == "reduced"
    for spin, maps, G in _g_rows(coeffs, tables):
        flat[maps] = _synthesis(G if reduced else _unfold(G, spin), spin, L, config.fourier_backend, reduced)
    return SpinSignal(out, coeffs.spins.copy(), grid)
