"""Wigner d and D matrices.

The transform core only needs the d matrices at beta = pi/2 (the Delta
tables).  They are stored as one quadrant per degree, Delta^l_{m,m'} for
0 <= m, m' <= l, built by a three-term recursion over degree with border
rows from running products, so no special function is evaluated.  Full
tables unfold from the quadrant by the index symmetries, so every symmetry
relation holds bitwise in what callers read.  Generic-angle d matrices
come from the Fourier-series identity

    d^l_{a,b}(beta) = i^(a-b) * sum_c Delta^l_{c,a} e^{-i c beta} Delta^l_{c,b}

so a rotation matrix factors through the Delta table of its degree:

    D^l(R) = diag(i^a e^{-i a alpha}) Delta^T diag(e^{-i c beta}) Delta diag(i^-b e^{-i b gamma})

Rotations multiply the gamma and alpha phases into all coefficients at once
and apply Delta^T diag(e^{-i c beta}) Delta per degree, in real arithmetic on
the real and imaginary parts, with the unfolded tables of each degree kept on
the tables they are given; ``wigner_D`` and ``wigner_d`` are the same product
applied to the identity.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .signal import _integers

MAX_BAND_LIMIT = 2048


def host_memory() -> int:
    """Bytes of physical memory, the bound that table and feature footprints are checked against."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _signs(k) -> np.ndarray:
    # (-1)^k, elementwise
    return np.where(np.asarray(k) % 2 == 0, 1.0, -1.0)


@dataclass(frozen=True)
class WignerTables:
    """Delta matrices d^l(pi/2) for all degrees l < band_limit.

    delta[m, l, m'] = Delta^l_{m,m'} for 0 <= m, m' <= l and zero elsewhere, one
    read-only real (L, L, L) array; tables[l] is the full (2l+1) x (2l+1) table of degree l.

    What the tables fix is built on first use, read-only, and kept in one memo, _keep: under
    ("unfold", l) each tables[l] read (all of them take about 4/3 of delta), and under
    ("kernel", L, spin) the kernel of each (L, spin) transformed at L <= 80, where it fits one
    chunk (transforms._kernel_chunks), so at most 8 L^2 (L - |spin|) bytes (<= 4 MiB) each.
    """

    band_limit: int
    delta: np.ndarray
    _kept: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        want = (self.band_limit,) * 3
        if not isinstance(self.delta, np.ndarray) or self.delta.dtype.kind != "f" or self.delta.shape != want:
            got = f"{np.shape(self.delta)} {np.asarray(self.delta).dtype}"
            raise ValueError(f"delta must be a real array of shape {want} for band limit {self.band_limit}, got {got}")

    def __getitem__(self, degree: int) -> np.ndarray:
        full = self._kept.get(("unfold", degree))
        return full if full is not None else self._keep(("unfold", degree), lambda: self._unfold(degree))

    def _keep(self, key, build) -> np.ndarray:
        """The array kept under key, built by build() and made read-only on first use."""
        kept = self._kept.get(key)
        if kept is None:  # two threads may both build it; either result is the same array
            kept = build()
            kept.flags.writeable = False
            self._kept[key] = kept
        return kept

    def _unfold(self, degree: int) -> np.ndarray:
        if not 0 <= degree < self.band_limit:
            raise IndexError(f"degree {degree} is outside the tables' degrees 0 .. {self.band_limit - 1}")
        # Delta_{i,-j} = (-1)^(l+i) Delta_{i,j}, then Delta_{-i,j} = (-1)^(l-j) Delta_{i,j}: alt[l+i] and alt[l+j]
        alt = _signs(np.arange(2 * degree + 1))
        q = self.delta[: degree + 1, degree, : degree + 1]
        top = np.concatenate([alt[degree:, None] * q[:, :0:-1], q], axis=1)
        return np.concatenate([alt * top[:0:-1], top])


@lru_cache(maxsize=8)
def compute_delta(band_limit: int) -> WignerTables:
    """Delta tables for all degrees below band_limit (cached per band limit)."""
    return _build_delta(band_limit)


def _build_delta(band_limit: int) -> WignerTables:
    """Delta tables for all degrees below band_limit, uncached.

    The quadrant of degree l is its border row m = l and column m' = l,
    running products of closed-form ratios, around entries that a three-term
    recursion takes from degrees l-1 and l-2.  The 8 L^3 bytes are checked
    against host memory before they are allocated.
    """
    L = int(_integers(band_limit, "band limit"))
    if L < 1:
        raise ValueError(f"band limit must be >= 1, got {L}")
    if L > MAX_BAND_LIMIT:
        raise ValueError(f"band limit {L} exceeds the supported maximum {MAX_BAND_LIMIT} "
                         "for the double-precision recursion")
    if 8 * L**3 > (memory := host_memory()):
        raise MemoryError(f"Delta tables for band limit {L} need {8 * L**3 / 2**30:.1f} GiB, "
                          f"more than this host's {memory / 2**30:.1f} GiB of memory")
    delta = np.zeros((L, L, L))
    l, b = np.arange(L)[:, None], np.arange(L)
    # border[l, b] = Delta^l_{l,b} = (-1)^(l-b) 2^-l sqrt((2l)! / ((l+b)!(l-b)!)) for b <= l, from running products:
    # |Delta^l_{l,0}| = prod_{k<=l} sqrt((2k-1)/(2k)) and |Delta^l_{l,k}| = sqrt((l-k+1)/(l+k)) |Delta^l_{l,k-1}|
    k = np.arange(1, L)
    first = np.cumprod(np.r_[1.0, np.sqrt((2 * k - 1) / (2 * k))])
    ratio = np.sqrt(np.maximum(l - k + 1, 0) / (l + k))
    border = np.where(b <= l, _signs(l - b) * np.cumprod(np.hstack([first[:, None], ratio]), axis=1), 0.0)
    delta[b, b, :] = border  # row m = l
    delta[:, b, b] = border.T * _signs(l - b)  # column m' = l: Delta^l_{i,l} = (-1)^(i-l) Delta^l_{l,i}
    # (l-1) sqrt((l^2-i^2)(l^2-j^2)) d^l = -(2l-1) i j d^(l-1) - l sqrt(((l-1)^2-i^2)((l-1)^2-j^2)) d^(l-2)
    for l in range(2, L):
        i = np.arange(l)
        ii, jj = i[:, None], i[None, :]
        denom = (l - 1) * np.sqrt((l * l - ii**2) * (l * l - jj**2)).astype(float)
        t1 = -(2 * l - 1) * ii * jj * delta[:l, l - 1, :l]
        t2 = -l * np.sqrt(((l - 1) ** 2 - ii**2) * ((l - 1) ** 2 - jj**2)) * delta[:l, l - 2, :l]
        delta[:l, l, :l] = (t1 + t2) / denom
    delta.flags.writeable = False
    return WignerTables(band_limit=L, delta=delta)


_I_POW = np.array([1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j])


@dataclass(frozen=True)
class Rotation:
    """ZYZ Euler angles (alpha, beta, gamma) of an active 3D rotation."""

    alpha: float
    beta: float
    gamma: float

    def matrix(self) -> np.ndarray:
        """3x3 rotation matrix Rz(alpha) @ Ry(beta) @ Rz(gamma)."""
        return _rot_z(self.alpha) @ _rot_y(self.beta) @ _rot_z(self.gamma)

    def inverse(self) -> "Rotation":
        return Rotation(-self.gamma, -self.beta, -self.alpha)

    def compose(self, other: "Rotation") -> "Rotation":
        """The rotation 'self after other'."""
        return Rotation.from_matrix(self.matrix() @ other.matrix())

    @staticmethod
    def from_matrix(R: np.ndarray) -> "Rotation":
        sin_beta = np.hypot(R[0, 2], R[1, 2])
        beta = np.arctan2(sin_beta, R[2, 2])
        if sin_beta > 1e-12:
            alpha = np.arctan2(R[1, 2], R[0, 2])
            gamma = np.arctan2(R[2, 1], -R[2, 0])
        elif R[2, 2] > 0:
            alpha = np.arctan2(R[1, 0], R[0, 0])
            gamma = 0.0
        else:
            alpha = np.arctan2(-R[0, 1], R[1, 1])
            gamma = 0.0
        return Rotation(float(alpha), float(beta), float(gamma))

    @staticmethod
    def random(rng: np.random.Generator) -> "Rotation":
        """Uniform rotation via a uniform unit quaternion."""
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        w, x, y, z = q
        R = np.array(
            [
                [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
                [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
                [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
            ]
        )
        return Rotation.from_matrix(R)


def _rot_z(a: float) -> np.ndarray:
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _rot_y(b: float) -> np.ndarray:
    c, s = np.cos(b), np.sin(b)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def random_rotations(count: int, seed: int) -> list[Rotation]:
    rng = np.random.default_rng(seed)
    return [Rotation.random(rng) for _ in range(count)]


def _rotation_phases(band_limit: int, rot: Rotation) -> np.ndarray:
    """The factors i^-m e^{-i m gamma}, e^{-i m beta}, i^m e^{-i m alpha} of D^l(rot), rows of a
    (3, 2L-1) array over m = -(L-1) .. L-1; degree l reads the columns L-1-l .. L-1+l."""
    m = np.arange(1 - band_limit, band_limit)
    return np.exp(-1j * np.outer((rot.gamma, rot.beta, rot.alpha), m)) * _I_POW[[-m % 4, 0 * m, m % 4]]


def _rotate_degree(delta: np.ndarray, middle: np.ndarray, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = Delta^T diag(middle) Delta x for the degree-l Delta table, x and out C-contiguous complex (2l+1, k).

    The real table multiplies the real and imaginary parts of x as one real (2l+1, 2k) array;
    middle is the beta phase column of the degree, (2l+1, 1).
    """
    inner = (delta @ x.view(float)).view(complex)
    inner *= middle
    return np.matmul(delta.T, inner.view(float), out=out.view(float)).view(complex)


def wigner_D(degree: int, rot: Rotation) -> np.ndarray:
    """Wigner D matrix D^l_{m,m'} = e^{-i m alpha} d^l_{m,m'}(beta) e^{-i m' gamma}."""
    degree = int(_integers(degree, "degree"))
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    # a one-off table: Delta^l does not depend on the band limit, so caching it would only evict the transforms' tables
    delta = _build_delta(degree + 1)[degree]
    first, middle, last = _rotation_phases(degree + 1, rot)
    D = _rotate_degree(delta, middle[:, None], np.diag(first), np.empty((2 * degree + 1,) * 2, dtype=complex))
    return D * last[:, None]


def wigner_d(degree: int, beta: float) -> np.ndarray:
    """Wigner small-d matrix d^l(beta), shape (2l+1, 2l+1), real orthogonal."""
    return wigner_D(degree, Rotation(0.0, beta, 0.0)).real
