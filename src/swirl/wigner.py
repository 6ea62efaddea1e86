"""Wigner d and D matrices.

The transform core only needs the d matrices at beta = pi/2 (the Delta
tables).  They are built by a three-term recursion over degree with
closed-form border rows, then completed by the exact index symmetries so
that every symmetry relation holds bitwise in the stored tables.
Generic-angle d matrices come from the Fourier-series identity

    d^l_{a,b}(beta) = i^(a-b) * sum_c Delta^l_{c,a} e^{-i c beta} Delta^l_{c,b}

so a rotation matrix factors through the Delta table of its degree:

    D^l(R) = diag(i^a e^{-i a alpha}) Delta^T diag(e^{-i c beta}) Delta diag(i^-b e^{-i b gamma})

Rotations apply this product one factor at a time to the coefficients,
reading the tables they are given; ``wigner_D`` and ``wigner_d`` are the
same product applied to the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammaln

MAX_BAND_LIMIT = 2048


@dataclass(frozen=True)
class WignerTables:
    """Delta matrices d^l(pi/2) for all degrees l < band_limit."""

    band_limit: int
    delta: tuple

    def __getitem__(self, degree: int) -> np.ndarray:
        return self.delta[degree]


def _border_row(l: int) -> np.ndarray:
    # d^l_{l,b}(pi/2) = (-1)^(l-b) 2^-l sqrt((2l)! / ((l+b)!(l-b)!))
    b = np.arange(-l, l + 1)
    logmag = -l * np.log(2.0) + 0.5 * (gammaln(2 * l + 1) - gammaln(l + b + 1) - gammaln(l - b + 1))
    sign = np.where((l - b) % 2 == 0, 1.0, -1.0)
    return sign * np.exp(logmag)


def _fill_symmetries(D: np.ndarray, l: int) -> np.ndarray:
    # Overwrite everything outside the wedge i >= |j| from wedge entries,
    # making d_{-i,j} = (-1)^(l-j) d_{i,j} and d_{i,j} = (-1)^(i-j) d_{j,i}
    # exact in the stored table.
    idx = np.arange(-l, l + 1)
    ii, jj = np.meshgrid(idx, idx, indexing="ij")
    sign_flip = np.where((l - jj) % 2 == 0, 1.0, -1.0)
    mask_neg = (ii < 0) & (np.abs(ii) >= np.abs(jj))
    D = np.where(mask_neg, sign_flip * D[::-1, :], D)
    sign_t = np.where((ii - jj) % 2 == 0, 1.0, -1.0)
    mask_t = np.abs(jj) > np.abs(ii)
    D = np.where(mask_t, sign_t * D.T, D)
    return D


def _next_delta(l: int, prev: np.ndarray, prev2: np.ndarray) -> np.ndarray:
    # Three-term recursion in degree, specialized to beta = pi/2:
    # (l-1) sqrt((l^2-i^2)(l^2-j^2)) d^l = -(2l-1) i j d^(l-1)
    #                                      - l sqrt(((l-1)^2-i^2)((l-1)^2-j^2)) d^(l-2)
    size = 2 * l + 1
    D = np.zeros((size, size))
    i = np.arange(-(l - 1), l)
    ii, jj = np.meshgrid(i, i, indexing="ij")
    denom = (l - 1) * np.sqrt((l * l - ii**2) * (l * l - jj**2)).astype(float)
    p2 = np.zeros_like(prev)
    if prev2.shape[0] > 0:
        p2[1:-1, 1:-1] = prev2
    t1 = -(2 * l - 1) * ii * jj * prev
    t2 = -l * np.sqrt(((l - 1) ** 2 - ii**2).clip(min=0) * ((l - 1) ** 2 - jj**2).clip(min=0)) * p2
    D[1:-1, 1:-1] = (t1 + t2) / denom
    D[2 * l, :] = _border_row(l)
    return _fill_symmetries(D, l)


@lru_cache(maxsize=8)
def compute_delta(band_limit: int) -> WignerTables:
    """Delta tables for all degrees below band_limit (cached per band limit)."""
    if band_limit < 1:
        raise ValueError(f"band limit must be >= 1, got {band_limit}")
    if band_limit > MAX_BAND_LIMIT:
        raise ValueError(
            f"band limit {band_limit} exceeds the supported maximum {MAX_BAND_LIMIT} "
            "for the double-precision recursion"
        )
    deltas = [np.array([[1.0]])]
    if band_limit > 1:
        d1 = np.zeros((3, 3))
        d1[2, :] = _border_row(1)
        deltas.append(_fill_symmetries(d1, 1))
    for l in range(2, band_limit):
        deltas.append(_next_delta(l, deltas[l - 1], deltas[l - 2]))
    for d in deltas:
        d.flags.writeable = False
    return WignerTables(band_limit=band_limit, delta=tuple(deltas))


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
    def identity() -> "Rotation":
        return Rotation(0.0, 0.0, 0.0)

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


def _rotate_degree(delta: np.ndarray, rot: Rotation, x: np.ndarray) -> np.ndarray:
    """Apply D^l(rot) along the last axis of x, given the degree-l Delta table."""
    m = np.arange(delta.shape[0]) - delta.shape[0] // 2
    x = x * (_I_POW[-m % 4] * np.exp(-1j * m * rot.gamma))
    x = (x @ delta.T) * np.exp(-1j * m * rot.beta)
    return (x @ delta) * (_I_POW[m % 4] * np.exp(-1j * m * rot.alpha))


def wigner_D(degree: int, rot: Rotation) -> np.ndarray:
    """Wigner D matrix D^l_{m,m'} = e^{-i m alpha} d^l_{m,m'}(beta) e^{-i m' gamma}."""
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    return _rotate_degree(compute_delta(degree + 1)[degree], rot, np.eye(2 * degree + 1)).T


def wigner_d(degree: int, beta: float) -> np.ndarray:
    """Wigner small-d matrix d^l(beta), shape (2l+1, 2l+1), real orthogonal."""
    return wigner_D(degree, Rotation(0.0, beta, 0.0)).real
