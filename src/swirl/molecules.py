"""Molecule-to-sphere featurization.

Each atom gets one sphere; the channel for atom type z and power p holds
the inverse-power pair interaction summed over atoms of that type,
spread over directions by a Gaussian in geodesic angle:

    f(x) = sum_{j != i, z_j = z} (z_i z_j / |r_ij|^p) exp(-angle(x, r_ij)^2 / (2 sigma^2))

sigma is calibrated so the kernel drops by a chosen fraction at a chosen
angle (default: 95% at 45 degrees).  Features are real spin-0 fields,
translation-invariant, and rotate with the molecule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import SphericalGrid, spherical_mean

_SYMBOLS = (
    "H He Li Be B C N O F Ne Na Mg Al Si P S Cl Ar K Ca Sc Ti V Cr Mn Fe Co Ni Cu Zn "
    "Ga Ge As Se Br Kr Rb Sr Y Zr Nb Mo Tc Ru Rh Pd Ag Cd In Sn Sb Te I Xe Cs Ba La "
    "Ce Pr Nd Pm Sm Eu Gd Tb Dy Ho Er Tm Yb Lu Hf Ta W Re Os Ir Pt Au Hg Tl Pb Bi Po "
    "At Rn Fr Ra Ac Th Pa U Np Pu Am Cm Bk Cf Es Fm Md No Lr Rf Db Sg Bh Hs Mt Ds Rg "
    "Cn Nh Fl Mc Lv Ts Og"
).split()

SYMBOL_TO_NUMBER = {s: i + 1 for i, s in enumerate(_SYMBOLS)}
NUMBER_TO_SYMBOL = {i + 1: s for i, s in enumerate(_SYMBOLS)}


class XYZParseError(ValueError):
    """Malformed XYZ input; the message carries a 1-based line number."""


@dataclass(frozen=True)
class Molecule:
    atomic_numbers: np.ndarray
    positions: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        z = np.asarray(self.atomic_numbers, dtype=int)
        pos = np.asarray(self.positions, dtype=float)
        object.__setattr__(self, "atomic_numbers", z)
        object.__setattr__(self, "positions", pos)
        if z.ndim != 1 or len(z) < 1:
            raise ValueError("a molecule needs at least one atom")
        if np.any(z < 1):
            raise ValueError(f"atomic numbers must be positive, got {z}")
        if pos.shape != (len(z), 3) or not np.all(np.isfinite(pos)):
            raise ValueError(f"positions must be a finite ({len(z)}, 3) array")
        if len(z) > 1:
            diff = pos[:, None, :] - pos[None, :, :]
            dist = np.linalg.norm(diff, axis=-1)
            np.fill_diagonal(dist, np.inf)
            if dist.min() == 0.0:
                i, j = np.unravel_index(np.argmin(dist), dist.shape)
                raise ValueError(f"atoms {i} and {j} are at identical positions")

    @property
    def atom_count(self) -> int:
        return len(self.atomic_numbers)


def _parse_block(lines, start: int):
    """Parse one XYZ block starting at line index start; returns (Molecule, next_start)."""
    if start >= len(lines):
        raise XYZParseError(f"line {start + 1}: expected an atom-count line, found end of input")
    count_line = lines[start].strip()
    try:
        count = int(count_line)
    except ValueError:
        raise XYZParseError(f"line {start + 1}: malformed atom count {count_line!r}") from None
    if count < 1:
        raise XYZParseError(f"line {start + 1}: atom count must be positive, got {count}")
    if start + 1 >= len(lines):
        raise XYZParseError(f"line {start + 2}: missing comment line")
    comment = lines[start + 1].rstrip("\n")
    numbers = []
    coords = []
    for k in range(count):
        ln = start + 2 + k
        if ln >= len(lines) or not lines[ln].strip():
            raise XYZParseError(
                f"line {ln + 1}: expected {count} atom lines, found only {k}"
            )
        parts = lines[ln].split()
        if len(parts) < 4:
            raise XYZParseError(f"line {ln + 1}: expected 'symbol x y z', got {lines[ln].rstrip()!r}")
        symbol = parts[0]
        if symbol not in SYMBOL_TO_NUMBER:
            raise XYZParseError(f"line {ln + 1}: unknown element {symbol!r}")
        try:
            xyz = [float(p.replace("*^", "e")) for p in parts[1:4]]
        except ValueError:
            raise XYZParseError(f"line {ln + 1}: non-numeric coordinate in {parts[1:4]!r}") from None
        numbers.append(SYMBOL_TO_NUMBER[symbol])
        coords.append(xyz)
    mol = Molecule(np.array(numbers), np.array(coords), metadata={"comment": comment})
    return mol, start + 2 + count


def parse_xyz_many(text: str) -> list[Molecule]:
    """Parse concatenated XYZ blocks (blank lines between blocks are allowed)."""
    lines = text.splitlines()
    molecules = []
    pos = 0
    while pos < len(lines):
        if not lines[pos].strip():
            pos += 1
            continue
        mol, pos = _parse_block(lines, pos)
        molecules.append(mol)
    if not molecules:
        raise XYZParseError("line 1: empty XYZ input")
    return molecules


def parse_xyz(text: str) -> Molecule:
    """Parse a single-molecule XYZ string."""
    molecules = parse_xyz_many(text)
    if len(molecules) != 1:
        raise XYZParseError(f"expected a single molecule, found {len(molecules)} blocks")
    return molecules[0]


def calibrate_spread(reduction: float, angle: float) -> float:
    """Width sigma of g(theta) = exp(-theta^2/(2 sigma^2)) with g(angle) = 1 - reduction."""
    if not 0.0 < reduction < 1.0:
        raise ValueError(f"reduction must be in (0, 1), got {reduction}")
    if not 0.0 < angle < np.pi:
        raise ValueError(f"angle must be in (0, pi), got {angle}")
    return angle / math.sqrt(-2.0 * math.log(1.0 - reduction))


DEFAULT_SPREAD = calibrate_spread(0.95, np.pi / 4)
DEFAULT_POWERS = (2, 6)


@dataclass(frozen=True)
class MoleculeFeatures:
    """Per-atom spherical channels: values has shape (atoms, P*Z, n, n), real.

    Channel ordering is power-major: channel index = p_idx * Z + z_idx.
    """

    values: np.ndarray
    vocabulary: tuple
    powers: tuple
    sigma: float
    grid: SphericalGrid

    @property
    def atom_count(self) -> int:
        return self.values.shape[0]

    @property
    def channels(self) -> int:
        return self.values.shape[1]


def featurize(
    mol: Molecule,
    vocabulary,
    grid: SphericalGrid,
    powers=DEFAULT_POWERS,
    sigma: float | None = None,
) -> MoleculeFeatures:
    """Spherical features of a molecule: one sphere per atom, P*Z channels each."""
    vocabulary = tuple(int(z) for z in vocabulary)
    powers = tuple(powers)
    if not powers:
        raise ValueError("powers must be nonempty")
    sigma = DEFAULT_SPREAD if sigma is None else float(sigma)
    if not 0.0 < sigma < math.inf:
        raise ValueError(f"sigma must be finite and positive, got {sigma}")
    z_index = {z: i for i, z in enumerate(vocabulary)}
    repeated = sorted({z for z in vocabulary if vocabulary.count(z) > 1})
    if repeated:
        raise ValueError(f"vocabulary repeats {', '.join(NUMBER_TO_SYMBOL.get(z, str(z)) for z in repeated)}")
    unknown = set(int(z) for z in mol.atomic_numbers) - set(vocabulary)
    if unknown:
        names = ", ".join(NUMBER_TO_SYMBOL.get(z, str(z)) for z in sorted(unknown))
        raise ValueError(f"atom types not in vocabulary: {names}")

    Z, P = len(vocabulary), len(powers)
    dirs = grid.unit_vectors().reshape(-1, 3)
    types = mol.atomic_numbers
    columns = np.array([z_index[int(z)] for z in types])
    values = np.empty((mol.atom_count, P * Z, grid.n * grid.n))
    for i, zi in enumerate(types):
        others = np.delete(np.arange(mol.atom_count), i)
        r = mol.positions[others] - mol.positions[i]
        # Sum the other atoms in a canonical order (by type, then by
        # displacement) so the result is bitwise invariant under permutations
        # of same-type atoms.
        order = np.lexsort((r[:, 2], r[:, 1], r[:, 0], types[others]))
        others, r = others[order], r[order]
        dist = np.linalg.norm(r, axis=1)
        angle = np.arccos(np.clip(r / dist[:, None] @ dirs.T, -1.0, 1.0))
        kernel = np.exp(-(angle**2) / (2.0 * sigma**2))  # (atoms - 1, n^2)
        weights = np.zeros((len(others), P, Z))
        weights[np.arange(len(others)), :, columns[others]] = (zi * types[others])[:, None] / dist[:, None] ** powers
        values[i] = weights.reshape(-1, P * Z).T @ kernel
    return MoleculeFeatures(values.reshape(-1, P * Z, grid.n, grid.n), vocabulary, powers, sigma, grid)


def pooled_descriptor(features: MoleculeFeatures) -> np.ndarray:
    """Quadrature-weighted spherical mean of every channel, shape (atoms, P*Z)."""
    return spherical_mean(features.values, features.grid).real
