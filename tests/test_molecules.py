import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from swirl.equivariance import rotate_coefficients
from swirl.grid import make_grid
from swirl.molecules import (
    DEFAULT_SPREAD,
    Molecule,
    XYZParseError,
    calibrate_spread,
    featurize,
    parse_xyz,
    parse_xyz_many,
    pooled_descriptor,
)
from swirl.signal import SpinSignal
from swirl.transforms import forward
from swirl.wigner import Rotation, compute_delta


# --- parsing ----------------------------------------------------------------


def test_parse_water(water_xyz):
    mol = parse_xyz(water_xyz)
    np.testing.assert_array_equal(mol.atomic_numbers, [8, 1, 1])
    assert mol.positions.shape == (3, 3)
    assert mol.metadata["comment"] == "water molecule"


def test_parse_count_shortfall():
    bad = "5\ncomment\nH 0 0 0\nH 1 0 0\nH 2 0 0\nH 3 0 0\n"
    with pytest.raises(XYZParseError, match="expected 5 atom lines, found only 4"):
        parse_xyz(bad)


def test_parse_unknown_element():
    bad = "1\ncomment\nXx 0 0 0\n"
    with pytest.raises(XYZParseError, match="line 3.*unknown element 'Xx'"):
        parse_xyz(bad)


def test_parse_bad_coordinate():
    bad = "1\ncomment\nH 0 zero 0\n"
    with pytest.raises(XYZParseError, match="line 3.*non-numeric"):
        parse_xyz(bad)


def test_parse_bad_count_line():
    with pytest.raises(XYZParseError, match="line 1"):
        parse_xyz("three\ncomment\nH 0 0 0\n")


def test_parse_multi_molecule(water_xyz):
    text = water_xyz + "2\nhydrogen\nH 0 0 0\nH 0 0 0.74\n"
    mols = parse_xyz_many(text)
    assert len(mols) == 2
    np.testing.assert_array_equal(mols[1].atomic_numbers, [1, 1])
    with pytest.raises(XYZParseError, match="single molecule"):
        parse_xyz(text)


_XYZ_LINES = st.lists(
    st.sampled_from(["", "1", "2", "3", "0", "-1", "99999999999", "x", "comment", "H 0 0 0", "O 0 0 1.5e0",
                     "H 0 0 0.74*^0", "H 0 0", "Xx 0 0 0", "H nan 0 0", "H inf 0 0", "H 1e400 0 0", "  "])
    | st.text(max_size=12),
    max_size=10,
)


@given(st.one_of(_XYZ_LINES.map("\n".join), st.text(max_size=40)))
def test_parse_xyz_many_fuzzed(text):
    # any text either parses into valid molecules or raises XYZParseError/ValueError
    try:
        molecules = parse_xyz_many(text)
    except ValueError:
        return
    assert molecules and all(np.all(np.isfinite(mol.positions)) for mol in molecules)


def test_parse_scientific_notation_variants():
    mol = parse_xyz("1\nqm9 style\nC 1.0*^-2 -2e-1 3.5\n")
    np.testing.assert_allclose(mol.positions[0], [0.01, -0.2, 3.5])


def test_molecule_validation():
    with pytest.raises(ValueError, match="identical positions"):
        Molecule(np.array([1, 1]), np.zeros((2, 3)))
    with pytest.raises(ValueError, match="at least one atom"):
        Molecule(np.array([], dtype=int), np.zeros((0, 3)))


# --- spread calibration -----------------------------------------------------


def test_calibrate_spread_default():
    sigma = calibrate_spread(0.95, np.pi / 4)
    assert sigma == pytest.approx(0.3208657666524268, abs=1e-15)
    assert np.degrees(sigma) == pytest.approx(18.385, abs=1e-3)
    assert DEFAULT_SPREAD == sigma


def test_calibrate_spread_kernel_values():
    sigma = calibrate_spread(0.95, np.pi / 4)
    g = lambda t: np.exp(-(t**2) / (2 * sigma**2))
    assert g(0.0) == 1.0
    assert g(np.pi / 4) == pytest.approx(0.05, abs=1e-12)


def test_calibrate_spread_monotone_in_reduction():
    # weaker reduction -> wider kernel
    sigmas = [calibrate_spread(r, np.pi / 4) for r in (0.99, 0.95, 0.5, 0.1, 1e-6)]
    assert all(a < b for a, b in zip(sigmas, sigmas[1:]))


def test_calibrate_spread_validation():
    with pytest.raises(ValueError):
        calibrate_spread(0.0, np.pi / 4)
    with pytest.raises(ValueError):
        calibrate_spread(0.95, 0.0)


# --- featurization ----------------------------------------------------------


def test_single_atom_features_are_zero():
    grid = make_grid(16)
    mol = Molecule(np.array([6]), np.zeros((1, 3)))
    feats = featurize(mol, (1, 6), grid)
    assert feats.values.shape == (1, 4, 16, 16)
    assert np.abs(feats.values).max() == 0.0
    assert np.abs(pooled_descriptor(feats)).max() == 0.0


def test_water_channel_structure(water_xyz):
    grid = make_grid(32)
    feats = featurize(parse_xyz(water_xyz), (1, 8), grid)
    assert feats.atom_count == 3
    assert feats.channels == 4  # Z=2 types x P=2 powers
    assert feats.values.shape == (3, 4, 32, 32)
    # total feature maps = 2*N*Z
    assert feats.values.shape[0] * feats.values.shape[1] == 12


def test_oxygen_hydrogen_channel_peaks_along_bonds(water_xyz):
    grid = make_grid(32)
    mol = parse_xyz(water_xyz)
    feats = featurize(mol, (1, 8), grid)
    # oxygen sphere, hydrogen channel, p=2: peak direction is the grid point
    # closest to one of the O->H displacements
    channel = feats.values[0, 0]
    j, k = np.unravel_index(np.argmax(channel), channel.shape)
    peak_dir = grid.unit_vectors()[j, k]
    bonds = mol.positions[1:] - mol.positions[0]
    bonds /= np.linalg.norm(bonds, axis=1, keepdims=True)
    assert max(peak_dir @ b for b in bonds) > 0.99


def test_diatomic_calibrated_values():
    # Unit charges at unit distance, p=2: feature is exactly the angular
    # kernel, so it is 1 at the bond direction and 0.05 at 45 degrees.
    n = 32
    grid = make_grid(n)
    j0, k0 = 4, 7
    direction = grid.unit_vectors()[j0, k0]
    mol = Molecule(np.array([1, 1]), np.stack([np.zeros(3), direction]))
    feats = featurize(mol, (1,), grid, powers=(2,))
    channel = feats.values[0, 0]
    assert channel[j0, k0] == pytest.approx(1.0, abs=1e-12)
    # 45 degrees away along the same meridian: 8 colatitude rows at n=32
    assert channel[j0 + 8, k0] == pytest.approx(0.05, abs=1e-12)


def test_featurize_matches_per_pair_sum():
    # The module formula written out pair by pair, with types listed out of
    # vocabulary order and two powers, pins each kernel to its channel.
    grid = make_grid(8)
    z = np.array([6, 1, 8, 1, 6])
    pos = np.array([[0.1, 0.2, -0.3], [1.0, 0.4, 0.2], [-0.7, 0.9, 0.5], [0.3, -1.1, 0.8], [-0.2, -0.4, -1.3]])
    vocabulary, powers, sigma = (8, 1, 6), (1, 3), 0.4
    want = np.zeros((len(z), len(powers) * len(vocabulary), grid.n, grid.n))
    for i in range(len(z)):
        for j in range(len(z)):
            if j != i:
                r = pos[j] - pos[i]
                angle = np.arccos(np.clip(grid.unit_vectors() @ (r / np.linalg.norm(r)), -1.0, 1.0))
                for pi, p in enumerate(powers):
                    channel = pi * len(vocabulary) + vocabulary.index(z[j])
                    want[i, channel] += z[i] * z[j] / np.linalg.norm(r) ** p * np.exp(-(angle**2) / (2 * sigma**2))
    got = featurize(Molecule(z, pos), vocabulary, grid, powers, sigma).values
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


def test_featurize_unknown_type_rejected(water_xyz):
    with pytest.raises(ValueError, match="not in vocabulary"):
        featurize(parse_xyz(water_xyz), (1,), make_grid(8))


def test_featurize_repeated_vocabulary_rejected(water_xyz):
    # a repeated type would leave its first channel all zeros
    with pytest.raises(ValueError, match="vocabulary repeats H$"):
        featurize(parse_xyz(water_xyz), (1, 1, 8), make_grid(8))


@pytest.mark.parametrize("sigma", [float("nan"), 0.0, -0.5, float("inf")])
def test_featurize_rejects_a_sigma_that_is_not_finite_and_positive(water_xyz, sigma):
    with pytest.raises(ValueError, match=f"sigma must be finite and positive, got {sigma}"):
        featurize(parse_xyz(water_xyz), (1, 8), make_grid(8), sigma=sigma)


def test_featurize_empty_powers_rejected(water_xyz):
    with pytest.raises(ValueError, match="powers"):
        featurize(parse_xyz(water_xyz), (1, 8), make_grid(8), powers=())


def test_translation_invariance_exact():
    # binary-representable coordinates + integer shift: displacements are
    # bitwise identical, so the features must be too
    grid = make_grid(16)
    pos = np.array([[0.0, 0.0, 0.0], [0.75, 0.5, -0.25], [-0.5, 0.625, 0.375]])
    mol = Molecule(np.array([8, 1, 1]), pos)
    shifted = Molecule(np.array([8, 1, 1]), pos + np.array([1.0, -2.0, 3.0]))
    a = featurize(mol, (1, 8), grid)
    b = featurize(shifted, (1, 8), grid)
    np.testing.assert_array_equal(a.values, b.values)


def test_permutation_invariance_exact():
    grid = make_grid(16)
    pos = np.array(
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    )
    z = np.array([8, 1, 1, 1])
    perm = np.array([0, 3, 1, 2])  # cycle the three hydrogens
    a = featurize(Molecule(z, pos), (1, 8), grid)
    b = featurize(Molecule(z[perm], pos[perm]), (1, 8), grid)
    # atom i of the permuted molecule is original atom perm[i]
    np.testing.assert_array_equal(b.values, a.values[perm])


def test_rotation_equivariance_spectral(rng):
    n = 32
    grid = make_grid(n)
    L = grid.band_limit
    tables = compute_delta(L)
    pos = rng.normal(size=(4, 3)) * 1.4
    z = np.array([8, 1, 6, 1])
    mol = Molecule(z, pos)
    rot = Rotation.random(rng)
    rotated = Molecule(z, pos @ rot.matrix().T)
    feats = featurize(mol, (1, 6, 8), grid)
    feats_rot = featurize(rotated, (1, 6, 8), grid)
    spins = np.zeros(feats.channels, dtype=int)
    co = forward(SpinSignal(feats.values.astype(complex), spins, grid), tables)
    lhs = rotate_coefficients(co, rot, tables).coeffs
    rhs = forward(SpinSignal(feats_rot.values.astype(complex), spins, grid), tables).coeffs
    assert np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs) < 1e-6


def test_pooled_descriptor_invariance(rng):
    grid = make_grid(32)
    pos = rng.normal(size=(5, 3)) * 1.5
    z = np.array([8, 1, 1, 8, 1])
    rot = Rotation.random(rng)
    d1 = pooled_descriptor(featurize(Molecule(z, pos), (1, 8), grid))
    d2 = pooled_descriptor(featurize(Molecule(z, pos @ rot.matrix().T), (1, 8), grid))
    assert np.abs(d1 - d2).max() / np.abs(d1).max() < 1e-6


def test_pooled_descriptor_constant_channel():
    # A constant channel pools to that constant.
    grid = make_grid(8)
    mol = Molecule(np.array([1, 1]), np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))
    feats = featurize(mol, (1,), grid, powers=(2,))
    doctored = feats.values.copy()
    doctored[:] = 3.25
    from swirl.molecules import MoleculeFeatures

    const = MoleculeFeatures(doctored, feats.vocabulary, feats.powers, feats.sigma, grid)
    np.testing.assert_allclose(pooled_descriptor(const), 3.25, atol=1e-12)
