import dataclasses

import numpy as np
import pytest

from swirl import reference
from swirl.grid import (
    SphericalGrid,
    colatitude_weights,
    extend_samples,
    frequency_weights,
    make_grid,
    spherical_integral,
    spherical_mean,
    weight_matrix,
)
from swirl.transforms import inner_products


def test_make_grid_n2():
    grid = make_grid(2)
    np.testing.assert_allclose(grid.colatitudes, [np.pi / 4, 3 * np.pi / 4])
    np.testing.assert_allclose(grid.longitudes, [0.0, np.pi])
    assert grid.band_limit == 1


def test_make_grid_n4_first_colatitude():
    grid = make_grid(4)
    assert grid.colatitudes[0] == pytest.approx(np.pi / 8)


def test_make_grid_n64_pole_free():
    grid = make_grid(64)
    assert grid.band_limit == 32
    assert grid.colatitudes.max() == pytest.approx(127 * np.pi / 128)
    assert grid.colatitudes.max() < np.pi
    assert grid.colatitudes.min() > 0.0


@pytest.mark.parametrize("bad", [0, -2, 3, 7, 2.5])
def test_make_grid_rejects_bad_resolution(bad):
    # a grid checks its resolution by make_grid's rule, with make_grid's message
    with pytest.raises(ValueError, match="grid resolution") as built:
        make_grid(bad)
    with pytest.raises(ValueError, match="grid resolution") as direct:
        SphericalGrid(bad)
    assert str(direct.value) == str(built.value)


def test_grids_of_one_resolution_are_equal_and_hash_alike():
    assert make_grid(8) == make_grid(8) == make_grid(8.0) == SphericalGrid(8)
    assert hash(make_grid(8)) == hash(make_grid(8.0))
    assert make_grid(8) != make_grid(10)
    assert len({make_grid(8), make_grid(8), make_grid(10)}) == 2


def test_a_grid_is_its_resolution():
    # n is the only field; the band limit and the sample points derive from it, bit for bit make_grid's
    # formulas, so no grid can pair a resolution with other points or another band limit.
    assert [f.name for f in dataclasses.fields(SphericalGrid)] == ["n"]
    with pytest.raises(TypeError):
        SphericalGrid(8, np.zeros(3), np.zeros(5), 99)
    grid = SphericalGrid(8)
    j = np.arange(8)
    assert grid.band_limit == 4
    np.testing.assert_array_equal(grid.colatitudes, np.pi * (2 * j + 1) / (2 * 8))
    np.testing.assert_array_equal(grid.longitudes, 2 * np.pi * j / 8)
    grid.colatitudes[0] = grid.longitudes[0] = 5.0  # a read is the caller's own array
    assert grid.colatitudes[0] == np.pi / 16 and grid.longitudes[0] == 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        grid.n = 16


@pytest.mark.parametrize("shape", [(8, 16), (8, 4), (16, 8), (2, 8, 16), (8,)])
def test_spherical_integral_rejects_samples_off_the_grid(shape):
    # The row weights take any number of columns: unchecked, (8, 16) ones integrate to 8 pi and (8, 4) ones to 2 pi.
    grid = make_grid(8)
    for integral in (spherical_integral, spherical_mean):
        with pytest.raises(ValueError, match=r"the grid needs \(8, 8\)"):
            integral(np.ones(shape), grid)


def test_extension_constant_spin0():
    n = 8
    ext = extend_samples(np.ones((n, n), dtype=complex), 0, n)
    assert ext.shape == (2 * n, n)
    np.testing.assert_array_equal(ext, np.ones((2 * n, n)))


def test_extension_constant_array_spin1_parity():
    n = 8
    ext = extend_samples(np.ones((n, n), dtype=complex), 1, n)
    np.testing.assert_array_equal(ext[:n], np.ones((n, n)))
    np.testing.assert_array_equal(ext[n:], -np.ones((n, n)))


@pytest.mark.parametrize("spin", [0, 1, 2, -1])
def test_double_extension_identity(rng, spin):
    # Undoing the mirror/roll/parity on the appended rows recovers the input.
    n = 8
    samples = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    ext = extend_samples(samples, spin, n)
    undone = np.roll(ext[n:][::-1], -n // 2, axis=-1) * (-1.0) ** spin
    np.testing.assert_array_equal(undone, samples)


def test_extend_samples_rejects_a_size_mismatch(rng):
    samples = rng.normal(size=(1, 1, 8, 8)).astype(complex)
    with pytest.raises(ValueError, match="expected trailing sample shape"):
        extend_samples(samples, 0, 4)


@pytest.mark.parametrize("spin", [0, 1, 2, -1])
def test_extend_samples_mirrors_the_longitude_spectrum(rng, spin):
    # The longitude spectrum of the mirrored rows is the sphere's, back to front, times (-1)**(order + spin):
    # the half-turn roll gives (-1)**order and the spin parity the rest.
    n = 8
    samples = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    spectrum = np.fft.fft(extend_samples(samples, spin, n), axis=-1)
    order = np.arange(n)
    expected = (-1.0) ** (order + spin) * spectrum[:n][::-1]
    np.testing.assert_allclose(spectrum[n:], expected, atol=1e-10 * np.abs(spectrum).max())


def test_quadrature_weight_values():
    w = frequency_weights(8)
    k = np.arange(-6, 7)
    center = 6
    assert w[center] == 2.0
    assert w[center + 1] == 1j * np.pi / 2
    assert w[center - 1] == -1j * np.pi / 2
    assert w[center + 3] == 0.0
    assert w[center + 2] == pytest.approx(2.0 / (1 - 4))
    assert len(w) == len(k)


def test_integral_of_one_is_sphere_area():
    grid = make_grid(8)
    value = spherical_integral(np.ones((8, 8)), grid)
    assert value == pytest.approx(4 * np.pi, abs=1e-12)


def test_integral_of_y10_vanishives():
    grid = make_grid(8)
    th, ph = grid.colatitudes[:, None], grid.longitudes[None, :]
    y = reference.spin_harmonic(0, 1, 0, th, ph)
    assert abs(spherical_integral(y.real, grid)) < 1e-12


def test_integral_of_y10_squared_is_one():
    # Orthonormality through the weighted pipeline, cross-checked against
    # dense Gauss-Legendre quadrature.
    grid = make_grid(8)
    th, ph = grid.colatitudes[:, None], grid.longitudes[None, :]
    y = reference.spin_harmonic(0, 1, 0, th, ph)
    value = spherical_integral(np.abs(y) ** 2, grid)
    oracle = reference.spherical_integral_quadrature(
        lambda t, p: np.abs(reference.spin_harmonic(0, 1, 0, t, p)) ** 2, 4
    ).real
    assert value == pytest.approx(1.0, abs=1e-10)
    assert value == pytest.approx(oracle, abs=1e-12)


@pytest.mark.parametrize("L", [2, 4, 8, 16])
def test_inner_products_match_dense_quadrature(rng, L):
    # Property: torus-pipeline I_{m'm} agrees with brute-force quadrature
    # for every band-limited input, all |m|, |m'| < L.
    grid = make_grid(2 * L)
    flat = rng.normal(size=L * L) + 1j * rng.normal(size=L * L)
    th, ph = grid.colatitudes[:, None], grid.longitudes[None, :]
    samples = reference.synthesize_at(flat, 0, L, th, ph)
    ours = inner_products(samples, 0, grid)

    theta, tw, phi, pw = reference.theta_quadrature_nodes(L)
    vals = reference.synthesize_at(flat, 0, L, theta[:, None], phi[None, :])
    m = np.arange(-(L - 1), L)
    phase_t = np.exp(-1j * np.outer(m, theta)) * (np.sin(theta) * tw)
    phase_p = np.exp(-1j * np.outer(m, phi))
    oracle = np.einsum("pj,jk,mk->pm", phase_t, vals * pw, phase_p)
    assert np.abs(ours - oracle).max() / np.abs(oracle).max() < 1e-8


def test_weight_matrix_and_row_weights_consistent():
    n = 8
    W = weight_matrix(n)
    assert W.shape == (n - 1, n - 1)
    lam = colatitude_weights(n)
    assert lam.sum() * n == pytest.approx(4 * np.pi)
    assert np.all(lam > 0)
