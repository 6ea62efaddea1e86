import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from swirl import reference
from swirl.equivariance import (
    equivariance_error,
    max_rel_error,
    random_coefficients,
    rotate_coefficients,
    rotate_signal,
    smooth_harness_signal,
)
from swirl.layers import FilterBank, PhaseCollapseParams, phase_collapse, spectral_conv
from swirl.signal import SpinCoefficients, degree_slice
from swirl.transforms import forward, inverse
from swirl.wigner import Rotation, WignerTables, _build_delta, compute_delta, random_rotations, wigner_D


def test_rotate_identity_is_identity(rng):
    L = 8
    co = random_coefficients(rng, 1, np.array([0, 1]), L)
    out = rotate_coefficients(co, Rotation(0.0, 0.0, 0.0), compute_delta(L))
    np.testing.assert_allclose(out.coeffs, co.coeffs, atol=1e-14)


def test_rotate_then_inverse_rotation(rng):
    L = 8
    tables = compute_delta(L)
    co = random_coefficients(rng, 2, np.array([-1, 0]), L)
    rot = Rotation.random(rng)
    back = rotate_coefficients(rotate_coefficients(co, rot, tables), rot.inverse(), tables)
    assert np.abs(back.coeffs - co.coeffs).max() < 1e-12


def test_rotate_constant_function_invariant(rng):
    L = 4
    co = np.zeros((1, 1, 16), dtype=complex)
    co[0, 0, 0] = 2.5
    out = rotate_coefficients(
        SpinCoefficients(co, np.array([0]), L), Rotation.random(rng), compute_delta(L)
    )
    np.testing.assert_allclose(out.coeffs, co, atol=1e-15)


def test_rotation_preserves_degree_norms(rng):
    L = 8
    tables = compute_delta(L)
    co = random_coefficients(rng, 1, np.array([1]), L)
    rot = Rotation.random(rng)
    out = rotate_coefficients(co, rot, tables)
    for l in range(1, L):
        a = np.linalg.norm(co.degree_block(l))
        b = np.linalg.norm(out.degree_block(l))
        assert abs(a - b) < 1e-12 * max(a, 1.0)


def test_rotation_composition(rng):
    L = 8
    tables = compute_delta(L)
    co = random_coefficients(rng, 1, np.array([0]), L)
    r1, r2 = Rotation.random(rng), Rotation.random(rng)
    a = rotate_coefficients(rotate_coefficients(co, r2, tables), r1, tables)
    b = rotate_coefficients(co, r1.compose(r2), tables)
    assert np.abs(a.coeffs - b.coeffs).max() / np.abs(b.coeffs).max() < 1e-10


@given(st.integers(1, 8), st.integers(1, 2), st.integers(0, 2**32 - 1))
def test_spectral_rotation_is_pointwise_rotation(L, batch, seed):
    # The coefficient action ghat = D(R) fhat must synthesize to
    # g(x) = f(R^-1 x): checked at the grid points via the reference
    # evaluator, which knows nothing about the spectral rotation.
    rng = np.random.default_rng(seed)
    tables = compute_delta(L)
    co = random_coefficients(rng, batch, np.array([0]), L)
    rot = Rotation.random(rng)
    rotated = inverse(rotate_coefficients(co, rot, tables), tables)
    back = rotated.grid.unit_vectors() @ rot.matrix()  # row vectors: R^T x = R^-1 x
    th_r, ph_r = np.arccos(np.clip(back[..., 2], -1, 1)), np.arctan2(back[..., 1], back[..., 0])
    expected = np.stack([reference.synthesize_at(c, 0, L, th_r, ph_r) for c in co.coeffs[:, 0]])
    assert max_rel_error(rotated.samples[:, 0], expected) <= 1e-12


def test_spin1_modulus_rotates_as_scalar(rng):
    L = 8
    tables = compute_delta(L)
    co = random_coefficients(rng, 1, np.array([1]), L)
    co.coeffs[..., 36:] = 0.0  # degrees above 5
    rot = Rotation.random(rng)
    rotated = inverse(rotate_coefficients(co, rot, tables), tables)
    grid = rotated.grid
    th, ph = np.meshgrid(grid.colatitudes, grid.longitudes, indexing="ij")
    xyz = np.stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)], -1)
    back = xyz @ rot.matrix()
    th_r = np.arccos(np.clip(back[..., 2], -1, 1))
    ph_r = np.arctan2(back[..., 1], back[..., 0]) % (2 * np.pi)
    expected = reference.synthesize_at(co.coeffs[0, 0], 1, L, th_r, ph_r)
    rel = np.abs(np.abs(rotated.samples[0, 0]) - np.abs(expected)).max() / np.abs(expected).max()
    assert rel < 1e-10



@pytest.mark.parametrize("L", [1, 2, 5, 16])
def test_rotate_coefficients_is_wigner_D_per_degree(rng, L):
    # One set of phase vectors per call, sliced per degree, gives D^l(rot) @ block for every degree.
    co = random_coefficients(rng, 2, np.array([0, L - 1, 1 - L]), L)
    rot = Rotation.random(rng)
    out = rotate_coefficients(co, rot, compute_delta(L))
    for l in range(L):
        want = co.degree_block(l) @ wigner_D(l, rot).T
        assert np.abs(out.degree_block(l) - want).max() <= 1e-14 * max(np.abs(want).max(), 1.0)


def test_rotation_unfolds_only_the_degrees_it_reads(rng):
    # The unfolded Delta^l are kept on the tables, read-only, for the degrees read so far.
    tables = _build_delta(64)
    rotate_coefficients(random_coefficients(rng, 1, np.array([0, 1]), 4), Rotation.random(rng), tables)
    unfolded = lambda: sorted(key[1] for key in tables._kept if key[0] == "unfold")
    assert unfolded() == [0, 1, 2, 3]
    assert tables[3] is tables._kept["unfold", 3] and not tables[3].flags.writeable
    assert tables[10].shape == (21, 21) and unfolded() == [0, 1, 2, 3, 10]
    for degree in (-1, 64):
        with pytest.raises(IndexError, match=f"degree {degree} is outside"):
            tables[degree]


def test_plans_belong_to_their_tables(rng):
    # Tables of two band limits, each dropped before the next is made (so the new one takes the dropped
    # one's id), rotate and transform with what they keep themselves: unfolded Delta^l and kernels.
    cases = {}
    for L in (9, 5):
        co = random_coefficients(rng, 1, np.array([0, 1, 1 - L]), L)
        sig = inverse(co, compute_delta(L))
        cases[L] = co, sig, forward(sig, compute_delta(L)), _build_delta(L).delta
    for L in (9, 5, 9, 5):
        co, sig, back, delta = cases[L]
        tables = WignerTables(L, delta)
        rot = Rotation.random(rng)
        out = rotate_coefficients(co, rot, tables)
        for l in range(L):
            want = co.degree_block(l) @ wigner_D(l, rot).T
            assert np.abs(out.degree_block(l) - want).max() <= 1e-14 * max(np.abs(want).max(), 1.0)
        np.testing.assert_array_equal(inverse(co, tables).samples, sig.samples)
        np.testing.assert_array_equal(forward(sig, tables).coeffs, back.coeffs)
        del tables


def test_plans_built_from_threads_give_the_single_threaded_results(rng):
    # Threads released together rotate and transform with one fresh set of tables, so they unfold degrees
    # and build and keep the kernels of seven spins at once; every result is the single-threaded one.
    L, threads = 40, 8
    co = random_coefficients(rng, 1, np.arange(-3, 4), L)
    rot = Rotation.random(rng)
    want = rotate_coefficients(co, rot, compute_delta(L)).coeffs, inverse(co, compute_delta(L)).samples

    def work(tables, start):
        start.wait(timeout=60)
        return rotate_coefficients(co, rot, tables).coeffs, inverse(co, tables).samples

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for _ in range(4):
                tables, start = _build_delta(L), threading.Barrier(threads)
                futures = [pool.submit(work, tables, start) for _ in range(threads)]
                for got in [future.result(timeout=60) for future in futures]:
                    np.testing.assert_array_equal(got[0], want[0])
                    np.testing.assert_array_equal(got[1], want[1])
    finally:
        sys.setswitchinterval(interval)


def test_rotate_band_limit_mismatch(rng):
    co = random_coefficients(rng, 1, np.array([0]), 8)
    with pytest.raises(ValueError, match="tables band limit 4 is smaller than required 8"):
        rotate_coefficients(co, Rotation(0.0, 0.0, 0.0), compute_delta(4))


def test_equivariance_error_identity_layer(rng):
    L = 8
    co = random_coefficients(rng, 1, np.array([0, 1]), L)
    report = equivariance_error(lambda c: c, co, random_rotations(5, 3), "identity")
    assert report.max_rel_err < 1e-12
    assert report.n_rotations == 5


def test_equivariance_error_spectral_conv(rng):
    L = 8
    co = random_coefficients(rng, 1, np.array([0, 0, 1, 1]), L)
    bank = FilterBank.random(rng, (0, 1), (0, 1), 2, 2, L)
    report = equivariance_error(
        lambda c: spectral_conv(c, bank), co, random_rotations(20, 5), "conv"
    )
    assert report.max_rel_err <= 1e-10


def test_equivariance_error_degenerate_output_is_nan(rng):
    L = 4
    co = random_coefficients(rng, 1, np.array([0]), L)
    zero = lambda c: SpinCoefficients(np.zeros_like(c.coeffs), c.spins, c.band_limit)
    report = equivariance_error(zero, co, random_rotations(3, 1), "zero")
    assert np.isnan(report.max_rel_err)


def test_rotate_signal_sandwich_consistency(rng):
    L = 8
    sig = inverse(random_coefficients(rng, 1, np.array([0]), L), compute_delta(L))
    rot = Rotation.random(rng)
    a = rotate_signal(rotate_signal(sig, rot), rot.inverse())
    assert np.abs(a.samples - sig.samples).max() / np.abs(sig.samples).max() < 1e-11


def test_phase_collapse_equivariance_smooth_family(rng):
    L = 16
    sig = smooth_harness_signal(rng, L, (0, 1), 2)
    params = PhaseCollapseParams.random(rng, 2, 4)
    report = equivariance_error(
        lambda s: phase_collapse(s, params), sig, random_rotations(20, 9), "phase_collapse"
    )
    assert report.max_rel_err <= 1e-6


def test_smooth_harness_signal_properties(rng):
    # spin-0 channels real and positive, nonzero-spin moduli band-limited
    L = 16
    sig = smooth_harness_signal(rng, L, (0, 1), 2)
    zero = sig.spins == 0
    assert np.abs(sig.samples[:, zero].imag).max() < 1e-10
    assert sig.samples[:, zero].real.min() > 0.0


def test_conv_equivariance_at_L32(rng):
    # exactly equivariant at any band limit; error is pure floating point
    L = 32
    co = random_coefficients(rng, 1, np.array([0, 1]), L)
    bank = FilterBank.random(rng, (0, 1), (0, 1), 1, 1, L)
    report = equivariance_error(
        lambda c: spectral_conv(c, bank), co, random_rotations(5, 11), "conv32"
    )
    assert report.max_rel_err <= 1e-10


@st.composite
def _rotation_cases(draw):
    L = draw(st.integers(1, 12))
    batch = draw(st.integers(0, 3))
    spins = draw(st.lists(st.integers(-(L - 1), L - 1), min_size=0, max_size=2))
    spins = spins + [draw(st.sampled_from([L - 1, -(L - 1)]))]
    angle = st.floats(-2 * np.pi, 2 * np.pi, allow_nan=False)
    rot = Rotation(draw(angle), draw(st.floats(0.0, np.pi)), draw(angle))
    return L, batch, np.array(spins), rot, draw(st.integers(0, 2**32 - 1))


@given(_rotation_cases())
def test_rotation_matches_explicit_wigner_sum(case):
    # D^l_{m,m'} = e^{-i m alpha} d^l_{m,m'}(beta) e^{-i m' gamma} with d from
    # the explicit factorial sum, which shares no code with the Delta tables.
    L, batch, spins, rot, seed = case
    co = random_coefficients(np.random.default_rng(seed), batch, spins, L)
    out = rotate_coefficients(co, rot, compute_delta(L)).coeffs
    expected = np.empty_like(co.coeffs)
    for l in range(L):
        m = np.arange(-l, l + 1)
        d = np.array([[reference.wigner_d_explicit(l, a, b, rot.beta) for b in m] for a in m])
        D = np.exp(-1j * m * rot.alpha)[:, None] * d * np.exp(-1j * m * rot.gamma)[None, :]
        expected[..., degree_slice(l)] = co.coeffs[..., degree_slice(l)] @ D.T
    err = np.abs(out - expected).max(initial=0.0)
    assert err <= 1e-12 * np.abs(expected).max(initial=0.0)


def test_rotation_reads_the_given_tables(rng):
    # With warm tables a rotation builds no Delta tables of its own.
    L = 32
    tables = compute_delta(L)
    co = random_coefficients(rng, 1, np.array([0, 1]), L)
    misses = compute_delta.cache_info().misses
    rotate_coefficients(co, Rotation.random(rng), tables)
    assert compute_delta.cache_info().misses == misses
