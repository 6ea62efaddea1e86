import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from swirl import reference, transforms
from swirl.equivariance import random_coefficients, smooth_harness_signal
from swirl.grid import extend_samples, make_grid, spherical_integral, weight_matrix
from swirl.layers import FilterBank, spectral_pool, spectral_unpool
from swirl.molecules import Molecule, featurize
from swirl.signal import SpinCoefficients, SpinSignal, degree_of_index, degree_slice, flat_index, num_coefficients
from swirl.transforms import (
    TransformConfig,
    _analysis,
    _synthesis,
    forward,
    fourier_2d,
    g_matrix,
    inner_products,
    inverse,
)
from swirl.wigner import Rotation, _build_delta, compute_delta, wigner_D

SQRT_4PI = 3.5449077018110318

FULL = TransformConfig(symmetry_path="full")
REDUCED = TransformConfig(symmetry_path="reduced")
ALL_CONFIGS = [
    TransformConfig(fourier_backend=b, symmetry_path=p)
    for b in ("dft_matrix", "fft")
    for p in ("reduced", "full")
]


def _signal(samples, spins, grid):
    return SpinSignal(np.asarray(samples, dtype=complex), np.asarray(spins), grid)


@pytest.mark.parametrize("config", ALL_CONFIGS)
def test_forward_constant_function(config):
    grid = make_grid(8)
    sig = _signal(np.ones((1, 1, 8, 8)), [0], grid)
    out = forward(sig, compute_delta(4), config)
    assert out.coeffs[0, 0, 0] == pytest.approx(SQRT_4PI, abs=1e-12)
    assert np.abs(out.coeffs[0, 0, 1:]).max() < 1e-12


def test_forward_single_harmonic_y21():
    grid = make_grid(16)
    L = grid.band_limit
    th, ph = grid.colatitudes[:, None], grid.longitudes[None, :]
    samples = reference.spin_harmonic(0, 2, 1, th, ph)
    out = forward(_signal(samples[None, None], [0], grid), compute_delta(L))
    flat = out.coeffs[0, 0]
    assert flat[flat_index(2, 1)] == pytest.approx(1.0, abs=1e-10)
    others = np.delete(flat, flat_index(2, 1))
    assert np.abs(others).max() < 1e-10


@pytest.mark.parametrize("spin", [-1, 0, 1])
def test_forward_matches_quadrature_oracle(rng, spin):
    # Random band-limited input, synthesized by the reference path and
    # compared against dense quadrature of the defining inner product.
    L = 8
    grid = make_grid(2 * L)
    flat = rng.normal(size=L * L) + 1j * rng.normal(size=L * L)
    flat[: num_coefficients(abs(spin))] = 0.0
    th, ph = grid.colatitudes[:, None], grid.longitudes[None, :]
    samples = reference.synthesize_at(flat, spin, L, th, ph)
    ours = forward(_signal(samples[None, None], [spin], grid), compute_delta(L)).coeffs[0, 0]
    oracle = reference.forward_quadrature(flat, spin, L)
    assert np.abs(ours - oracle).max() / np.abs(oracle).max() < 1e-8
    # ... and the oracle itself reproduces the synthesis coefficients.
    assert np.abs(oracle - flat).max() / np.abs(flat).max() < 1e-10


def test_inverse_of_zero_is_zero():
    L = 4
    co = SpinCoefficients(np.zeros((1, 1, 16), dtype=complex), np.array([0]), L)
    sig = inverse(co, compute_delta(L))
    assert np.abs(sig.samples).max() == 0.0


@pytest.mark.parametrize("config", ALL_CONFIGS)
def test_inverse_constant_coefficient(config):
    L = 4
    co = np.zeros((1, 1, 16), dtype=complex)
    co[0, 0, 0] = SQRT_4PI
    sig = inverse(SpinCoefficients(co, np.array([0]), L), compute_delta(L), config)
    np.testing.assert_allclose(sig.samples, np.ones((1, 1, 8, 8)), atol=1e-12)


@pytest.mark.parametrize("L", [4, 8, 16, 32, 64])
def test_roundtrip_all_spins(rng, L):
    spins = np.array([s for s in (-2, -1, 0, 1, 2) if abs(s) < L])
    tables = compute_delta(L)
    co = random_coefficients(rng, 2, spins, L)
    sig = inverse(co, tables)
    back = forward(sig, tables)
    rel = np.abs(back.coeffs - co.coeffs).max() / np.abs(co.coeffs).max()
    assert rel < 1e-10
    sig2 = inverse(back, tables)
    rel2 = np.abs(sig2.samples - sig.samples).max() / np.abs(sig.samples).max()
    assert rel2 < 1e-10


def test_forward_inverse_roundtrip_spin1_reduced(rng):
    L = 16
    tables = compute_delta(L)
    co = random_coefficients(rng, 1, np.array([1]), L)
    back = forward(inverse(co, tables, REDUCED), tables, REDUCED)
    assert np.abs(back.coeffs - co.coeffs).max() / np.abs(co.coeffs).max() < 1e-10


def test_path_equivalence(rng):
    L = 16
    tables = compute_delta(L)
    co = random_coefficients(rng, 3, np.array([-1, 0, 2]), L)
    sig_full = inverse(co, tables, FULL)
    sig_red = inverse(co, tables, REDUCED)
    assert np.abs(sig_full.samples - sig_red.samples).max() / np.abs(sig_full.samples).max() < 1e-12
    f_full = forward(sig_full, tables, FULL)
    f_red = forward(sig_full, tables, REDUCED)
    assert np.abs(f_full.coeffs - f_red.coeffs).max() / np.abs(f_full.coeffs).max() < 1e-12


def test_backend_equivalence(rng):
    L = 16
    tables = compute_delta(L)
    co = random_coefficients(rng, 2, np.array([0, 1]), L)
    dft = TransformConfig(fourier_backend="dft_matrix")
    fft = TransformConfig(fourier_backend="fft")
    s1, s2 = inverse(co, tables, dft), inverse(co, tables, fft)
    assert np.abs(s1.samples - s2.samples).max() / np.abs(s1.samples).max() < 1e-12
    f1, f2 = forward(s1, tables, dft), forward(s1, tables, fft)
    assert np.abs(f1.coeffs - f2.coeffs).max() / np.abs(f1.coeffs).max() < 1e-12


def _conjugate_coefficients(flat, spin, L):
    # Coefficients of conj(f) as a spin -s function: conj(sY_lm) = (-1)^(s+m) (-s)Y_{l,-m}
    l = degree_of_index(L)
    m = np.arange(L * L) - l * l - l
    return np.where((spin + m) % 2 == 0, 1.0, -1.0) * np.conj(flat[..., l * l + l - m])


@pytest.mark.parametrize("L", [1, 2, 3, 4])
def test_spin_conjugation_matches_reference_synthesis(rng, L):
    # Pins the sign convention of the s <-> -s, m <-> -m identity on the
    # reference harmonics before the transforms are held to it.
    theta, phi = rng.uniform(0, np.pi, 7), rng.uniform(0, 2 * np.pi, 7)
    for spin in range(-(L - 1), L):
        flat = rng.normal(size=L * L) + 1j * rng.normal(size=L * L)
        flat[: num_coefficients(abs(spin))] = 0.0
        want = np.conj(reference.synthesize_at(flat, spin, L, theta, phi))
        got = reference.synthesize_at(_conjugate_coefficients(flat, spin, L), -spin, L, theta, phi)
        assert _max_rel(got, want) < 1e-12


def _kept_kernels(tables):
    """{(L, |s|): kernel} of what the tables keep under ("kernel", L, |s|)."""
    return {key[1:]: K for key, K in tables._kept.items() if key[0] == "kernel"}


def test_kept_kernels_equal_fresh_ones(rng):
    # A kernel that fits one chunk is built on first use, per band limit and |spin|, and kept read-only on
    # the tables; it is the kernel a fresh table of its band limit gives, so later transforms repeat the
    # first bit for bit, also where a larger table serves a smaller band limit.
    tables = _build_delta(16)
    co = random_coefficients(rng, 2, np.array([0, 1, -3]), 16)
    first = inverse(co, tables).samples
    forward(inverse(random_coefficients(rng, 1, np.array([0]), 8), tables), tables)
    assert sorted(_kept_kernels(tables)) == [(8, 0), (16, 0), (16, 1), (16, 3)]
    for (L, a), K in _kept_kernels(tables).items():
        assert not K.flags.writeable
        np.testing.assert_array_equal(K, transforms._kernel(_build_delta(L), a, L, 0, L))
    np.testing.assert_array_equal(inverse(co, tables).samples, first)


@pytest.mark.parametrize("spin", range(-3, 4))
def test_kernel_times_the_moved_sign_matches_the_unfolded_tables(spin):
    # The kernel of |s|, times the spin's sign (-1)^(l+m') for s > 0 that the transforms move onto the
    # order-major layout, is alpha_l Delta^l_{m,m'} Delta^l_{-s,m'} as read from the full tables of each degree.
    L = 8
    tables = _build_delta(L)
    a = abs(spin)
    K = transforms._kernel(tables, a, L, 0, L)
    want = np.zeros((L, L - a, L))
    for l in range(a, L):
        full = tables[l]  # rows and columns -l .. l
        mp = np.arange(l + 1)
        for m in range(l + 1):
            want[m, l - a, : l + 1] = np.sqrt((2 * l + 1) / (4 * np.pi)) * full[l + m, l + mp] * full[l - spin, l + mp]
    moved = (-1.0) ** (np.arange(a, L)[:, None] + np.arange(L)) if spin > 0 else 1.0
    np.testing.assert_allclose(K * moved, want, rtol=0, atol=1e-14)


@pytest.mark.parametrize(
    "L, spins", [(8, [-1, 1]), (80, [-1, 1]), (16, [-3, 0, 3]), (80, [-3, 0, 3]), (64, [0, 1, -1])]
)
def test_spins_s_and_minus_s_share_one_kernel(rng, L, spins):
    # A forward and an inverse keep one kernel of 8 L^2 (L - |s|) bytes per |s| (4,161,536 B for spins
    # 0 and +-1 at L = 64), and a second call reads those same arrays.
    tables = _build_delta(L)
    co = random_coefficients(rng, 1, np.array(spins), L)
    forward(inverse(co, tables), tables)
    kept = _kept_kernels(tables)
    served = sorted({abs(s) for s in spins})
    assert sorted(kept) == [(L, a) for a in served]
    assert sum(K.nbytes for K in kept.values()) == sum(8 * L * L * (L - a) for a in served)
    forward(inverse(co, tables), tables)
    assert _kept_kernels(tables).keys() == kept.keys()
    assert all(_kept_kernels(tables)[key] is K for key, K in kept.items())


@pytest.mark.parametrize("L, kept", [(80, 1), (81, 0), (128, 0)])
def test_only_kernels_of_one_chunk_are_kept(rng, L, kept):
    # 8 L^3 bytes fit the 4 MiB chunk up to L = 80; a larger kernel is streamed chunk by chunk and not kept.
    tables = _build_delta(L)
    inverse(random_coefficients(rng, 1, np.array([0]), L), tables)
    assert len(_kept_kernels(tables)) == kept


def test_kept_kernels_are_bounded(rng):
    # Transforming all 2L - 1 spins keeps one kernel of 8 L^2 (L - |spin|) bytes per |spin|, L in all, and a
    # second transform reads those same arrays rather than building them again.
    L = 32
    tables = _build_delta(L)
    spins = np.arange(1 - L, L)
    co = random_coefficients(rng, 1, spins, L)
    forward(inverse(co, tables), tables)
    kept = _kept_kernels(tables)
    assert sorted(kept) == [(L, a) for a in range(L)]
    assert all(K.nbytes == 8 * L * L * (L - a) <= transforms._KERNEL_CHUNK_BYTES for (_, a), K in kept.items())
    forward(inverse(co, tables), tables)
    assert _kept_kernels(tables).keys() == kept.keys()
    assert all(_kept_kernels(tables)[key] is K for key, K in kept.items())


def test_a_smaller_budget_streams_past_the_kept_kernel(rng, monkeypatch):
    # A kept kernel is read only while the budget holds it in one chunk; under a smaller one the
    # orders are streamed in chunks again and nothing more is kept.
    L = 8
    tables = _build_delta(L)
    co = random_coefficients(rng, 1, np.array([0]), L)
    want = inverse(co, tables).samples
    monkeypatch.setattr(transforms, "_KERNEL_CHUNK_BYTES", 3 * 8 * L * L)
    assert transforms._chunks(L, 8 * L * L, transforms._KERNEL_CHUNK_BYTES) == [slice(0, 3), slice(3, 6), slice(6, 8)]
    np.testing.assert_array_equal(inverse(co, tables).samples, want)
    inverse(random_coefficients(rng, 1, np.array([1]), L), tables)
    assert list(_kept_kernels(tables)) == [(L, 0)]


def _traced_peak(call):
    """(result, peak bytes allocated during call) under tracemalloc."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("adjoint", [False, True])
def test_per_order_holds_one_kernel_chunk_at_a_time(adjoint):
    # At L=128 the kernel streams in 4 MiB chunks of orders; each is dropped before the next is built.
    L = 128
    tables = compute_delta(L)
    x = np.ones((L, L, 2, 1), dtype=complex)
    transforms._per_order(x, 0, L, tables, adjoint)  # caches outside the per-order product
    _, peak = _traced_peak(lambda: transforms._per_order(x, 0, L, tables, adjoint))
    # one 4 MiB chunk and the 0.5 MiB output; two chunks alive at once would take 7 MiB
    assert peak <= 1.5 * transforms._KERNEL_CHUNK_BYTES, f"peak {peak / 2**20:.2f} MiB"


@pytest.mark.parametrize("adjoint", [False, True])
def test_per_order_writes_its_product_in_place(adjoint):
    # With the kernel kept, each chunk's product is written straight into the output, not made and copied.
    L, k = 64, 32
    tables = _build_delta(L)
    x = np.ones((L, L, 2, k), dtype=complex)
    transforms._per_order(x, 0, L, tables, adjoint)  # keeps the kernel on the tables
    out, peak = _traced_peak(lambda: transforms._per_order(x, 0, L, tables, adjoint))
    assert peak <= 1.25 * out.nbytes, f"peak {peak / out.nbytes:.2f}x its output"


@pytest.mark.parametrize("batch, channels, L", [(4, 16, 64), (18, 32, 16)])
@pytest.mark.parametrize("config", ALL_CONFIGS)
def test_transforms_work_in_bounded_memory(rng, batch, channels, L, config):
    # The per-map stages stream chunks of maps, so a forward holds little beyond its input and output
    # and an inverse little beyond its output and one spin's per-order product.
    tables = compute_delta(L)
    co = random_coefficients(rng, batch, np.repeat([0, 1], channels // 2), L)
    sig = inverse(co, tables, config)
    forward(sig, tables, config)  # kept kernels and cached maps are made once, not per call
    out, peak = _traced_peak(lambda: inverse(co, tables, config))
    assert peak <= 2.0 * out.samples.nbytes, f"inverse peak {peak / out.samples.nbytes:.3f}x its output"
    _, peak = _traced_peak(lambda: forward(sig, tables, config))
    assert peak <= 1.25 * sig.samples.nbytes, f"forward peak {peak / sig.samples.nbytes:.3f}x its input"


def test_hot_spins_keep_their_kernels_after_other_spins(rng):
    # Spins transformed earlier do not crowd out later ones: on a table that first served spins -3, -2, 2
    # and 3, the kernels of spins 0 and 1 are kept too, and the next inverse reads them without building.
    L = 64
    tables = _build_delta(L)
    inverse(random_coefficients(rng, 1, np.array([-3, -2, 2, 3]), L), tables)
    co = random_coefficients(rng, 4, np.repeat([0, 1], 8), L)
    inverse(co, tables)
    kept = _kept_kernels(tables)
    out, peak = _traced_peak(lambda: inverse(co, tables))
    assert all(_kept_kernels(tables)[key] is kept[key] for key in [(L, 0), (L, 1)])
    assert peak <= 1.6 * out.samples.nbytes, f"inverse peak {peak / out.samples.nbytes:.3f}x its output"


def test_warm_roundtrip_check_builds_kernels_only_where_they_stream(monkeypatch):
    # Every spin of the roundtrip check keeps its kernel up to L=64; a second pass builds only L=128's chunks.
    from swirl import verification

    verification.check_roundtrips()
    built = []
    kernel = transforms._kernel

    def counted(tables, a, L, mu0, mu1):
        built.append(L)
        return kernel(tables, a, L, mu0, mu1)

    monkeypatch.setattr(transforms, "_kernel", counted)
    assert all(row.passed for row in verification.check_roundtrips())
    assert built and set(built) == {128}


@pytest.mark.parametrize(
    "batch, spins, L",
    [(3, [0, 1, 1], 8), (0, [0, 1], 8), (2, [1, 0, -2, 0, 1], 9), (7, [0], 6)],
)
@pytest.mark.parametrize("config", ALL_CONFIGS)
def test_map_chunks_do_not_change_results(rng, monkeypatch, batch, spins, L, config):
    # Chunks of one map, of three (7 and 4 maps of one spin are not multiples of it) and of every map give
    # the same bits: the per-map stages act map by map and the per-order product always takes all.
    tables = compute_delta(L)
    co = random_coefficients(rng, batch, np.array(spins), L)
    sig = _signal(rng.normal(size=(batch, len(spins), 2 * L, 2 * L)), spins, make_grid(2 * L))
    results = []
    for maps in (1, 3, None):
        monkeypatch.setattr(transforms, "_MAP_CHUNK_BYTES", 64 * L * L * maps if maps else 1 << 62)
        results.append((forward(sig, tables, config).coeffs, inverse(co, tables, config).samples, g_matrix(co, tables)))
    for got in results[:-1]:
        for a, b in zip(got, results[-1]):
            np.testing.assert_array_equal(a, b)


@st.composite
def _conjugation_cases(draw):
    L = draw(st.integers(1, 16))
    spin = draw(st.sampled_from([L - 1, -(L - 1)]) | st.integers(-(L - 1), L - 1))
    return L, draw(st.integers(1, 2)), spin, draw(st.integers(0, 2**32 - 1))


@given(_conjugation_cases())
def test_spin_conjugation_through_forward_and_inverse(case):
    # conj(f) of a spin-s f is spin -s with coefficients (-1)^(s+m) conj(a_{l,-m}):
    # every order changes parity with the spin, so both parity classes of
    # longitude slices carry the other orders on the two sides.
    L, batch, spin, seed = case
    rng = np.random.default_rng(seed)
    tables = compute_delta(L)
    grid = make_grid(2 * L)
    spins = np.array([spin, -spin])
    co = random_coefficients(rng, batch, spins, L)
    conj_co = np.stack([_conjugate_coefficients(co.coeffs[:, c], s, L) for c, s in enumerate(spins)], axis=1)
    for config in ALL_CONFIGS:
        samples = inverse(co, tables, config).samples
        conj_samples = inverse(SpinCoefficients(conj_co, -spins, L), tables, config).samples
        assert _max_rel(conj_samples, np.conj(samples)) < 1e-12
        back = forward(_signal(np.conj(samples), -spins, grid), tables, config).coeffs
        assert _max_rel(back, conj_co) < 1e-10


def test_g_symmetry(rng):
    # G_{m'm} = (-1)^(m+s) G_{(-m')m}. g_matrix computes the rows m' >= 0 and
    # unfolds the rest, so this checks the signs and the row order of that unfolding.
    for spin in (-1, 0, 1, 2):
        L = 8
        co = random_coefficients(rng, 1, np.array([spin]), L)
        G = g_matrix(co, compute_delta(L))[0, 0]
        m = np.arange(-(L - 1), L)
        signs = np.where((m + spin) % 2 == 0, 1.0, -1.0)
        assert np.abs(G - signs * G[::-1, :]).max() / np.abs(G).max() < 1e-12


def test_parseval(rng):
    for spin in (0, 1):
        L = 8
        flat = rng.normal(size=L * L) + 1j * rng.normal(size=L * L)
        flat[: num_coefficients(abs(spin))] = 0.0
        energy = (np.abs(flat) ** 2).sum()
        integral = reference.spherical_integral_quadrature(
            lambda t, p: np.abs(reference.synthesize_at(flat, spin, L, t, p)) ** 2, L
        ).real
        assert abs(energy - integral) / integral < 1e-8


@given(_conjugation_cases())
def test_parseval_through_the_inverse_transform(case):
    # |f|^2 has degree at most 2L-2, so the quadrature of the 4L grid integrates it exactly.
    L, batch, spin, seed = case
    co = random_coefficients(np.random.default_rng(seed), batch, np.array([spin, -spin]), L)
    samples = inverse(spectral_unpool(co, 2 * L), compute_delta(2 * L)).samples
    energy = (np.abs(co.coeffs) ** 2).sum(axis=-1)
    integral = spherical_integral(np.abs(samples) ** 2, make_grid(4 * L))
    assert np.all(np.abs(integral - energy) <= 1e-12 * energy)


def test_band_limit_mismatch_rejected(rng):
    L = 8
    co = random_coefficients(rng, 1, np.array([0]), L)
    with pytest.raises(ValueError):
        inverse(co, compute_delta(4))
    grid = make_grid(2 * L)
    sig = _signal(rng.normal(size=(1, 1, 16, 16)), [0], grid)
    with pytest.raises(ValueError):
        forward(sig, compute_delta(4))


def test_unsupported_spin_rejected(rng):
    grid = make_grid(8)
    with pytest.raises(ValueError):
        _signal(rng.normal(size=(1, 1, 8, 8)), [4], grid)



@pytest.mark.parametrize("spin", [0.5, 1.7, -0.5, 1.0])
def test_containers_reject_a_spin_that_is_not_an_integer(spin):
    # An integer-valued float is that integer; any other spin is an error, never truncated.
    # Filter banks and the harness inputs follow the containers' rule.
    rng = np.random.default_rng(0)
    builders = [
        lambda: SpinSignal(np.zeros((1, 1, 8, 8)), np.array([spin]), make_grid(8)).spins,
        lambda: SpinCoefficients(np.zeros((1, 1, 16)), np.array([spin]), 4).spins,
        lambda: FilterBank(np.ones((1, 1, 4)), (spin,), (0,)).spins_in,
        lambda: FilterBank.random(rng, (0,), (spin,), 1, 1, 4).spins_out,
        lambda: random_coefficients(rng, 1, [spin], 4).spins,
        lambda: smooth_harness_signal(rng, 4, (spin,), 1).spins,
    ]
    for build in builders:
        if spin == int(spin):
            spins = np.asarray(build())
            assert spins.dtype.kind == "i" and spins.tolist() == [int(spin)]
        else:
            with pytest.raises(ValueError, match=f"spin {spin} must be an integer"):
                build()


def test_coefficients_name_the_first_channel_with_entries_below_its_spin():
    # Entries below degree |spin| must be zero; the error names the first channel that breaks this.
    co = np.zeros((2, 4, 16), dtype=complex)
    co[:, :, 9:] = 1.0  # degree 3 is above every spin
    co[1, 2, 3] = co[0, 3, 8] = 1.0  # degree 1 in spin-2 channel 2, degree 2 in spin-3 channel 3
    with pytest.raises(ValueError, match=r"channel 2 has nonzero coefficients below degree \|spin\|=2"):
        SpinCoefficients(co, np.array([0, 1, -2, 3]), 4)
    co[1, 2, 3] = 0.0
    with pytest.raises(ValueError, match=r"channel 3 has nonzero coefficients below degree \|spin\|=3"):
        SpinCoefficients(co, np.array([0, 1, -2, 3]), 4)
    co[0, 3, 8] = 0.0
    assert SpinCoefficients(co, np.array([0, 1, -2, 3]), 4).channels == 4


@pytest.mark.parametrize("value", [4.0, 4.5])
@pytest.mark.parametrize(
    "build, name",
    [
        (lambda v: FilterBank.random(np.random.default_rng(0), (0,), (0,), 1, 1, v).band_limit, "band limit"),
        (lambda v: smooth_harness_signal(np.random.default_rng(0), v, (0, 1), 1).grid.band_limit, "band limit"),
        (lambda v: make_grid(2 * v).band_limit, "grid resolution"),
    ],
)
def test_filter_banks_harness_signals_and_grids_take_integral_floats(build, name, value):
    # The integer rule of the containers: 4.0 is 4 (8.0 is grid resolution 8), 4.5 (9.0) is a ValueError naming it.
    if value == int(value):
        got = build(value)
        assert isinstance(got, (int, np.integer)) and got == 4
    else:
        with pytest.raises(ValueError, match="must be an integer" if name == "band limit" else "even integer"):
            build(value)


@pytest.mark.parametrize("value", [2.0, 2.5])
@pytest.mark.parametrize(
    "build, name",
    [
        (lambda v: SpinCoefficients(np.zeros((1, 1, 4)), [0], v).band_limit, "band limit"),
        (lambda v: compute_delta(v).band_limit, "band limit"),
        (lambda v: len(wigner_D(v, Rotation(0.1, 0.2, 0.3))) // 2, "degree"),
        (lambda v: spectral_pool(SpinCoefficients(np.ones((1, 1, 9)), [0], 3), v).band_limit, "band limit"),
        (lambda v: spectral_unpool(SpinCoefficients(np.ones((1, 1, 1)), [0], 1), v).band_limit, "band limit"),
        (lambda v: Molecule([v, 8], [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0]]).atomic_numbers[0], "atomic number"),
        (lambda v: featurize(Molecule([2, 8], np.eye(3)[:2]), (v, 8), make_grid(4)).vocabulary[0], "atomic number"),
    ],
)
def test_band_limits_degrees_and_atomic_numbers_must_be_integers(build, name, value):
    # As with spins, an integral float is that integer and any other value is an error, never truncated.
    if value == int(value):
        got = build(value)
        assert isinstance(got, (int, np.integer)) and got == 2
    else:
        with pytest.raises(ValueError, match=f"{name} {value} must be an integer"):
            build(value)


def _unfold_after_one(v):
    tables = _build_delta(4)
    tables[1]  # a read of degree 1, the degree a boolean key would stand for
    return tables[v]


@pytest.mark.parametrize("value", [True, np.True_])
@pytest.mark.parametrize(
    "build, name",
    [
        (lambda v: compute_delta(1) and compute_delta(v), "band limit"),  # a cached band limit 1 first
        (lambda v: wigner_D(v, Rotation(0.1, 0.2, 0.3)), "degree"),
        (lambda v: spectral_pool(SpinCoefficients(np.ones((1, 1, 9)), [0], 3), v), "band limit"),
        (lambda v: SpinCoefficients(np.zeros((1, 1, 4)), [v], 2), "spin"),
        (lambda v: SpinCoefficients(np.zeros((1, 2, 4)), [0, v], 2), "spin"),  # a mixed list converts to int
        (lambda v: Molecule([v, 8], [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0]]), "atomic number"),
        (lambda v: SpinCoefficients(np.ones((1, 1, 1)), [0], v), "band limit"),
        (lambda v: _signal(np.zeros((1, 1, 4, 4)), [v], make_grid(4)), "spin"),
        (lambda v: FilterBank(np.ones((1, 1, 4)), (v,), (0,)), "spin"),
        (_unfold_after_one, "degree"),
        (lambda v: inner_products(np.zeros((8, 8)), v, make_grid(8)), "spin"),
    ],
)
def test_booleans_are_not_integers(build, name, value):
    # True is not the integer 1 anywhere the integer rule applies, nor as a table degree.
    with pytest.raises(ValueError, match=f"{name} .*True.* must be an integer, not a boolean"):
        build(value)


def test_default_config_is_fft_reduced():
    assert TransformConfig() == transforms.DEFAULT_CONFIG == TransformConfig("fft", "reduced")


def test_default_transforms_are_the_fft_reduced_cell(rng):
    # No config is fft/reduced bit for bit, and the dft_matrix/full cell agrees to rounding.
    L = 16
    tables = compute_delta(L)
    explicit, other = TransformConfig("fft", "reduced"), TransformConfig("dft_matrix", "full")
    co = random_coefficients(rng, 2, np.array([0, 1, -2, L - 1]), L)
    sig = inverse(co, tables)
    np.testing.assert_array_equal(sig.samples, inverse(co, tables, explicit).samples)
    assert _max_rel(inverse(co, tables, other).samples, sig.samples) < 1e-12
    back = forward(sig, tables)
    np.testing.assert_array_equal(back.coeffs, forward(sig, tables, explicit).coeffs)
    assert _max_rel(forward(sig, tables, other).coeffs, back.coeffs) < 1e-12

def test_config_validation():
    with pytest.raises(ValueError):
        TransformConfig(fourier_backend="dct")
    with pytest.raises(ValueError):
        TransformConfig(symmetry_path="half")


def test_empty_batch_passes_through():
    L = 4
    tables = compute_delta(L)
    co = SpinCoefficients(np.zeros((0, 1, 16), dtype=complex), np.array([0]), L)
    sig = inverse(co, tables)
    assert sig.samples.shape == (0, 1, 8, 8)
    back = forward(sig, tables)
    assert back.coeffs.shape == (0, 1, 16)


def _max_rel(a, b):
    assert a.shape == b.shape
    return np.abs(a - b).max() / np.abs(b).max() if b.size else 0.0


@pytest.mark.parametrize("config", ALL_CONFIGS)
def test_matches_per_degree_sums(rng, monkeypatch, config):
    # The per-order matmuls reproduce the defining per-degree sums over the
    # Delta tables, for the forward coefficients and for G, with the kernel
    # built in chunks of one, two, three or all orders.
    L = 9
    c = L - 1
    tables = compute_delta(L)
    grid = make_grid(2 * L)
    for spin, orders in itertools.product((-(L - 1), -3, 0, 2, L - 1), (1, 2, 3, L)):
        monkeypatch.setattr(transforms, "_KERNEL_CHUNK_BYTES", orders * 8 * L * L)
        co = random_coefficients(rng, 2, np.array([spin, spin]), L)
        samples = rng.normal(size=(2, 2, 2 * L, 2 * L)) + 1j * rng.normal(size=(2, 2, 2 * L, 2 * L))
        I = inner_products(samples, spin, grid)
        want_co = np.zeros(co.coeffs.shape, dtype=complex)
        want_G = np.zeros((2, 2, 2 * L - 1, 2 * L - 1), dtype=complex)
        for l in range(abs(spin), L):
            D = tables[l]
            m = np.arange(-l, l + 1)
            scale = np.sqrt((2 * l + 1) / (4 * np.pi)) * (-1.0) ** spin * np.array([1, 1j, -1, -1j])[(m + spin) % 4]
            block = I[..., c - l : c + l + 1, c - l : c + l + 1]
            want_co[..., degree_slice(l)] = scale * np.einsum("pm,p,...pm->...m", D, D[:, l - spin], block)
            want_G[..., c - l : c + l + 1, c - l : c + l + 1] += np.einsum(
                "p,pm,...m->...pm", D[::-1, l - spin], D[::-1], scale * co.coeffs[..., degree_slice(l)]
            )
        assert _max_rel(forward(_signal(samples, [spin, spin], grid), tables, config).coeffs, want_co) < 1e-12
        assert _max_rel(g_matrix(co, tables), want_G) < 1e-12



@pytest.mark.parametrize("orders", [3, 5])
def test_kernel_chunks_match_one_chunk_bitwise(rng, monkeypatch, orders):
    # The spin rows are built once per transform and sliced per chunk, so
    # several chunks give the one-chunk result bit for bit.  (A chunk of one
    # order at the top degree is a one-row product, which BLAS rounds differently.)
    L = 32
    tables = compute_delta(L)
    co = random_coefficients(rng, 2, np.array([0, 1, -3, L - 1, 1 - L]), L)
    sig = inverse(co, tables)
    assert transforms._KERNEL_CHUNK_BYTES >= L * 8 * L * L  # one chunk by default at L=32
    want_co, want_samples = forward(sig, tables).coeffs, inverse(co, tables).samples
    monkeypatch.setattr(transforms, "_KERNEL_CHUNK_BYTES", orders * 8 * L * L)
    np.testing.assert_array_equal(forward(sig, tables).coeffs, want_co)
    np.testing.assert_array_equal(inverse(co, tables).samples, want_samples)

@st.composite
def _batched_layouts(draw):
    L = draw(st.integers(2, 12))
    batch = draw(st.integers(0, 3))
    spins = draw(st.lists(st.integers(-(L - 1), L - 1), min_size=1, max_size=3))
    # interleave the spin groups, and include the largest legal |spin|
    spins = spins + [draw(st.sampled_from([L - 1, -(L - 1)]))] + spins[:1]
    return L, batch, np.array(spins), draw(st.integers(0, 2**32 - 1))


@given(_batched_layouts())
def test_batched_layout_matches_one_at_a_time(layout):
    # Each map of a batched, spin-interleaved call must transform exactly as
    # it does alone; a mixed-up batch, channel or order axis breaks this
    # even where every batch-1 test passes.
    L, batch, spins, seed = layout
    rng = np.random.default_rng(seed)
    tables = compute_delta(L)
    grid = make_grid(2 * L)
    co = random_coefficients(rng, batch, spins, L)
    samples = rng.normal(size=(batch, len(spins), 2 * L, 2 * L)) + 1j * rng.normal(size=(batch, len(spins), 2 * L, 2 * L))
    sig = _signal(samples, spins, grid)
    G = g_matrix(co, tables)
    for config in ALL_CONFIGS:
        fwd = forward(sig, tables, config).coeffs
        inv = inverse(co, tables, config).samples
        for b in range(batch):
            for c, spin in enumerate(spins):
                one_sig = _signal(samples[b : b + 1, c : c + 1], [spin], grid)
                one_co = SpinCoefficients(co.coeffs[b : b + 1, c : c + 1], np.array([spin]), L)
                assert _max_rel(fwd[b, c], forward(one_sig, tables, config).coeffs[0, 0]) < 1e-12
                assert _max_rel(inv[b, c], inverse(one_co, tables, config).samples[0, 0]) < 1e-12
                assert _max_rel(G[b, c], g_matrix(one_co, tables)[0, 0]) < 1e-12
        back = forward(SpinSignal(inv, spins, grid), tables, config).coeffs
        assert _max_rel(back, co.coeffs) < 1e-10


# --- colatitude maps vs the torus round trip ---------------------------------


def _torus_inner_products(samples, spin, L, backend):
    # The torus round trip (McEwen & Wiaux 2011): mirror to 2n rows, 2-D DFT,
    # keep 2L-1 rows and columns, half-pixel offsets, colatitude weights.
    n = 2 * L
    orders = np.arange(-(L - 1), L)
    spec = fourier_2d(extend_samples(samples, spin, n), "analysis", backend) / (2 * n * n)
    F = spec[..., (orders % (2 * n))[:, None], orders % n] * np.exp(-1j * orders * np.pi / (2 * n))[:, None]
    return weight_matrix(n) @ F


def _torus_synthesis(G, L, backend):
    # Scatter G into 2n rows with the offsets, 2-D inverse DFT, keep the sphere's n rows.
    n = 2 * L
    orders = np.arange(-(L - 1), L)
    S = np.zeros(G.shape[:-2] + (2 * n, n), dtype=complex)
    S[..., (orders % (2 * n))[:, None], orders % n] = G * np.exp(1j * orders * np.pi / (2 * n))[:, None]
    return fourier_2d(S, "synthesis", backend)[..., :n, :] * (2 * n * n)


@st.composite
def _map_cases(draw):
    L = draw(st.integers(1, 12))
    spin = draw(st.sampled_from([L - 1, -(L - 1)]) | st.integers(-(L - 1), L - 1))
    # (batch, channels): the leading layout forward and inverse pass to the stages
    lead = (draw(st.integers(0, 3)), draw(st.integers(1, 3)))
    return L, lead, spin, draw(st.integers(0, 2**32 - 1))


@given(_map_cases())
def test_colatitude_maps_match_torus_round_trip(case):
    # The longitude DFT and the matmul per parity compute the torus round
    # trip; the reduced path's rows are the fold of I and carry the rows of
    # G that its symmetry G_{-m',m} = (-1)^(m+s) G_{m',m} does not fix.
    L, lead, spin, seed = case
    rng = np.random.default_rng(seed)
    n, c = 2 * L, L - 1
    samples = rng.normal(size=lead + (n, n)) + 1j * rng.normal(size=lead + (n, n))
    G = rng.normal(size=lead + (2 * L - 1, 2 * L - 1)) + 1j * rng.normal(size=lead + (2 * L - 1, 2 * L - 1))
    p = np.where((np.arange(-c, L) + spin) % 2 == 0, 1.0, -1.0)  # per order m
    k = np.arange(1, L)
    for config in ALL_CONFIGS:
        backend, reduced = config.fourier_backend, config.symmetry_path == "reduced"
        I = _torus_inner_products(samples, spin, L, backend)
        want_I, want_G, rows = I, G.copy(), slice(None)
        if reduced:
            want_I = I[..., c:, :].copy()
            want_I[..., k, :] += p * I[..., c - k, :]
            want_G[..., c - k, :] = p * G[..., c + k, :]
            rows = slice(c, None)
        assert _max_rel(_analysis(samples, spin, L, backend, reduced), want_I) < 1e-12
        assert _max_rel(_synthesis(G[..., rows, :], spin, L, backend, reduced), _torus_synthesis(want_G, L, backend)) < 1e-12


def test_parity_slices_match_order_indices():
    # Each parity class of orders is two strided slices of the 2L longitudes:
    # its orders m < 0 at 2L + m, then its orders m >= 0.  Together the two
    # classes hold every longitude but the Nyquist index L, once.
    for L in range(1, 131):
        orders = np.arange(-(L - 1), L)
        longitudes = np.arange(2 * L)
        for spin in (-1, 0, 1):
            seen = []
            for first, (p, cols, split, neg, nonneg) in enumerate(transforms._parities(L, spin)):
                k = orders[first::2] % (2 * L)
                np.testing.assert_array_equal(np.concatenate([longitudes[neg], longitudes[nonneg]]), k)
                assert split == longitudes[neg].size == np.count_nonzero(orders[first::2] < 0)
                np.testing.assert_array_equal(orders[cols], orders[first::2])
                assert np.all(np.where((orders[cols] + spin) % 2 == 0, 1, -1) == p)
                seen.append(k)
            np.testing.assert_array_equal(np.sort(np.concatenate(seen)), np.delete(longitudes, L))


# --- fourier_2d -------------------------------------------------------------


def test_fourier_impulse_has_flat_spectrum():
    arr = np.zeros((8, 8), dtype=complex)
    arr[0, 0] = 1.0
    for backend in ("dft_matrix", "fft"):
        spec = fourier_2d(arr, "analysis", backend)
        np.testing.assert_allclose(spec, np.ones((8, 8)), atol=1e-13)


def test_fourier_pure_tone_single_bin():
    n = 8
    k = np.arange(n)
    arr = np.broadcast_to(np.exp(2j * np.pi * 3 * k / n), (n, n)).astype(complex)
    spec = fourier_2d(arr, "analysis", "dft_matrix")
    hot = np.zeros((n, n))
    hot[0, 3] = 1.0
    np.testing.assert_allclose(np.abs(spec) / (n * n), hot, atol=1e-13)


def test_fourier_backends_agree_and_invert(rng):
    arr = rng.normal(size=(3, 64, 32)) + 1j * rng.normal(size=(3, 64, 32))
    a_fft = fourier_2d(arr, "analysis", "fft")
    a_dft = fourier_2d(arr, "analysis", "dft_matrix")
    assert np.abs(a_fft - a_dft).max() / np.abs(a_fft).max() < 1e-12
    for backend in ("dft_matrix", "fft"):
        back = fourier_2d(fourier_2d(arr, "synthesis", backend), "analysis", backend)
        assert np.abs(back - arr).max() / np.abs(arr).max() < 1e-12


def test_inner_products_rejects_samples_off_the_grid(rng):
    grid = make_grid(8)
    with pytest.raises(ValueError, match=r"\(9, 8\).*\(8, 8\)"):
        inner_products(rng.normal(size=(2, 1, 9, 8)), 0, grid)


@pytest.mark.parametrize("spin", [0.5, -1.5, 4, -4, 101])
def test_inner_products_rejects_a_spin_that_is_not_an_integer_below_the_band_limit(rng, spin):
    # unchecked, spin 0.5 returned an array that matched no integer spin and
    # spin 101 aliased to spin 1
    grid = make_grid(8)
    with pytest.raises(ValueError, match=rf"spin {spin} .*band limit 4"):
        inner_products(rng.normal(size=(8, 8)), spin, grid)


def test_fourier_rejects_bad_arguments(rng):
    arr = rng.normal(size=(4, 4)).astype(complex)
    with pytest.raises(ValueError):
        fourier_2d(arr, "sideways")
    with pytest.raises(ValueError):
        fourier_2d(arr, "analysis", backend="dct")


@pytest.mark.parametrize("config", ALL_CONFIGS)
def test_minimal_band_limit_roundtrip(rng, config):
    # L = 1 (n = 2) is the smallest legal grid
    L = 1
    tables = compute_delta(L)
    co = SpinCoefficients(
        (rng.normal(size=(1, 1, 1)) + 1j * rng.normal(size=(1, 1, 1))), np.array([0]), L
    )
    back = forward(inverse(co, tables, config), tables, config)
    np.testing.assert_allclose(back.coeffs, co.coeffs, rtol=1e-12)
