import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from swirl import layers, reference
from swirl.equivariance import random_coefficients, smooth_harness_signal
from swirl.layers import (
    _EPSILON,
    BatchNormState,
    FilterBank,
    PhaseCollapseParams,
    ResidualBlockParams,
    phase_collapse,
    residual_block,
    residual_block_train,
    spectral_batch_norm,
    spectral_conv,
    spectral_pool,
    spectral_unpool,
    spectral_variance,
)
from swirl.grid import make_grid
from swirl.signal import SpinCoefficients, SpinSignal, num_coefficients
from swirl.transforms import _MAP_CHUNK_BYTES, DEFAULT_CONFIG, _chunks, forward, inverse
from swirl.wigner import compute_delta

SQRT_4PI = 3.5449077018110318


# --- spectral_conv ----------------------------------------------------------


def test_conv_identity_bank(rng):
    L = 8
    co = random_coefficients(rng, 2, np.array([0, 0, 1, 1]), L)
    bank = FilterBank(np.eye(4, dtype=complex)[:, :, None] * np.ones(L), (0, 1), (0, 1))
    out = spectral_conv(co, bank)
    np.testing.assert_array_equal(out.coeffs, co.coeffs)


def test_conv_low_pass_projection(rng):
    L = 8
    co = random_coefficients(rng, 1, np.array([0]), L)
    taps = np.zeros((1, 1, L), dtype=complex)
    taps[..., 0] = 1.0
    bank = FilterBank(taps, (0,), (0,))
    out = spectral_conv(co, bank)
    np.testing.assert_array_equal(out.coeffs[..., 0], co.coeffs[..., 0])
    assert np.abs(out.coeffs[..., 1:]).max() == 0.0


def test_conv_linear_in_coefficients_and_taps(rng):
    L = 8
    spins = np.array([0, 1])
    a = random_coefficients(rng, 1, spins, L)
    b = random_coefficients(rng, 1, spins, L)
    bank1 = FilterBank.random(rng, (0, 1), (0, 1), 1, 1, L)
    bank2 = FilterBank.random(rng, (0, 1), (0, 1), 1, 1, L)
    summed = SpinCoefficients(2.0 * a.coeffs + 3.0 * b.coeffs, spins, L)
    lhs = spectral_conv(summed, bank1).coeffs
    rhs = 2.0 * spectral_conv(a, bank1).coeffs + 3.0 * spectral_conv(b, bank1).coeffs
    assert np.abs(lhs - rhs).max() <= 1e-12 * max(1.0, np.abs(rhs).max())
    both = FilterBank(bank1.weights + bank2.weights, (0, 1), (0, 1))
    lhs = spectral_conv(a, both).coeffs
    rhs = spectral_conv(a, bank1).coeffs + spectral_conv(a, bank2).coeffs
    assert np.abs(lhs - rhs).max() <= 1e-12 * max(1.0, np.abs(rhs).max())


def test_conv_spin_expansion_from_scalar_input(rng):
    # First-layer pattern: spin-0 input mapped to spins {0, 1}.
    L = 8
    co = random_coefficients(rng, 1, np.array([0, 0]), L)
    bank = FilterBank.random(rng, (0,), (0, 1), 2, 3, L)
    out = spectral_conv(co, bank)
    np.testing.assert_array_equal(out.spins, [0, 0, 0, 1, 1, 1])
    # spin-1 output has no degree-0 content
    assert np.abs(out.coeffs[:, 3:, :1]).max() == 0.0


def test_conv_signature_mismatch(rng):
    L = 8
    co = random_coefficients(rng, 1, np.array([0, 1]), L)
    bank = FilterBank.random(rng, (0,), (0,), 2, 2, L)
    with pytest.raises(ValueError):
        spectral_conv(co, bank)


def test_filter_bank_zeroes_taps_below_spin():
    L = 4
    # rows are (spin_in 0, spin_in 1), columns (spin_out 0, spin_out 1)
    taps = np.ones((2, 2, L), dtype=complex)
    bank = FilterBank(taps, (0, 1), (0, 1))
    assert bank.weights[0, 1, 0] == 0.0
    assert bank.weights[1, 0, 0] == 0.0
    assert bank.weights[1, 1, 0] == 0.0
    assert bank.weights[0, 0, 0] == 1.0
    np.testing.assert_array_equal(bank.weights[..., 1:], 1.0)
    assert taps[1, 1, 0] == 1.0  # the caller's array is copied, not masked in place
    assert not bank.weights.flags.writeable


@pytest.mark.parametrize(
    "shape, spins_in, spins_out",
    [
        ((3, 2, 4), (0, 1), (0, 1)),  # 3 rows do not split into 2 input spins
        ((2, 3, 4), (0, 1), (0, 1)),
        ((2, 2), (0, 1), (0, 1)),
        ((2, 2, 4), (0, 0), (0, 1)),  # repeated spin
        ((2, 2, 4), (), (0, 1)),
        ((2, 2, 4), (0, 1), (0, 4)),  # spin 4 has no degree below band limit 4: every tap would be zero
        ((2, 1, 1), (0, 1), (0,)),  # spin 1 at band limit 1
    ],
)
def test_filter_bank_rejects_bad_layouts(shape, spins_in, spins_out):
    with pytest.raises(ValueError):
        FilterBank(np.ones(shape, dtype=complex), spins_in, spins_out)


def _per_pair_bank(rng, spins_in, spins_out, cin, cout, L, spin_diagonal, per_degree):
    # The per-spin-pair construction, drawing each (spin_in, spin_out)
    # block in turn; seeded banks must keep exactly these taps.
    scale = 1.0 / np.sqrt(len(spins_in) * cin * L)
    blocks = {}
    for si in spins_in:
        for so in spins_out:
            w = rng.normal(size=(cin, cout, L if per_degree else 1)) * scale
            w = w + 1j * rng.normal(size=w.shape) * scale
            w = np.broadcast_to(w, (cin, cout, L)).copy()
            if spin_diagonal and si != so:
                w[:] = 0.0
            w[..., : max(abs(si), abs(so))] = 0.0
            blocks[(si, so)] = w
    return blocks


def _block(bank, i, o):
    cin, cout = bank.channels_in, bank.channels_out
    return bank.weights[i * cin : (i + 1) * cin, o * cout : (o + 1) * cout]


@pytest.mark.parametrize("spin_diagonal, per_degree", [(False, True), (True, True), (True, False), (False, False)])
def test_random_draws_one_block_per_spin_pair(spin_diagonal, per_degree):
    spins_in, spins_out, L = (1, 0, -2), (0, 2), 5
    bank = FilterBank.random(np.random.default_rng(5), spins_in, spins_out, 2, 3, L,
                             spin_diagonal=spin_diagonal, per_degree=per_degree)
    want = _per_pair_bank(np.random.default_rng(5), spins_in, spins_out, 2, 3, L, spin_diagonal, per_degree)
    for i, si in enumerate(spins_in):
        for o, so in enumerate(spins_out):
            np.testing.assert_array_equal(_block(bank, i, o), want[(si, so)])


@st.composite
def _conv_layouts(draw):
    L = draw(st.integers(2, 12))
    spin = st.integers(-(L - 1), L - 1)
    spins_in = draw(st.lists(spin, min_size=1, max_size=3, unique=True))
    spins_out = draw(st.lists(spin, min_size=1, max_size=3, unique=True))
    top = draw(st.sampled_from([L - 1, -(L - 1)]))
    if top not in spins_in and -top not in spins_in:
        spins_in[draw(st.integers(0, len(spins_in) - 1))] = top
    return (
        L, draw(st.integers(0, 3)), tuple(spins_in), tuple(spins_out),
        draw(st.integers(1, 3)), draw(st.integers(1, 3)),
        draw(st.booleans()), draw(st.booleans()), draw(st.integers(0, 2**32 - 1)),
    )


@given(_conv_layouts())
def test_dense_conv_matches_per_pair_sums(layout):
    # One matmul per degree over the spin-major channel stack equals the sum
    # over spin pairs; a mixed-up row/column order or a missing low-degree
    # mask breaks it.
    L, batch, spins_in, spins_out, cin, cout, spin_diagonal, per_degree, seed = layout
    rng = np.random.default_rng(seed)
    bank = FilterBank.random(rng, spins_in, spins_out, cin, cout, L,
                             spin_diagonal=spin_diagonal, per_degree=per_degree)
    co = random_coefficients(rng, batch, np.repeat(spins_in, cin), L)
    out = spectral_conv(co, bank)
    want = reference.spectral_conv_per_pair(co.coeffs, bank.weights, bank.spins_in, bank.spins_out)
    for i, si in enumerate(bank.spins_in):
        for o, so in enumerate(bank.spins_out):
            assert not _block(bank, i, o)[..., : max(abs(si), abs(so))].any()
    np.testing.assert_array_equal(out.spins, np.repeat(spins_out, cout))
    assert out.coeffs.shape == want.shape
    if want.size:
        assert np.abs(out.coeffs - want).max() <= 1e-12 * np.abs(want).max()


# --- phase collapse ---------------------------------------------------------


def test_phase_collapse_identity_params(rng):
    L = 8
    sig = inverse(random_coefficients(rng, 1, np.array([0, 0, 1]), L), compute_delta(L))
    params = PhaseCollapseParams(np.eye(2), np.zeros((2, 3)), np.zeros(2))
    out = phase_collapse(sig, params)
    np.testing.assert_array_equal(out.samples, sig.samples)


def test_phase_collapse_global_phase_invariance(rng):
    # A global phase on the nonzero-spin channels does not change the new
    # spin-0 outputs, and rides through the untouched channels.
    L = 8
    spins = np.array([0, 1, 1])
    sig = inverse(random_coefficients(rng, 1, spins, L), compute_delta(L))
    w1 = np.zeros((1, 1), dtype=complex)
    w2 = rng.normal(size=(1, 3))
    b = np.zeros(1, dtype=complex)
    phase = np.exp(1j * 0.8)
    phased = sig.samples.copy()
    phased[:, 1:] *= phase
    out = phase_collapse(sig, PhaseCollapseParams(w1, w2, b))
    out_phased = phase_collapse(SpinSignal(phased, spins, sig.grid), PhaseCollapseParams(w1, w2, b))
    np.testing.assert_allclose(out_phased.samples[:, 0], out.samples[:, 0], atol=1e-13)
    np.testing.assert_allclose(out_phased.samples[:, 1:], phase * out.samples[:, 1:], atol=0)


def test_phase_collapse_leaves_nonzero_spins_bitwise(rng):
    L = 8
    spins = np.array([0, 1, 2])
    sig = inverse(random_coefficients(rng, 2, spins, L), compute_delta(L))
    params = PhaseCollapseParams.random(rng, 1, 3)
    out = phase_collapse(sig, params)
    np.testing.assert_array_equal(out.samples[:, 1:], sig.samples[:, 1:])


@st.composite
def _collapse_layouts(draw):
    L = draw(st.integers(1, 16))
    spins = draw(st.lists(st.integers(-(L - 1), L - 1), min_size=1, max_size=4))
    spins.insert(draw(st.integers(0, len(spins))), 0)  # at least one spin-0 channel, anywhere
    return make_grid(2 * L), np.array(spins), draw(st.integers(1, 3)), draw(st.integers(0, 2**32 - 1))


@given(_collapse_layouts())
def test_phase_collapse_property_leaves_nonzero_spins_bitwise(layout):
    # For any channel order and random parameters only the spin-0 channels change.
    grid, spins, batch, seed = layout
    rng = np.random.default_rng(seed)
    shape = (batch, len(spins), grid.n, grid.n)
    sig = SpinSignal(rng.normal(size=shape) + 1j * rng.normal(size=shape), spins, grid)
    out = phase_collapse(sig, PhaseCollapseParams.random(rng, int((spins == 0).sum()), len(spins)))
    np.testing.assert_array_equal(out.spins, spins)
    np.testing.assert_array_equal(out.samples[:, spins != 0], sig.samples[:, spins != 0])


def test_phase_collapse_rejects_complex_w2(rng):
    L = 4
    sig = inverse(random_coefficients(rng, 1, np.array([0]), L), compute_delta(L))
    with pytest.raises(ValueError):
        phase_collapse(sig, PhaseCollapseParams(np.eye(1, dtype=complex), np.eye(1) * 1j, np.zeros(1)))


def test_phase_collapse_dimension_mismatch(rng):
    L = 4
    sig = inverse(random_coefficients(rng, 1, np.array([0, 1]), L), compute_delta(L))
    with pytest.raises(ValueError):
        phase_collapse(sig, PhaseCollapseParams(np.eye(2, dtype=complex), np.zeros((1, 2)), np.zeros(1)))


def test_phase_collapse_matches_per_sample_loop(rng):
    # A non-symmetric W1, a nonzero W2 and bias, batch > 1 and spin-0
    # channels that are not contiguous: a transposed W1, a dropped term or a
    # wrong channel index each change the result.
    L = 6
    spins = np.array([0, 1, 0, 2])
    sig = inverse(random_coefficients(rng, 3, spins, L), compute_delta(L))
    w1 = np.array([[1.0 + 2.0j, -0.5j], [0.3, 2.0 - 1.0j]])
    params = PhaseCollapseParams(w1, rng.normal(size=(2, 4)), np.array([1.5 - 0.5j, -2.0 + 1.0j]))
    zero = np.flatnonzero(spins == 0)
    want = sig.samples.copy()
    for b in range(sig.batch):
        for i, ci in enumerate(zero):
            acc = np.full(sig.samples.shape[2:], params.bias[i])
            for j, cj in enumerate(zero):
                acc = acc + params.w1[i, j] * sig.samples[b, cj]
            for c in range(len(spins)):
                acc = acc + params.w2[i, c] * np.abs(sig.samples[b, c])
            want[b, ci] = acc
    got = phase_collapse(sig, params).samples
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())
    np.testing.assert_array_equal(got[:, spins != 0], sig.samples[:, spins != 0])


def test_phase_collapse_rejects_params_of_another_layout(rng):
    L = 4
    sig = inverse(random_coefficients(rng, 1, np.array([0, 1]), L), compute_delta(L))
    for c0, ct in ((2, 2), (1, 3)):
        with pytest.raises(ValueError, match="spin-0 channels"):
            phase_collapse(sig, PhaseCollapseParams(np.eye(c0), np.zeros((c0, ct)), np.zeros(c0)))


def test_phase_collapse_params_own_their_checks():
    params = PhaseCollapseParams([[1.0]], [[2, 3]], [0.5])
    assert params.w1.dtype == complex and params.bias.dtype == complex and params.w2.dtype == float
    for w1, w2, bias in (
        (np.eye(2), np.zeros((2, 3)), np.zeros(1)),  # w1 not (C0, C0)
        (np.eye(1), np.zeros(3), np.zeros(1)),  # w2 not 2-D
        (np.eye(1), np.zeros((2, 3)), np.zeros(1)),  # w2 rows are not C0
        (np.eye(1), np.zeros((1, 3)), np.zeros((1, 1))),  # bias not 1-D
    ):
        with pytest.raises(ValueError, match="are not"):
            PhaseCollapseParams(w1, w2, bias)


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: FilterBank(np.full((1, 1, 4), np.nan), (0,), (0,)), "weights"),
        (lambda: PhaseCollapseParams([[np.nan]], [[1.0]], [0.0]), "w1"),
        (lambda: PhaseCollapseParams([[1.0]], [[np.inf]], [0.0]), "w2"),
        (lambda: PhaseCollapseParams([[1.0]], [[1.0]], [np.nan]), "bias"),
        (lambda: BatchNormState(np.array([np.nan]), np.zeros(1, dtype=complex), None), "scale"),
        (lambda: BatchNormState(np.ones(1), np.array([np.inf + 0j]), None), "bias"),
        (lambda: BatchNormState(np.ones(1), np.zeros(1, dtype=complex), np.array([np.nan])), "running_variance"),
        (lambda: BatchNormState(np.ones(1), np.zeros(1, dtype=complex), np.array([np.inf])), "running_variance"),
    ],
    ids=["bank-nan", "collapse-nan-w1", "collapse-inf-w2", "collapse-nan-bias", "bn-nan-scale", "bn-inf-bias",
         "bn-nan-running", "bn-inf-running"],
)
def test_layer_parameters_reject_non_finite_values(build, field):
    # Unchecked, each of these constructed and made every output of its layer NaN.
    with pytest.raises(ValueError, match=rf"\b{field} must be finite"):
        build()


# --- spectral batch norm ----------------------------------------------------


def test_batch_norm_unit_variance_fixed_point(rng):
    L = 8
    spins = np.array([0, 0, 1])
    co = random_coefficients(rng, 4, spins, L)
    state = BatchNormState.initialize(3)
    out, new_state = spectral_batch_norm(co, state, "train")
    var = spectral_variance(out).mean(axis=0)
    # epsilon = 1e-5 << variance, so the unit-variance fixed point holds to 1e-3
    assert np.abs(var - 1.0).max() < 1e-3
    assert np.abs(out.coeffs[:, :2, 0]).max() == 0.0  # mean slot = bias = 0
    assert new_state.running_variance is not None


def test_batch_norm_constant_input_yields_bias(rng):
    L = 4
    co = np.zeros((2, 1, 16), dtype=complex)
    co[:, 0, 0] = 5.0 * SQRT_4PI  # f == 5
    state = BatchNormState(
        scale=np.ones(1), bias=np.array([2.0 + 1.0j]), running_variance=None
    )
    out, _ = spectral_batch_norm(SpinCoefficients(co, np.array([0]), L), state, "train")
    # all non-mean coefficients are zero; the mean slot is set to the bias
    np.testing.assert_array_equal(out.coeffs[:, 0, 1:], 0.0)
    np.testing.assert_array_equal(out.coeffs[:, 0, 0], 2.0 + 1.0j)


def test_batch_norm_spectral_matches_spatial_variance(rng):
    L = 8
    spins = np.array([0, 0, 0, 1, 1, 1])
    co = random_coefficients(rng, 4, spins, L)
    out, _ = spectral_batch_norm(co, BatchNormState.initialize(6), "train")
    for c in range(6):
        spectral = spectral_variance(out)[0, c]
        spatial = reference.spatial_variance_quadrature(out.coeffs[0, c], int(spins[c]), L)
        assert abs(spectral - spatial) / spatial < 1e-6


def test_batch_norm_eval_requires_statistics(rng):
    L = 4
    co = random_coefficients(rng, 1, np.array([0]), L)
    with pytest.raises(ValueError):
        spectral_batch_norm(co, BatchNormState.initialize(1), "eval")


def test_batch_norm_eval_uses_running_statistics(rng):
    L = 8
    co = random_coefficients(rng, 3, np.array([0]), L)
    _, warmed = spectral_batch_norm(co, BatchNormState.initialize(1), "train")
    out1, state1 = spectral_batch_norm(co, warmed, "eval")
    assert state1 is warmed  # eval does not update statistics
    out2, _ = spectral_batch_norm(co, warmed, "eval")
    np.testing.assert_array_equal(out1.coeffs, out2.coeffs)


def test_batch_norm_running_update_momentum(rng):
    L = 8
    co = random_coefficients(rng, 2, np.array([0]), L)
    _, s1 = spectral_batch_norm(co, BatchNormState.initialize(1), "train")
    half = SpinCoefficients(co.coeffs * 0.5, co.spins, L)
    _, s2 = spectral_batch_norm(half, s1, "train")
    var_half = spectral_variance(half).mean(axis=0)
    expected = 0.9 * s1.running_variance + 0.1 * var_half
    np.testing.assert_allclose(s2.running_variance, expected)


@st.composite
def _coefficient_cases(draw):
    # (band limit from 1 to 16, spins below it, batch, seed)
    L = draw(st.integers(1, 16))
    spins = draw(st.lists(st.integers(-(L - 1), L - 1), min_size=1, max_size=4))
    return L, np.array(spins), draw(st.integers(1, 3)), draw(st.integers(0, 2**32 - 1))


@given(_coefficient_cases())
def test_batch_norm_eval_after_one_train_step_reproduces_train(case):
    # The first train step stores the batch variance as the running variance,
    # so eval mode on the same batch divides by the same numbers.
    L, spins, batch, seed = case
    rng = np.random.default_rng(seed)
    co = random_coefficients(rng, batch, spins, L)
    c = len(spins)
    state = BatchNormState(rng.uniform(0.5, 2.0, c), rng.normal(size=c) + 1j * rng.normal(size=c), None)
    train, warmed = spectral_batch_norm(co, state, "train")
    evaluated, _ = spectral_batch_norm(co, warmed, "eval")
    np.testing.assert_array_equal(evaluated.coeffs, train.coeffs)


@given(_coefficient_cases())
def test_batch_norm_train_output_has_the_exact_shrunk_variance(case):
    # Train mode divides by sqrt(var + epsilon), so the output's batch variance is scale^2 var / (var + epsilon).
    L, spins, batch, seed = case
    rng = np.random.default_rng(seed)
    co = random_coefficients(rng, batch, spins, L)
    scale = rng.uniform(0.5, 2.0, len(spins))
    out, _ = spectral_batch_norm(co, BatchNormState(scale, np.zeros(len(spins), complex), None), "train")
    var = spectral_variance(co).mean(axis=0)
    want = scale**2 * var / (var + _EPSILON)
    np.testing.assert_allclose(spectral_variance(out).mean(axis=0), want, rtol=1e-12, atol=0)


def test_batch_norm_train_requires_batch(rng):
    L = 4
    co = SpinCoefficients(np.zeros((0, 1, 16), dtype=complex), np.array([0]), L)
    with pytest.raises(ValueError):
        spectral_batch_norm(co, BatchNormState.initialize(1), "train")


def test_batch_norm_state_validation():
    with pytest.raises(ValueError):
        BatchNormState(np.ones(1), np.zeros(1, dtype=complex), np.array([-1.0]))


def test_batch_norm_state_rejects_mismatched_shapes():
    for scale, bias, running in (
        (np.ones(2), np.zeros(3, dtype=complex), None),
        (np.ones(2), np.zeros(2, dtype=complex), np.ones(3)),
        (np.ones((1, 2)), np.zeros((1, 2), dtype=complex), None),
    ):
        with pytest.raises(ValueError, match="share one"):
            BatchNormState(scale, bias, running)


def test_spectral_variance_survives_a_large_mean(rng):
    # Subtracting a 1e8 mean-slot energy from the total would cancel the
    # 1e-11 variance to 0; zeroing the slot keeps it.
    L = 4
    co = np.zeros((2, 1, num_coefficients(L)), dtype=complex)
    co[:, 0, 1:] = 1e-6 * (rng.normal(size=(2, 15)) + 1j * rng.normal(size=(2, 15)))
    co[:, 0, 0] = 1e4
    coeffs = SpinCoefficients(co, np.array([0]), L)
    var = spectral_variance(coeffs)
    np.testing.assert_allclose(var[:, 0], (np.abs(co[:, 0, 1:]) ** 2).sum(axis=-1) / (4 * np.pi), rtol=1e-14)
    _, state = spectral_batch_norm(coeffs, BatchNormState.initialize(1), "train")
    np.testing.assert_array_equal(state.running_variance, var.mean(axis=0))


# --- pooling ----------------------------------------------------------------


def test_pool_identity_at_same_band_limit(rng):
    L = 8
    co = random_coefficients(rng, 1, np.array([0]), L)
    assert spectral_pool(co, L) is co


def test_pool_then_unpool_truncates(rng):
    L = 16
    co = random_coefficients(rng, 1, np.array([0, 1]), L)
    back = spectral_unpool(spectral_pool(co, 8), L)
    expected = co.coeffs.copy()
    expected[..., num_coefficients(8) :] = 0.0
    np.testing.assert_array_equal(back.coeffs, expected)
    # projector idempotence
    again = spectral_unpool(spectral_pool(back, 8), L)
    np.testing.assert_array_equal(again.coeffs, back.coeffs)


def test_unpool_then_pool_is_identity(rng):
    L = 8
    co = random_coefficients(rng, 2, np.array([0, 1]), L)
    back = spectral_pool(spectral_unpool(co, 12), L)
    np.testing.assert_array_equal(back.coeffs, co.coeffs)


@given(_coefficient_cases(), st.integers(0, 8))
def test_pool_inverts_unpool(case, extra):
    L, spins, batch, seed = case
    co = random_coefficients(np.random.default_rng(seed), batch, spins, L)
    back = spectral_pool(spectral_unpool(co, L + extra), L)
    assert back.band_limit == L
    np.testing.assert_array_equal(back.spins, spins)
    np.testing.assert_array_equal(back.coeffs, co.coeffs)


@given(_coefficient_cases(), st.integers(1, 16))
def test_unpool_of_pool_is_idempotent(case, target):
    L, spins, batch, seed = case
    target = max(min(target, L), int(np.abs(spins).max()) + 1)
    co = random_coefficients(np.random.default_rng(seed), batch, spins, L)
    once = spectral_unpool(spectral_pool(co, target), L)
    twice = spectral_unpool(spectral_pool(once, target), L)
    assert once.band_limit == twice.band_limit == L
    np.testing.assert_array_equal(twice.coeffs, once.coeffs)


def test_pooled_synthesis_matches_truncated_series(rng):
    # Pool to L=8 then synthesize == synthesize the analytically truncated
    # expansion on the coarser grid.
    L, new_L = 16, 8
    co = random_coefficients(rng, 1, np.array([0, 1]), L)
    pooled = spectral_pool(co, new_L)
    synth = inverse(pooled, compute_delta(new_L))
    truncated = SpinCoefficients(
        co.coeffs[..., : num_coefficients(new_L)].copy(), co.spins, new_L
    )
    synth2 = inverse(truncated, compute_delta(new_L))
    assert np.abs(synth.samples - synth2.samples).max() <= 1e-12 * np.abs(synth2.samples).max()
    assert synth.grid.n == 2 * new_L


def test_unpooled_roundtrip_through_transforms(rng):
    # Synthesize at 2L from zero-padded coefficients, pool back to L.
    L = 8
    co = random_coefficients(rng, 1, np.array([0, 1]), L)
    up = spectral_unpool(co, 2 * L)
    sig = inverse(up, compute_delta(2 * L))
    back = spectral_pool(forward(sig, compute_delta(2 * L)), L)
    assert np.abs(back.coeffs - co.coeffs).max() / np.abs(co.coeffs).max() < 1e-10


def test_pool_rejects_bad_targets(rng):
    L = 8
    co = random_coefficients(rng, 1, np.array([0, 2]), L)
    with pytest.raises(ValueError):
        spectral_pool(co, 16)
    with pytest.raises(ValueError):
        spectral_pool(co, 2)  # |spin| = 2 needs band limit > 2
    with pytest.raises(ValueError):
        spectral_unpool(co, 4)


# --- residual block ---------------------------------------------------------


def _block_params(rng, L, pool_to=None, zero_banks=False):
    c0, ct = 2, 4
    fb = FilterBank.random(rng, (0, 1), (0, 1), 2, 2, pool_to or L, spin_diagonal=True)
    if zero_banks:
        fb = FilterBank(np.zeros_like(fb.weights), (0, 1), (0, 1))
    collapse = PhaseCollapseParams.random(rng, c0, ct)
    return ResidualBlockParams(
        bank1=fb,
        bn1=BatchNormState(np.ones(ct), np.zeros(ct, dtype=complex), None),
        collapse1=collapse,
        bank2=fb,
        bn2=BatchNormState(np.ones(ct), np.zeros(ct, dtype=complex), None),
        collapse2=collapse,
        pool_to=pool_to,
    )


def test_residual_zero_banks_reduces_to_skip(rng):
    # With zero filter banks, unit BN scale and zero BN bias, the block is
    # the final activation applied to the skip path.
    L = 8
    params = _block_params(rng, L, zero_banks=True)
    sig = smooth_harness_signal(rng, L, (0, 1), 2)
    out = residual_block_train(sig, params)[0]
    expected = phase_collapse(sig, params.collapse2)
    np.testing.assert_allclose(out.samples, expected.samples, atol=1e-12)


def test_residual_block_runs_on_coefficients(rng):
    L = 8
    params = _block_params(rng, L)
    sig = smooth_harness_signal(rng, L, (0, 1), 2)
    co = forward(sig, compute_delta(L))
    out, _ = residual_block_train(co, params)
    assert isinstance(out, SpinCoefficients)
    assert out.band_limit == L


def test_residual_block_pooling_structure(rng):
    # Pooling inside the block truncates both paths identically.
    L, pooled = 16, 8
    params = _block_params(rng, L, pool_to=pooled)
    sig = smooth_harness_signal(rng, L, (0, 1), 2, max_degree=6, shared_orders=True)
    out, _ = residual_block_train(sig, params)
    assert out.grid.band_limit == pooled
    # skip path pooled the same way the main path was
    co = forward(sig, compute_delta(L))
    skip = spectral_pool(co, pooled)
    zero_banks = _block_params(rng, L, pool_to=pooled, zero_banks=True)
    out2, _ = residual_block_train(sig, zero_banks)
    expected = phase_collapse(inverse(skip, compute_delta(pooled)), zero_banks.collapse2)
    np.testing.assert_allclose(out2.samples, expected.samples, atol=1e-12)


def test_residual_block_channel_projection(rng):
    # Channel growth requires the 1-tap projection on the skip path.
    L = 8
    b1 = FilterBank.random(rng, (0, 1), (0, 1), 2, 4, L)
    b2 = FilterBank.random(rng, (0, 1), (0, 1), 4, 4, L)
    params = ResidualBlockParams(
        bank1=b1,
        bn1=BatchNormState(np.ones(8), np.zeros(8, dtype=complex), None),
        collapse1=PhaseCollapseParams.random(rng, 4, 8),
        bank2=b2,
        bn2=BatchNormState(np.ones(8), np.zeros(8, dtype=complex), None),
        collapse2=PhaseCollapseParams.random(rng, 4, 8),
    )
    sig = smooth_harness_signal(rng, L, (0, 1), 2)
    with pytest.raises(ValueError):
        residual_block_train(sig, params)[0]
    proj = FilterBank.random(rng, (0, 1), (0, 1), 2, 4, L, spin_diagonal=True, per_degree=False)
    params = ResidualBlockParams(
        bank1=params.bank1, bn1=params.bn1, collapse1=params.collapse1,
        bank2=params.bank2, bn2=params.bn2, collapse2=params.collapse2,
        projection=proj,
    )
    out = residual_block_train(sig, params)[0]
    assert out.channels == 8
    np.testing.assert_array_equal(out.spins, [0, 0, 0, 0, 1, 1, 1, 1])


def _count_transforms(monkeypatch):
    """The names of the layers module's forward and inverse calls from now on, in call order."""
    calls = []

    def counted(transform):
        return lambda *args: calls.append(transform.__name__) or transform(*args)

    monkeypatch.setattr(layers, "forward", counted(layers.forward))
    monkeypatch.setattr(layers, "inverse", counted(layers.inverse))
    return calls


_SIZE_MISFITS = {  # a fault in a batch-norm state or collapse, and its layer's message
    "bn1": "state is sized for 7 channels, coefficients have 8",
    "collapse1": r"w2 of shape \(4, 7\) does not fit",
    "bn2": "state is sized for 7 channels, coefficients have 8",
    "collapse2": r"w2 of shape \(4, 7\) does not fit",
    "untrained_eval": "eval mode requires initialized running statistics",
}


@pytest.mark.parametrize("fault", ["input", "middle", "projection_out", "no_projection", *_SIZE_MISFITS])
def test_residual_block_checks_signatures_before_any_transform(rng, monkeypatch, fault):
    # A signature that does not chain, or a batch-norm state or collapse that does not fit its layer's
    # channels, is reported before the first transform, not after the main path has run.
    L = 8
    b1 = FilterBank.random(rng, (0, 1), (0, 1), 2, 4, L)
    b2 = FilterBank.random(rng, (0, 1), (0, 1), 4, 4, L)
    proj = FilterBank.random(rng, (0, 1), (0, 1), 2, 4, L, per_degree=False)
    if fault == "input":
        b1 = FilterBank.random(rng, (0, 1), (0, 1), 3, 4, L)
    elif fault == "middle":
        b2 = FilterBank.random(rng, (0, 1), (0, 1), 2, 4, L)
    elif fault == "projection_out":
        proj = FilterBank.random(rng, (0, 1), (0,), 2, 8, L, per_degree=False)
    params = ResidualBlockParams(
        bank1=b1,
        bn1=BatchNormState.initialize(7 if fault == "bn1" else 8),
        collapse1=PhaseCollapseParams.random(rng, 4, 7 if fault == "collapse1" else 8),
        bank2=b2,
        bn2=BatchNormState.initialize(7 if fault == "bn2" else 8),
        collapse2=PhaseCollapseParams.random(rng, 4, 7 if fault == "collapse2" else 8),
        projection=None if fault == "no_projection" else proj,
    )
    sig = smooth_harness_signal(rng, L, (0, 1), 2)
    calls = _count_transforms(monkeypatch)
    with pytest.raises(ValueError, match=_SIZE_MISFITS.get(fault, "signature")):
        residual_block(sig, params) if fault == "untrained_eval" else residual_block_train(sig, params)
    assert calls == []


_BAND_LIMIT_MISFITS = {  # a fault in a band limit, and its message
    "L4_banks_on_L8_signal": r"bank band limit 4 .*\(8\)",
    "L4_bank2_on_L8_coefficients": r"bank band limit 4 .*\(8\)",
    "pool_to_16_on_L8_signal": "pooling target 16 exceeds",
    "pool_to_1_on_spin_1_signal": r"spins \(0, 1\) x \(0, 1\) are not all below its band limit 1",
    "spin_4_bank2_at_L4": r"spins \(0, 1\) x \(0, 4\) are not all below its band limit 4",
}


@pytest.mark.parametrize("case", list(_BAND_LIMIT_MISFITS))
def test_residual_block_checks_band_limits_before_any_transform(rng, monkeypatch, case):
    # A bank or pooling target that does not fit the input band limit is reported before the first
    # transform; a bank with a spin at or above its own band limit, which no block can run, when it is built.
    x = smooth_harness_signal(rng, 4 if case == "spin_4_bank2_at_L4" else 8, (0, 1), 2)
    if case == "L4_bank2_on_L8_coefficients":
        x = forward(x, compute_delta(8))
    calls = _count_transforms(monkeypatch)
    with pytest.raises(ValueError, match=_BAND_LIMIT_MISFITS[case]):
        L = 4 if case in ("L4_banks_on_L8_signal", "spin_4_bank2_at_L4") else 8
        params = _block_params(rng, L, pool_to=1 if case == "pool_to_1_on_spin_1_signal" else None)
        if case == "L4_bank2_on_L8_coefficients":
            params = replace(params, bank2=FilterBank.random(rng, (0, 1), (0, 1), 2, 2, 4, spin_diagonal=True))
        elif case == "pool_to_16_on_L8_signal":
            params = replace(params, pool_to=16)
        elif case == "spin_4_bank2_at_L4":
            params = replace(
                params,
                bank2=FilterBank.random(rng, (0, 1), (0, 4), 2, 2, 4),
                projection=FilterBank.random(rng, (0, 1), (0, 4), 2, 2, 4, per_degree=False),
            )
        residual_block_train(x, params)
    assert calls == []


_BLOCK_PARTS = ("input", "pool", "bank_L", "bn1", "collapse1", "middle", "bn2", "skip", "collapse2", "untrained")


@st.composite
def _block_cases(draw):
    # (input, block parameters, mode): a fitting layout over drawn spin sets, channel counts and band limits,
    # with up to two of its parts made one too large (an eval-mode "untrained" has no running statistics)
    broken = draw(st.sets(st.sampled_from(_BLOCK_PARTS), max_size=2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    L = draw(st.integers(1, 6))
    pool_to = draw(st.none() | st.integers(1, L))
    pooled = pool_to or L
    spin_sets = st.lists(st.integers(-(pooled - 1), pooled - 1), min_size=1, max_size=2, unique=True).map(tuple)
    (spins_in, cin), (spins_mid, cmid) = [(draw(spin_sets), draw(st.integers(1, 2))) for _ in range(2)]
    spins_out, cout = (spins_in, cin) if draw(st.booleans()) else (draw(spin_sets), draw(st.integers(1, 2)))
    mid, out = len(spins_mid) * cmid, len(spins_out) * cout

    def grow(part, size):
        return size + (part in broken)

    def norm(channels):
        running = None if "untrained" in broken else np.ones(channels)
        return BatchNormState(np.ones(channels), np.zeros(channels, dtype=complex), running)

    bank_L = grow("bank_L", pooled)

    projection = None
    if (spins_in, cin) != (spins_out, cout) or "skip" in broken or draw(st.booleans()):
        projection = FilterBank.random(rng, spins_in, spins_out, cin, grow("skip", cout), bank_L, per_degree=False)
    params = ResidualBlockParams(
        bank1=FilterBank.random(rng, spins_in, spins_mid, cin, cmid, bank_L),
        bn1=norm(grow("bn1", mid)),
        collapse1=PhaseCollapseParams.random(rng, cmid * spins_mid.count(0), grow("collapse1", mid)),
        bank2=FilterBank.random(rng, spins_mid, spins_out, grow("middle", cmid), cout, bank_L),
        bn2=norm(grow("bn2", out)),
        collapse2=PhaseCollapseParams.random(rng, cout * spins_out.count(0), grow("collapse2", out)),
        pool_to=L + 1 if "pool" in broken else pool_to,
        projection=projection,
    )
    x = random_coefficients(rng, draw(st.integers(1, 2)), np.repeat(spins_in, grow("input", cin)), L)
    if draw(st.booleans()):
        x = inverse(x, compute_delta(L))
    return x, params, draw(st.sampled_from(["train", "eval"]))


@given(_block_cases())
def test_residual_block_runs_or_raises_before_any_transform(case):
    # Every input and parameter set either runs through the block or is refused with a ValueError before
    # the first transform: the block's check applies every rule its layers would apply later.
    x, params, mode = case
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = _count_transforms(monkeypatch)
        try:
            (residual_block_train if mode == "train" else residual_block)(x, params)
        except ValueError:
            assert calls == []


def _residual_composition(x, params):
    """The eval-mode block as the composition of its layers, transforming every channel after each activation."""
    c_in = forward(x, compute_delta(x.grid.band_limit)) if isinstance(x, SpinSignal) else x
    pooled = spectral_pool(c_in, params.pool_to) if params.pool_to is not None else c_in
    tables = compute_delta(pooled.band_limit)
    h = spectral_batch_norm(spectral_conv(pooled, params.bank1), params.bn1, "eval")[0]
    h = forward(phase_collapse(inverse(h, tables), params.collapse1), tables)
    h = spectral_batch_norm(spectral_conv(h, params.bank2), params.bn2, "eval")[0]
    skip = pooled if params.projection is None else spectral_conv(pooled, params.projection)
    total = SpinCoefficients(h.coeffs + skip.coeffs, h.spins, h.band_limit)
    out = phase_collapse(inverse(total, tables), params.collapse2)
    return out if isinstance(x, SpinSignal) else forward(out, tables)


@pytest.mark.parametrize("as_signal", [True, False])
def test_residual_block_matches_the_composition_of_its_layers(rng, as_signal):
    # The block transforms back only the spin-0 channels after each activation and carries the other
    # channels' coefficients through; the full round trip gives them back to round-off.
    L, spins, spins_in, c = 16, (0, 1, -1), (0, 2), 3
    total = len(spins) * c
    params = ResidualBlockParams(
        bank1=FilterBank.random(rng, spins_in, spins, 2, c, 8),
        bn1=BatchNormState.initialize(total),
        collapse1=PhaseCollapseParams.random(rng, c, total),
        bank2=FilterBank.random(rng, spins, spins, c, c, 8),
        bn2=BatchNormState.initialize(total),
        collapse2=PhaseCollapseParams.random(rng, c, total),
        pool_to=8,
        projection=FilterBank.random(rng, spins_in, spins, 2, c, 8, per_degree=False),
    )
    x = random_coefficients(rng, 2, np.repeat(spins_in, 2), L)
    if as_signal:
        x = inverse(x, compute_delta(L))
    params = residual_block_train(x, params)[1]
    out, want = residual_block(x, params), _residual_composition(x, params)
    got, want = (out.samples, want.samples) if as_signal else (out.coeffs, want.coeffs)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _spin_zero_composition(x, params, mode):
    """The block through the public phase_collapse, keeping the transform of each activation's spin-0
    channels only; returns (output, bn1, bn2)."""
    def collapse(coeffs, collapse_params):
        full = forward(phase_collapse(inverse(coeffs, tables), collapse_params), tables)
        out = coeffs.coeffs.copy()
        out[:, coeffs.spins == 0] = full.coeffs[:, coeffs.spins == 0]
        return SpinCoefficients(out, coeffs.spins, coeffs.band_limit)

    c_in = forward(x, compute_delta(x.grid.band_limit)) if isinstance(x, SpinSignal) else x
    pooled = spectral_pool(c_in, params.pool_to) if params.pool_to is not None else c_in
    tables = compute_delta(pooled.band_limit)
    h, bn1 = spectral_batch_norm(spectral_conv(pooled, params.bank1), params.bn1, mode)
    h, bn2 = spectral_batch_norm(spectral_conv(collapse(h, params.collapse1), params.bank2), params.bn2, mode)
    skip = pooled if params.projection is None else spectral_conv(pooled, params.projection)
    total = SpinCoefficients(h.coeffs + skip.coeffs, h.spins, h.band_limit)
    if isinstance(x, SpinSignal):
        return phase_collapse(inverse(total, tables), params.collapse2).samples, bn1, bn2
    return collapse(total, params.collapse2).coeffs, bn1, bn2


@pytest.mark.parametrize("batch", [3, 17])
@pytest.mark.parametrize("as_signal", [True, False])
def test_residual_block_is_bitwise_its_spin_zero_composition(rng, as_signal, batch):
    # The block collapses only the spin-0 stack and transforms it back, one chunk of entries at a time
    # (8 to a chunk here, so 17 entries make three, the last partial); the public phase_collapse,
    # transformed whole, gives the same spin-0 coefficients bit for bit, in train and in eval mode.
    L, spins, c = 16, (0, 1), 4
    total = len(spins) * c
    params = ResidualBlockParams(
        bank1=FilterBank.random(rng, spins, spins, c, c, L),
        bn1=BatchNormState.initialize(total),
        collapse1=PhaseCollapseParams.random(rng, c, total),
        bank2=FilterBank.random(rng, spins, spins, c, c, L),
        bn2=BatchNormState.initialize(total),
        collapse2=PhaseCollapseParams.random(rng, c, total),
    )
    assert len(_chunks(batch, 64 * L * L * total, _MAP_CHUNK_BYTES)) == (batch + 7) // 8
    x = random_coefficients(rng, batch, np.repeat(spins, c), L)
    if as_signal:
        x = inverse(x, compute_delta(L))
    out, trained = residual_block_train(x, params)
    want, bn1, bn2 = _spin_zero_composition(x, params, "train")
    np.testing.assert_array_equal(out.samples if as_signal else out.coeffs, want)
    np.testing.assert_array_equal(trained.bn1.running_variance, bn1.running_variance)
    np.testing.assert_array_equal(trained.bn2.running_variance, bn2.running_variance)
    out = residual_block(x, trained)
    np.testing.assert_array_equal(out.samples if as_signal else out.coeffs, _spin_zero_composition(x, trained, "eval")[0])


def _traced_peak(run):
    """The tracemalloc peak of run(), after one untraced call fills the caches it reads."""
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_activation_round_trip_holds_one_chunk_of_samples(rng):
    # The round trip runs over chunks of entries of at most 1 MiB of samples, so its peak stays below the
    # 9 MiB of samples of the whole batch (18 entries of 16 + 16 channels at L=16, as in a molecule's block).
    L, c = 16, 16
    tables = compute_delta(L)
    coeffs = random_coefficients(rng, 18, np.repeat([0, 1], c), L)
    params = PhaseCollapseParams.random(rng, c, 2 * c)
    peak = _traced_peak(lambda: layers._collapse_coefficients(coeffs, params, tables, DEFAULT_CONFIG))
    samples = coeffs.batch * coeffs.channels * 64 * L * L
    assert samples == 9 * 2**20
    assert peak < samples, f"peak {peak / 2**20:.2f} MiB"


def _trained_block(rng, L, spins, c):
    """Block parameters with banks of band limit L on c channels of each spin, and nonzero running statistics."""
    total = len(spins) * c

    def bn():
        return BatchNormState(np.ones(total), rng.normal(size=total) + 0j, rng.uniform(0.5, 2.0, size=total))

    return ResidualBlockParams(
        bank1=FilterBank.random(rng, spins, spins, c, c, L),
        bn1=bn(),
        collapse1=PhaseCollapseParams.random(rng, c, total),
        bank2=FilterBank.random(rng, spins, spins, c, c, L),
        bn2=bn(),
        collapse2=PhaseCollapseParams.random(rng, c, total),
    )


def test_layers_give_an_empty_batch_for_no_entries(rng):
    # A batch of 0 entries runs through the collapse, and the eval-mode block of either kind, as an empty
    # batch; train mode needs an entry to take its batch statistics from.
    L, spins, c = 8, (0, 1), 2
    params = _trained_block(rng, L, spins, c)
    coeffs = SpinCoefficients(np.zeros((0, 4, L * L), dtype=complex), np.repeat(spins, c), L)
    sig = inverse(coeffs, compute_delta(L))
    assert sig.samples.shape == (0, 4, 2 * L, 2 * L)
    out = phase_collapse(sig, params.collapse1)
    assert out.samples.shape == sig.samples.shape
    np.testing.assert_array_equal(out.spins, sig.spins)
    assert residual_block(sig, params).samples.shape == sig.samples.shape
    assert residual_block(coeffs, params).coeffs.shape == coeffs.coeffs.shape
    for x in (sig, coeffs):
        with pytest.raises(ValueError, match=r"train mode requires batch >= 1"):
            residual_block_train(x, params)


def test_collapse_chunks_match_each_entry_alone(rng):
    # 17 entries of 8 channels at L=16 make three chunks of entries (8, 8 and 1) for the collapse; an
    # entry's collapse, alone or in the block's signal output, does not depend on where its chunk starts.
    L, spins, c = 16, (0, 1), 4
    params = _trained_block(rng, L, spins, c)
    sig = inverse(random_coefficients(rng, 17, np.repeat(spins, c), L), compute_delta(L))
    assert len(_chunks(sig.batch, 16 * sig.channels * sig.grid.n**2, _MAP_CHUNK_BYTES)) == 3
    entries = [SpinSignal(s[None], sig.spins, sig.grid) for s in sig.samples]
    alone = np.concatenate([phase_collapse(e, params.collapse2).samples for e in entries])
    np.testing.assert_array_equal(phase_collapse(sig, params.collapse2).samples, alone)
    alone = np.concatenate([residual_block(e, params).samples for e in entries])
    np.testing.assert_array_equal(residual_block(sig, params).samples, alone)


def _molecule_sized_signal(rng):
    """Block parameters and the 9 MiB of samples of 18 entries of 16 + 16 channels at L=16, as in a molecule's block."""
    L, spins, c = 16, (0, 1), 16
    sig = inverse(random_coefficients(rng, 18, np.repeat(spins, c), L), compute_delta(L))
    assert sig.samples.nbytes == 9 * 2**20
    return _trained_block(rng, L, spins, c), sig


def test_phase_collapse_holds_one_chunk_beside_its_output(rng):
    # phase_collapse holds its output copy plus the temporaries of one chunk of entries (1 MiB of
    # samples): a whole-batch spin-0 stack would add 4.5 MiB.
    params, sig = _molecule_sized_signal(rng)
    peak = _traced_peak(lambda: phase_collapse(sig, params.collapse2))
    assert peak < sig.samples.nbytes + 2 * 2**20, f"peak {peak / 2**20:.2f} MiB"


def test_signal_output_block_collapses_in_its_output(rng):
    # The signal-output block holds its 9 MiB of output samples and about 11.6 MiB of coefficients and
    # transform temporaries, and collapses the output in place: a whole-batch spin-0 stack would add 4.5 MiB.
    params, sig = _molecule_sized_signal(rng)
    peak = _traced_peak(lambda: residual_block(sig, params))
    assert peak < 22 * 2**20, f"peak {peak / 2**20:.2f} MiB"


def test_unpool_same_band_limit_is_identity(rng):
    L = 8
    co = random_coefficients(rng, 1, np.array([0]), L)
    assert spectral_unpool(co, L) is co
