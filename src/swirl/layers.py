"""Spectral neural-network layers.

All layers act on harmonic coefficients except the phase collapse, which
is a pointwise spatial activation.  Channel layout convention: a
coefficient or signal object processed by these layers carries channels
grouped by spin, i.e. spins = repeat(spin_set, channels_per_spin).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .signal import SpinCoefficients, SpinSignal, _grouped_spins, _integers, degree_slice, num_coefficients
from .transforms import DEFAULT_CONFIG, TransformConfig, forward, inverse
from .wigner import compute_delta

_MOMENTUM = 0.1  # weight of the batch variance in the running-variance update
_EPSILON = 1e-5  # added to the variance before the square root


@dataclass(frozen=True)
class FilterBank:
    """Per-degree spectral filter taps, one complex (S_in*C_in, S_out*C_out, L) tensor.

    Rows and columns are spin-major like the channels they act on (row
    i*C_in + a is channel a of spins_in[i]; columns likewise), and the last
    axis is the degree l.  Taps multiply coefficients degree-wise with no
    mixing across (l, m), which makes the convolution exactly equivariant.
    Taps below degree max(|s_in|, |s_out|) are zero.
    """

    weights: np.ndarray
    spins_in: tuple
    spins_out: tuple

    def __post_init__(self):
        spins_in = tuple(_integers(self.spins_in, "spin").tolist())
        spins_out = tuple(_integers(self.spins_out, "spin").tolist())
        object.__setattr__(self, "spins_in", spins_in)
        object.__setattr__(self, "spins_out", spins_out)
        w = np.array(self.weights, dtype=complex)
        if not np.isfinite(w).all():
            raise ValueError("filter bank weights must be finite")
        distinct = len(set(spins_in)) == len(spins_in) > 0 and len(set(spins_out)) == len(spins_out) > 0
        if not distinct or w.ndim != 3 or w.shape[0] % len(spins_in) or w.shape[1] % len(spins_out):
            raise ValueError(f"taps of shape {w.shape} do not split into distinct spins {spins_in} x {spins_out}")
        if max(map(abs, spins_in + spins_out)) >= w.shape[2]:
            raise ValueError(f"filter bank spins {spins_in} x {spins_out} are not all below its band limit {w.shape[2]}")
        rows = np.abs(_grouped_spins(spins_in, w.shape[0] // len(spins_in)))
        cols = np.abs(_grouped_spins(spins_out, w.shape[1] // len(spins_out)))
        w[np.arange(w.shape[2]) < np.maximum.outer(rows, cols)[..., None]] = 0.0
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @property
    def channels_in(self) -> int:
        return self.weights.shape[0] // len(self.spins_in)

    @property
    def channels_out(self) -> int:
        return self.weights.shape[1] // len(self.spins_out)

    @property
    def band_limit(self) -> int:
        return self.weights.shape[2]

    @classmethod
    def random(
        cls,
        rng: np.random.Generator,
        spins_in,
        spins_out,
        channels_in: int,
        channels_out: int,
        band_limit: int,
        spin_diagonal: bool = False,
        per_degree: bool = True,
    ) -> "FilterBank":
        """Unit-variance complex Gaussian taps scaled by 1/sqrt(fan_in * L), drawn one spin pair at a time.

        With per_degree=False the taps are constant across degree (the
        spectral analogue of a 1x1 convolution, used for skip projections).
        """
        cin, cout, band_limit = channels_in, channels_out, int(_integers(band_limit, "band limit"))
        scale = 1.0 / np.sqrt(len(spins_in) * cin * band_limit)
        w = np.zeros((len(spins_in) * cin, len(spins_out) * cout, band_limit), dtype=complex)
        for i, si in enumerate(spins_in):
            for o, so in enumerate(spins_out):
                taps = rng.normal(size=(cin, cout, band_limit if per_degree else 1)) * scale
                taps = taps + 1j * rng.normal(size=taps.shape) * scale
                if not spin_diagonal or si == so:
                    w[i * cin : (i + 1) * cin, o * cout : (o + 1) * cout] = taps
        return cls(w, spins_in, spins_out)


def _bank_fit(spins, band_limit: int, bank: FilterBank) -> np.ndarray:
    """The channel spins bank makes of coefficients with these channel spins and band limit; raises unless it fits them."""
    if bank.band_limit != band_limit:
        raise ValueError(f"bank band limit {bank.band_limit} does not match coefficients ({band_limit})")
    expected = _grouped_spins(bank.spins_in, bank.channels_in)
    if not np.array_equal(spins, expected):
        raise ValueError(f"coefficient spins {spins} do not match bank input signature {expected}")
    return _grouped_spins(bank.spins_out, bank.channels_out)


def spectral_conv(coeffs: SpinCoefficients, bank: FilterBank) -> SpinCoefficients:
    """Spherical convolution: one (S_out*C_out, S_in*C_in) matmul per degree."""
    L = coeffs.band_limit
    spins = _bank_fit(coeffs.spins, L, bank)
    out = np.empty((coeffs.batch, bank.weights.shape[1], num_coefficients(L)), dtype=complex)
    for l in range(L):
        out[..., degree_slice(l)] = bank.weights[:, :, l].T @ coeffs.degree_block(l)
    return SpinCoefficients(out, spins, L)


@dataclass(frozen=True)
class PhaseCollapseParams:
    """Parameters of the phase collapse activation x0 <- W1 x0 + W2 |x| + b.

    W1 (C0, C0) and b (C0,) are complex; W2 (C0, C) multiplies moduli and
    must be real.
    """

    w1: np.ndarray
    w2: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        if np.iscomplexobj(self.w2):
            raise ValueError("w2 multiplies moduli and must be real-valued")
        w1, w2 = np.asarray(self.w1, dtype=complex), np.asarray(self.w2, dtype=float)
        bias = np.asarray(self.bias, dtype=complex)
        if bias.ndim != 1 or w1.shape != bias.shape * 2 or w2.ndim != 2 or w2.shape[0] != bias.shape[0]:
            raise ValueError(f"shapes w1 {w1.shape}, w2 {w2.shape}, bias {bias.shape} are not (C0, C0), (C0, C), (C0,)")
        for name, value in (("w1", w1), ("w2", w2), ("bias", bias)):
            if not np.isfinite(value).all():
                raise ValueError(f"phase-collapse {name} must be finite")
            object.__setattr__(self, name, value)

    @classmethod
    def random(cls, rng, spin_zero_channels, total_channels) -> "PhaseCollapseParams":
        c0, ct = spin_zero_channels, total_channels
        w1 = (rng.normal(size=(c0, c0)) + 1j * rng.normal(size=(c0, c0))) / np.sqrt(2 * c0)
        w2 = rng.normal(size=(c0, ct)) / np.sqrt(ct)
        bias = rng.normal(size=c0) + 1j * rng.normal(size=c0)
        return cls(w1, w2, bias)


def phase_collapse(signal: SpinSignal, params: PhaseCollapseParams) -> SpinSignal:
    """Replace the spin-0 channel stack by W1 x0 + W2 |x| + b at every sample.

    Nonzero-spin channels pass through unchanged; the modulus |x| is taken
    over all channels (all spins, including zero), which discards the
    rotation-induced phases of the nonzero-spin features.
    """
    stack = _spin_zero_collapse(signal, params)
    out = signal.samples.copy()
    out[:, signal.spins == 0] = stack
    return SpinSignal(out, signal.spins.copy(), signal.grid)


def _spin_zero_collapse(signal: SpinSignal, params: PhaseCollapseParams) -> np.ndarray:
    """The new spin-0 stack W1 x0 + W2 |x| + b, shape (batch, spin-0 channels, n, n)."""
    zero = _collapse_fit(signal.spins, params)
    x = signal.samples.reshape(signal.batch, signal.channels, -1)
    stack = params.w1 @ x[:, zero] + params.w2 @ np.abs(x) + params.bias[:, None]
    return stack.reshape((signal.batch, -1) + signal.samples.shape[2:])


def _collapse_fit(spins, params: PhaseCollapseParams) -> np.ndarray:
    """The spin-0 mask of channels with these spins; raises unless params' w2 fits them."""
    zero = spins == 0
    if params.w2.shape != (zero.sum(), len(spins)):
        raise ValueError(f"phase-collapse w2 of shape {params.w2.shape} does not fit the signal's "
                         f"{zero.sum()} spin-0 channels of {len(spins)}")
    return zero


@dataclass(frozen=True)
class BatchNormState:
    """Spectral batch-norm parameters and running statistics (one entry per channel)."""

    scale: np.ndarray
    bias: np.ndarray
    running_variance: np.ndarray | None

    def __post_init__(self):
        shapes = [np.shape(a) for a in (self.scale, self.bias, self.running_variance) if a is not None]
        if len(shapes[0]) != 1 or len(set(shapes)) > 1:
            raise ValueError(f"scale, bias and running variance must share one (channels,) shape, got {shapes}")
        for name in ("scale", "bias", "running_variance"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value).all():
                raise ValueError(f"batch-norm {name} must be finite")
        if self.running_variance is not None and np.any(np.asarray(self.running_variance) < 0):
            raise ValueError("running variance must be nonnegative")

    @classmethod
    def initialize(cls, channels: int) -> "BatchNormState":
        return cls(scale=np.ones(channels), bias=np.zeros(channels, dtype=complex), running_variance=None)


def spectral_variance(coeffs: SpinCoefficients) -> np.ndarray:
    """Per-sample spectral variance, shape (batch, channels).

    Equals the spatial variance of the synthesized function by Parseval:
    the (0,0) coefficient is the mean slot and the remaining energy,
    normalized by 4*pi, is the variance.  The mean slot is zeroed, not
    subtracted, so a large mean cannot cancel a small variance away.
    """
    energy = np.abs(coeffs.coeffs) ** 2
    energy[:, coeffs.spins == 0, 0] = 0.0
    return energy.sum(axis=-1) / (4 * np.pi)


def _batch_norm_fit(channels: int, batch: int, state: BatchNormState, mode: str):
    """Raise unless state can normalize a batch of this size and channel count in this mode."""
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    if state.scale.shape != (channels,):
        raise ValueError(f"state is sized for {state.scale.shape[0]} channels, coefficients have {channels}")
    if mode == "train" and batch < 1:
        raise ValueError("train mode requires batch >= 1")
    if mode == "eval" and state.running_variance is None:
        raise ValueError("eval mode requires initialized running statistics")


def spectral_batch_norm(
    coeffs: SpinCoefficients, state: BatchNormState, mode: str = "train"
) -> tuple[SpinCoefficients, BatchNormState]:
    """Normalize coefficients to unit spectral variance per channel.

    The spin-0 mean slot is zeroed and then set to the learnable bias;
    every coefficient is divided by sqrt(variance + epsilon) and
    multiplied by the learnable scale.  Train mode uses (and accumulates
    into the running estimate) the batch variance; eval mode uses the
    running estimate.
    """
    _batch_norm_fit(coeffs.channels, coeffs.batch, state, mode)
    if mode == "train":
        var = spectral_variance(coeffs).mean(axis=0)
        if state.running_variance is None:
            running = var
        else:
            running = (1.0 - _MOMENTUM) * state.running_variance + _MOMENTUM * var
        new_state = replace(state, running_variance=running)
    else:
        var = state.running_variance
        new_state = state
    work = coeffs.coeffs * (state.scale / np.sqrt(var + _EPSILON))[:, None]
    zero = coeffs.spins == 0
    work[:, zero, 0] = state.bias[zero]
    return SpinCoefficients(work, coeffs.spins.copy(), coeffs.band_limit), new_state


def _pool_fit(spins, band_limit: int, new_band_limit) -> int:
    """new_band_limit as an int; raises unless it is at most band_limit and above every channel spin."""
    new_band_limit = int(_integers(new_band_limit, "band limit"))
    if new_band_limit > band_limit:
        raise ValueError(f"pooling target {new_band_limit} exceeds current band limit {band_limit}")
    if np.any(np.abs(spins) >= new_band_limit):
        raise ValueError(f"pooling target {new_band_limit} is not above all channel spins {spins}")
    return new_band_limit


def spectral_pool(coeffs: SpinCoefficients, new_band_limit: int) -> SpinCoefficients:
    """Low-pass pooling: keep degrees below the new band limit (implied grid n = 2*new_L)."""
    new_band_limit = _pool_fit(coeffs.spins, coeffs.band_limit, new_band_limit)
    if new_band_limit == coeffs.band_limit:
        return coeffs
    return SpinCoefficients(
        coeffs.coeffs[..., : num_coefficients(new_band_limit)].copy(), coeffs.spins.copy(), new_band_limit
    )


def spectral_unpool(coeffs: SpinCoefficients, new_band_limit: int) -> SpinCoefficients:
    """Zero-pad degrees above the current band limit."""
    L, new_band_limit = coeffs.band_limit, int(_integers(new_band_limit, "band limit"))
    if new_band_limit < L:
        raise ValueError(f"unpooling target {new_band_limit} is below current band limit {L}")
    if new_band_limit == L:
        return coeffs
    padded = np.zeros(coeffs.coeffs.shape[:2] + (num_coefficients(new_band_limit),), dtype=complex)
    padded[..., : num_coefficients(L)] = coeffs.coeffs
    return SpinCoefficients(padded, coeffs.spins.copy(), new_band_limit)


@dataclass(frozen=True)
class ResidualBlockParams:
    """Parameters of the spectral residual block.

    bank1/collapse1 sit between the first transform and the middle
    activation, bank2/collapse2 before the output activation.  When the
    input and output signatures differ or pooling is active, the skip
    path applies pooling and the 1-tap projection bank before the
    spectral add.
    """

    bank1: FilterBank
    bn1: BatchNormState
    collapse1: PhaseCollapseParams
    bank2: FilterBank
    bn2: BatchNormState
    collapse2: PhaseCollapseParams
    pool_to: int | None = None
    projection: FilterBank | None = None


def _check_signatures(x, params: ResidualBlockParams, mode: str):
    """Raise before any transform unless x fits the block: each layer's own rule in block order, then the
    skip path's, which must give the main path's output spins (through the projection bank, if any)."""
    spins, L = x.spins, x.grid.band_limit if isinstance(x, SpinSignal) else x.band_limit
    if params.pool_to is not None:
        L = _pool_fit(spins, L, params.pool_to)
    h = _bank_fit(spins, L, params.bank1)
    _batch_norm_fit(len(h), x.batch, params.bn1, mode)
    _collapse_fit(h, params.collapse1)
    h = _bank_fit(h, L, params.bank2)
    _batch_norm_fit(len(h), x.batch, params.bn2, mode)
    skip = spins if params.projection is None else _bank_fit(spins, L, params.projection)
    if not np.array_equal(skip, h):
        raise ValueError(f"the skip path's spins {skip} do not match the main path's output signature {h}: "
                         "a skip projection bank must map the block's input onto its output")
    _collapse_fit(h, params.collapse2)


def residual_block(x, params: ResidualBlockParams, config: TransformConfig = DEFAULT_CONFIG):
    """The eval-mode spectral residual block; input and output are the same kind.

    Signal path: FT -> (pool) -> *K -> BN -> IFT -> sigma -> FT -> *K ->
    BN -> add skip (in Fourier space) -> IFT -> sigma.  Coefficient input
    is treated as the first FT's output, and the result is transformed
    back to coefficients after the final activation.  Each FT after an
    activation maps back only the spin-0 channels, the ones sigma changes.
    Batch norm uses the running statistics; residual_block_train is the
    train-mode entry point.
    """
    return _residual_impl(x, params, config, "eval")[0]


def residual_block_train(x, params: ResidualBlockParams, config: TransformConfig = DEFAULT_CONFIG):
    """Train-mode residual block; returns (output, params with updated BN statistics)."""
    return _residual_impl(x, params, config, "train")


def _residual_impl(x, params, config, mode):
    """Both residual-block entry points.  Where an activation's result goes back to
    coefficients, only its new spin-0 stack is made and transformed: the activation
    leaves the other channels' samples, whose transform is the coefficients' own."""
    is_signal = isinstance(x, SpinSignal)
    _check_signatures(x, params, mode)
    c_in = forward(x, compute_delta(x.grid.band_limit), config) if is_signal else x

    pooled = spectral_pool(c_in, params.pool_to) if params.pool_to is not None else c_in
    L = pooled.band_limit
    tables = compute_delta(L)

    h = spectral_conv(pooled, params.bank1)
    h, bn1 = spectral_batch_norm(h, params.bn1, mode)
    h = _collapse_coefficients(h, params.collapse1, tables, config)
    h = spectral_conv(h, params.bank2)
    h, bn2 = spectral_batch_norm(h, params.bn2, mode)

    skip = pooled if params.projection is None else spectral_conv(pooled, params.projection)
    total = SpinCoefficients(h.coeffs + skip.coeffs, h.spins.copy(), L)

    if is_signal:
        out = phase_collapse(inverse(total, tables, config), params.collapse2)
    else:
        out = _collapse_coefficients(total, params.collapse2, tables, config)
    return out, replace(params, bn1=bn1, bn2=bn2)


def _collapse_coefficients(coeffs: SpinCoefficients, params: PhaseCollapseParams, tables, config) -> SpinCoefficients:
    """forward(phase_collapse(inverse(coeffs))), with the forward taken of the new spin-0 stack only."""
    signal = inverse(coeffs, tables, config)
    zero = coeffs.spins == 0
    spin_zero = SpinSignal(_spin_zero_collapse(signal, params), coeffs.spins[zero], signal.grid)
    del signal
    out = coeffs.coeffs.copy()
    out[:, zero] = forward(spin_zero, tables, config).coeffs
    return SpinCoefficients(out, coeffs.spins.copy(), coeffs.band_limit)
