"""The four benchmark workloads, driven through swirl's public API.

A workload is built once (its set-up) and then runs items: ``prepare(index)``
makes the item's seeded inputs (untimed), ``run(inputs)`` is the timed item
and returns ``(output, info)``, and ``check(inputs, output)`` applies the
item's correctness gates (untimed) and returns ``(ok, detail)``.

swirl functions are looked up through their modules at call time
(``transforms.forward``, not ``forward``) so that the traced run's wrappers
see every call.
"""

from __future__ import annotations

import time

import numpy as np
from swirl import equivariance, grid, layers, molecules, transforms, wigner
from swirl.bench import CROSS_CHECK_TOLERANCE
from swirl.signal import SpinSignal, degree_of_index
from swirl.verification import CHANNELS, SPIN_SET, harness_residual_params

from inputs import VOCABULARY, item_rng, synthetic_molecule

CELLS = {
    f"{backend}.{path}": transforms.TransformConfig(fourier_backend=backend, symmetry_path=path)
    for backend in transforms.FOURIER_BACKENDS
    for path in transforms.SYMMETRY_PATHS
}
FFT_REDUCED = CELLS["fft.reduced"]
DFT_FULL = CELLS["dft_matrix.full"]

ROUNDTRIP_TOLERANCE = 1e-10  # the swsft.roundtrip verify rows
CONV_EQUIVARIANCE_TOLERANCE = 1e-10  # layers.equivariance.spectral_conv
BLOCK_EQUIVARIANCE_TOLERANCE = 1e-6  # layers.equivariance.residual_block
MODEL_CROSS_CHECK_TOLERANCE = 1e-10  # fft/reduced readout vs dft_matrix/full readout


def _rel(a, b) -> float:
    scale = np.abs(b).max()
    diff = np.abs(a - b).max()
    return float(diff / scale) if scale > 0 else float(diff)


class TransformPairs:
    """Per item: inverse then forward of seeded coefficients through all four cells."""

    def __init__(self, seed: int, batch: int, channels_per_spin: int, band_limit: int):
        self.seed = seed
        self.batch = batch
        self.spins = np.repeat(np.array([0, 1]), channels_per_spin)
        self.band_limit = band_limit
        wigner.compute_delta(band_limit)

    def prepare(self, index):
        return equivariance.random_coefficients(item_rng(self.seed, index), self.batch, self.spins, self.band_limit)

    def run(self, coeffs):
        tables = wigner.compute_delta(self.band_limit)
        outputs, pair_s = [], {}
        for name, config in CELLS.items():
            start = time.perf_counter()
            signal = transforms.inverse(coeffs, tables, config)
            back = transforms.forward(signal, tables, config)
            pair_s[name] = time.perf_counter() - start
            outputs.append((signal.samples, back.coeffs))
        return outputs, {"pair_s": pair_s}

    def check(self, coeffs, outputs):
        ref_samples, ref_coeffs = outputs[0]
        cross = max(max(_rel(s, ref_samples), _rel(c, ref_coeffs)) for s, c in outputs)
        roundtrip = max(_rel(c, coeffs.coeffs) for _, c in outputs)
        finite = all(np.isfinite(s).all() and np.isfinite(c).all() for s, c in outputs)
        ok = finite and cross <= CROSS_CHECK_TOLERANCE and roundtrip <= ROUNDTRIP_TOLERANCE
        return ok, {"cross_check_max_rel": cross, "roundtrip_max_rel": roundtrip}


class MoleculeModel:
    """Per item: one synthetic molecule -> features -> transform -> 3 residual blocks -> readout."""

    RESOLUTION = 32
    POWERS = (2, 6)
    SPINS = (0, 1)
    CHANNELS = 16
    POOLS = (None, 8, 4)

    def __init__(self, seed: int):
        self.seed = seed
        self.grid = grid.make_grid(self.RESOLUTION)
        rng = np.random.default_rng(seed)
        spins_in, channels_in, L = (0,), len(self.POWERS) * len(VOCABULARY), self.grid.band_limit
        blocks = []
        for pool in self.POOLS:
            L = pool or L
            blocks.append(self._block_params(rng, spins_in, channels_in, L, pool))
            spins_in, channels_in = self.SPINS, self.CHANNELS
        # Batch-norm running statistics from one calibration molecule, as
        # the verify harness does before measuring in eval mode.
        x = self._features(molecules.Molecule(*synthetic_molecule(rng)), FFT_REDUCED)
        self.blocks = []
        for params in blocks:
            x, params = layers.residual_block_train(x, params, FFT_REDUCED)
            self.blocks.append(params)

    def _block_params(self, rng, spins_in, channels_in, L, pool):
        c, total = self.CHANNELS, len(self.SPINS) * self.CHANNELS
        projection = None
        if (tuple(spins_in), channels_in) != (self.SPINS, c):
            projection = layers.FilterBank.random(rng, spins_in, self.SPINS, channels_in, c, L, per_degree=False)
        return layers.ResidualBlockParams(
            bank1=layers.FilterBank.random(rng, spins_in, self.SPINS, channels_in, c, L),
            bn1=layers.BatchNormState.initialize(total),
            collapse1=layers.PhaseCollapseParams.random(rng, c, total),
            bank2=layers.FilterBank.random(rng, self.SPINS, self.SPINS, c, c, L),
            bn2=layers.BatchNormState.initialize(total),
            collapse2=layers.PhaseCollapseParams.random(rng, c, total),
            pool_to=pool,
            projection=projection,
        )

    def _features(self, mol, config):
        feats = molecules.featurize(mol, VOCABULARY, self.grid, self.POWERS)
        signal = SpinSignal(feats.values.astype(complex), np.zeros(feats.channels, dtype=int), self.grid)
        return transforms.forward(signal, wigner.compute_delta(self.grid.band_limit), config)

    def _model(self, mol, config):
        x = self._features(mol, config)
        for params in self.blocks:
            x = layers.residual_block(x, params, config)
        # Invariant readout: spin-0 degree-0 slots plus per-degree power, summed over atoms.
        dc = x.coeffs[:, x.spins == 0, 0].sum(axis=0)
        degree = degree_of_index(x.band_limit)
        power = np.stack([(np.abs(x.coeffs[..., degree == l]) ** 2).sum(axis=(0, 2)) for l in range(x.band_limit)])
        return np.concatenate([dc.real, dc.imag, power.ravel()])

    def prepare(self, index):
        return molecules.Molecule(*synthetic_molecule(item_rng(self.seed, index)))

    def run(self, mol):
        return self._model(mol, FFT_REDUCED), {}

    def check(self, mol, readout):
        reference = self._model(mol, DFT_FULL)
        cross = _rel(readout, reference)
        ok = bool(np.isfinite(readout).all()) and cross <= MODEL_CROSS_CHECK_TOLERANCE
        return ok, {"model_cross_check_max_rel": cross}


class RotationHarness:
    """Per item: one seeded rotation through the verify equivariance harness at L=64."""

    # At L=32 an item is 0.5 s of mostly tiny NumPy calls, and its time
    # swung 1.8x with host load; at L=64 (the size of the ROADMAP's
    # rotate_coefficients baseline) it swung 1.25x.
    BAND_LIMIT = 64

    def __init__(self, seed: int):
        self.seed = seed
        L = self.BAND_LIMIT
        rng = np.random.default_rng(seed)
        spins = np.repeat(SPIN_SET, CHANNELS)
        self.bank = layers.FilterBank.random(rng, SPIN_SET, SPIN_SET, CHANNELS, CHANNELS, L)
        self.coeffs = equivariance.random_coefficients(rng, 1, spins, L)
        self.signal = equivariance.smooth_harness_signal(rng, L, SPIN_SET, CHANNELS, shared_orders=True)
        _, self.params = layers.residual_block_train(self.signal, harness_residual_params(rng, L))

    def prepare(self, index):
        return wigner.Rotation.random(item_rng(self.seed, index))

    def run(self, rot):
        conv = equivariance.equivariance_error(
            lambda c: layers.spectral_conv(c, self.bank), self.coeffs, [rot], "spectral_conv", self.seed
        )
        block = equivariance.equivariance_error(
            lambda s: layers.residual_block(s, self.params), self.signal, [rot], "residual_block", self.seed
        )
        return (conv.max_rel_err, block.max_rel_err), {}

    def check(self, rot, errors):
        conv, block = errors
        ok = conv <= CONV_EQUIVARIANCE_TOLERANCE and block <= BLOCK_EQUIVARIANCE_TOLERANCE
        return ok, {"conv_equivariance": conv, "block_equivariance": block}


WORKLOADS = {
    "transform_batched": lambda seed: TransformPairs(seed, batch=4, channels_per_spin=8, band_limit=64),
    "transform_single": lambda seed: TransformPairs(seed, batch=1, channels_per_spin=1, band_limit=128),
    "molecule_model": MoleculeModel,
    "rotation_harness": RotationHarness,
}
