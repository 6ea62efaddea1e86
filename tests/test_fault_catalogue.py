"""Faults that `swirl verify` must see: each case plants one fault and names a row that fails.

A case replaces one name in every swirl module that holds it (verification binds
what it checks at import), so the fault reaches every caller. The caches that a
fault could fill are cleared before and after each case.
"""

import inspect
import sys
import textwrap

import numpy as np
import pytest

from swirl import layers, transforms, wigner
from swirl.signal import SpinCoefficients
from swirl.verification import run_verification


@pytest.fixture(autouse=True)
def clear_caches():
    caches = (wigner.compute_delta, transforms._colatitude_maps, transforms._flat_orders)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


def _replace(monkeypatch, module, name, value):
    """Bind name to value in every swirl module that holds module.name."""
    original = getattr(module, name)
    for mod in list(sys.modules.values()):
        if mod.__name__.split(".")[0] == "swirl" and vars(mod).get(name) is original:
            monkeypatch.setattr(mod, name, value)


def _mutant(function, old, new, swap=False):
    """function with the one occurrence of old in its source replaced by new (and that of new by old if swap),
    in its own module's globals."""
    source = textwrap.dedent(inspect.getsource(function))
    for text in (old, new) if swap else (old,):
        assert source.count(text) == 1, f"{function.__name__} no longer reads {text!r} once"
    source = source.replace(new, "\0").replace(old, new).replace("\0", old) if swap else source.replace(old, new)
    bare = inspect.unwrap(function)  # a cached function's file and globals are its wrapped function's
    namespace = {}
    exec(compile(source, inspect.getsourcefile(bare), "exec"), bare.__globals__, namespace)
    return namespace[function.__name__]


def rescaled_pool(monkeypatch):
    # equivariant, so only the value row sees it
    pool = layers.spectral_pool

    def rescaled(coeffs, new_band_limit):
        out = pool(coeffs, new_band_limit)
        return SpinCoefficients(out.coeffs * np.sqrt(out.band_limit / coeffs.band_limit), out.spins, out.band_limit)

    _replace(monkeypatch, layers, "spectral_pool", rescaled)


def flipped_delta_entry(monkeypatch):
    # the sign of Delta^5_{5,2} in every table of band limit > 5
    build = wigner._build_delta

    def flipped(band_limit):
        tables = build(band_limit)
        if tables.band_limit <= 5:
            return tables
        delta = tables.delta.copy()
        delta[5, 5, 2] *= -1
        delta.flags.writeable = False
        return wigner.WignerTables(tables.band_limit, delta)

    _replace(monkeypatch, wigner, "_build_delta", flipped)


def kernel_l0_off_by_one(monkeypatch):
    # each chunk of orders skips the degree l = mu0
    faulty = _mutant(transforms._kernel, "max(mu0, a)", "max(mu0 + 1, a)")
    _replace(monkeypatch, transforms, "_kernel", faulty)


def phases_ignore_the_spin_sign(monkeypatch):
    # the phases put (-1)^l on the orders m < 0 for every spin, as if no spin s > 0 moved its sign there
    faulty = _mutant(transforms._flat_orders, "np.where(half != (spin > 0),", "np.where(half,")
    _replace(monkeypatch, transforms, "_flat_orders", faulty)


def adjoint_sign_on_the_wrong_half(monkeypatch):
    # the inverse puts (-1)^m' on the half of the order-major layout that the spin leaves unsigned
    faulty = _mutant(transforms._g_rows, "spin > 0)", "spin <= 0)", swap=True)
    _replace(monkeypatch, transforms, "_g_rows", faulty)


def forward_sign_on_the_wrong_half(monkeypatch):
    # the forward puts (-1)^m' on the half of the order-major operand that the spin leaves unsigned
    faulty = _mutant(transforms._forward_block, "spin > 0)", "spin <= 0)", swap=True)
    _replace(monkeypatch, transforms, "_forward_block", faulty)


def dropped_mirror_term(monkeypatch):
    # the colatitude analysis integrates over [0, pi] only, without the torus extension's mirrored rows
    faulty = _mutant(transforms._colatitude_maps, "(E + parity * E[::-1])", "(E)")
    _replace(monkeypatch, transforms, "_colatitude_maps", faulty)


def flipped_parity(monkeypatch):
    # each order group is given the parity of the other
    faulty = _mutant(transforms._parities, "yield p,", "yield -p,")
    _replace(monkeypatch, transforms, "_parities", faulty)


def conjugated_rotation_phases(monkeypatch):
    # i^m and i^-m swap places in D^l: the conjugate representation, still unitary and a homomorphism
    faulty = _mutant(wigner._rotation_phases, "_I_POW[[-m % 4, 0 * m, m % 4]]", "_I_POW[[m % 4, 0 * m, -m % 4]]")
    _replace(monkeypatch, wigner, "_rotation_phases", faulty)


def transposed_w1(monkeypatch):
    # the phase collapse mixes its spin-0 channels by W1^T: equivariant, so only the value row sees it
    faulty = _mutant(layers._collapse, "params.w1 @", "params.w1.T @")
    _replace(monkeypatch, layers, "_collapse", faulty)


def dropped_collapse_bias(monkeypatch):
    # the phase collapse adds no bias
    faulty = _mutant(layers._collapse, " + params.bias[:, None]", "")
    _replace(monkeypatch, layers, "_collapse", faulty)


def unpadded_unpool(monkeypatch):
    # unpooling to a higher band limit returns its input: equivariant, and pooling it back gives the input
    faulty = _mutant(layers.spectral_unpool, "new_band_limit == L:", "new_band_limit != L:")
    _replace(monkeypatch, layers, "spectral_unpool", faulty)


def additive_epsilon(monkeypatch):
    # batch norm divides by sqrt(var) + epsilon: still close to unit variance
    faulty = _mutant(layers.spectral_batch_norm, "np.sqrt(var + _EPSILON)", "(np.sqrt(var) + _EPSILON)")
    _replace(monkeypatch, layers, "spectral_batch_norm", faulty)


def entries_off_by_one_in_their_chunk(monkeypatch):
    # the activation's round trip writes each chunk's entries one row off, cyclically within the chunk:
    # a one-entry batch is untouched, so only a row that runs several entries sees it
    faulty = _mutant(layers._collapse_coefficients, "forward(spin_zero, tables, config).coeffs",
                     "np.roll(forward(spin_zero, tables, config).coeffs, 1, axis=0)")
    _replace(monkeypatch, layers, "_collapse_coefficients", faulty)


@pytest.mark.parametrize("fault, group, failing", [
    (rescaled_pool, "layers", ["layers.spectral_pool.leading_coefficients"]),
    (flipped_delta_entry, "wigner", ["wigner.delta.sum_formula", "wigner.d.sum_formula",
                                     "wigner.delta.orthogonality", "wigner.delta.transpose_symmetry"]),
    (kernel_l0_off_by_one, "swsft", ["swsft.roundtrip.coeffs.L4"]),
    (phases_ignore_the_spin_sign, "swsft", ["swsft.forward.oracle.s1.L4", "swsft.forward.oracle.s1.L8"]),
    (adjoint_sign_on_the_wrong_half, "swsft", ["swsft.roundtrip.samples.L4", "swsft.roundtrip.coeffs.L64"]),
    (forward_sign_on_the_wrong_half, "swsft", ["swsft.forward.oracle.s-1.L4", "swsft.forward.oracle.s1.L8"]),
    (dropped_mirror_term, "grid", ["grid.inner_products.oracle.L4"]),
    (flipped_parity, "grid", ["grid.inner_products.oracle.L4"]),
    (conjugated_rotation_phases, "mol", ["mol.rotation_equivariance"]),
    (transposed_w1, "layers", ["layers.phase_collapse.per_sample_reference"]),
    (dropped_collapse_bias, "layers", ["layers.phase_collapse.per_sample_reference"]),
    (unpadded_unpool, "layers", ["layers.spectral_unpool.zero_padding"]),
    (additive_epsilon, "layers", ["layers.batch_norm.exact_variance"]),
    (entries_off_by_one_in_their_chunk, "layers", ["layers.residual_block.batch_entries"]),
], ids=lambda case: case.__name__ if callable(case) else None)
def test_verify_sees_the_fault(monkeypatch, fault, group, failing):
    fault(monkeypatch)
    failed = [row.name for row in run_verification(group) if not row.passed]
    assert set(failing) <= set(failed), failed
