"""Named invariant checks behind `swirl verify` and the acceptance suite.

Every check returns rows of (name, band limit, measured metric, threshold,
pass).  Thresholds are fixed here, not calibrated at run time; the
equivariance thresholds for the nonlinear layers are measured accumulation
budgets for the documented harness inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import reference
from .containers import write_report_csv
from .equivariance import (
    equivariance_error,
    max_rel_error,
    random_coefficients,
    rotate_coefficients,
    smooth_harness_signal,
)
from .grid import extend_samples, make_grid, spherical_integral
from .layers import (
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
from .molecules import Molecule, calibrate_spread, featurize, parse_xyz, pooled_descriptor
from .signal import SpinSignal
from .transforms import TransformConfig, forward, g_matrix, inner_products, inverse
from .wigner import Rotation, compute_delta, random_rotations, wigner_D, wigner_d

WATER_XYZ = """3
water
O 0.000000 0.000000 0.119262
H 0.000000 0.763239 -0.477047
H 0.000000 -0.763239 -0.477047
"""

# the equivalence rows compare the paths on the DFT-matrix backend and the backends on the full path
FULL = TransformConfig("dft_matrix", "full")
REDUCED = TransformConfig("dft_matrix", "reduced")
FFT = TransformConfig("fft", "full")


@dataclass(frozen=True)
class CheckRow:
    name: str
    band_limit: int
    metric: float
    threshold: float
    passed: bool


def _row(name, band_limit, metric, threshold):
    metric = float(metric)
    return CheckRow(name, band_limit, metric, float(threshold), bool(metric <= threshold))


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------


def check_grid_quadrature(seed=0):
    rows = []
    grid = make_grid(8)
    ones = np.ones((grid.n, grid.n))
    rows.append(_row("grid.integral.constant", 4, abs(spherical_integral(ones, grid) - 4 * np.pi), 1e-12))
    th = grid.colatitudes[:, None]
    ph = grid.longitudes[None, :]
    y10 = reference.spin_harmonic(0, 1, 0, th, ph)
    rows.append(_row("grid.integral.y10_real", 4, abs(spherical_integral(y10.real, grid)), 1e-12))
    rows.append(_row("grid.integral.y10_norm", 4, abs(spherical_integral(np.abs(y10) ** 2, grid) - 1.0), 1e-10))
    return rows


def check_grid_inner_products(seed=0):
    # Torus-pipeline I_{m'm} vs dense quadrature of the defining integral.
    # The integrand carries e^{-i m' theta}, so the oracle integrates in
    # theta directly (Gauss-Legendre on [0, pi] with the sin factor kept
    # in the integrand).
    rng = np.random.default_rng(seed)
    rows = []
    for L in (4, 8, 16):
        grid = make_grid(2 * L)
        flat = random_coefficients(rng, 1, [0], L).coeffs[0, 0]
        th = grid.colatitudes[:, None]
        ph = grid.longitudes[None, :]
        samples = reference.synthesize_at(flat, 0, L, th, ph)
        I = inner_products(samples, 0, grid)
        theta, tw, phi, pw = reference.theta_quadrature_nodes(L)
        vals = reference.synthesize_at(flat, 0, L, theta[:, None], phi[None, :])
        m = np.arange(-(L - 1), L)
        phase_t = np.exp(-1j * np.outer(m, theta)) * (np.sin(theta) * tw)
        phase_p = np.exp(-1j * np.outer(m, phi))
        oracle = np.einsum("pj,jk,mk->pm", phase_t, vals * pw, phase_p)
        rows.append(_row(f"grid.inner_products.oracle.L{L}", L, max_rel_error(I, oracle), 1e-8))
    return rows


def check_grid_extension(seed=0):
    rng = np.random.default_rng(seed)
    rows = []
    n = 8
    for spin in (0, 1):
        samples = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        ext = extend_samples(samples, spin, n)
        rows.append(_row(f"grid.extension.identity.s{spin}", n // 2, np.abs(ext[:n] - samples).max(), 0.0))
        # Applying the (mirror, half-roll, parity) map to the appended rows
        # recovers the original samples: the extension is an involution.
        undone = np.roll(ext[n:, :][::-1, :], -n // 2, axis=-1) * (-1.0) ** spin
        rows.append(_row(f"grid.extension.involution.s{spin}", n // 2, np.abs(undone - samples).max(), 0.0))
    return rows


# ---------------------------------------------------------------------------
# wigner
# ---------------------------------------------------------------------------


def _wigner_d_oracle_row(name, beta, d_matrix):
    # d_matrix(l) against the mpmath sum formula at beta, for the degrees 0 .. 20
    max_degree = 20
    err = max(np.abs(d_matrix(l) - reference.wigner_d_matrix_mp(l, beta)).max() for l in range(max_degree + 1))
    return [_row(name, max_degree, err, 1e-12)]


def check_wigner_delta_oracle(seed=0):
    return _wigner_d_oracle_row("wigner.delta.sum_formula", np.pi / 2, compute_delta(21).__getitem__)


def check_wigner_d_oracle(seed=0):
    return _wigner_d_oracle_row("wigner.d.sum_formula", 0.7, lambda l: wigner_d(l, 0.7))


def check_wigner_orthogonality(seed=0):
    max_degree = 127  # the benchmarked L = 128
    tables = compute_delta(max_degree + 1)
    err_orth = 0.0
    err_sym = 0.0
    for l in range(max_degree + 1):
        D = tables._unfold(l)  # one-off: tables[l] would keep every unfold on the cached tables
        err_orth = max(err_orth, np.abs(D @ D.T - np.eye(2 * l + 1)).max())
        m = np.arange(-l, l + 1)
        signs = np.where((m[:, None] - m[None, :]) % 2 == 0, 1.0, -1.0)
        err_sym = max(err_sym, np.abs(D - signs * D.T).max())
    return [
        _row("wigner.delta.orthogonality", max_degree, err_orth, 1e-12),
        _row("wigner.delta.transpose_symmetry", max_degree, err_sym, 0.0),
    ]


def check_wigner_rotations(seed=0):
    rows = []
    rng = np.random.default_rng(seed)
    err_u = 0.0
    for l in (1, 4, 16, 64):
        rot = Rotation.random(rng)
        D = wigner_D(l, rot)
        err_u = max(err_u, np.abs(D @ D.conj().T - np.eye(2 * l + 1)).max())
    rows.append(_row("wigner.D.unitarity", 64, err_u, 1e-12))
    err_h = 0.0
    for _ in range(5):
        r1, r2 = Rotation.random(rng), Rotation.random(rng)
        r12 = r1.compose(r2)
        for l in (1, 4, 16):
            err_h = max(err_h, np.abs(wigner_D(l, r1) @ wigner_D(l, r2) - wigner_D(l, r12)).max())
    rows.append(_row("wigner.D.homomorphism", 16, err_h, 1e-10))
    return rows


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------


def check_forward_oracle(seed=0):
    rng = np.random.default_rng(seed)
    rows = []
    for spin in (-1, 0, 1):
        for L in (4, 8):
            flat = random_coefficients(rng, 1, [spin], L).coeffs[0, 0]
            grid = make_grid(2 * L)
            th = grid.colatitudes[:, None]
            ph = grid.longitudes[None, :]
            samples = reference.synthesize_at(flat, spin, L, th, ph)
            signal = SpinSignal(samples[None, None], np.array([spin]), grid)
            ours = forward(signal, compute_delta(L)).coeffs[0, 0]
            oracle = reference.forward_quadrature(flat, spin, L)
            rows.append(_row(f"swsft.forward.oracle.s{spin}.L{L}", L, max_rel_error(ours, oracle), 1e-8))
    return rows


def check_roundtrips(seed=0):
    rng = np.random.default_rng(seed)
    rows = []
    for L in (4, 8, 16, 32, 64, 128):  # 128: the transform_single and swirl bench n = 256 size
        spins = np.array([s for s in (-2, -1, 0, 1, 2) if abs(s) < L])
        tables = compute_delta(L)
        coeffs = random_coefficients(rng, 2, spins, L)
        sig = inverse(coeffs, tables)
        back = forward(sig, tables)
        err = max_rel_error(back.coeffs, coeffs.coeffs)
        sig2 = inverse(back, tables)
        err2 = max_rel_error(sig2.samples, sig.samples)
        rows.append(_row(f"swsft.roundtrip.coeffs.L{L}", L, err, 1e-10))
        rows.append(_row(f"swsft.roundtrip.samples.L{L}", L, err2, 1e-10))
    return rows


def check_path_and_backend_equivalence(seed=0):
    rng = np.random.default_rng(seed)
    err_path = 0.0
    err_backend = 0.0
    # batch-1 inputs up to L=32, plus one batched input at the benchmarked L=64
    cases = [(L, 1, (0, 1), 25) for L in (4, 8, 16, 32)] + [(64, 4, (0, 1, 0, 1), 1)]
    for L, batch, spins, count in cases:
        tables = compute_delta(L)
        for _ in range(count):
            coeffs = random_coefficients(rng, batch, np.array(spins), L)
            sig = inverse(coeffs, tables, FULL)
            sig_r = inverse(coeffs, tables, REDUCED)
            err_path = max(err_path, max_rel_error(sig_r.samples, sig.samples))
            f_full = forward(sig, tables, FULL)
            f_red = forward(sig, tables, REDUCED)
            err_path = max(err_path, max_rel_error(f_red.coeffs, f_full.coeffs))
            f_fft = forward(sig, tables, FFT)
            err_backend = max(err_backend, max_rel_error(f_fft.coeffs, f_full.coeffs))
            s_fft = inverse(coeffs, tables, FFT)
            err_backend = max(err_backend, max_rel_error(s_fft.samples, sig.samples))
    return [
        _row("swsft.path_equivalence", 64, err_path, 1e-12),
        _row("swsft.backend_equivalence", 64, err_backend, 1e-12),
    ]


def check_g_symmetry(seed=0):
    rng = np.random.default_rng(seed)
    err = 0.0
    for spin in (-1, 0, 2):
        L = 12
        coeffs = random_coefficients(rng, 1, np.array([spin]), L)
        G = g_matrix(coeffs, compute_delta(L))[0, 0]
        m = np.arange(-(L - 1), L)
        signs = np.where((m + spin) % 2 == 0, 1.0, -1.0)
        err = max(err, max_rel_error(G, signs * G[::-1, :]))
    return [_row("swsft.g_symmetry", 12, err, 1e-12)]


def check_parseval(seed=0):
    rng = np.random.default_rng(seed)
    err = 0.0
    for spin in (0, 1):
        L = 8
        flat = random_coefficients(rng, 1, [spin], L).coeffs[0, 0]
        energy = (np.abs(flat) ** 2).sum()
        integral = reference.spherical_integral_quadrature(
            lambda th, ph: np.abs(reference.synthesize_at(flat, spin, L, th, ph)) ** 2, L
        ).real
        err = max(err, abs(energy - integral) / integral)
    return [_row("swsft.parseval", 8, err, 1e-8)]


# ---------------------------------------------------------------------------
# layers
# ---------------------------------------------------------------------------

SPIN_SET = (0, 1)
CHANNELS = 2
N_ROTATIONS = 20


def harness_residual_params(rng, band_limit, pool_to=None):
    """Residual-block parameters for the equivariance harness.

    Banks are spin-diagonal so nonzero-spin channels stay single
    harmonics, and the activations read moduli only from nonzero-spin
    channels; with smooth harness inputs the whole block then commutes
    with rotations up to floating-point accumulation.
    """
    L = pool_to if pool_to is not None else band_limit
    c0 = CHANNELS
    ct = len(SPIN_SET) * CHANNELS
    bank1 = FilterBank.random(rng, SPIN_SET, SPIN_SET, CHANNELS, CHANNELS, L, spin_diagonal=True)
    bank2 = FilterBank.random(rng, SPIN_SET, SPIN_SET, CHANNELS, CHANNELS, L, spin_diagonal=True)
    def collapse():
        params = PhaseCollapseParams.random(rng, c0, ct)
        w2 = params.w2.copy()
        w2[:, :c0] = 0.0  # moduli of complex spin-0 mixtures are not band-limited
        return PhaseCollapseParams(params.w1, w2, params.bias)

    def bn():
        return BatchNormState(
            scale=np.ones(ct),
            bias=(rng.normal(size=ct) + 1j * rng.normal(size=ct)),
            running_variance=None,
        )

    return ResidualBlockParams(
        bank1=bank1, bn1=bn(), collapse1=collapse(),
        bank2=bank2, bn2=bn(), collapse2=collapse(),
        pool_to=pool_to, projection=None,
    )


def check_layer_equivariance(seed=0):
    band_limit = 16
    rng = np.random.default_rng(seed)
    rotations = random_rotations(N_ROTATIONS, seed + 1)
    spins = np.repeat(SPIN_SET, CHANNELS)
    rows = []

    bank = FilterBank.random(rng, SPIN_SET, SPIN_SET, CHANNELS, CHANNELS, band_limit)
    coeffs = random_coefficients(rng, 1, spins, band_limit)
    rep = equivariance_error(lambda c: spectral_conv(c, bank), coeffs, rotations, "spectral_conv", seed)
    # A spin-expanding bank gates the off-diagonal spin blocks; its own generator keeps the other rows' inputs.
    expand_rng = np.random.default_rng(seed + 2)
    expand = FilterBank.random(expand_rng, (0,), SPIN_SET, 3, CHANNELS, band_limit)
    expand_in = random_coefficients(expand_rng, 1, np.zeros(3, dtype=int), band_limit)
    rep2 = equivariance_error(lambda c: spectral_conv(c, expand), expand_in, rotations, "spectral_conv", seed)
    rows.append(_row("layers.equivariance.spectral_conv", band_limit, max(rep.max_rel_err, rep2.max_rel_err), 1e-10))
    # Equivariance cannot see a wrong tap layout (any per-degree channel mix
    # commutes with rotations); the independent per-spin-pair sum can.
    err = 0.0
    for bk, co in ((bank, coeffs), (expand, expand_in)):
        want = reference.spectral_conv_per_pair(co.coeffs, bk.weights, bk.spins_in, bk.spins_out)
        err = max(err, max_rel_error(spectral_conv(co, bk).coeffs, want))
    rows.append(_row("layers.spectral_conv.per_pair_reference", band_limit, err, 1e-12))

    sig = smooth_harness_signal(rng, band_limit, SPIN_SET, CHANNELS)
    pc = PhaseCollapseParams.random(rng, CHANNELS, len(spins))
    rep = equivariance_error(lambda s: phase_collapse(s, pc), sig, rotations, "phase_collapse", seed)
    rows.append(_row("layers.equivariance.phase_collapse", band_limit, rep.max_rel_err, 1e-6))

    state = BatchNormState.initialize(len(spins))
    _, warmed = spectral_batch_norm(coeffs, state, "train")
    rep = equivariance_error(
        lambda c: spectral_batch_norm(c, warmed, "eval")[0], coeffs, rotations, "spectral_batch_norm", seed
    )
    rows.append(_row("layers.equivariance.spectral_batch_norm", band_limit, rep.max_rel_err, 1e-6))

    rep = equivariance_error(lambda c: spectral_pool(c, band_limit // 2), coeffs, rotations, "spectral_pool", seed)
    rows.append(_row("layers.equivariance.spectral_pool", band_limit, rep.max_rel_err, 1e-6))

    rep = equivariance_error(
        lambda c: spectral_unpool(c, band_limit + 4), coeffs, rotations, "spectral_unpool", seed
    )
    rows.append(_row("layers.equivariance.spectral_unpool", band_limit, rep.max_rel_err, 1e-6))

    sig = smooth_harness_signal(rng, band_limit, SPIN_SET, CHANNELS, shared_orders=True)
    params = harness_residual_params(rng, band_limit)
    _, params = residual_block_train(sig, params)
    rep = equivariance_error(lambda s: residual_block(s, params), sig, rotations, "residual_block", seed)
    rows.append(_row("layers.equivariance.residual_block", band_limit, rep.max_rel_err, 1e-6))

    sig = smooth_harness_signal(rng, band_limit, SPIN_SET, CHANNELS, shared_orders=True,
                                max_degree=band_limit // 2 - 1)
    params = harness_residual_params(rng, band_limit, pool_to=band_limit // 2)
    _, params = residual_block_train(sig, params)
    rep = equivariance_error(lambda s: residual_block(s, params), sig, rotations, "residual_block_pool", seed)
    rows.append(_row("layers.equivariance.residual_block_pool", band_limit, rep.max_rel_err, 1e-6))
    return rows


def check_batch_norm_semantics(seed=0):
    rng = np.random.default_rng(seed)
    L = 8
    spins = np.repeat(SPIN_SET, 3)
    coeffs = random_coefficients(rng, 4, spins, L)
    state = BatchNormState.initialize(len(spins))
    out, _ = spectral_batch_norm(coeffs, state, "train")
    var = spectral_variance(out).mean(axis=0)
    var_err = np.abs(var - 1.0).max()
    rows = [_row("layers.batch_norm.unit_variance", L, var_err, 1e-2)]
    # Parseval: spectral variance of a sample equals its spatial variance.
    err = 0.0
    for c in range(len(spins)):
        sv = spectral_variance(out)[0, c]
        spatial = reference.spatial_variance_quadrature(out.coeffs[0, c], int(spins[c]), L)
        err = max(err, abs(sv - spatial) / spatial)
    rows.append(_row("layers.batch_norm.parseval", L, err, 1e-6))
    return rows


# ---------------------------------------------------------------------------
# molecules
# ---------------------------------------------------------------------------

_MOL_Z = np.array([8, 1, 1, 6, 1])
_MOL_POS = np.array(
    [
        [0.0, 0.0, 0.0],
        [0.75, 0.5, -0.25],
        [-0.5, 0.625, 0.375],
        [0.25, -0.875, 0.5],
        [-0.625, -0.25, -0.75],
    ]
)
_MOL_VOCAB = (1, 6, 8)


def check_molecule_invariances(seed=0):
    rng = np.random.default_rng(seed)
    grid = make_grid(32)
    L = grid.band_limit
    tables = compute_delta(L)
    mol = Molecule(_MOL_Z, _MOL_POS)
    feats = featurize(mol, _MOL_VOCAB, grid)
    rows = []

    shifted = Molecule(_MOL_Z, _MOL_POS + np.array([1.0, -2.0, 3.0]))
    rows.append(
        _row("mol.translation_invariance", L,
             np.abs(featurize(shifted, _MOL_VOCAB, grid).values - feats.values).max(), 0.0)
    )

    rot = Rotation.random(rng)
    rotated = Molecule(_MOL_Z, _MOL_POS @ rot.matrix().T)
    feats_rot = featurize(rotated, _MOL_VOCAB, grid)
    spins = np.zeros(feats.channels, dtype=int)
    co = forward(SpinSignal(feats.values.astype(complex), spins, grid), tables)
    co_rot = rotate_coefficients(co, rot, tables)
    co_direct = forward(SpinSignal(feats_rot.values.astype(complex), spins, grid), tables)
    num = np.linalg.norm(co_rot.coeffs - co_direct.coeffs)
    den = np.linalg.norm(co_direct.coeffs)
    rows.append(_row("mol.rotation_equivariance", L, num / den, 1e-6))

    d1 = pooled_descriptor(feats)
    d2 = pooled_descriptor(feats_rot)
    rows.append(_row("mol.pooled_invariance", L, np.abs(d1 - d2).max() / np.abs(d1).max(), 1e-6))

    perm = np.array([0, 2, 1, 3, 4])  # swap the two hydrogens nearest the oxygen
    swapped = Molecule(_MOL_Z[perm], _MOL_POS[perm])
    feats_swapped = featurize(swapped, _MOL_VOCAB, grid)
    rows.append(
        _row("mol.permutation_invariance", L,
             np.abs(feats_swapped.values[perm] - feats.values).max(), 0.0)
    )

    sigma = calibrate_spread(0.95, np.pi / 4)
    g45 = np.exp(-((np.pi / 4) ** 2) / (2 * sigma**2))
    rows.append(_row("mol.spread_calibration", L, abs(g45 - 0.05), 1e-12))

    water = parse_xyz(WATER_XYZ)
    wf = featurize(water, (1, 8), grid)
    structure_ok = wf.atom_count == 3 and wf.channels == 4 and wf.values.shape[:2] == (3, 4)
    rows.append(_row("mol.water_channel_structure", L, 0.0 if structure_ok else 1.0, 0.0))
    return rows


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

CHECKS = (
    ("grid", check_grid_quadrature),
    ("grid", check_grid_inner_products),
    ("grid", check_grid_extension),
    ("wigner", check_wigner_delta_oracle),
    ("wigner", check_wigner_d_oracle),
    ("wigner", check_wigner_orthogonality),
    ("wigner", check_wigner_rotations),
    ("swsft", check_forward_oracle),
    ("swsft", check_roundtrips),
    ("swsft", check_path_and_backend_equivalence),
    ("swsft", check_g_symmetry),
    ("swsft", check_parseval),
    ("layers", check_layer_equivariance),
    ("layers", check_batch_norm_semantics),
    ("mol", check_molecule_invariances),
)


def run_verification(name_filter: str | None = None, seed: int = 0) -> list[CheckRow]:
    # Every row whose name contains the filter.  Row names start with their group and name no other
    # group, so a filter that starts with a group name ("wigner", "wigner.d") runs that group only.
    head = (name_filter or "").split(".")[0]
    only = head if head in {group for group, _ in CHECKS} else None
    rows = []
    for group, check in CHECKS:
        if only in (None, group):
            rows += [row for row in check(seed=seed) if name_filter is None or name_filter in row.name]
    return rows


def write_rows_csv(rows, path) -> None:
    write_report_csv(
        path,
        ["name", "L", "metric", "threshold", "pass"],
        ([r.name, r.band_limit, f"{r.metric:.6e}", f"{r.threshold:.6e}", r.passed] for r in rows),
    )
