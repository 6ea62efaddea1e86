import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import sph_harm_y

import swirl
from swirl import reference, wigner
from swirl.bench import BenchSpec, run_bench
from swirl.wigner import MAX_BAND_LIMIT, Rotation, compute_delta, random_rotations, wigner_D, wigner_d


def test_delta_degree_zero_is_one():
    assert compute_delta(1)[0].shape == (1, 1)
    assert compute_delta(1)[0][0, 0] == 1.0


def test_delta_degree_one_values():
    # d^1(pi/2) entries from the explicit sum formula.
    d = compute_delta(2)[1]
    c = 1
    assert d[c + 0, c + 0] == pytest.approx(0.0, abs=1e-15)
    assert d[c + 1, c + 1] == pytest.approx(0.5, abs=1e-15)
    assert d[c + 1, c + 0] == pytest.approx(-0.7071067811865476, abs=1e-15)


def test_importing_verification_does_not_load_mpmath():
    # Only reference.wigner_d_explicit_mp uses mpmath, and it imports it when called.
    code = "import sys, swirl.verification; print('mpmath' in sys.modules)"
    src = str(Path(swirl.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True, env=env)
    assert done.stdout.strip() == "False"


def test_delta_degree_eight_entry_vs_sum_formula():
    d = compute_delta(9)[8]
    c = 8
    # frozen from the 30-digit sum-formula evaluation
    assert d[c + 3, c - 2] == pytest.approx(-0.19040715010865532, abs=1e-12)
    assert d[c + 3, c - 2] == pytest.approx(reference.wigner_d_explicit_mp(8, 3, -2, np.pi / 2), abs=1e-12)


@pytest.mark.parametrize("L", [1, 2, 5, 13])
def test_delta_matches_explicit_sum(L):
    tables = compute_delta(L)
    for l in range(L):
        m = np.arange(-l, l + 1)
        oracle = np.array([[reference.wigner_d_explicit(l, a, b, np.pi / 2) for b in m] for a in m])
        np.testing.assert_allclose(tables[l], oracle, atol=1e-12)


def test_delta_orthogonality_and_symmetry():
    L = 65
    tables = compute_delta(L)
    for l in (0, 1, 7, 32, 64):
        d = tables[l]
        assert np.abs(d @ d.T - np.eye(2 * l + 1)).max() < 1e-12
        m = np.arange(-l, l + 1)
        signs = np.where((m[:, None] - m[None, :]) % 2 == 0, 1.0, -1.0)
        # the tables unfold from one quadrant, so every sign symmetry is exact
        np.testing.assert_array_equal(d, signs * d.T)
        np.testing.assert_array_equal(d[::-1], np.where((l - m) % 2 == 0, 1.0, -1.0) * d)
        np.testing.assert_array_equal(d[:, ::-1], np.where((l + m) % 2 == 0, 1.0, -1.0)[:, None] * d)



def test_orthogonality_check_keeps_no_unfolded_tables(monkeypatch):
    # The check reads all 128 degrees once; unfolding them one-off leaves nothing on the cached tables.
    from swirl import verification

    tables = wigner._build_delta(128)
    monkeypatch.setattr(verification, "compute_delta", lambda band_limit: tables)
    assert all(row.passed for row in verification.check_wigner_orthogonality())
    assert not tables._kept


@pytest.mark.parametrize(
    "delta",
    [
        wigner._build_delta(4).delta,
        wigner._build_delta(16).delta,
        wigner._build_delta(8).delta.astype(complex),
        wigner._build_delta(8).delta[0],
    ],
    ids=["smaller", "larger", "complex", "2-D"],
)
def test_tables_reject_a_malformed_delta(delta):
    # A delta that is not a real (L, L, L) array fails at construction, naming both shapes,
    # not deep inside a transform or a rotation.
    with pytest.raises(ValueError, match=rf"shape \(8, 8, 8\).*got {re.escape(str(delta.shape))}"):
        wigner.WignerTables(8, delta)


def test_every_unfolded_table_of_l64_keeps_both_index_symmetries():
    # tables[l] reads both sign patterns from one alternation; each entry is a
    # stored quadrant entry times +-1, so the symmetries hold bitwise.
    tables = compute_delta(64)
    for l in range(64):
        d = tables[l]
        sign = np.where((l + np.arange(-l, l + 1)) % 2 == 0, 1.0, -1.0)
        np.testing.assert_array_equal(d[l:, l:], tables.delta[: l + 1, l, : l + 1])
        np.testing.assert_array_equal(d[:, ::-1], sign[:, None] * d)  # Delta_{i,-j} = (-1)^(l+i) Delta_{i,j}
        np.testing.assert_array_equal(d[::-1], sign * d)  # Delta_{-i,j} = (-1)^(l-j) Delta_{i,j}

@pytest.mark.parametrize("l", [63, 127, 255])
def test_delta_border_rows_match_factorial_closed_form(l):
    # Delta^l_{l,b} = (-1)^(l-b) 2^-l sqrt((2l)! / ((l+b)!(l-b)!)), evaluated at 40
    # digits from exact factorials (a float pi/2 would shift it by about b * 6e-17)
    import mpmath

    row = compute_delta(256).delta[l, l, : l + 1]
    with mpmath.workdps(40):
        exact = [
            (-1) ** (l - b) * mpmath.sqrt(mpmath.factorial(2 * l) / (mpmath.factorial(l + b) * mpmath.factorial(l - b)))
            / mpmath.mpf(2) ** l
            for b in range(l + 1)
        ]
        worst = max(abs((mpmath.mpf(float(v)) - e) / e) for v, e in zip(row, exact))
    assert worst <= 1e-14


@pytest.mark.parametrize("l", [127, 255])
def test_delta_interior_entries_match_the_exact_integer_sum(l):
    # At beta = pi/2 the sum formula has integer terms:
    #   Delta^l_{a,b} = 2^-l sqrt((l+a)!(l-a)! / ((l+b)!(l-b)!)) sum_k (-1)^(a-b+k) C(l+b, k) C(l-b, l-a-k).
    # The sum is exact in Python integers (in floats, or at 40 digits, it
    # would cancel about 2^l); only the square root is taken at 40 digits.
    # 200 seeded entries of the stored quadrant 0 <= a, b <= l, corners included.
    import mpmath
    from math import comb, factorial

    sample = np.random.default_rng(l).integers(0, l + 1, size=(196, 2))
    pairs = [(0, 0), (0, l), (l, 0), (l, l)] + [(int(a), int(b)) for a, b in sample]
    delta = compute_delta(256).delta
    worst = 0.0
    with mpmath.workdps(40):
        for a, b in pairs:
            terms = range(max(0, b - a), l - a + 1)
            total = sum((-1) ** (a - b + k) * comb(l + b, k) * comb(l - b, l - a - k) for k in terms)
            ratio = mpmath.mpf(factorial(l + a) * factorial(l - a)) / (factorial(l + b) * factorial(l - b))
            exact = total * mpmath.sqrt(ratio) / mpmath.mpf(2) ** l
            worst = max(worst, abs(float(delta[a, l, b]) - exact))
    assert worst <= 1e-14


def test_delta_orthogonal_at_the_top_degree_of_l256():
    d = compute_delta(256)[255]
    assert np.abs(d @ d.T - np.eye(511)).max() <= 1e-13


def test_swirl_runs_without_scipy():
    # scipy is a test dependency only; a fresh interpreter (this one has
    # imported it already) must import every swirl module and build a table without it
    import os, subprocess, sys
    from pathlib import Path

    path = os.pathsep.join(filter(None, [str(Path(wigner.__file__).parents[1]), os.environ.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        "import swirl.transforms, swirl.layers, swirl.equivariance, swirl.molecules, swirl.containers, swirl.bench, swirl.cli\n"
        "from swirl.wigner import compute_delta\n"
        "compute_delta(8)\n"
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if m.startswith('scipy'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr


def test_compute_delta_rejects_out_of_range():
    with pytest.raises(ValueError):
        compute_delta(0)
    with pytest.raises(ValueError):
        compute_delta(MAX_BAND_LIMIT + 1)


def test_delta_is_one_quadrant_array():
    L = 6
    tables = compute_delta(L)
    assert tables.delta.shape == (L, L, L) and tables.delta.nbytes == 8 * L**3
    for l in range(L):
        np.testing.assert_array_equal(tables.delta[: l + 1, l, : l + 1], tables[l][l:, l:])
        assert not tables.delta[l + 1 :, l].any() and not tables.delta[:, l, l + 1 :].any()


def test_compute_delta_checks_footprint_before_allocating(monkeypatch):
    # 8 L^3 bytes against host memory: an unaffordable band limit is a
    # MemoryError naming both sizes, which swirl bench reports as oom.
    compute_delta.cache_clear()
    monkeypatch.setattr(wigner, "host_memory", lambda: 2**21)
    with pytest.raises(MemoryError, match=r"band limit 65 need \d+\.\d GiB, more than this host's \d+\.\d GiB"):
        compute_delta(65)
    rows = run_bench(BenchSpec(resolutions=(130,), repetitions=3, warmup=0, seed=0))
    assert [row.status for row in rows] == ["oom"] * 4
    assert compute_delta(64).delta.nbytes == 2**21  # exactly fits


def test_compute_delta_cached():
    assert compute_delta(8) is compute_delta(8)


def test_wigner_d_leaves_the_table_cache_alone():
    # wigner_D builds a one-off table of its degree; caching one per degree
    # would evict the transforms' tables.
    from swirl.verification import check_wigner_d_oracle

    compute_delta(128)
    check_wigner_d_oracle()
    hits = compute_delta.cache_info().hits
    compute_delta(128)
    assert compute_delta.cache_info().hits == hits + 1


@pytest.mark.parametrize("l", [0, 1, 3, 9])
def test_wigner_d_at_zero_is_identity(l):
    np.testing.assert_allclose(wigner_d(l, 0.0), np.eye(2 * l + 1), atol=1e-13)


def test_wigner_d_at_half_pi_matches_delta():
    for l in (1, 4, 16):
        np.testing.assert_allclose(wigner_d(l, np.pi / 2), compute_delta(l + 1)[l], atol=1e-12)


def test_wigner_d_generic_angle_vs_sum_formula():
    l, beta = 4, 0.7
    m = np.arange(-l, l + 1)
    oracle = np.array([[reference.wigner_d_explicit(l, a, b, beta) for b in m] for a in m])
    np.testing.assert_allclose(wigner_d(l, beta), oracle, atol=1e-12)
    # one frozen entry, high-precision value
    assert wigner_d(4, 0.7)[4 + 2, 4 - 1] == pytest.approx(-0.33592438049039636, abs=1e-13)


def test_wigner_d_orthogonal_at_generic_angle(rng):
    for l in (1, 8, 33):
        beta = rng.uniform(0, np.pi)
        d = wigner_d(l, beta)
        assert np.abs(d @ d.T - np.eye(2 * l + 1)).max() < 1e-12


def test_wigner_D_identity_rotation():
    np.testing.assert_allclose(wigner_D(3, Rotation(0.0, 0.0, 0.0)), np.eye(7), atol=1e-13)


def test_wigner_D_pure_phases_for_zero_beta():
    l = 2
    alpha, gamma = 0.4, 1.3
    D = wigner_D(l, Rotation(alpha, 0.0, gamma))
    m = np.arange(-l, l + 1)
    np.testing.assert_allclose(D, np.diag(np.exp(-1j * m * (alpha + gamma))), atol=1e-13)


def test_wigner_D_inverse_gives_identity():
    rot = Rotation(0.3, 0.7, 1.1)
    D = wigner_D(2, rot)
    Dinv = wigner_D(2, rot.inverse())
    np.testing.assert_allclose(D @ Dinv, np.eye(5), atol=1e-12)


def test_wigner_D_unitary(rng):
    for l in (1, 16, 64):
        rot = Rotation.random(rng)
        D = wigner_D(l, rot)
        assert np.abs(D @ D.conj().T - np.eye(2 * l + 1)).max() < 1e-12


def test_wigner_D_homomorphism(rng):
    # Composition computed via 3x3 matrices must match the matrix product.
    for _ in range(5):
        r1, r2 = Rotation.random(rng), Rotation.random(rng)
        r12 = r1.compose(r2)
        np.testing.assert_allclose(r12.matrix(), r1.matrix() @ r2.matrix(), atol=1e-13)
        for l in (1, 5, 16):
            np.testing.assert_allclose(
                wigner_D(l, r1) @ wigner_D(l, r2), wigner_D(l, r12), atol=1e-10
            )


def test_from_matrix_handles_degenerate_beta():
    r = Rotation.from_matrix(Rotation(0.9, 0.0, 0.4).matrix())
    np.testing.assert_allclose(r.matrix(), Rotation(1.3, 0.0, 0.0).matrix(), atol=1e-12)
    flip = Rotation(0.0, np.pi, 0.0)
    r = Rotation.from_matrix(flip.matrix())
    np.testing.assert_allclose(r.matrix(), flip.matrix(), atol=1e-12)


def test_random_rotations_seeded():
    a = random_rotations(4, seed=7)
    b = random_rotations(4, seed=7)
    assert a == b


def test_spin_zero_harmonic_reduces_to_standard_ylm(rng):
    # The oracle harmonic must agree with scipy's orthonormal Ylm before
    # it can be trusted to arbitrate the transforms.
    theta = rng.uniform(0.1, np.pi - 0.1, size=5)
    phi = rng.uniform(0, 2 * np.pi, size=5)
    for l in (0, 1, 2, 5):
        for m in range(-l, l + 1):
            ours = reference.spin_harmonic(0, l, m, theta, phi)
            standard = sph_harm_y(l, m, theta, phi)
            np.testing.assert_allclose(ours, standard, atol=1e-12)
