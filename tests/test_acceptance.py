"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with pytest -s); the same
checks back the `swirl verify` command.
"""

import time

from swirl import verification as V
from swirl.bench import BenchSpec, run_bench, write_bench_csv


def _report(criterion, ok, detail):
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


def _assert_rows(criterion, rows, budget_s=None, elapsed=None):
    worst = max((r.metric for r in rows), default=0.0)
    ok = all(r.passed for r in rows)
    detail = f"{len(rows)} checks, worst metric {worst:.3e}"
    if budget_s is not None:
        detail += f", {elapsed:.1f}s of {budget_s:.0f}s budget"
        ok = ok and elapsed < budget_s
    _report(criterion, ok, detail)
    for r in rows:
        assert r.passed, f"{r.name}: metric {r.metric:.3e} exceeds threshold {r.threshold:.1e}"
    if budget_s is not None:
        assert elapsed < budget_s, f"runtime {elapsed:.1f}s exceeds {budget_s:.0f}s budget"


def test_criterion_01_forward_transform_matches_quadrature_oracle():
    # spins {-1, 0, 1}, L <= 8, random band-limited inputs, rel <= 1e-8, < 1 min
    start = time.perf_counter()
    rows = V.check_forward_oracle(seed=0)
    _assert_rows("criterion 1 (forward vs oracle)", rows, 60.0, time.perf_counter() - start)


def test_criterion_02_roundtrip():
    # inverse(forward) and forward(inverse) identities, L in {4..128}, |s| <= 2, rel <= 1e-10, < 2 min
    start = time.perf_counter()
    rows = V.check_roundtrips(seed=0)
    _assert_rows("criterion 2 (round-trip)", rows, 120.0, time.perf_counter() - start)


def test_criterion_03_and_04_path_and_backend_equivalence():
    # reduced vs full and dft_matrix vs fft agree to 1e-12 on 100 random inputs, L <= 32,
    # plus one batched input at L = 64
    rows = V.check_path_and_backend_equivalence(seed=0)
    _assert_rows("criteria 3+4 (path/backend equivalence)", rows)


def test_criterion_05_g_symmetry():
    rows = V.check_g_symmetry(seed=0)
    _assert_rows("criterion 5 (G symmetry)", rows)


def test_criterion_06_wigner_correctness():
    # sum-formula oracle l <= 20 at 1e-12; orthogonality l <= 127 (the benchmarked L=128) at 1e-12
    rows = (
        V.check_wigner_delta_oracle(seed=0)
        + V.check_wigner_d_oracle(seed=0)
        + V.check_wigner_orthogonality(seed=0)
    )
    _assert_rows("criterion 6 (Wigner correctness)", rows)


def test_criterion_07_layer_equivariance():
    # conv <= 1e-10; phase collapse, BN (frozen stats), pooling, residual
    # block <= 1e-6 over 20 rotations at L = 16, < 5 min
    start = time.perf_counter()
    rows = V.check_layer_equivariance(seed=0)
    _assert_rows("criterion 7 (layer equivariance)", rows, 300.0, time.perf_counter() - start)


def test_criterion_08_spectral_batch_norm_semantics():
    # unit output variance within [0.99, 1.01]; spectral == spatial variance to 1e-6
    rows = V.check_batch_norm_semantics(seed=0)
    _assert_rows("criterion 8 (spectral batch norm)", rows)


def test_criterion_09_molecule_featurizer():
    # exact translation invariance; rotation equivariance and pooled
    # invariance <= 1e-6 at n=32; water 2NZ structure; g(45 deg) = 0.05
    rows = V.check_molecule_invariances(seed=0)
    _assert_rows("criterion 9 (molecule featurizer)", rows)


def test_criterion_10_benchmark_harness(tmp_path):
    # full grid n in {64, 128, 256} x backends x paths; all numerical
    # cross-checks <= 1e-12; < 10 min.  No assertion on relative speed.
    start = time.perf_counter()
    rows = run_bench(BenchSpec(resolutions=(64, 128, 256), repetitions=5, warmup=1, seed=0))
    elapsed = time.perf_counter() - start
    csv_path = tmp_path / "bench.csv"
    write_bench_csv(rows, csv_path)
    assert len(csv_path.read_text().splitlines()) == 14  # comment + header + 12 cells
    assert len(rows) == 12
    worst = max(r.cross_check for r in rows)
    ok = all(r.passed for r in rows) and elapsed < 600.0
    _report("criterion 10 (benchmark harness)", ok, f"12 cells, worst cross-check {worst:.3e}, {elapsed:.1f}s")
    for r in rows:
        assert r.status == "ok", f"cell n={r.resolution} {r.backend}/{r.path} reported {r.status}"
        assert r.cross_check <= 1e-12, (
            f"cell n={r.resolution} {r.backend}/{r.path} cross-check {r.cross_check:.3e}"
        )
    assert elapsed < 600.0


def test_acceptance_summary(capsys):
    # one consolidated pass line so a bare `pytest tests/test_acceptance.py -s`
    # ends with an explicit verdict
    print("[acceptance] all criteria evaluated; see per-criterion lines above")
