"""Transform benchmark harness: DFT-matrix vs FFT, reduced vs full path.

Measures median and interquartile wall time of a forward+inverse pair per
(resolution, backend, path) cell, after warmup, on identical seeded
inputs, and cross-checks every cell against the first cell of the same
resolution.  The harness reports timings; it asserts nothing about which
backend is faster (that is hardware-dependent).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .containers import write_report_csv
from .equivariance import max_rel_error, random_coefficients
from .grid import make_grid
from .transforms import FOURIER_BACKENDS, SYMMETRY_PATHS, TransformConfig, forward, inverse
from .wigner import compute_delta

CROSS_CHECK_TOLERANCE = 1e-12


@dataclass(frozen=True)
class BenchSpec:
    resolutions: tuple
    repetitions: int
    warmup: int
    seed: int
    backends: tuple = FOURIER_BACKENDS
    paths: tuple = SYMMETRY_PATHS

    def __post_init__(self):
        object.__setattr__(self, "resolutions", tuple(self.resolutions))
        object.__setattr__(self, "backends", tuple(self.backends))
        object.__setattr__(self, "paths", tuple(self.paths))
        if self.repetitions < 3:
            raise ValueError(f"repetitions must be >= 3 for a meaningful median, got {self.repetitions}")
        if self.warmup < 0:
            raise ValueError(f"warmup must be nonnegative, got {self.warmup}")
        for n in self.resolutions:
            make_grid(n)
        for backend in self.backends:
            for path in self.paths:
                TransformConfig(fourier_backend=backend, symmetry_path=path)


@dataclass(frozen=True)
class BenchRow:
    resolution: int
    backend: str
    path: str
    repetitions: int
    median_s: float
    iqr_s: float
    cross_check: float
    status: str = "ok"

    @property
    def passed(self) -> bool:
        return self.status == "ok" and self.cross_check <= CROSS_CHECK_TOLERANCE


def run_bench(spec: BenchSpec) -> list[BenchRow]:
    return [row for n in spec.resolutions for row in _bench_resolution(n, spec)]


def _bench_resolution(n: int, spec: BenchSpec) -> list[BenchRow]:
    L = n // 2
    rng = np.random.default_rng(spec.seed)  # same inputs for every cell
    coeffs = random_coefficients(rng, 1, np.array([0, 1]), L)
    reference_samples = None
    reference_coeffs = None
    rows = []
    for backend in spec.backends:
        for path in spec.paths:
            config = TransformConfig(fourier_backend=backend, symmetry_path=path)
            try:  # compute_delta is cached, and raises MemoryError for tables larger than the host
                signal, back, times = _time_cell(coeffs, compute_delta(L), config, spec)
            except MemoryError:
                rows.append(BenchRow(n, backend, path, spec.repetitions, np.nan, np.nan, np.nan, "oom"))
                continue
            if reference_samples is None:
                reference_samples, reference_coeffs = signal.samples, back.coeffs
            cross = max(
                max_rel_error(signal.samples, reference_samples),
                max_rel_error(back.coeffs, reference_coeffs),
            )
            q1, med, q3 = np.percentile(times, [25, 50, 75])
            rows.append(BenchRow(n, backend, path, spec.repetitions, float(med), float(q3 - q1), float(cross)))
    return rows


def _time_cell(coeffs, tables, config, spec):
    signal = back = None
    times = []
    for it in range(spec.warmup + spec.repetitions):
        start = time.perf_counter()
        signal = inverse(coeffs, tables, config)
        back = forward(signal, tables, config)
        elapsed = time.perf_counter() - start
        if it >= spec.warmup:
            times.append(elapsed)
    return signal, back, np.asarray(times)


def write_bench_csv(rows, path) -> None:
    write_report_csv(
        path,
        ["n", "backend", "path", "repetitions", "median_s", "iqr_s", "cross_check_max_rel", "status", "pass"],
        (
            [r.resolution, r.backend, r.path, r.repetitions, f"{r.median_s:.6e}", f"{r.iqr_s:.6e}",
             f"{r.cross_check:.6e}", r.status, r.passed]
            for r in rows
        ),
    )
