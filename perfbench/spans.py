"""Span recorder for the traced run.

``Recorder.install`` replaces each public function named in ``TRACED`` by a
wrapper in every swirl module that holds it, i.e. where its callers look it
up (``swirl.layers.forward``, ``swirl.transforms.fourier_2d``, ...).  Each
call made between ``start(item)`` and ``stop()`` becomes a span (label,
parent span, item, start, end) kept in memory; ``restore`` puts every
original function back.  Untraced runs never create a recorder.

A span's self time is its duration minus the durations of its child spans
(calls are nested and single-threaded, so the children never overlap).
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import OrderedDict, defaultdict

import numpy as np

TRACED = {
    "wigner": ("compute_delta", "wigner_D"),
    "grid": ("extend_samples",),
    "transforms": ("forward", "inverse", "inner_products", "fourier_2d"),
    "layers": ("residual_block", "spectral_conv", "phase_collapse", "spectral_batch_norm", "spectral_pool"),
    "equivariance": ("rotate_coefficients", "equivariance_error"),
    "molecules": ("featurize",),
}

# Labels whose self time is a per-layer metric; fourier_2d is split by its
# caller, inner_products (analysis) or inverse (synthesis).
SELF_LABELS = (
    "wigner.compute_delta",
    "wigner.wigner_D",
    "equivariance.rotate_coefficients",
    "equivariance.equivariance_error",
    "transforms.forward",
    "transforms.inverse",
    "transforms.inner_products",
    "transforms.fourier_2d.analysis",
    "transforms.fourier_2d.synthesis",
    "grid.extend_samples",
    "layers.residual_block",
    "layers.spectral_conv",
    "layers.phase_collapse",
    "layers.spectral_batch_norm",
    "layers.spectral_pool",
    "molecules.featurize",
)
CALL_LABELS = ("wigner.compute_delta", "wigner.wigner_D", "equivariance.rotate_coefficients")

_LABEL, _PARENT, _ITEM, _START, _END = range(5)  # fields of a span


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self.item: int | None = None  # the item being timed; None records nothing
        self.misses = 0  # compute_delta cache misses while timing items
        self.flops_forward = 0.0
        self.bytes_moved = 0.0
        self.tables: OrderedDict = OrderedDict()  # compute_delta results, least recently used first
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def start(self, item: int) -> None:
        self.item = item
        self._misses_at_start = self._cache_info().misses

    def stop(self) -> None:
        self.item = None
        self.misses += self._cache_info().misses - self._misses_at_start

    def install(self) -> None:
        self._cache_info = sys.modules["swirl.wigner"].compute_delta.cache_info
        modules = [m for name, m in sys.modules.items() if name.startswith("swirl.")]
        for short, names in TRACED.items():
            owner = sys.modules[f"swirl.{short}"]
            for name in names:
                original = getattr(owner, name)
                wrapper = self._wrap(f"{short}.{name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def _wrap(self, label, fn):
        spans, stack = self.spans, self._stack
        counts = _COUNTERS.get(label)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.item is None:
                return fn(*args, **kwargs)
            name = label
            if label == "transforms.fourier_2d":
                # the direction names the caller: inner_products or inverse
                name = f"{label}.{args[1] if len(args) > 1 else kwargs['direction']}"
            index = len(spans)
            spans.append([name, stack[-1] if stack else -1, self.item, time.perf_counter(), 0.0])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][_END] = time.perf_counter()
            if counts is not None:
                counts(self, result, *args, **kwargs)
            return result

        return wrapper

    def self_times(self) -> dict:
        """Total self time per label."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[_PARENT] >= 0:
                child_time[span[_PARENT]] += span[_END] - span[_START]
        totals: dict = defaultdict(float)
        for span, children in zip(self.spans, child_time):
            totals[span[_LABEL]] += span[_END] - span[_START] - children
        return dict(totals)

    def top_level_time(self) -> float:
        return sum(s[_END] - s[_START] for s in self.spans if s[_PARENT] < 0)

    def calls(self) -> dict:
        counts: dict = defaultdict(int)
        for span in self.spans:
            counts[span[_LABEL]] += 1
        return dict(counts)

    def cached_table_bytes(self) -> int:
        """nbytes of the tables still held by compute_delta's cache (its most recent entries)."""
        cache_size = self._cache_info().currsize
        recent = list(self.tables.values())[-cache_size:] if cache_size else []
        return sum(d.nbytes for tables in recent for d in tables.delta)

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["label", "parent", "item", "start_s", "end_s"], "spans": self.spans}, fh)


# -- computed counts --------------------------------------------------------
# Analytic estimates from call shapes, labelled "computed": a complex
# multiply-add counts as 8 flops; bytes are those of the complex128 arrays
# (16 B per entry) and Delta tables (8 B) that each transform stage reads or
# writes once.


def _config(args, kwargs):
    from swirl.transforms import DEFAULT_CONFIG

    return args[2] if len(args) > 2 else kwargs.get("config", DEFAULT_CONFIG)


def _spin_groups(spins, batch):
    """(|spin|, maps) for each spin group, as the transforms split their input."""
    values, counts = np.unique(spins, return_counts=True)
    return [(abs(int(s)), int(c) * batch) for s, c in zip(values, counts)]


def _table_entries(L, spin):
    return sum((2 * l + 1) ** 2 for l in range(spin, L))


def _contraction_entries(L, spin, path):
    if path == "full":
        return _table_entries(L, spin)
    return sum((l + 1) * (2 * l + 1) for l in range(spin, L)) + L * (2 * L - 1)


def _fourier_flops(n, backend):
    size = 2 * n * n
    return 5 * size * math.log2(size) if backend == "fft" else 8 * 6 * n**3


def _count_forward(rec, result, signal, *args, **kwargs):
    config = _config((signal,) + args, kwargs)
    n, L = signal.grid.n, signal.grid.band_limit
    w = 2 * L - 1
    for spin, maps in _spin_groups(signal.spins, signal.batch):
        contraction = _contraction_entries(L, spin, config.symmetry_path)
        rec.flops_forward += maps * (_fourier_flops(n, config.fourier_backend) + 8 * w**3 + 8 * contraction)
        per_map = n * n + 4 * (2 * n * n) + 4 * w * w + contraction + L * L
        rec.bytes_moved += 16 * maps * per_map + 8 * _table_entries(L, spin)


def _count_inverse(rec, result, coeffs, *args, **kwargs):
    config = _config((coeffs,) + args, kwargs)
    L = coeffs.band_limit
    n, w = 2 * L, 2 * L - 1
    for spin, maps in _spin_groups(coeffs.spins, coeffs.batch):
        per_map = L * L + _contraction_entries(L, spin, config.symmetry_path) + 3 * w * w + 3 * (2 * n * n) + n * n
        rec.bytes_moved += 16 * maps * per_map + 8 * _table_entries(L, spin)


def _count_tables(rec, result, band_limit, *args, **kwargs):
    rec.tables.pop(band_limit, None)
    rec.tables[band_limit] = result


_COUNTERS = {
    "transforms.forward": _count_forward,
    "transforms.inverse": _count_inverse,
    "wigner.compute_delta": _count_tables,
}
