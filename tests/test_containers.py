import json
import os
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from swirl.containers import (
    CONVENTION,
    FORMAT_NAME,
    FORMAT_VERSION,
    ContainerError,
    pack_blocks,
    read_container,
    unpack_coefficients,
    unpack_signal,
    write_container,
)
from swirl.equivariance import random_coefficients
from swirl.grid import make_grid
from swirl.signal import SpinSignal
from swirl.transforms import inverse
from swirl.wigner import compute_delta


def test_signal_roundtrip(tmp_path, rng):
    grid = make_grid(8)
    sig = SpinSignal(
        (rng.normal(size=(2, 3, 8, 8)) + 1j * rng.normal(size=(2, 3, 8, 8))),
        np.array([0, 1, -1]),
        grid,
    )
    path = tmp_path / "sig.swirl"
    write_container(path, *pack_blocks([sig]))
    header, arrays = read_container(path)
    (sig2,) = unpack_signal(header, arrays)
    np.testing.assert_array_equal(sig2.samples, sig.samples)
    np.testing.assert_array_equal(sig2.spins, sig.spins)
    assert sig2.grid.n == 8
    assert header["domain"] == "spatial"


def test_coefficients_roundtrip(tmp_path, rng):
    co = random_coefficients(rng, 2, np.array([0, 2]), 8)
    path = tmp_path / "co.swirl"
    write_container(path, *pack_blocks([co]))
    header, arrays = read_container(path)
    (co2,) = unpack_coefficients(header, arrays)
    np.testing.assert_array_equal(co2.coeffs, co.coeffs)
    assert co2.band_limit == 8
    assert header["domain"] == "spectral"


def test_rewrite_is_bit_exact(tmp_path, rng):
    # read -> write with no transform produces identical bytes
    co = random_coefficients(rng, 1, np.array([0]), 4)
    p1, p2 = tmp_path / "a.swirl", tmp_path / "b.swirl"
    write_container(p1, *pack_blocks([co]))
    header, arrays = read_container(p1)
    write_container(p2, header, arrays)
    assert p1.read_bytes() == p2.read_bytes()


def test_domain_mismatch_rejected(tmp_path, rng):
    co = random_coefficients(rng, 1, np.array([0]), 4)
    path = tmp_path / "co.swirl"
    write_container(path, *pack_blocks([co]))
    header, arrays = read_container(path)
    with pytest.raises(ContainerError, match="spatial"):
        unpack_signal(header, arrays)


def test_convention_mismatch_rejected(tmp_path, rng):
    grid = make_grid(8)
    sig = inverse(random_coefficients(rng, 1, np.array([0]), 4), compute_delta(4))
    header, arrays = pack_blocks([sig])
    header["convention"] = "other-convention"
    path = tmp_path / "sig.swirl"
    write_container(path, header, arrays)
    header2, arrays2 = read_container(path)
    with pytest.raises(ContainerError, match="convention"):
        unpack_signal(header2, arrays2)
    assert grid.n == 8


def test_not_a_container(tmp_path):
    path = tmp_path / "nope.swirl"
    path.write_bytes(b"\x00\x01binary soup")
    with pytest.raises(ContainerError):
        read_container(path)
    path.write_text('{"format": "something-else", "blocks": []}\n')
    with pytest.raises(ContainerError, match="not a"):
        read_container(path)
    path.write_text("[" * 100_000 + "\n")
    with pytest.raises(ContainerError, match="invalid container header"):
        read_container(path)


def test_truncated_payload(tmp_path, rng):
    co = random_coefficients(rng, 1, np.array([0]), 4)
    path = tmp_path / "co.swirl"
    write_container(path, *pack_blocks([co]))
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(ContainerError, match="shorter"):
        read_container(path)


def test_header_block_shape_must_match():
    with pytest.raises(ContainerError):
        write_container("/tmp/never-written.swirl", {"blocks": [{"shape": [2, 2]}]}, [np.zeros((3, 3))])


def test_empty_batch_block(tmp_path):
    grid = make_grid(8)
    sig = SpinSignal(np.zeros((0, 1, 8, 8), dtype=complex), np.array([0]), grid)
    path = tmp_path / "empty.swirl"
    write_container(path, *pack_blocks([sig]))
    header, arrays = read_container(path)
    (sig2,) = unpack_signal(header, arrays)
    assert sig2.samples.shape == (0, 1, 8, 8)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
_SHAPES = st.lists(st.integers(-3, 2**40), max_size=4) | _JSON
_BLOCKS = st.lists(st.dictionaries(st.just("shape"), _SHAPES) | _JSON, max_size=3) | _JSON


def _write_raw(path, header, payload=b""):
    path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + payload)


_ABSENT = object()


def _reads_or_rejects(tmp_path_factory, header, payload_bytes):
    # The header either reads or fails with ContainerError, and what reads
    # accounts for exactly the payload.
    path = tmp_path_factory.mktemp("fuzz") / "fuzz.swirl"
    _write_raw(path, header, bytes(payload_bytes))
    try:
        _, arrays = read_container(path)
    except ContainerError:
        return
    assert sum(a.size for a in arrays) * 16 == payload_bytes


@given(
    st.builds(lambda blocks: {"format": FORMAT_NAME, "blocks": blocks}, _BLOCKS) | _JSON,
    st.just(FORMAT_VERSION) | st.just(_ABSENT) | _JSON,
    st.sampled_from([0, 16, 64]),
)
def test_read_container_fuzzed_header(tmp_path_factory, header, version, payload_bytes):
    # Any header, with the version a readable container must carry, no
    # version, or any other JSON value as its version.
    if isinstance(header, dict) and version is not _ABSENT:
        header = {**header, "version": version}
    _reads_or_rejects(tmp_path_factory, header, payload_bytes)


@given(
    st.builds(lambda blocks: {"format": FORMAT_NAME, "version": FORMAT_VERSION, "blocks": blocks}, _BLOCKS),
    st.sampled_from([0, 16, 64]),
)
def test_read_container_fuzzed_versioned_header(tmp_path_factory, header, payload_bytes):
    # Only headers with the readable version, so more draws get past the
    # version check to the block checks and the payload accounting.
    _reads_or_rejects(tmp_path_factory, header, payload_bytes)


@pytest.mark.parametrize("version", [2, "1", True, None], ids=["2", "string-1", "true", "missing"])
def test_other_version_rejected(tmp_path, version):
    header = {"format": FORMAT_NAME, "blocks": [{"shape": [2]}]}
    if version is not None:
        header["version"] = version
    path = tmp_path / "v.swirl"
    _write_raw(path, header, bytes(32))
    with pytest.raises(ContainerError, match="version"):
        read_container(path)


def test_read_from_a_pipe(tmp_path, rng):
    # A pipe's size is unknown until it is read; it reads like the file it carries.
    co = random_coefficients(rng, 1, np.array([0]), 4)
    path, fifo = tmp_path / "co.swirl", tmp_path / "fifo"
    write_container(path, *pack_blocks([co]))
    os.mkfifo(fifo)
    writer = threading.Thread(target=lambda: fifo.write_bytes(path.read_bytes()), daemon=True)
    writer.start()
    try:
        _, arrays = read_container(fifo)
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    np.testing.assert_array_equal(arrays[0], co.coeffs)


def test_read_peak_memory_is_one_payload(tmp_path):
    # Blocks are read straight into their arrays: no whole-payload buffer, no per-block copies.
    arrays = [np.ones((3, 1, 256, 256), dtype=complex)] * 2
    path = tmp_path / "big.swirl"
    write_container(path, {"blocks": [{"shape": list(a.shape)} for a in arrays]}, arrays)
    payload = sum(a.nbytes for a in arrays)
    del arrays
    tracemalloc.start()
    try:
        _, arrays = read_container(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(arrays[1], 1.0)
    assert peak <= 1.2 * payload, f"peak {peak} B for a {payload} B payload"


@pytest.mark.parametrize(
    "header, match",
    [
        ([1, 2], "not a"),
        ({"format": FORMAT_NAME, "blocks": 3}, "must be a list"),
        ({"format": FORMAT_NAME, "blocks": [7]}, "list of integers"),
        ({"format": FORMAT_NAME, "blocks": [{"shape": "4"}]}, "list of integers"),
        ({"format": FORMAT_NAME, "blocks": [{"shape": [2.0]}]}, "list of integers"),
        ({"format": FORMAT_NAME, "blocks": [{"shape": [True]}]}, "list of integers"),
        ({"format": FORMAT_NAME, "blocks": [{}]}, "list of integers"),
        ({"format": FORMAT_NAME, "blocks": [{"shape": [-1]}]}, "negative"),
        ({"format": FORMAT_NAME, "blocks": [{"shape": [2**40, 2**40]}]}, "shorter"),
    ],
)
def test_malformed_header_rejected(tmp_path, header, match):
    path = tmp_path / "bad.swirl"
    _write_raw(path, header, bytes(64))
    with pytest.raises(ContainerError, match=match):
        read_container(path)


def _spatial_header(**fields):
    header = {"format": FORMAT_NAME, "domain": "spatial", "convention": CONVENTION, "grid_n": 8, "band_limit": 4}
    return {**header, **fields}


@pytest.mark.parametrize(
    "header, arrays, match",
    [
        pytest.param(_spatial_header(blocks=[]), [], "at least one block", id="no-blocks"),
        pytest.param(_spatial_header(blocks=[{"shape": [1, 1, 8, 8], "spins": [0.5]}]),
                     [np.zeros((1, 1, 8, 8))], "spins", id="float-spin"),
        pytest.param(_spatial_header(blocks=[{"shape": [1, 1, 8, 8], "spins": [True]}]),
                     [np.zeros((1, 1, 8, 8))], "spins", id="bool-spin"),
        pytest.param(_spatial_header(blocks=[{"shape": [1, 1, 8, 8]}]),
                     [np.zeros((1, 1, 8, 8))], "spins", id="missing-spins"),
        pytest.param(_spatial_header(band_limit=3, blocks=[{"shape": [1, 1, 8, 8], "spins": [0]}]),
                     [np.zeros((1, 1, 8, 8))], "grid_n", id="grid_n-disagrees"),
        pytest.param(_spatial_header(blocks=[{"shape": [1, 1, 8, 8], "spins": [0]}]),
                     [np.full((1, 1, 8, 8), np.nan)], "non-finite", id="nan-payload"),
        pytest.param(_spatial_header(blocks=[{"shape": [1, 1, 8, 8], "spins": [0]}]),
                     [np.full((1, 1, 8, 8), np.inf)], "non-finite", id="inf-payload"),
    ],
)
def test_malformed_spatial_container_rejected(tmp_path, header, arrays, match):
    path = tmp_path / "bad.swirl"
    write_container(path, header, arrays)
    with pytest.raises(ContainerError, match=match):
        unpack_signal(*read_container(path))


@pytest.mark.parametrize(
    "edit, match",
    [
        pytest.param(lambda h, a: h.update(grid_n=6), "grid_n", id="grid_n-disagrees"),
        pytest.param(lambda h, a: h.pop("grid_n"), "grid_n", id="missing-grid_n"),
        pytest.param(lambda h, a: h["blocks"][0].update(spins=[1.0]), "spins", id="float-spin"),
        pytest.param(lambda h, a: a[0].__setitem__((0, 0, 3), np.nan), "non-finite", id="nan-payload"),
        pytest.param(lambda h, a: h["blocks"][0].update(shape=[]) or a.__setitem__(0, a[0][0, 0, 0]),
                     "does not end in", id="scalar-block"),
    ],
)
def test_malformed_spectral_container_rejected(tmp_path, rng, edit, match):
    header, arrays = pack_blocks([random_coefficients(rng, 1, np.array([0]), 4)])
    arrays = [a.copy() for a in arrays]
    edit(header, arrays)
    path = tmp_path / "bad.swirl"
    write_container(path, header, arrays)
    with pytest.raises(ContainerError, match=match):
        unpack_coefficients(*read_container(path))


def test_pack_refuses_non_finite_and_mixed_band_limits(rng):
    co = random_coefficients(rng, 1, np.array([0]), 4)
    bad = SpinSignal(np.full((1, 1, 8, 8), np.inf, dtype=complex), np.array([0]), make_grid(8))
    with pytest.raises(ContainerError, match="non-finite"):
        pack_blocks([bad])
    with pytest.raises(ContainerError, match="one band limit"):
        pack_blocks([co, random_coefficients(rng, 1, np.array([0]), 5)])
    with pytest.raises(ContainerError, match="one band limit"):
        pack_blocks([])


_EXTRA_VALUES = st.none() | st.booleans() | st.integers(-5, 5) | st.text(max_size=4) | st.lists(st.integers(), max_size=2)
_GEOMETRY_KEYS = ["domain", "convention", "grid_n", "band_limit", "ordering"]
_EXTRA_KEYS = st.sampled_from(_GEOMETRY_KEYS + ["kind", "vocabulary"]) | st.text(max_size=6).filter(
    lambda k: k not in ("format", "version", "blocks")
)


@given(
    spatial=st.booleans(),
    band_limit=st.integers(1, 4),
    spins=st.lists(st.lists(st.integers(-3, 3), min_size=1, max_size=3), min_size=1, max_size=3),
    extra=st.dictionaries(_EXTRA_KEYS, _EXTRA_VALUES, max_size=4),
    block_extra=st.dictionaries(st.sampled_from(["shape", "spins", "atoms", "comment", "role"]) | st.text(max_size=4),
                                _EXTRA_VALUES, max_size=3),
    seed=st.integers(0, 2**16),
)
def test_pack_blocks_round_trip_keeps_extra_keys(tmp_path_factory, spatial, band_limit, spins, extra, block_extra, seed):
    # Blocks of one band limit pack under any header: they read back equal,
    # every non-geometry header and block key carries over unchanged, the
    # geometry fields are the packer's own, and no key of the other domain
    # stays behind.
    rng = np.random.default_rng(seed)
    spins = [[s for s in block if abs(s) < band_limit] or [0] for block in spins]
    items = [random_coefficients(rng, 1, np.array(s), band_limit) for s in spins]
    if spatial:
        items = [inverse(co, compute_delta(band_limit)) for co in items]
    header, arrays = pack_blocks(items, {**extra, "blocks": [dict(block_extra) for _ in items]})
    path = tmp_path_factory.mktemp("pack") / "packed.swirl"
    write_container(path, header, arrays)
    header2, arrays2 = read_container(path)
    unpacked = (unpack_signal if spatial else unpack_coefficients)(header2, arrays2)
    for item, back in zip(items, unpacked):
        np.testing.assert_array_equal(back.samples if spatial else back.coeffs, item.samples if spatial else item.coeffs)
        np.testing.assert_array_equal(back.spins, item.spins)
    assert header2["domain"] == ("spatial" if spatial else "spectral")
    assert (header2["grid_n"], header2["band_limit"]) == (2 * band_limit, band_limit)
    assert ("ordering" in header2) is not spatial
    assert all(header2[k] == v for k, v in extra.items() if k not in _GEOMETRY_KEYS)
    for block in header2["blocks"]:
        assert all(block[k] == v for k, v in block_extra.items() if k not in ("shape", "spins"))
