import argparse
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from swirl import grid as grid_mod
from swirl.cli import main, parse
from swirl.containers import (
    pack_blocks,
    read_container,
    unpack_coefficients,
    unpack_signal,
    write_container,
)
from swirl.equivariance import random_coefficients
from swirl.signal import SpinSignal
from swirl.transforms import DEFAULT_CONFIG, inverse
from swirl.wigner import compute_delta


def test_verify_filtered_passes(tmp_path, capsys):
    out = tmp_path / "report.csv"
    code = main(["verify", "--filter", "wigner", "--output", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# swirl-csv v1"
    names = [row.split(",")[0] for row in lines[2:]]
    assert names and all("wigner" in n for n in names)
    assert all(row.rsplit(",", 1)[1] == "True" for row in lines[2:])


def test_verify_filter_reports_every_matching_row(monkeypatch):
    # Each check runs once for real; the filtered runs replay its rows, so
    # they show which rows the filter keeps and which groups it runs.
    from swirl import verification

    ran = []

    def replay(group, rows):
        def check(seed=0):
            ran.append(group)
            return rows
        return check

    emitted = [(group, check(seed=0)) for group, check in verification.CHECKS]
    # the filter and the fault catalogue select rows by name: each name is unique and starts with its group
    names = [row.name for _, rows in emitted for row in rows]
    assert len(set(names)) == len(names) == 59
    assert all(row.name.startswith(f"{group}.") for group, rows in emitted for row in rows)
    checks = tuple((group, replay(group, rows)) for group, rows in emitted)
    monkeypatch.setattr(verification, "CHECKS", checks)
    everything = verification.run_verification()
    groups = sorted({group for group, _ in checks})
    for name_filter in groups + [row.name for row in everything] + ["er", "r", "ation"]:
        ran.clear()
        assert verification.run_verification(name_filter) == [r for r in everything if name_filter in r.name]
        if name_filter.split(".")[0] in groups:  # a group or one of its rows: that group's checks only
            assert set(ran) == {name_filter.split(".")[0]}


def test_verify_fault_injection_fails(tmp_path, monkeypatch):
    # flip the torus-extension parity: the grid rows must catch it
    monkeypatch.setattr(grid_mod, "parity_sign", lambda spin: 1.0 if spin % 2 else -1.0)
    out = tmp_path / "report.csv"
    code = main(["verify", "--filter", "grid", "--output", str(out)])
    assert code != 0
    assert any(row.rsplit(",", 1)[1] == "False" for row in out.read_text().splitlines()[2:])


def test_verify_respects_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\nfilter=grid.integral\noutput=%s\n" % (tmp_path / "r.csv"))
    code = main(["verify", "--config", str(cfg)])
    assert code == 0
    rows = (tmp_path / "r.csv").read_text().splitlines()[2:]
    assert rows and all(r.startswith("grid.integral") for r in rows)


def test_verify_unknown_config_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("nonsense=1\n")
    assert main(["verify", "--config", str(cfg)]) == 1


def test_transform_roundtrip_via_files(tmp_path, rng):
    co = random_coefficients(rng, 2, np.array([0, 1]), 8)
    sig = inverse(co, compute_delta(8))
    src = tmp_path / "signal.swirl"
    write_container(src, *pack_blocks([sig]))

    spec = tmp_path / "spec.swirl"
    assert main(["transform", str(src), "forward", "--output", str(spec)]) == 0
    header, arrays = read_container(spec)
    assert header["domain"] == "spectral"
    (co2,) = unpack_coefficients(header, arrays)
    assert np.abs(co2.coeffs - co.coeffs).max() / np.abs(co.coeffs).max() < 1e-10

    back = tmp_path / "back.swirl"
    assert main(["transform", str(spec), "inverse", "--output", str(back)]) == 0
    header, arrays = read_container(back)
    (sig2,) = unpack_signal(header, arrays)
    assert np.abs(sig2.samples - sig.samples).max() / np.abs(sig.samples).max() < 1e-10


def test_transform_direction_mismatch(tmp_path, rng):
    co = random_coefficients(rng, 1, np.array([0]), 4)
    src = tmp_path / "spec.swirl"
    write_container(src, *pack_blocks([co]))
    # spectral-tagged file cannot be forward-transformed again
    assert main(["transform", str(src), "forward", "--output", str(tmp_path / "x.swirl")]) == 1


def test_transform_empty_batch(tmp_path):
    from swirl.grid import make_grid

    sig = SpinSignal(np.zeros((0, 1, 8, 8), dtype=complex), np.array([0]), make_grid(8))
    src = tmp_path / "empty.swirl"
    write_container(src, *pack_blocks([sig]))
    out = tmp_path / "empty-out.swirl"
    assert main(["transform", str(src), "forward", "--output", str(out)]) == 0
    header, arrays = read_container(out)
    assert arrays[0].shape == (0, 1, 16)


def test_transform_missing_file(tmp_path):
    assert main(["transform", str(tmp_path / "nope.swirl"), "forward", "--output", str(tmp_path / "x")]) == 1


def test_transform_tables_beyond_memory(tmp_path, capsys, rng, monkeypatch):
    from swirl import wigner

    src = tmp_path / "spec.swirl"
    write_container(src, *pack_blocks([random_coefficients(rng, 1, np.array([0]), 5)]))
    compute_delta.cache_clear()
    monkeypatch.setattr(wigner, "host_memory", lambda: 999)
    assert main(["transform", str(src), "inverse", "--output", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err.startswith("error: Delta tables for band limit 5 need 0.0 GiB")


def test_featurize_water(tmp_path, water_xyz):
    xyz = tmp_path / "water.xyz"
    xyz.write_text(water_xyz)
    out = tmp_path / "water.features"
    assert main(["featurize", str(xyz), "--resolution", "32", "--output", str(out)]) == 0
    header, arrays = read_container(out)
    assert header["vocabulary"] == [1, 8]
    assert header["powers"] == [2, 6]
    assert len(arrays) == 1
    assert arrays[0].shape == (3, 4, 32, 32)


def test_featurize_single_power(tmp_path, water_xyz):
    xyz = tmp_path / "water.xyz"
    xyz.write_text(water_xyz)
    out = tmp_path / "water.features"
    assert main(["featurize", str(xyz), "--resolution", "16", "--powers", "2", "--output", str(out)]) == 0
    header, arrays = read_container(out)
    assert arrays[0].shape == (3, 2, 16, 16)


def test_featurize_multi_molecule(tmp_path, water_xyz):
    xyz = tmp_path / "both.xyz"
    xyz.write_text(water_xyz + "2\nhydrogen\nH 0 0 0\nH 0 0 0.74\n")
    out = tmp_path / "both.features"
    assert main(["featurize", str(xyz), "--resolution", "16", "--output", str(out)]) == 0
    header, arrays = read_container(out)
    assert len(arrays) == 2
    assert arrays[0].shape == (3, 4, 16, 16)
    assert arrays[1].shape == (2, 4, 16, 16)
    assert header["blocks"][1]["comment"] == "hydrogen"


def test_featurize_explicit_vocabulary(tmp_path, water_xyz):
    xyz = tmp_path / "water.xyz"
    xyz.write_text(water_xyz)
    out = tmp_path / "w.features"
    code = main(
        ["featurize", str(xyz), "--resolution", "16", "--vocabulary", "H,C,O", "--output", str(out)]
    )
    assert code == 0
    header, arrays = read_container(out)
    assert header["vocabulary"] == [1, 6, 8]
    assert arrays[0].shape == (3, 6, 16, 16)


def test_featurize_rejects_a_repeated_vocabulary_entry(tmp_path, capsys, water_xyz):
    xyz = tmp_path / "water.xyz"
    xyz.write_text(water_xyz)
    out = tmp_path / "w.features"
    assert main(["featurize", str(xyz), "--resolution", "8", "--vocabulary", "H,H,O", "--output", str(out)]) == 1
    assert capsys.readouterr().err == "error: vocabulary repeats H\n"
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "1e400", "-inf"])
def test_featurize_names_the_line_of_a_non_finite_coordinate(tmp_path, capsys, water_xyz, value):
    lines = water_xyz.splitlines()
    lines[2] = f"O 0.0 {value} 0.0"
    xyz = tmp_path / "water.xyz"
    xyz.write_text("\n".join(lines) + "\n")
    out = tmp_path / "w.features"
    assert main(["featurize", str(xyz), "--resolution", "8", "--output", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: line 3: non-finite coordinate")
    assert not out.exists()


def test_featurize_missing_file(tmp_path):
    assert main(["featurize", str(tmp_path / "nope.xyz"), "--output", str(tmp_path / "x")]) == 1


def test_featurize_deterministic(tmp_path, water_xyz):
    xyz = tmp_path / "water.xyz"
    xyz.write_text(water_xyz)
    a, b = tmp_path / "a.features", tmp_path / "b.features"
    main(["featurize", str(xyz), "--resolution", "16", "--output", str(a)])
    main(["featurize", str(xyz), "--resolution", "16", "--output", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_bench_small(tmp_path):
    out = tmp_path / "bench.csv"
    code = main(
        ["bench", "--resolution", "8,16", "--repetitions", "3", "--warmup", "0", "--output", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# swirl-csv v1"
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 8  # 2 resolutions x 2 backends x 2 paths
    cross = [float(r[6]) for r in rows]
    assert max(cross) <= 1e-12


def test_bench_single_backend(tmp_path):
    out = tmp_path / "bench.csv"
    code = main(
        ["bench", "--resolution", "8", "--backend", "fft", "--path", "full",
         "--repetitions", "3", "--warmup", "0", "--output", str(out)]
    )
    assert code == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
    assert len(rows) == 1
    assert rows[0][1] == "fft" and rows[0][2] == "full"


def test_bench_rejects_too_few_repetitions(tmp_path):
    assert main(["bench", "--resolution", "8", "--repetitions", "1"]) == 1


def test_bench_inputs_seeded(tmp_path):
    # identical seeds give identical cross-check columns (same inputs)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["bench", "--resolution", "8", "--repetitions", "3", "--warmup", "0", "--seed", "5", "--output", str(a)])
    main(["bench", "--resolution", "8", "--repetitions", "3", "--warmup", "0", "--seed", "5", "--output", str(b)])
    crosses = lambda p: [line.split(",")[6] for line in p.read_text().splitlines()[2:]]
    assert crosses(a) == crosses(b)


def test_bench_rejects_odd_resolution():
    assert main(["bench", "--resolution", "7", "--repetitions", "3"]) == 1


def test_verify_deterministic_output(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["verify", "--filter", "grid.integral", "--seed", "3", "--output", str(a)]) == 0
    assert main(["verify", "--filter", "grid.integral", "--seed", "3", "--output", str(b)]) == 0
    assert a.read_text() == b.read_text()


POOL_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def _run_python(args, **env):
    """Run a fresh interpreter on args, importing the same swirl as this test, installed or not.

    The thread variables come from env only: this process has loaded numpy already, so its
    own environment shows nothing about what importing swirl sets."""
    import os, subprocess, sys
    from pathlib import Path

    import swirl

    path = os.pathsep.join(filter(None, [str(Path(swirl.__file__).parents[1]), os.environ.get("PYTHONPATH")]))
    base = {k: v for k, v in os.environ.items() if k not in POOL_VARIABLES + ("SWIRL_THREADS",)}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**base, "PYTHONPATH": path, **env})


def test_module_entry_point():
    proc = _run_python(["-m", "swirl", "verify", "--filter", "grid.integral"], SWIRL_THREADS="1")
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


def test_cli_module_runs_without_warnings():
    # the package does not import swirl.cli, so runpy finds no stale copy of it to warn about
    proc = _run_python(["-W", "error", "-m", "swirl.cli", "verify", "--filter", "grid.integral"], SWIRL_THREADS="1")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("3/3 checks passed\n") and not proc.stderr


@pytest.mark.parametrize("preset", [{}, {"OPENBLAS_NUM_THREADS": "2"}])
def test_import_applies_swirl_threads(preset):
    # SWIRL_THREADS fills each pool variable that is unset and keeps one that is set
    code = f"import json, os, swirl; print(json.dumps({{var: os.environ.get(var) for var in {POOL_VARIABLES!r}}}))"
    proc = _run_python(["-c", code], SWIRL_THREADS="3", **preset)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {var: preset.get(var, "3") for var in POOL_VARIABLES}


def test_every_export_is_its_modules_object():
    # A fresh import of swirl binds each library submodule (every module but the entry points),
    # and each public name is the object of the module that defines it.
    import pkgutil
    import sys
    import types

    import swirl

    entry_points = {"cli", "__main__"}  # this process imported swirl.cli, which binds it on the package
    library = {m.name for m in pkgutil.iter_modules(swirl.__path__)} - entry_points
    code = ("import json, types, swirl\n"
            "print(json.dumps(sorted(n for n, o in vars(swirl).items() if isinstance(o, types.ModuleType) and n[0] != '_')))")
    proc = _run_python(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == sorted(library) and len(library) == 11
    for name, obj in vars(swirl).items():
        if name.startswith("_") or name in entry_points:
            continue
        if isinstance(obj, types.ModuleType):
            assert obj is sys.modules[f"swirl.{name}"]
        else:
            assert obj.__module__.removeprefix("swirl.") in library, name
            assert getattr(sys.modules[obj.__module__], name) is obj, name


def test_verify_default_runs_everything(tmp_path):
    out = tmp_path / "full.csv"
    assert main(["verify", "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    names = [row.split(",")[0] for row in lines[2:]]
    for group in ("grid.", "wigner.", "swsft.", "layers.", "mol."):
        assert any(n.startswith(group) for n in names)
    assert all(row.rsplit(",", 1)[1] == "True" for row in lines[2:])


def test_transform_preserves_feature_metadata(tmp_path, water_xyz):
    xyz = tmp_path / "water.xyz"
    xyz.write_text(water_xyz)
    feats = tmp_path / "water.features"
    main(["featurize", str(xyz), "--resolution", "16", "--output", str(feats)])
    spec = tmp_path / "water.spectral"
    assert main(["transform", str(feats), "forward", "--output", str(spec)]) == 0
    header, arrays = read_container(spec)
    assert header["domain"] == "spectral"
    assert header["vocabulary"] == [1, 8]
    assert header["blocks"][0]["comment"] == "water molecule"
    assert arrays[0].shape == (3, 4, 64)


def test_transform_header_missing_fields(tmp_path):
    # structurally valid container whose header lacks required keys
    bad = tmp_path / "bad.swirl"
    bad.write_bytes(b'{"format": "swirl-container", "version": 1, "blocks": []}\n')
    assert main(["transform", str(bad), "forward", "--output", str(tmp_path / "out")]) == 1


@pytest.mark.parametrize(
    "header",
    [
        b"[1, 2]",
        b'{"format": "swirl-container", "blocks": 3}',
        b'{"format": "swirl-container", "blocks": ["x"]}',
        b'{"format": "swirl-container", "blocks": [{"shape": [-1]}]}',
    ],
)
def test_transform_malformed_header(tmp_path, capsys, header):
    bad = tmp_path / "bad.swirl"
    bad.write_bytes(header + b"\n" + bytes(64))
    assert main(["transform", str(bad), "forward", "--output", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("value", [[8], True, -8])
@pytest.mark.parametrize(
    "direction, field",
    [("forward", "grid_n"), ("forward", "band_limit"), ("inverse", "band_limit")],
)
def test_transform_rejects_non_integer_geometry(tmp_path, capsys, rng, direction, field, value):
    # grid_n and band_limit must be positive ints; a list, a bool or a
    # negative number is a clean error naming the field, not a traceback.
    co = random_coefficients(rng, 1, np.array([0]), 4)
    header, arrays = pack_blocks([co]) if direction == "inverse" else pack_blocks([inverse(co, compute_delta(4))])
    header[field] = value
    src = tmp_path / "bad.swirl"
    write_container(src, header, arrays)
    assert main(["transform", str(src), direction, "--output", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err


# --- config files: each key is its command's long flag ---------------------

_POSITIONALS = {"verify": [], "bench": [], "transform": ["in.swirl", "forward"], "featurize": ["mol.xyz"]}
_FLAGS = {
    "verify": ["config", "seed", "filter", "output"],
    "bench": ["config", "seed", "resolution", "backend", "path", "repetitions", "warmup", "output"],
    "transform": ["config", "backend", "path", "output"],
    "featurize": ["config", "resolution", "powers", "vocabulary", "output"],
}
_JUNK_KEYS = ["", " ", "nonsense", "out", "help", "h", "a b", "-seed", "--seed", "seed=1", "#x"]


@given(
    command=st.sampled_from(sorted(_FLAGS)),
    lines=st.lists(
        st.tuples(
            st.sampled_from(sorted({k for keys in _FLAGS.values() for k in keys}) + _JUNK_KEYS) | st.text(max_size=6),
            st.sampled_from(["", "=", "a=b", ",", "8,16", "-3", "fft", "both"]) | st.text(max_size=12),
        ),
        max_size=4,
    ),
    explicit_output=st.booleans(),
)
def test_parse_fuzzed_config(tmp_path_factory, command, lines, explicit_output):
    # a config file of any text either parses or raises ValueError/OSError;
    # argparse never gets to exit the process
    cfg = tmp_path_factory.mktemp("cfg") / "run.cfg"
    cfg.write_text("".join(f"{key}={value}\n" for key, value in lines), encoding="utf-8")
    argv = [command, *_POSITIONALS[command], "--config", str(cfg)] + (["--output", "o"] if explicit_output else [])
    try:
        args = parse(argv)
    except (ValueError, OSError):
        return
    assert isinstance(args, argparse.Namespace) and args.command == command


@pytest.mark.parametrize(
    "command, key, value, explicit",
    [
        ("verify", "seed", "3", "4"),
        ("verify", "filter", "grid", "wigner"),
        ("verify", "output", "a.csv", "b.csv"),
        ("bench", "seed", "3", "4"),
        ("bench", "resolution", "8,16", "32"),
        ("bench", "backend", "dft_matrix", "fft"),
        ("bench", "path", "reduced", "full"),
        ("bench", "repetitions", "7", "3"),
        ("bench", "warmup", "0", "2"),
        ("bench", "output", "a.csv", "b.csv"),
        ("transform", "backend", "fft", "dft"),
        ("transform", "path", "reduced", "full"),
        ("transform", "output", "a.swirl", "b.swirl"),
        ("featurize", "resolution", "16", "64"),
        ("featurize", "powers", "2", "2,4"),
        ("featurize", "vocabulary", "H,O", "C"),
        ("featurize", "output", "a.swirl", "b.swirl"),
    ],
)
def test_config_key_matches_its_flag(tmp_path, command, key, value, explicit):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {value}\n")
    base = [command, *_POSITIONALS[command]]
    if command in ("transform", "featurize") and key != "output":
        base += ["--output", "o"]

    def parsed(*extra):
        return {k: v for k, v in vars(parse(base + list(extra))).items() if k != "config"}

    assert parsed("--config", str(cfg)) == parsed(f"--{key}", value)
    # explicit flags win, wherever --config stands
    assert parsed(f"--{key}", explicit, "--config", str(cfg)) == parsed(f"--{key}", explicit)
    assert parsed("--config", str(cfg), f"--{key}", explicit) == parsed(f"--{key}", explicit)


def test_featurize_output_from_config(tmp_path, water_xyz):
    xyz = tmp_path / "water.xyz"
    xyz.write_text(water_xyz)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"output={tmp_path / 'w.features'}\nresolution=16\n")
    assert main(["featurize", str(xyz), "--config", str(cfg)]) == 0
    _, arrays = read_container(tmp_path / "w.features")
    assert arrays[0].shape == (3, 4, 16, 16)


def test_transform_output_from_config(tmp_path, rng):
    co = random_coefficients(rng, 1, np.array([0, 1]), 8)
    src = tmp_path / "signal.swirl"
    write_container(src, *pack_blocks([inverse(co, compute_delta(8))]))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"output={tmp_path / 'spec.swirl'}\nbackend=fft\npath=reduced\n")
    assert main(["transform", str(src), "forward", "--config", str(cfg)]) == 0
    header, arrays = read_container(tmp_path / "spec.swirl")
    (co2,) = unpack_coefficients(header, arrays)
    assert np.abs(co2.coeffs - co.coeffs).max() / np.abs(co.coeffs).max() < 1e-10


@pytest.mark.parametrize("from_file", [True, False])
@pytest.mark.parametrize(
    "command, key, value",
    [
        ("bench", "backend", "xyz"),
        ("transform", "backend", "xyz"),
        ("transform", "path", "both"),
        ("bench", "resolution", ","),
        ("featurize", "powers", ","),
        ("featurize", "resolution", "x"),
        ("verify", "seed", ""),
        ("verify", "seed", "-1"),
        ("bench", "seed", "-1"),
        ("verify", "nonsense", "1"),
        ("verify", "out", "r.csv"),
    ],
)
def test_bad_option_names_the_flag(tmp_path, capsys, from_file, command, key, value):
    # unknown keys, abbreviations, empty lists and bad values exit 1 with
    # an error line naming the flag, from a config file or the command line
    argv = [command, *_POSITIONALS[command]]
    if from_file:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}={value}\n")
        argv += ["--config", str(cfg)]
    else:
        argv += [f"--{key}={value}"]
    assert main(argv + ["--output", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"--{key}" in err


def test_help_shows_defaults(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "(default: 5)" in out and "(default: both)" in out


def test_transform_inverse_drops_the_spectral_ordering(tmp_path, rng):
    src = tmp_path / "spec.swirl"
    write_container(src, *pack_blocks([random_coefficients(rng, 1, np.array([0, 1]), 4)]))
    out = tmp_path / "back.swirl"
    assert main(["transform", str(src), "inverse", "--output", str(out)]) == 0
    header, _ = read_container(out)
    assert header["domain"] == "spatial" and "ordering" not in header


def _write_spatial(path, header_fields, block_fields, array):
    header = {"format": "swirl-container", "domain": "spatial", "convention": "swirl-swsft-v1",
              "grid_n": 8, "band_limit": 4, **header_fields}
    header["blocks"] = [{"shape": list(array.shape), "spins": [0], **block_fields}] if array is not None else []
    write_container(path, header, [] if array is None else [array])


@pytest.mark.parametrize(
    "header_fields, block_fields, array, match",
    [
        pytest.param({}, {}, None, "at least one block", id="no-blocks"),
        pytest.param({}, {"spins": [0.5]}, np.ones((1, 1, 8, 8)), "spins", id="float-spin"),
        pytest.param({}, {"spins": [True]}, np.ones((1, 1, 8, 8)), "spins", id="bool-spin"),
        pytest.param({"band_limit": 3}, {}, np.ones((1, 1, 8, 8)), "grid_n", id="grid_n-disagrees"),
        pytest.param({}, {}, np.where(np.eye(8) > 0, np.nan, 1.0)[None, None], "non-finite", id="nan-sample"),
    ],
)
def test_transform_rejects_malformed_spatial_input(tmp_path, capsys, header_fields, block_fields, array, match):
    src = tmp_path / "bad.swirl"
    _write_spatial(src, header_fields, block_fields, array)
    out = tmp_path / "out.swirl"
    assert main(["transform", str(src), "forward", "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and match in err
    assert not out.exists()


def test_featurize_rejects_non_finite_features(tmp_path, capsys, water_xyz):
    xyz = tmp_path / "water.xyz"
    xyz.write_text(water_xyz)
    out = tmp_path / "w.features"
    with np.errstate(all="ignore"):
        code = main(["featurize", str(xyz), "--resolution", "8", "--powers", "-100000", "--output", str(out)])
    assert code == 1
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()


def test_featurize_refuses_a_grid_larger_than_memory(tmp_path, capsys, water_xyz):
    # 3 atoms x 4 channels x 100000^2 complex samples is 1.75 TiB: the
    # estimate stops the command before any grid is allocated
    xyz = tmp_path / "water.xyz"
    xyz.write_text(water_xyz)
    assert main(["featurize", str(xyz), "--resolution", "100000", "--output", str(tmp_path / "f")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--resolution 100000" in err and "1788.1 GiB" in err


def test_transform_flag_defaults_are_the_default_config():
    args = parse(["transform", *_POSITIONALS["transform"], "--output", "o"])
    assert (args.backend, args.path) == (DEFAULT_CONFIG.fourier_backend, DEFAULT_CONFIG.symmetry_path)
