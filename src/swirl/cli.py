"""Command-line interface: verify, bench, transform, featurize.

Configuration comes from an optional flat key=value file plus flags;
flags win.  The SWIRL_THREADS environment variable caps the BLAS/OpenMP
thread pools (it must take effect before numpy loads, which is why the
heavy imports below happen lazily inside the command handlers).
"""

from __future__ import annotations

import argparse
import os
import sys


def _configure_threads():
    value = os.environ.get("SWIRL_THREADS")
    if value:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            os.environ.setdefault(var, value)


_configure_threads()

_BACKEND_ALIASES = {"dft": "dft_matrix", "dft_matrix": "dft_matrix", "fft": "fft"}


def _parse_config_file(path: str) -> dict:
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.rstrip()!r}")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


def _merge_config(args: argparse.Namespace, keys: dict) -> argparse.Namespace:
    """Fill flag values that were not given explicitly from the config file.

    keys maps a configuration key to (namespace destination, converter);
    explicit flags win over file values.
    """
    if not getattr(args, "config", None):
        return args
    file_values = _parse_config_file(args.config)
    for key, value in file_values.items():
        if key not in keys:
            raise ValueError(f"unknown configuration key {key!r}")
        dest, convert = keys[key]
        if getattr(args, dest, None) is None:
            setattr(args, dest, convert(value))
    return args


def _int_list(text: str):
    return tuple(int(part) for part in text.split(",") if part.strip())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="swirl", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the invariant suite and write a CSV report")
    p.add_argument("--config", help="flat key=value configuration file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--filter", dest="name_filter", default=None, help="only run checks whose name matches")
    p.add_argument("--output", default=None, help="CSV report path")
    p.add_argument("--inject-fault", choices=["parity"], default=None, help=argparse.SUPPRESS)

    p = sub.add_parser("bench", help="time forward+inverse across backends and symmetry paths")
    p.add_argument("--config", help="flat key=value configuration file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--resolution", type=_int_list, default=None, help="comma-separated list, e.g. 64,128,256")
    p.add_argument("--backend", choices=["dft", "fft", "both"], default=None)
    p.add_argument("--path", choices=["reduced", "full", "both"], default=None)
    p.add_argument("--repetitions", type=int, default=None)
    p.add_argument("--warmup", type=int, default=None)
    p.add_argument("--output", default=None, help="CSV output path")

    p = sub.add_parser("transform", help="apply the forward or inverse transform to a container file")
    p.add_argument("input", help="container file")
    p.add_argument("direction", choices=["forward", "inverse"])
    p.add_argument("--config", help="flat key=value configuration file")
    p.add_argument("--backend", choices=["dft", "fft"], default=None)
    p.add_argument("--path", choices=["reduced", "full"], default=None)
    p.add_argument("--output", required=True)

    p = sub.add_parser("featurize", help="map molecules in an XYZ file to spherical feature containers")
    p.add_argument("xyz", help="XYZ file (single or concatenated multi-molecule)")
    p.add_argument("--config", help="flat key=value configuration file")
    p.add_argument("--resolution", type=int, default=None)
    p.add_argument("--powers", type=_int_list, default=None, help="comma-separated, default 2,6")
    p.add_argument("--vocabulary", default=None, help="comma-separated element symbols; default: types present")
    p.add_argument("--output", required=True)
    return parser


def cmd_verify(args) -> int:
    args = _merge_config(
        args, {"seed": ("seed", int), "filter": ("name_filter", str), "output": ("output", str)}
    )
    seed = args.seed if args.seed is not None else 0
    if args.inject_fault == "parity":
        from . import grid

        grid._PARITY_OVERRIDE = -1.0
    from .verification import run_verification, write_rows_csv

    rows = run_verification(args.name_filter, seed=seed)
    for row in rows:
        status = "PASS" if row.passed else "FAIL"
        print(f"{status}  {row.name}  L={row.band_limit}  metric={row.metric:.3e}  threshold={row.threshold:.3e}")
    if args.output:
        write_rows_csv(rows, args.output)
    failed = [r for r in rows if not r.passed]
    if not rows:
        print("no checks matched the filter", file=sys.stderr)
        return 1
    print(f"{len(rows) - len(failed)}/{len(rows)} checks passed")
    return 0 if not failed else 1


def cmd_bench(args) -> int:
    args = _merge_config(
        args,
        {
            "seed": ("seed", int),
            "resolution": ("resolution", _int_list),
            "backend": ("backend", str),
            "path": ("path", str),
            "repetitions": ("repetitions", int),
            "warmup": ("warmup", int),
            "output": ("output", str),
        },
    )
    from .bench import BenchSpec, run_bench, write_bench_csv
    from .transforms import FOURIER_BACKENDS, SYMMETRY_PATHS

    backends = FOURIER_BACKENDS if args.backend in (None, "both") else (_BACKEND_ALIASES[args.backend],)
    paths = SYMMETRY_PATHS if args.path in (None, "both") else (args.path,)
    spec = BenchSpec(
        resolutions=args.resolution if args.resolution else (64, 128, 256),
        backends=backends,
        paths=paths,
        repetitions=args.repetitions if args.repetitions is not None else 5,
        warmup=args.warmup if args.warmup is not None else 1,
        seed=args.seed if args.seed is not None else 0,
    )
    rows = run_bench(spec)
    for r in rows:
        print(
            f"n={r.resolution} backend={r.backend} path={r.path} median={r.median_s:.4e}s "
            f"iqr={r.iqr_s:.4e}s cross_check={r.cross_check:.2e} status={r.status}"
        )
    if args.output:
        write_bench_csv(rows, args.output)
    return 0 if all(r.passed for r in rows) else 1


def cmd_transform(args) -> int:
    args = _merge_config(
        args, {"backend": ("backend", str), "path": ("path", str), "output": ("output", str)}
    )
    from .containers import (
        header_positive_int,
        pack_coefficients,
        pack_signal,
        read_container,
        unpack_coefficients,
        unpack_signal,
        write_container,
    )
    from .transforms import TransformConfig, forward, inverse
    from .wigner import compute_delta

    config = TransformConfig(
        fourier_backend=_BACKEND_ALIASES[args.backend] if args.backend else "dft_matrix",
        symmetry_path=args.path if args.path else "full",
    )
    header, arrays = read_container(args.input)
    tables = compute_delta(header_positive_int(header, "band_limit"))
    if args.direction == "forward":
        signals = unpack_signal(header, arrays)
        packed = [pack_coefficients(forward(s, tables, config)) for s in signals]
    else:
        coeffs = unpack_coefficients(header, arrays)
        packed = [pack_signal(inverse(c, tables, config)) for c in coeffs]
    # keep the input header (vocabulary, comments, ...), swapping the domain
    # tag and refreshing the block geometry
    out_header = dict(header)
    out_header.update(packed[0][0])
    out_header["blocks"] = [
        {**{k: v for k, v in old.items() if k not in ("shape",)}, **new["blocks"][0]}
        for old, (new, _) in zip(header["blocks"], packed)
    ]
    write_container(args.output, out_header, [a for _, arrays_ in packed for a in arrays_])
    return 0


def cmd_featurize(args) -> int:
    args = _merge_config(
        args,
        {
            "resolution": ("resolution", int),
            "powers": ("powers", _int_list),
            "vocabulary": ("vocabulary", str),
            "output": ("output", str),
        },
    )
    from .containers import CONVENTION, write_container
    from .grid import make_grid
    from .molecules import DEFAULT_POWERS, DEFAULT_SPREAD, SYMBOL_TO_NUMBER, featurize, parse_xyz_many

    with open(args.xyz) as fh:
        molecules = parse_xyz_many(fh.read())
    n = args.resolution if args.resolution is not None else 32
    powers = args.powers if args.powers else DEFAULT_POWERS
    if args.vocabulary:
        try:
            vocabulary = tuple(SYMBOL_TO_NUMBER[s.strip()] for s in args.vocabulary.split(","))
        except KeyError as exc:
            raise ValueError(f"unknown element symbol in vocabulary: {exc}") from None
    else:
        vocabulary = tuple(sorted({int(z) for mol in molecules for z in mol.atomic_numbers}))
    grid = make_grid(n)
    blocks = []
    arrays = []
    for mol in molecules:
        feats = featurize(mol, vocabulary, grid, powers)
        arrays.append(feats.values.astype(complex))
        blocks.append(
            {
                "shape": list(feats.values.shape),
                "spins": [0] * feats.channels,
                "atoms": int(mol.atom_count),
                "comment": mol.metadata.get("comment", ""),
            }
        )
    header = {
        "domain": "spatial",
        "kind": "molecule-features",
        "convention": CONVENTION,
        "grid_n": n,
        "band_limit": n // 2,
        "vocabulary": list(vocabulary),
        "powers": list(powers),
        "sigma": DEFAULT_SPREAD,
        "channel_order": "power-major: channel = p_index * len(vocabulary) + z_index",
        "blocks": blocks,
    }
    write_container(args.output, header, arrays)
    print(f"wrote {len(arrays)} molecule block(s) to {args.output}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "verify": cmd_verify,
        "bench": cmd_bench,
        "transform": cmd_transform,
        "featurize": cmd_featurize,
    }
    try:
        return handlers[args.command](args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyError as exc:
        print(f"error: missing required header field {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
