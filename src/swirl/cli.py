"""Command-line interface: verify, bench, transform, featurize.

Configuration comes from an optional flat key=value file whose keys are
the command's long flags, plus the flags themselves; explicit flags win.
The SWIRL_THREADS environment variable caps the BLAS/OpenMP thread pools;
the swirl package applies it on import, before numpy loads.
"""

from __future__ import annotations

import argparse
import re
import sys

from .bench import BenchSpec, run_bench, write_bench_csv
from .containers import pack_blocks, read_container, unpack_coefficients, unpack_signal, write_container
from .grid import make_grid
from .molecules import DEFAULT_POWERS, DEFAULT_SPREAD, SYMBOL_TO_NUMBER, featurize, parse_xyz_many
from .signal import SpinSignal
from .transforms import DEFAULT_CONFIG, FOURIER_BACKENDS, SYMMETRY_PATHS, TransformConfig, forward, inverse
from .verification import run_verification, write_rows_csv
from .wigner import compute_delta, host_memory

_BACKEND_ALIASES = {"dft": "dft_matrix", "dft_matrix": "dft_matrix", "fft": "fft"}


class _Parser(argparse.ArgumentParser):
    """Matches long flags exactly, shows defaults in --help, and raises ValueError instead of exiting."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, formatter_class=argparse.ArgumentDefaultsHelpFormatter, **kwargs)

    def error(self, message):
        raise ValueError(message)


def _config_flags(path: str) -> list:
    """The key=value lines of a config file as --key=value flags."""
    flags = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = (part.strip() for part in line.partition("="))
            if not sep or not re.fullmatch(r"\w[\w-]*", key):
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.rstrip()!r}")
            flags.append(f"--{key}={value}")
    return flags


def _int_list(text: str) -> tuple:
    values = tuple(int(part) for part in text.split(",") if part.strip())
    if not values:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    return values


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    backends = tuple(_BACKEND_ALIASES)
    parser = _Parser(prog="swirl", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the invariant suite and write a CSV report")
    p.add_argument("--config", help="flat key=value file of long-flag values")
    p.add_argument("--seed", type=_seed, default=0, help="seed of the check inputs")
    p.add_argument("--filter", dest="name_filter", help="only run checks whose name matches")
    p.add_argument("--output", help="CSV report path")

    p = sub.add_parser("bench", help="time forward+inverse across backends and symmetry paths")
    p.add_argument("--config", help="flat key=value file of long-flag values")
    p.add_argument("--seed", type=_seed, default=0, help="seed of the transform inputs")
    p.add_argument("--resolution", type=_int_list, default=(64, 128, 256), help="comma-separated grid sizes n")
    p.add_argument("--backend", choices=backends + ("both",), default="both", help="Fourier backend")
    p.add_argument("--path", choices=SYMMETRY_PATHS + ("both",), default="both", help="symmetry path")
    p.add_argument("--repetitions", type=int, default=5, help="timed pairs per cell")
    p.add_argument("--warmup", type=int, default=1, help="untimed pairs per cell")
    p.add_argument("--output", help="CSV output path")

    p = sub.add_parser("transform", help="apply the forward or inverse transform to a container file")
    p.add_argument("input", help="container file")
    p.add_argument("direction", choices=["forward", "inverse"])
    p.add_argument("--config", help="flat key=value file of long-flag values")
    p.add_argument("--backend", choices=backends, default=DEFAULT_CONFIG.fourier_backend, help="Fourier backend")
    p.add_argument("--path", choices=SYMMETRY_PATHS, default=DEFAULT_CONFIG.symmetry_path, help="symmetry path")
    p.add_argument("--output", required=True, help="output container path")

    p = sub.add_parser("featurize", help="map molecules in an XYZ file to spherical feature containers")
    p.add_argument("xyz", help="XYZ file (single or concatenated multi-molecule)")
    p.add_argument("--config", help="flat key=value file of long-flag values")
    p.add_argument("--resolution", type=int, default=32, help="grid size n")
    p.add_argument("--powers", type=_int_list, default=DEFAULT_POWERS, help="comma-separated radial powers")
    p.add_argument("--vocabulary", help="comma-separated element symbols; unset: the types present")
    p.add_argument("--output", required=True, help="output container path")
    return parser


def parse(argv=None) -> argparse.Namespace:
    """Parse a command line; the lines of its --config file go in as flags ahead of the explicit ones.

    An unknown key, a bad value or a bad flag raises ValueError naming the
    flag; an unreadable config file raises OSError.
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    pre = _Parser(add_help=False)
    pre.add_argument("--config")
    config = pre.parse_known_args(argv)[0].config
    if config:
        # right after the command name, so any explicit flag comes later and wins
        argv[1:1] = _config_flags(config)
    return build_parser().parse_args(argv)


def cmd_verify(args) -> int:
    rows = run_verification(args.name_filter, seed=args.seed)
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
    spec = BenchSpec(
        resolutions=args.resolution,
        backends=FOURIER_BACKENDS if args.backend == "both" else (_BACKEND_ALIASES[args.backend],),
        paths=SYMMETRY_PATHS if args.path == "both" else (args.path,),
        repetitions=args.repetitions,
        warmup=args.warmup,
        seed=args.seed,
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
    config = TransformConfig(fourier_backend=_BACKEND_ALIASES[args.backend], symmetry_path=args.path)
    header, arrays = read_container(args.input)
    if args.direction == "forward":
        out = [forward(s, compute_delta(s.grid.band_limit), config) for s in unpack_signal(header, arrays)]
    else:
        out = [inverse(c, compute_delta(c.band_limit), config) for c in unpack_coefficients(header, arrays)]
    # the input header's other keys (vocabulary, comments, ...) carry over
    write_container(args.output, *pack_blocks(out, header))
    return 0


def cmd_featurize(args) -> int:
    with open(args.xyz) as fh:
        molecules = parse_xyz_many(fh.read())
    n = args.resolution
    if args.vocabulary:
        try:
            vocabulary = tuple(SYMBOL_TO_NUMBER[s.strip()] for s in args.vocabulary.split(","))
        except KeyError as exc:
            raise ValueError(f"unknown element symbol in vocabulary: {exc}") from None
    else:
        vocabulary = tuple(sorted({int(z) for mol in molecules for z in mol.atomic_numbers}))
    spins = [0] * (len(vocabulary) * len(args.powers))
    # one complex128 sample per atom, channel and grid point, checked before the grid is built
    nbytes = 16 * sum(mol.atom_count for mol in molecules) * len(spins) * n * n
    memory = host_memory()
    if nbytes > memory:
        raise ValueError(f"--resolution {n} needs about {nbytes / 2**30:.1f} GiB of features, "
                         f"more than this host's {memory / 2**30:.1f} GiB of memory")
    grid = make_grid(n)
    signals = [SpinSignal(featurize(mol, vocabulary, grid, args.powers).values, spins, grid) for mol in molecules]
    header = {
        "kind": "molecule-features",
        "vocabulary": list(vocabulary),
        "powers": list(args.powers),
        "sigma": DEFAULT_SPREAD,
        "channel_order": "power-major: channel = p_index * len(vocabulary) + z_index",
        "blocks": [{"atoms": int(mol.atom_count), "comment": mol.metadata.get("comment", "")} for mol in molecules],
    }
    write_container(args.output, *pack_blocks(signals, header))
    print(f"wrote {len(signals)} molecule block(s) to {args.output}")
    return 0


def main(argv=None) -> int:
    handlers = {
        "verify": cmd_verify,
        "bench": cmd_bench,
        "transform": cmd_transform,
        "featurize": cmd_featurize,
    }
    try:
        args = parse(argv)
        return handlers[args.command](args)
    except (OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
