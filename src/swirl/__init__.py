"""swirl: spin-weighted spherical Fourier transforms and equivariant spectral layers.

SWIRL_THREADS=k caps the BLAS/OpenMP thread pools. It is applied here, before
any submodule loads numpy, so it holds for the CLI and for library use alike
whenever swirl is imported before numpy; pool variables already set are kept.
The CLI, swirl.cli, is not imported here: `python -m swirl.cli` would then find
it loaded already and warn.
"""

import os as _os

if _threads := _os.environ.get("SWIRL_THREADS"):
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)

from . import bench, containers, equivariance, grid, layers, molecules, reference, signal, transforms, verification, wigner
from .equivariance import EquivarianceReport, equivariance_error, rotate_coefficients
from .grid import SphericalGrid, make_grid
from .layers import (BatchNormState, FilterBank, ResidualBlockParams, phase_collapse, residual_block,
                     spectral_batch_norm, spectral_conv, spectral_pool, spectral_unpool)
from .molecules import Molecule, calibrate_spread, featurize, parse_xyz, pooled_descriptor
from .signal import SpinCoefficients, SpinSignal
from .transforms import TransformConfig, forward, fourier_2d, inverse
from .wigner import Rotation, WignerTables, compute_delta, random_rotations, wigner_D, wigner_d

__version__ = "0.1.0"
