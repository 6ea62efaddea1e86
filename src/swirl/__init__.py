"""swirl: spin-weighted spherical Fourier transforms and equivariant spectral layers.

Submodules are imported lazily so the CLI can cap thread pools before
numpy loads.
"""

from importlib import import_module

__version__ = "0.1.0"

_SUBMODULES = (
    "grid",
    "signal",
    "wigner",
    "transforms",
    "layers",
    "equivariance",
    "molecules",
    "reference",
    "containers",
    "verification",
    "bench",
    "cli",
)

_EXPORTS = {
    "SphericalGrid": "grid",
    "make_grid": "grid",
    "SpinSignal": "signal",
    "SpinCoefficients": "signal",
    "WignerTables": "wigner",
    "compute_delta": "wigner",
    "wigner_d": "wigner",
    "wigner_D": "wigner",
    "Rotation": "wigner",
    "random_rotations": "wigner",
    "TransformConfig": "transforms",
    "forward": "transforms",
    "inverse": "transforms",
    "fourier_2d": "transforms",
    "FilterBank": "layers",
    "spectral_conv": "layers",
    "phase_collapse": "layers",
    "BatchNormState": "layers",
    "spectral_batch_norm": "layers",
    "spectral_pool": "layers",
    "spectral_unpool": "layers",
    "ResidualBlockParams": "layers",
    "residual_block": "layers",
    "rotate_coefficients": "equivariance",
    "equivariance_error": "equivariance",
    "EquivarianceReport": "equivariance",
    "Molecule": "molecules",
    "parse_xyz": "molecules",
    "featurize": "molecules",
    "calibrate_spread": "molecules",
    "pooled_descriptor": "molecules",
}

__all__ = list(_SUBMODULES) + list(_EXPORTS)


def __getattr__(name):
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    if name in _EXPORTS:
        return getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
