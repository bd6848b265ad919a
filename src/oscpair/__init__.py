"""Exact phase-space toolkit for two bilinearly coupled harmonic oscillators.

Spectrum, Wigner functions, moments, marginal purity / linear entropy,
approximate Schmidt weights, and directional quantum-steering
quantifiers, each cross-validated against independent quadrature and SVD
oracles.

``import oscpair`` loads only the numpy-free ``model``, ``moments`` and
``steering`` modules. Every other public name, and every submodule
(``oscpair.oracle``), is looked up on first access through the module
``__getattr__`` of PEP 562: it imports the module that defines the name
and returns that module's binding, which is not copied into this
namespace, so a rebinding in the defining module shows through
``oscpair.<name>`` too. ``_EXPORTS`` lists each public name once, under
its module; ``__all__`` and ``__dir__`` come from it.

``steering`` is bound at import: the function shares its submodule's name,
and the import system binds the submodule over a name that is not yet
bound the first time anything imports ``oscpair.steering``.
"""

import importlib

from .steering import steering

_EXPORTS = {
    "model": ("SystemParams", "QuantumNumbers", "NormalModes",
              "diagonalize", "cutoff_angle", "energy"),
    "moments": ("MomentSet", "ExcitationNumbers", "LadderMoments",
                "second_and_fourth_moments", "uncertainty_areas",
                "excitation_numbers", "ladder_moments"),
    "purity": ("PurityResult", "SchmidtSpectrum",
               "purity_exact", "purity_ground_closed",
               "makarov_schmidt", "makarov_entropy", "entropy_gap"),
    "steering": ("SteeringResult", "steering", "steering_weak_general", "selection_rules"),
    "wigner": ("PhasePoint", "RotatedPhasePoint",
               "eigenfunction", "wigner_rotated", "wigner_lab",
               "lab_to_normal", "normal_to_lab"),
    "oracle": ("QuadratureRule", "SchmidtOracleResult", "VerificationReport",
               "gauss_hermite", "moment_oracle", "schmidt_oracle",
               "global_purity_check", "run_verification"),
}
_SUBMODULES = (*_EXPORTS, "cli", "series", "specfun")
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "1.0.0"

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
