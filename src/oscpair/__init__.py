"""Exact phase-space toolkit for two bilinearly coupled harmonic oscillators.

Spectrum, Wigner functions, moments, marginal purity / linear entropy,
approximate Schmidt weights, and directional quantum-steering
quantifiers, each cross-validated against independent quadrature and SVD
oracles.

``import oscpair`` loads no submodule. Every public name, and every
submodule (``oscpair.oracle``), is looked up on first access through the
module ``__getattr__`` of PEP 562: it imports the module that defines the
name and returns that module's binding, which is not copied into this
namespace, so a rebinding in the defining module shows through
``oscpair.<name>`` too. ``_EXPORTS`` lists each public name once, under
its module; ``__all__`` and ``__dir__`` come from it.

The function ``steering`` shares its submodule's name, and the import
system binds each submodule it loads on the package, which would hide the
function behind the module. So the package module's class is a
``ModuleType`` subclass whose ``__setattr__`` drops that one binding of
the ``oscpair.steering`` module: ``oscpair.steering`` and ``from oscpair
import steering`` give the function whatever is imported first, and
``import oscpair.steering`` still loads the submodule. Every other
assignment goes through.
"""

import sys as _sys  # under a private name: the namespace binds no public name

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
    import importlib  # here, not at import: a bare interpreter need not have loaded it

    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})


class _Package(type(_sys)):  # types.ModuleType, without importing types
    def __setattr__(self, name: str, value) -> None:
        if name == "steering" and value is _sys.modules.get(f"{__name__}.steering"):
            return  # the import system binding the submodule over the function's name
        super().__setattr__(name, value)


_sys.modules[__name__].__class__ = _Package
