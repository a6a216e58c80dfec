"""Exact arithmetic for Virasoro minimal models, their fusion rings and
braiding matrices, and the sector structure of the 5A and 3C extension
algebras.  Everything downstream of the cyclotomic layer is computed in
closed form; floats only appear as final renderings."""

from importlib import import_module

from .exact import (
    CyclotomicNumber,
    DivisionByZero,
    parse_exact,
    zeta,
)
from .minimal import (
    FusionMultiset,
    InvalidLabel,
    InvalidModel,
    MinimalModel,
    ModelMismatch,
    ModuleLabel,
    NonUnitaryModel,
    QDim,
    RingCheck,
    check_fusion_ring,
    fuse,
    is_admissible,
    qdim,
    qdim_tensor,
)


def __getattr__(name: str):
    # A public name of braiding or algebra is imported the first time it
    # is read, so `mm info`, `fusion` and `qdim` never compile either.
    # braiding comes first: algebra imports it, and a braiding name loads
    # no more.
    if name in __all__:
        for layer in ("braiding", "algebra"):
            namespace = vars(import_module(f".{layer}", __name__))
            if name in namespace:
                globals()[name] = namespace[name]
                return namespace[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))


__version__ = "0.1.0"

__all__ = [
    "BraidMatrix",
    "ChainCheck",
    "CyclotomicNumber",
    "DegenerateSystem",
    "DivisionByZero",
    "FusionMultiset",
    "GradedAlgebra",
    "IndexOutOfRange",
    "InvalidLabel",
    "InvalidModel",
    "IrreducibleModuleSpec",
    "MinimalModel",
    "ModelMismatch",
    "ModuleLabel",
    "NonIntegerExponent",
    "NonUnitaryModel",
    "QDim",
    "RQuery",
    "RingCheck",
    "Sector",
    "SectorEquation",
    "SectorProduct",
    "SectorSystem",
    "SolutionSet",
    "braid_entry",
    "braid_matrix",
    "build_algebra",
    "build_sector_system",
    "check_fusion_ring",
    "check_subalgebra_chain",
    "fuse",
    "irreducible_module",
    "irreducible_modules",
    "is_admissible",
    "lemma_3c_entry",
    "lemma_5a_combos",
    "memoized_queries",
    "module_fusion",
    "named_label",
    "parse_exact",
    "qdim",
    "qdim_module",
    "qdim_tensor",
    "r_matrix",
    "sector_fusion",
    "solve_sector_system",
    "zeta",
]
