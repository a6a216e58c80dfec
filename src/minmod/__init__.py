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
    ffk_pair,
    fuse,
    is_admissible,
    qdim,
    qdim_tensor,
)

# The public names of the upper layers and the layer of each.  A layer
# is imported the first time one of its names is read, so `mm info`,
# `fusion` and `qdim` never compile braiding or algebra.
_LAYER_OF = {
    name: layer
    for layer, names in (
        ("braiding", "BraidMatrix BracketTable IndexOutOfRange NonIntegerExponent"
                     " RQuery brackets braid_entry braid_matrix lemma_3c_entry"
                     " lemma_5a_combos memoized_queries named_label r_matrix"),
        ("algebra", "ChainCheck DegenerateSystem GradedAlgebra"
                    " IrreducibleModuleSpec Sector SectorEquation SectorProduct"
                    " SectorSystem SolutionSet build_algebra build_sector_system"
                    " check_subalgebra_chain irreducible_modules module_fusion"
                    " qdim_module sector_fusion solve_sector_system"),
    )
    for name in names.split()
}


def __getattr__(name: str):
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{layer}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


__version__ = "0.1.0"

__all__ = [
    "BraidMatrix",
    "BracketTable",
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
    "brackets",
    "braid_entry",
    "braid_matrix",
    "build_algebra",
    "build_sector_system",
    "check_fusion_ring",
    "check_subalgebra_chain",
    "ffk_pair",
    "fuse",
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
