"""The 5A and 3C extension algebras as data: sectors and modules.

Both algebras are simple-current extensions of a tensor product of
minimal models: 5A sits over (3,4) x (7,8) x (7,8) with twelve sectors,
3C over (3,4) x (11,12) with six.  This layer builds them, fuses sectors
by the componentwise product rule, and induces the irreducible modules
with their fusion rules and quantum dimensions, on fusion alone: it
imports neither `braiding` nor `algebra`, which holds the verify battery.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import NamedTuple

from .minimal import MinimalModel, ModuleLabel, QDim, _qdim_from, fuse


class Sector(NamedTuple):
    """One homogeneous piece of a graded algebra."""

    name: str
    components: tuple[ModuleLabel, ...]

    @property
    def weights(self) -> tuple[Fraction, ...]:
        return tuple(label.h for label in self.components)

    def __str__(self) -> str:
        return f"{self.name} = [{', '.join(str(w) for w in self.weights)}]"


class _AlgebraFields(NamedTuple):
    name: str
    factors: tuple[MinimalModel, ...]
    sectors: tuple[Sector, ...]


class GradedAlgebra(_AlgebraFields):
    __slots__ = ()

    def __new__(cls, name, factors, sectors):
        if len({sector.components for sector in sectors}) != len(sectors):
            raise ValueError("sector components are not pairwise distinct")
        if not sectors or any(label.h != 0 for label in sectors[0].components):
            raise ValueError("first sector is not the vacuum")
        return super().__new__(cls, name, factors, sectors)


class _Spec(NamedTuple):
    """The data that tells one extension algebra from the other.

    A module key maps to the m-indices of its (m,1) labels on the
    factors after the Ising one.
    """

    factors: tuple[tuple[int, int], ...]
    sectors: tuple[tuple[str, tuple[tuple[int, int], ...]], ...]
    modules: dict


# In the 5A sector list the pairs U3/U4 and U11/U12 couple the two (7,8)
# factors crosswise, they are not diagonal: the second factor carries
# (1,3),(1,5) where the third carries (1,5),(1,3), and likewise
# (1,4),(1,6) against (1,6),(1,4).
_SPECS = {
    "5A": _Spec(
        factors=((3, 4), (7, 8), (7, 8)),
        sectors=(
            ("U1", ((1, 1), (1, 1), (1, 1))),
            ("U2", ((1, 1), (1, 7), (1, 7))),
            ("U3", ((1, 1), (1, 3), (1, 5))),
            ("U4", ((1, 1), (1, 5), (1, 3))),
            ("U5", ((1, 3), (1, 1), (1, 7))),
            ("U6", ((1, 3), (1, 7), (1, 1))),
            ("U7", ((1, 3), (1, 3), (1, 3))),
            ("U8", ((1, 3), (1, 5), (1, 5))),
            ("U9", ((1, 2), (1, 2), (1, 4))),
            ("U10", ((1, 2), (1, 4), (1, 2))),
            ("U11", ((1, 2), (1, 4), (1, 6))),
            ("U12", ((1, 2), (1, 6), (1, 4))),
        ),
        modules={(i, j): (i, j) for i in (1, 3, 5) for j in (1, 3, 5)},
    ),
    "3C": _Spec(
        factors=((3, 4), (11, 12)),
        sectors=(
            ("U1", ((1, 1), (1, 1))),
            ("U2", ((1, 1), (1, 7))),
            ("U3", ((1, 3), (1, 11))),
            ("U4", ((1, 3), (1, 5))),
            ("U5", ((1, 2), (1, 4))),
            ("U6", ((1, 2), (1, 8))),
        ),
        modules={k: (k + 1,) for k in (0, 2, 4, 6, 8)},
    ),
}


@lru_cache(maxsize=None)
def _build(name: str) -> GradedAlgebra:
    spec = _SPECS[name]
    factors = tuple(MinimalModel(p, q) for p, q in spec.factors)
    sectors = tuple(
        Sector(sector_name, tuple(
            ModuleLabel(model, m, n) for model, (m, n) in zip(factors, kacs)
        ))
        for sector_name, kacs in spec.sectors
    )
    return GradedAlgebra(name, factors, sectors)


def build_algebra(name: str) -> GradedAlgebra:
    """The 12-sector 5A algebra or the 6-sector 3C algebra."""
    key = name.strip().upper()
    if key not in _SPECS:
        raise ValueError(f"unknown algebra {name!r}, expected '5A' or '3C'")
    return _build(key)


class SectorProduct(NamedTuple):
    """Graded fusion product: matched sectors plus stray components.

    `terms` pairs each matched sector, in sector order, with its count.
    `extras` pairs each componentwise product that does not assemble into
    any sector of the algebra, in label order, with its count.  Every
    count is 1: minimal-model fusion is multiplicity-free.  Extras are
    expected: only designated subalgebra chains close, and the closure
    checks look at `terms`.
    """

    terms: tuple[tuple[Sector, int], ...]
    extras: tuple[tuple[tuple[ModuleLabel, ...], int], ...]


def _matched(alg: GradedAlgebra, a: Sector, b: Sector) -> tuple[list, tuple[Sector, ...]]:
    # the factorwise products of a and b, and the sectors they assemble
    fused = [fuse(x, y) for x, y in zip(a.components, b.components)]
    return fused, tuple(sector for sector in alg.sectors
                        if all(t in f for f, t in zip(fused, sector.components)))


def sector_fusion(alg: GradedAlgebra, a: Sector, b: Sector) -> SectorProduct:
    """Fuse two sectors factor by factor and combine by the product rule."""
    for sector in (a, b):
        if sector not in alg.sectors:
            raise ValueError(f"{sector.name} is not a sector of the {alg.name} algebra")
    fused, matched = _matched(alg, a, b)
    components = {sector.components for sector in matched}
    return SectorProduct(
        tuple((sector, 1) for sector in matched),
        tuple((labels, 1) for labels in product(*fused) if labels not in components),
    )



# ---------------------------------------------------------------------------
# Irreducible modules and their fusion rules.

class IrreducibleModuleSpec(NamedTuple):
    """A module induced from its (m,1) index labels, one per factor after
    the Ising one: its components are the algebra's sectors, in sector
    order, with each index factor's (1,n) put at (m,n)."""

    algebra: GradedAlgebra
    key: tuple[int, int] | int
    components: tuple[tuple[ModuleLabel, ...], ...]
    index: tuple[ModuleLabel, ...]


@lru_cache(maxsize=None)
def _modules(name: str) -> dict:
    # module key -> its record, in the spec's key order; the sectors'
    # index labels are all (1,n), a form that canonicalizing keeps
    alg = _build(name)
    models = alg.factors[1:]
    table = {}
    for key, ms in _SPECS[name].modules.items():
        components = tuple(
            (ising, *(ModuleLabel(model, m, label.n)
                      for model, m, label in zip(models, ms, labels)))
            for ising, *labels in (sector.components for sector in alg.sectors)
        )
        index = tuple(ModuleLabel(model, m, 1) for model, m in zip(models, ms))
        table[key] = IrreducibleModuleSpec(alg, key, components, index)
    return table


def irreducible_module(alg: GradedAlgebra, key) -> IrreducibleModuleSpec:
    """The irreducible module named by key; a list names its tuple."""
    try:
        return _modules(alg.name)[tuple(key) if isinstance(key, list) else key]
    except (KeyError, TypeError):  # TypeError: the key is unhashable
        raise ValueError(f"unknown {alg.name} module key {key!r}") from None


def irreducible_modules(alg: GradedAlgebra) -> tuple[IrreducibleModuleSpec, ...]:
    """The nine 5A modules keyed (i,j), or the five 3C modules keyed 2k."""
    return tuple(_modules(alg.name).values())


def module_fusion(alg: GradedAlgebra, key_a, key_b) -> dict:
    """Fusion product of irreducible modules: each module in it maps to 1.

    A module is named by (m,1) labels of the factor models after the
    Ising one: (i,1),(j,1) at (7,8) for 5A, (k+1,1) at (11,12) for 3C.
    A module is in the product when each of its index labels lies in its
    factor's fusion product; minimal-model fusion is multiplicity-free.
    """
    fused = [fuse(a, b) for a, b in zip(irreducible_module(alg, key_a).index,
                                        irreducible_module(alg, key_b).index)]
    return {key: 1 for key, module in _modules(alg.name).items()
            if all(t in f for f, t in zip(fused, module.index))}


def qdim_module(alg: GradedAlgebra, key) -> QDim:
    """Quantum dimension of an irreducible module, as a sine ratio.

    Its factors are the p-side ratios sin(pi*q*m/p)/sin(pi*q/p) of the
    module's (m,1) index labels, each in Q(zeta_2p).
    """
    ms = _SPECS[alg.name].modules[irreducible_module(alg, key).key]
    return _qdim_from(model.sides[0].ratio(m) for model, m in zip(alg.factors[1:], ms))
