"""Sector bookkeeping for the 5A and 3C extension algebras.

Both algebras are simple-current extensions of a tensor product of
minimal models: 5A sits over (3,4) x (7,8) x (7,8) with twelve sectors,
3C over (3,4) x (11,12) with six.  Everything here is finite
combinatorics layered on the fusion and braiding machinery: graded
fusion by the componentwise product rule, quantum dimensions of the
subalgebra chains, the small linear systems satisfied by products of
structure constants, and the irreducible-module data with its fusion
rules.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from itertools import product
from math import prod
from typing import Callable, NamedTuple

from .braiding import lemma_3c_entry, lemma_5a_combos, named_entry
from .exact import CyclotomicNumber, echelon, sine_inv, two_i_sin, zeta
from .minimal import MinimalModel, ModuleLabel, QDim, _qdim_from, fuse, qdim_tensor


class DegenerateSystem(ArithmeticError):
    """A pivot that the solver relies on turned out to be zero."""


_ONE = CyclotomicNumber.from_rational(1)
_ZERO = CyclotomicNumber.from_rational(0)


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
        if any(label.h != 0 for label in sectors[0].components):
            raise ValueError("first sector is not the vacuum")
        return super().__new__(cls, name, factors, sectors)


class _Spec(NamedTuple):
    """The data that tells one extension algebra from the other.

    chain lists the sizes n of the halving chain of subalgebras U1..Un.
    claims are the paper's quantum dimensions as (check name, sector
    index, value thunk); thunks keep field inverses out of the import.
    A module key maps to the m-indices of its (m,1) labels on the
    factors after the Ising one; a pattern row is a component's Ising
    Kac label followed by one n-index per such factor.
    """

    factors: tuple[tuple[int, int], ...]
    sectors: tuple[tuple[str, tuple[tuple[int, int], ...]], ...]
    chain: tuple[int, ...]
    claims: tuple[tuple[str, int, Callable[[], CyclotomicNumber]], ...]
    modules: dict
    pattern: tuple[tuple, ...]


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
        chain=(8, 4),
        claims=(
            ("qdim(U3) = (sin(3pi/8)/sin(pi/8))^2", 2,
             lambda: (two_i_sin(3, 8) * sine_inv(1, 8)) ** 2),
            ("qdim(U9) = 1/sin(pi/8)^2", 8,
             lambda: -4 * sine_inv(1, 8) ** 2),
        ),
        modules={(i, j): (i, j) for i in (1, 3, 5) for j in (1, 3, 5)},
        pattern=(
            ((1, 1), 1, 1),
            ((1, 1), 3, 5),
            ((1, 1), 5, 3),
            ((1, 1), 7, 7),
            ((1, 3), 1, 7),
            ((1, 3), 3, 3),
            ((1, 3), 5, 5),
            ((1, 3), 7, 1),
            ((1, 2), 2, 4),
            ((1, 2), 4, 2),
            ((1, 2), 6, 4),
            ((1, 2), 4, 6),
        ),
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
        chain=(4, 2),
        claims=(
            ("qdim(U5) = sqrt(2)sin(pi/3)/sin(pi/12)", 4,
             lambda: (zeta(8) + zeta(8, -1)) * two_i_sin(1, 3) * sine_inv(1, 12)),
        ),
        modules={k: (k + 1,) for k in (0, 2, 4, 6, 8)},
        pattern=(
            ((1, 1), 1),
            ((1, 1), 7),
            ((1, 3), 11),
            ((1, 3), 5),
            ((1, 2), 4),
            ((1, 2), 8),
        ),
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

    `terms` pairs each matched sector with its multiplicity.  `extras`
    pairs each componentwise product that does not assemble into any
    sector of the algebra with its multiplicity.  They are expected: only
    designated subalgebra chains close, and the closure checks look at
    `terms`.
    """

    terms: tuple[tuple[Sector, int], ...]
    extras: tuple[tuple[tuple[ModuleLabel, ...], int], ...]


def sector_fusion(alg: GradedAlgebra, a: Sector, b: Sector) -> SectorProduct:
    """Fuse two sectors factor by factor and combine by the product rule."""
    for sector in (a, b):
        if sector not in alg.sectors:
            raise ValueError(f"{sector.name} is not a sector of the {alg.name} algebra")
    per_factor = [fuse(x, y).items() for x, y in zip(a.components, b.components)]
    lookup = {sector.components: sector for sector in alg.sectors}
    order = {sector: i for i, sector in enumerate(alg.sectors)}
    terms: dict[Sector, int] = {}
    extras: dict[tuple[ModuleLabel, ...], int] = {}
    for combo in product(*per_factor):
        labels = tuple(label for label, _ in combo)
        count = 1
        for _, k in combo:
            count *= k
        sector = lookup.get(labels)
        if sector is not None:
            terms[sector] = terms.get(sector, 0) + count
        else:
            extras[labels] = extras.get(labels, 0) + count
    return SectorProduct(
        tuple(sorted(terms.items(), key=lambda kv: order[kv[0]])),
        tuple(
            sorted(
                extras.items(),
                key=lambda kv: tuple(label.sort_key() for label in kv[0]),
            )
        ),
    )


class ChainCheck(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


def _qdim_sum(sectors) -> CyclotomicNumber:
    total = _ZERO
    for sector in sectors:
        total = total + qdim_tensor(sector.components).exact
    return total


def _closure_check(alg: GradedAlgebra, subset: tuple[Sector, ...], name: str) -> ChainCheck:
    allowed = set(subset)
    offenders = []
    for a in subset:
        for b in subset:
            for sector, _ in sector_fusion(alg, a, b).terms:
                if sector not in allowed:
                    offenders.append(f"{a.name}*{b.name} -> {sector.name}")
    if offenders:
        return ChainCheck(name, False, "; ".join(sorted(set(offenders))))
    return ChainCheck(name, True, "all matched products stay inside the chain")


def _ratio_check(top, bottom, name: str) -> ChainCheck:
    s_top = _qdim_sum(top)
    s_bottom = _qdim_sum(bottom)
    ok = not s_bottom.is_zero() and s_top == s_bottom
    return ChainCheck(name, ok, f"{s_top} over {s_bottom}")


def _span(lo: int, hi: int) -> str:
    return f"U{lo}+U{hi}" if hi == lo + 1 else f"U{lo}+..+U{hi}"


def check_subalgebra_chain(alg: GradedAlgebra) -> tuple[ChainCheck, ...]:
    """Closure and relative quantum dimension of the simple-current chains."""
    spec = _SPECS[alg.name]
    s = alg.sectors
    checks = []
    top = len(s)
    for n in spec.chain:
        checks.append(_closure_check(alg, s[:n], f"U1..U{n} closed"))
        checks.append(_ratio_check(
            s[n:top], s[:n], f"qdim({_span(n + 1, top)})/qdim({_span(1, n)}) = 1"
        ))
        top = n
    for name, index, value in spec.claims:
        got = qdim_tensor(s[index].components).exact
        checks.append(ChainCheck(name, got == value(), f"value {got}"))
    return tuple(checks)


# ---------------------------------------------------------------------------
# Structure-constant systems.
#
# The four-point functions of the non-vacuum sectors close into small
# linear systems whose coefficients are products of entries of two braid
# matrices: B for the second tensor factor and Bt for the third.  The
# sector pairing swaps the roles of labels 3 and 4 between the factors,
# so Bt is read through that swap.

_Q_OF = {1: 1, 2: 2, 3: 4, 4: 3}

# Row labels (i, j) of the nine-equation systems, in display order:
# i indexes the B column, j the Bt column.
_ROWS_9 = ((2, 2), (3, 3), (4, 4), (2, 3), (2, 4), (3, 2), (3, 4), (4, 2), (4, 3))

_b = partial(named_entry, 7, (3, 3, 4, 4))
_e3c = partial(named_entry, 11, (2, 2, 2, 2))


def _bt(i: int, j: int) -> CyclotomicNumber:
    return named_entry(7, (4, 4, 3, 3), _Q_OF[i], _Q_OF[j])


class SectorEquation(NamedTuple):
    """One linear relation sum_k coefficients[k] * unknowns[k] = rhs."""

    label: str
    coefficients: tuple[CyclotomicNumber, ...]
    rhs: CyclotomicNumber


class SolutionSet(NamedTuple):
    kind: str  # "unique" or "contradiction"
    assignments: tuple[tuple[str, CyclotomicNumber], ...]
    steps: tuple[str, ...]

    def value(self, unknown: str) -> CyclotomicNumber:
        for name, value in self.assignments:
            if name == unknown:
                return value
        raise KeyError(unknown)


class SectorSystem(NamedTuple):
    """A named linear system in the given unknowns."""

    name: str
    unknowns: tuple[str, ...]
    equations: tuple[SectorEquation, ...]


# Both 5A systems obey one row rule: in row (i, j) the unknown of
# column k has coefficient B[k,i]*Bt[k,j] - [k = i = j].  Existence
# has unknowns for k = 2, 3, 4: the pairwise products of structure
# constants that the crossing relation on (U3, U4, U4, U3) ties
# together.  Uniqueness has them for k = 3, 4: differences of the same
# relation for two candidate structures, linear in 1-mu^2 and
# 1-gamma^2.
_5A_COLUMNS = {
    "5A-existence": (("u", "v", "w"), (2, 3, 4)),
    "5A-uniqueness": (("1 - mu^2", "1 - gamma^2"), (3, 4)),
}


@lru_cache(maxsize=None)
def build_sector_system(name: str) -> SectorSystem:
    """The linear system satisfied by products of structure constants.

    All three systems come from comparing a four-point function braided
    two ways.  They are stated with the identity terms moved to the
    left, so the 5A systems are homogeneous; the 3C system keeps its
    constant side.
    """
    key = name.strip().upper()
    names = tuple(_SOLVERS)
    canonical = {n.upper(): n for n in names}.get(key)
    if canonical is None:
        raise ValueError(f"unknown system {name!r}, expected one of {names}")
    if canonical == "3C":
        e21, e22 = _e3c(2, 1), _e3c(2, 2)
        return SectorSystem(canonical, ("lambda^2",), (
            SectorEquation("(2,1)", (e21,), e21),
            SectorEquation("(2,2)", (e22 - 1,), e22 - 1),
        ))
    unknowns, ks = _5A_COLUMNS[canonical]
    equations = tuple(
        SectorEquation(f"({i},{j})", tuple(
            _b(k, i) * _bt(k, j) - 1 if k == i == j else _b(k, i) * _bt(k, j) for k in ks
        ), _ZERO)
        for i, j in _ROWS_9
    )
    return SectorSystem(canonical, unknowns, equations)


def _equation(system: SectorSystem, label: str) -> SectorEquation:
    for equation in system.equations:
        if equation.label == label:
            return equation
    raise KeyError(label)


def _check_solution(system: SectorSystem, values: tuple[CyclotomicNumber, ...]) -> None:
    for equation in system.equations:
        total = _ZERO
        for coefficient, value in zip(equation.coefficients, values):
            total = total + coefficient * value
        if total != equation.rhs:
            raise DegenerateSystem(
                f"{system.name}: claimed solution fails relation {equation.label}"
            )


def _eliminates(system: SectorSystem, i1, i2, j, x, y, want) -> bool:
    """Whether B[x,i2] * row (i1,j) - B[x,i1] * row (i2,j) of a 5A system
    clears the column-x unknown and leaves `want` on the column-y one."""
    ks = _5A_COLUMNS[system.name][1]
    top = _equation(system, f"({i1},{j})").coefficients
    bottom = _equation(system, f"({i2},{j})").coefficients
    combo = [_b(x, i2) * a - _b(x, i1) * b for a, b in zip(top, bottom)]
    return combo[ks.index(x)].is_zero() and combo[ks.index(y)] == want


def solve_sector_system(system: SectorSystem) -> SolutionSet:
    """Solve exactly, replaying the published elimination as certificate steps.

    Every pivot is consumed as an exact nonvanishing fact; a zero pivot
    raises DegenerateSystem, since the surrounding argument would then
    collapse.
    """
    solver = _SOLVERS.get(system.name)
    if solver is None:
        raise ValueError(f"unknown system {system.name!r}")
    return solver(system)


def _solve_3c(system: SectorSystem) -> SolutionSet:
    pivot = lemma_3c_entry()
    if pivot.is_zero():
        raise DegenerateSystem("3C: the (2,1) braid entry vanishes")
    if _equation(system, "(2,1)").coefficients[0] != pivot:
        raise DegenerateSystem("3C: system coefficients drifted from the braid matrix")
    _check_solution(system, (_ONE,))
    steps = (
        "row (2,1) reads (1 - lambda^2) * B[2,1] = 0",
        "B[2,1] != 0 (exact), so lambda^2 = 1",
        "row (2,2) holds identically at lambda^2 = 1",
        "a diagonal rescale by lambda on the odd sector matches the two structures",
    )
    return SolutionSet("unique", (("lambda^2", _ONE),), steps)


def _solve_5a_uniqueness(system: SectorSystem) -> SolutionSet:
    minor = lemma_5a_combos()[1]
    if minor.is_zero():
        raise DegenerateSystem("5A-uniqueness: the (3,2)/(4,4) minor vanishes")
    # Eliminate between rows (2,3) and (4,3); both combinations must
    # produce the minor times a single Bt entry.
    if not (_eliminates(system, 2, 4, 3, 4, 3, minor * _bt(3, 3))
            and _eliminates(system, 2, 4, 3, 3, 4, -(minor * _bt(4, 3)))):
        raise DegenerateSystem("5A-uniqueness: elimination identity failed")
    pivot = _b(4, 4) * _bt(4, 3)
    if pivot.is_zero():
        raise DegenerateSystem("5A-uniqueness: row (4,3) pivot vanishes")
    _check_solution(system, (_ZERO, _ZERO))
    if len(echelon([eq.coefficients for eq in system.equations])[1]) != 2:
        raise DegenerateSystem("5A-uniqueness: coefficient matrix is rank deficient")
    steps = (
        "rows (2,3) and (4,3) eliminate to (1-mu^2) * m2 * Bt[3,3] = 0 "
        "and (1-gamma^2) * m2 * Bt[4,3] = 0, m2 = B[3,2]B[4,4] - B[4,2]B[3,4]",
        "m2 != 0 (exact); if 1-mu^2 were nonzero, Bt[3,3] = 0 would follow",
        "row (3,3) then collapses to 1-mu^2 = 0, a contradiction, so mu^2 = 1",
        "with 1-mu^2 = 0, row (4,3) reads (1-gamma^2) * B[4,4]Bt[4,3] = 0",
        "B[4,4]Bt[4,3] != 0 (exact), so gamma^2 = 1",
        "a diagonal rescale by (1, lambda mu gamma, gamma, mu) matches the structures",
    )
    assignments = (("1 - mu^2", _ZERO), ("1 - gamma^2", _ZERO))
    return SolutionSet("unique", assignments, steps)


def _solve_5a_existence(system: SectorSystem) -> SolutionSet:
    minor = lemma_5a_combos()[0]
    if minor.is_zero():
        raise DegenerateSystem("5A-existence: the (4,4)/(2,3) minor vanishes")
    # Branch v = 0: only the u and w columns of rows (2,2), (3,2), (4,2)
    # survive.  Recover the printed eliminations exactly.
    if not (_eliminates(system, 3, 4, 2, 4, 2, minor * _bt(2, 2))
            and _eliminates(system, 3, 4, 2, 2, 4, -(minor * _bt(4, 2)))):
        raise DegenerateSystem("5A-existence: elimination identity failed")
    # Either branch, v = 0 or w = 0, leaves the u column and one other of
    # rank 2: their only solution is zero, so u = 0 there.  Eliminate u
    # once, against one pivot row and without an inverse: a branch has
    # rank 2 when its other column keeps a nonzero entry after that.
    # The v = 0 check cannot fail once the printed eliminations hold:
    # they leave m1*Bt[2,2] on u alone and -m1*Bt[4,2] on w alone, both
    # nonzero here, so the (u, w) columns already have rank 2.  It stays
    # as a cheap second route to that fact; the w = 0 check is the only
    # test of the mirrored branch.
    rows = [eq.coefficients for eq in system.equations]
    top = next((row for row in rows if row[0]), None)
    for gone, k in (("v", 2), ("w", 1)):
        if top is None or not any(top[0] * row[k] - row[0] * top[k] for row in rows):
            raise DegenerateSystem(f"5A-existence: the {gone} = 0 branch is rank deficient")
    steps = (
        "assume v = 0; rows (2,2), (3,2), (4,2) close in u and w alone",
        "rows (3,2) and (4,2) eliminate to u * m1 * Bt[2,2] = 0 "
        "and w * m1 * Bt[4,2] = 0, m1 = B[4,4]B[2,3] - B[4,3]B[2,4]",
        "m1 != 0 (exact) and u != 0, so Bt[2,2] = 0 and w * Bt[4,2] = 0",
        "row (2,2) then collapses to u = 0, contradicting u != 0",
        "so v != 0; the mirrored elimination rules out w = 0 the same way",
    )
    return SolutionSet("contradiction", (), steps)


_SOLVERS = {
    "5A-existence": _solve_5a_existence,
    "5A-uniqueness": _solve_5a_uniqueness,
    "3C": _solve_3c,
}


# ---------------------------------------------------------------------------
# Irreducible modules and their fusion rules.

class IrreducibleModuleSpec(NamedTuple):
    algebra: GradedAlgebra
    key: tuple[int, int] | int
    components: tuple[tuple[ModuleLabel, ...], ...]


def _norm_key(alg: GradedAlgebra, key):
    want = tuple(key) if isinstance(key, list) else key
    for known in _SPECS[alg.name].modules:
        if known == want:
            return known
    raise ValueError(f"unknown {alg.name} module key {key!r}")


@lru_cache(maxsize=None)
def _modules(name: str) -> tuple[IrreducibleModuleSpec, ...]:
    alg = _build(name)
    spec = _SPECS[name]
    ising, *index = alg.factors
    return tuple(
        IrreducibleModuleSpec(alg, key, tuple(
            (
                ModuleLabel(ising, *kac),
                *(ModuleLabel(model, m, n) for model, m, n in zip(index, ms, ns)),
            )
            for kac, *ns in spec.pattern
        ))
        for key, ms in spec.modules.items()
    )


@lru_cache(maxsize=None)
def _index_labels(name: str) -> dict:
    # module key -> its (m,1) labels on the factors after the Ising one
    index = _build(name).factors[1:]
    return {
        key: tuple(ModuleLabel(model, m, 1) for model, m in zip(index, ms))
        for key, ms in _SPECS[name].modules.items()
    }


def irreducible_modules(alg: GradedAlgebra) -> tuple[IrreducibleModuleSpec, ...]:
    """The nine 5A modules keyed (i,j), or the five 3C modules keyed 2k."""
    return _modules(alg.name)


def module_fusion(alg: GradedAlgebra, key_a, key_b) -> dict:
    """Fusion multiplicities between irreducible modules, each 0 or 1.

    A module is named by (m,1) labels of the factor models after the
    Ising one: (i,1),(j,1) at (7,8) for 5A, (k+1,1) at (11,12) for 3C.
    The multiplicity of a target is the product over those factors of
    its labels' multiplicities in the factor fusion.
    """
    labels = _index_labels(alg.name)
    fused = [
        fuse(a, b)
        for a, b in zip(labels[_norm_key(alg, key_a)], labels[_norm_key(alg, key_b)])
    ]
    out = {}
    for key, targets in labels.items():
        dim = prod(counts[t] for counts, t in zip(fused, targets))
        if dim:
            out[key] = dim
    return out


def qdim_module(alg: GradedAlgebra, key) -> QDim:
    """Quantum dimension of an irreducible module, as a sine ratio.

    Its factors are the m-side ratios sin(pi*q*m/p)/sin(pi*q/p) of the
    module's index labels, each in Q(zeta_2p).
    """
    ms = _SPECS[alg.name].modules[_norm_key(alg, key)]
    return _qdim_from((model.q, m, model.p) for model, m in zip(alg.factors[1:], ms))
