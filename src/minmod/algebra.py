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

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product

from .braiding import (
    BraidMatrix,
    _lemma_3c_matrix,
    _lemma_5a_entry as _b,
    braid_matrix,
    lemma_3c_entry,
    lemma_5a_combos,
    named_label,
)
from .exact import CyclotomicNumber, echelon, two_i_sin, zeta
from .minimal import MinimalModel, ModuleLabel, QDim, fuse, is_admissible, qdim_tensor


class DegenerateSystem(ArithmeticError):
    """A pivot that the solver relies on turned out to be zero."""


def _one() -> CyclotomicNumber:
    return CyclotomicNumber.from_rational(1)


def _zero() -> CyclotomicNumber:
    return CyclotomicNumber.from_rational(0)


@dataclass(frozen=True)
class Sector:
    """One homogeneous piece of a graded algebra.

    `weights` repeats the conformal weights of `components` for display;
    the constructor checks the redundancy.
    """

    name: str
    components: tuple[ModuleLabel, ...]
    weights: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.weights != tuple(label.h for label in self.components):
            raise ValueError(f"weights of {self.name} disagree with components")

    def __str__(self) -> str:
        return f"{self.name} = [{', '.join(str(w) for w in self.weights)}]"


@dataclass(frozen=True)
class GradedAlgebra:
    name: str
    factors: tuple[MinimalModel, ...]
    sectors: tuple[Sector, ...]

    def __post_init__(self) -> None:
        seen = {sector.components for sector in self.sectors}
        if len(seen) != len(self.sectors):
            raise ValueError("sector components are not pairwise distinct")
        if any(label.h != 0 for label in self.sectors[0].components):
            raise ValueError("first sector is not the vacuum")

    @property
    def vacuum(self) -> Sector:
        return self.sectors[0]

    def sector(self, name: str | int) -> Sector:
        key = f"U{name}" if isinstance(name, int) else name.upper()
        for sector in self.sectors:
            if sector.name == key:
                return sector
        raise KeyError(f"no sector {key!r} in the {self.name} algebra")

    def __str__(self) -> str:
        shape = " x ".join(f"({m.p},{m.q})" for m in self.factors)
        return f"{self.name} algebra over {shape}, {len(self.sectors)} sectors"


# Sector tables, as Kac labels per tensor factor.  In the 5A list the
# pairs U3/U4 and U11/U12 couple the two (7,8) factors crosswise, they
# are not diagonal: the second factor carries (1,3),(1,5) where the
# third carries (1,5),(1,3), and likewise (1,4),(1,6) against (1,6),(1,4).
_SECTORS_5A = (
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
)

_SECTORS_3C = (
    ("U1", ((1, 1), (1, 1))),
    ("U2", ((1, 1), (1, 7))),
    ("U3", ((1, 3), (1, 11))),
    ("U4", ((1, 3), (1, 5))),
    ("U5", ((1, 2), (1, 4))),
    ("U6", ((1, 2), (1, 8))),
)


@lru_cache(maxsize=None)
def _build(name: str) -> GradedAlgebra:
    if name == "5A":
        factors = (MinimalModel(3, 4), MinimalModel(7, 8), MinimalModel(7, 8))
        table = _SECTORS_5A
    else:
        factors = (MinimalModel(3, 4), MinimalModel(11, 12))
        table = _SECTORS_3C
    sectors = []
    for sector_name, kacs in table:
        components = tuple(
            ModuleLabel(model, m, n) for model, (m, n) in zip(factors, kacs)
        )
        weights = tuple(label.h for label in components)
        sectors.append(Sector(sector_name, components, weights))
    return GradedAlgebra(name, factors, tuple(sectors))


def build_algebra(name: str) -> GradedAlgebra:
    """The 12-sector 5A algebra or the 6-sector 3C algebra."""
    key = name.strip().upper()
    if key not in ("5A", "3C"):
        raise ValueError(f"unknown algebra {name!r}, expected '5A' or '3C'")
    return _build(key)


@dataclass(frozen=True)
class SectorProduct:
    """Graded fusion product: matched sectors plus stray components.

    `extras` collects componentwise products that do not assemble into
    any sector of the algebra.  They are expected: only designated
    subalgebra chains close, and the closure checks look at `terms`.
    """

    terms: tuple[tuple[Sector, int], ...]
    extras: tuple[tuple[tuple[ModuleLabel, ...], int], ...]

    def sector_names(self) -> tuple[str, ...]:
        return tuple(sector.name for sector, _ in self.terms)

    def multiplicity(self, sector: Sector | str) -> int:
        key = sector.name if isinstance(sector, Sector) else sector.upper()
        for candidate, count in self.terms:
            if candidate.name == key:
                return count
        return 0

    def __contains__(self, sector: Sector | str) -> bool:
        return self.multiplicity(sector) > 0

    def __iter__(self):
        return iter(self.terms)


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


@dataclass(frozen=True)
class ChainCheck:
    name: str
    passed: bool
    detail: str = ""


def _qdim_sum(sectors) -> CyclotomicNumber:
    total = _zero()
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


def _value_check(name: str, got: CyclotomicNumber, want: CyclotomicNumber) -> ChainCheck:
    return ChainCheck(name, got == want, f"value {got}")


def check_subalgebra_chain(alg: GradedAlgebra) -> tuple[ChainCheck, ...]:
    """Closure and relative quantum dimension of the simple-current chains."""
    s = alg.sectors
    if alg.name == "5A":
        sin8 = two_i_sin(1, 8, 16)
        checks = (
            _closure_check(alg, s[:8], "U1..U8 closed"),
            _ratio_check(s[8:], s[:8], "qdim(U9+..+U12)/qdim(U1+..+U8) = 1"),
            _closure_check(alg, s[:4], "U1..U4 closed"),
            _ratio_check(s[4:8], s[:4], "qdim(U5+..+U8)/qdim(U1+..+U4) = 1"),
            _value_check(
                "qdim(U3) = (sin(3pi/8)/sin(pi/8))^2",
                qdim_tensor(s[2].components).exact,
                (two_i_sin(3, 8, 16) * sin8.inv()) ** 2,
            ),
            _value_check(
                "qdim(U9) = 1/sin(pi/8)^2",
                qdim_tensor(s[8].components).exact,
                CyclotomicNumber.from_rational(-4) * (sin8**2).inv(),
            ),
        )
    else:
        sqrt2 = zeta(8) + zeta(8, -1)
        checks = (
            _closure_check(alg, s[:4], "U1..U4 closed"),
            _ratio_check(s[4:], s[:4], "qdim(U5+U6)/qdim(U1+..+U4) = 1"),
            _closure_check(alg, s[:2], "U1..U2 closed"),
            _ratio_check(s[2:4], s[:2], "qdim(U3+U4)/qdim(U1+U2) = 1"),
            _value_check(
                "qdim(U5) = sqrt(2)sin(pi/3)/sin(pi/12)",
                qdim_tensor(s[4].components).exact,
                sqrt2 * two_i_sin(1, 3, 6) * two_i_sin(1, 12, 24).inv(),
            ),
        )
    return checks


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


@lru_cache(maxsize=None)
def _bt_matrix() -> BraidMatrix:
    model = MinimalModel(7, 8)
    p3 = named_label(model, 3)
    p4 = named_label(model, 4)
    return braid_matrix(model, (p4, p4, p3, p3))


def _bt(i: int, j: int) -> CyclotomicNumber:
    matrix = _bt_matrix()
    model = MinimalModel(7, 8)
    return matrix.entry(named_label(model, _Q_OF[i]), named_label(model, _Q_OF[j]))


def _e3c(i: int, j: int) -> CyclotomicNumber:
    model = MinimalModel(11, 12)
    return _lemma_3c_matrix().entry(named_label(model, i), named_label(model, j))


@dataclass(frozen=True)
class SectorEquation:
    """One linear relation sum_k coefficients[k] * unknowns[k] = rhs."""

    label: str
    coefficients: tuple[CyclotomicNumber, ...]
    rhs: CyclotomicNumber


@dataclass(frozen=True)
class SolutionSet:
    kind: str  # "unique" or "contradiction"
    assignments: tuple[tuple[str, CyclotomicNumber], ...]
    steps: tuple[str, ...]

    def value(self, unknown: str) -> CyclotomicNumber:
        for name, value in self.assignments:
            if name == unknown:
                return value
        raise KeyError(unknown)


@dataclass
class SectorSystem:
    name: str
    unknowns: tuple[str, ...]
    equations: tuple[SectorEquation, ...]
    solutions: SolutionSet | None = None


_SYSTEM_NAMES = ("5A-existence", "5A-uniqueness", "3C")


def build_sector_system(name: str) -> SectorSystem:
    """The linear system satisfied by products of structure constants.

    All three systems come from comparing a four-point function braided
    two ways.  They are stated with the identity terms moved to the
    left, so the 5A systems are homogeneous; the 3C system keeps its
    constant side.
    """
    key = name.strip().upper()
    canonical = {n.upper(): n for n in _SYSTEM_NAMES}.get(key)
    if canonical is None:
        raise ValueError(f"unknown system {name!r}, expected one of {_SYSTEM_NAMES}")

    equations = []
    if canonical == "5A-existence":
        # Unknowns are the pairwise products of structure constants that
        # the crossing relation on (U3, U4, U4, U3) ties together.
        unknowns = ("u", "v", "w")
        for i, j in _ROWS_9:
            coefficients = [_b(k, i) * _bt(k, j) for k in (2, 3, 4)]
            if i == j:
                coefficients[i - 2] = coefficients[i - 2] - 1
            equations.append(SectorEquation(f"({i},{j})", tuple(coefficients), _zero()))
    elif canonical == "5A-uniqueness":
        # Differences of the same relation for two candidate structures,
        # linear in 1-mu^2 and 1-gamma^2.
        unknowns = ("1 - mu^2", "1 - gamma^2")
        for i, j in _ROWS_9:
            coefficients = [_b(3, i) * _bt(3, j), _b(4, i) * _bt(4, j)]
            if (i, j) == (3, 3):
                coefficients[0] = coefficients[0] - 1
            if (i, j) == (4, 4):
                coefficients[1] = coefficients[1] - 1
            equations.append(SectorEquation(f"({i},{j})", tuple(coefficients), _zero()))
    else:
        unknowns = ("lambda^2",)
        e21 = _e3c(2, 1)
        e22 = _e3c(2, 2)
        equations.append(SectorEquation("(2,1)", (e21,), e21))
        equations.append(SectorEquation("(2,2)", (e22 - 1,), e22 - 1))
    return SectorSystem(canonical, unknowns, tuple(equations))


def _equation(system: SectorSystem, label: str) -> SectorEquation:
    for equation in system.equations:
        if equation.label == label:
            return equation
    raise KeyError(label)


def _check_solution(system: SectorSystem, values: tuple[CyclotomicNumber, ...]) -> None:
    for equation in system.equations:
        total = _zero()
        for coefficient, value in zip(equation.coefficients, values):
            total = total + coefficient * value
        if total != equation.rhs:
            raise DegenerateSystem(
                f"{system.name}: claimed solution fails relation {equation.label}"
            )


def solve_sector_system(system: SectorSystem) -> SolutionSet:
    """Solve exactly, replaying the published elimination as certificate steps.

    Every pivot is consumed as an exact nonvanishing fact; a zero pivot
    raises DegenerateSystem, since the surrounding argument would then
    collapse.
    """
    if system.name == "3C":
        solution = _solve_3c(system)
    elif system.name == "5A-uniqueness":
        solution = _solve_5a_uniqueness(system)
    elif system.name == "5A-existence":
        solution = _solve_5a_existence(system)
    else:
        raise ValueError(f"unknown system {system.name!r}")
    system.solutions = solution
    return solution


def _solve_3c(system: SectorSystem) -> SolutionSet:
    pivot = lemma_3c_entry()
    if pivot.is_zero():
        raise DegenerateSystem("3C: the (2,1) braid entry vanishes")
    if _equation(system, "(2,1)").coefficients[0] != pivot:
        raise DegenerateSystem("3C: system coefficients drifted from the braid matrix")
    one = _one()
    _check_solution(system, (one,))
    steps = (
        "row (2,1) reads (1 - lambda^2) * B[2,1] = 0",
        "B[2,1] != 0 (exact), so lambda^2 = 1",
        "row (2,2) holds identically at lambda^2 = 1",
        "a diagonal rescale by lambda on the odd sector matches the two structures",
    )
    return SolutionSet("unique", (("lambda^2", one),), steps)


def _solve_5a_uniqueness(system: SectorSystem) -> SolutionSet:
    minor = lemma_5a_combos()[1]
    if minor.is_zero():
        raise DegenerateSystem("5A-uniqueness: the (3,2)/(4,4) minor vanishes")
    r23 = _equation(system, "(2,3)").coefficients
    r43 = _equation(system, "(4,3)").coefficients
    bt33, bt43 = _bt(3, 3), _bt(4, 3)
    # Eliminate between rows (2,3) and (4,3); both combinations must
    # produce the minor times a single Bt entry.
    lhs_a = _b(4, 4) * r23[0] - _b(4, 2) * r43[0]
    lhs_b = _b(3, 4) * r23[1] - _b(3, 2) * r43[1]
    if lhs_a != minor * bt33 or not (_b(4, 4) * r23[1] - _b(4, 2) * r43[1]).is_zero():
        raise DegenerateSystem("5A-uniqueness: elimination identity failed")
    if lhs_b != -(minor * bt43) or not (_b(3, 4) * r23[0] - _b(3, 2) * r43[0]).is_zero():
        raise DegenerateSystem("5A-uniqueness: elimination identity failed")
    pivot = _b(4, 4) * bt43
    if pivot.is_zero():
        raise DegenerateSystem("5A-uniqueness: row (4,3) pivot vanishes")
    zero = _zero()
    _check_solution(system, (zero, zero))
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
    assignments = (("1 - mu^2", zero), ("1 - gamma^2", zero))
    return SolutionSet("unique", assignments, steps)


def _solve_5a_existence(system: SectorSystem) -> SolutionSet:
    minor = lemma_5a_combos()[0]
    if minor.is_zero():
        raise DegenerateSystem("5A-existence: the (4,4)/(2,3) minor vanishes")
    # Branch v = 0: only the u and w columns of rows (2,2), (3,2), (4,2)
    # survive.  Recover the printed eliminations exactly.
    r32 = _equation(system, "(3,2)").coefficients
    r42 = _equation(system, "(4,2)").coefficients
    bt22, bt42 = _bt(2, 2), _bt(4, 2)
    lhs_u = _b(4, 4) * r32[0] - _b(4, 3) * r42[0]
    lhs_w = _b(2, 4) * r32[2] - _b(2, 3) * r42[2]
    if lhs_u != minor * bt22 or not (_b(4, 4) * r32[2] - _b(4, 3) * r42[2]).is_zero():
        raise DegenerateSystem("5A-existence: elimination identity failed")
    if lhs_w != -(minor * bt42) or not (_b(2, 4) * r32[0] - _b(2, 3) * r42[0]).is_zero():
        raise DegenerateSystem("5A-existence: elimination identity failed")
    steps = (
        "assume v = 0; rows (2,2), (3,2), (4,2) close in u and w alone",
        "rows (3,2) and (4,2) eliminate to u * m1 * Bt[2,2] = 0 "
        "and w * m1 * Bt[4,2] = 0, m1 = B[4,4]B[2,3] - B[4,3]B[2,4]",
        "m1 != 0 (exact) and u != 0, so Bt[2,2] = 0 and w * Bt[4,2] = 0",
        "row (2,2) then collapses to u = 0, contradicting u != 0",
        "so v != 0; the mirrored elimination rules out w = 0 the same way",
    )
    return SolutionSet("contradiction", (), steps)


def normalization_residuals(name: str) -> tuple[tuple[str, CyclotomicNumber], ...]:
    """Residuals of the raw-basis closure identities, for reporting only.

    With every structure constant set to 1 the crossing relations would
    need sum_k B[k,i]*Bt[k,j] = delta(i,j).  The raw braid normalization
    does not promise this; whatever is left over is returned per row and
    never gated on.
    """
    key = name.strip().upper()
    out = []
    if key == "5A":
        # each 5A-existence row is this identity with its coefficients
        # split out, so the residual is their sum
        for equation in build_sector_system("5A-existence").equations:
            out.append((equation.label, sum(equation.coefficients, _zero())))
    elif key == "3C":
        for j in (1, 2):
            out.append((f"(.,{j})", _e3c(1, j) + _e3c(2, j) - 1))
    else:
        raise ValueError(f"unknown algebra {name!r}, expected '5A' or '3C'")
    return tuple(out)


# ---------------------------------------------------------------------------
# Irreducible modules and their fusion rules.

_5A_KEYS = tuple((i, j) for i in (1, 3, 5) for j in (1, 3, 5))
_3C_KEYS = (0, 2, 4, 6, 8)

# Component pattern of a 5A module: Ising label, then the Kac n-indices
# paired with the key (i, j) in the two (7,8) factors.
_PATTERN_5A = (
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
)

_PATTERN_3C = (
    ((1, 1), 1),
    ((1, 1), 7),
    ((1, 3), 11),
    ((1, 3), 5),
    ((1, 2), 4),
    ((1, 2), 8),
)


@dataclass(frozen=True)
class IrreducibleModuleSpec:
    algebra: GradedAlgebra
    key: tuple[int, int] | int
    components: tuple[tuple[ModuleLabel, ...], ...]

    def weights(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(label.h for label in comp) for comp in self.components)

    def __str__(self) -> str:
        return f"{self.algebra.name} module {self.key}, {len(self.components)} components"


def _norm_key(alg: GradedAlgebra, key):
    if alg.name == "5A":
        if isinstance(key, (tuple, list)) and tuple(key) in _5A_KEYS:
            return tuple(key)
        raise ValueError(f"unknown 5A module key {key!r}")
    if isinstance(key, int) and key in _3C_KEYS:
        return key
    raise ValueError(f"unknown 3C module key {key!r}")


@lru_cache(maxsize=None)
def _modules(name: str) -> tuple[IrreducibleModuleSpec, ...]:
    alg = _build(name)
    ising = alg.factors[0]
    specs = []
    if name == "5A":
        big = alg.factors[1]
        for i, j in _5A_KEYS:
            components = tuple(
                (
                    ModuleLabel(ising, *kac),
                    ModuleLabel(big, i, ni),
                    ModuleLabel(big, j, nj),
                )
                for kac, ni, nj in _PATTERN_5A
            )
            specs.append(IrreducibleModuleSpec(alg, (i, j), components))
    else:
        big = alg.factors[1]
        for key in _3C_KEYS:
            components = tuple(
                (ModuleLabel(ising, *kac), ModuleLabel(big, key + 1, n))
                for kac, n in _PATTERN_3C
            )
            specs.append(IrreducibleModuleSpec(alg, key, components))
    return tuple(specs)


def irreducible_modules(alg: GradedAlgebra) -> tuple[IrreducibleModuleSpec, ...]:
    """The nine 5A modules keyed (i,j), or the five 3C modules keyed 2k."""
    return _modules(alg.name)


def module_fusion(alg: GradedAlgebra, key_a, key_b) -> dict:
    """Fusion multiplicities between irreducible modules, each 0 or 1.

    A target appears iff the defining Kac triples are admissible: both
    (i,1),(i',1),(i'',1) and (j,1),(j',1),(j'',1) at (7,8) for 5A, and
    (i+1,1),(j+1,1),(k+1,1) at (11,12) for 3C.
    """
    key_a = _norm_key(alg, key_a)
    key_b = _norm_key(alg, key_b)
    out = {}
    if alg.name == "5A":
        model = alg.factors[1]
        for i, j in _5A_KEYS:
            dim = int(
                is_admissible((key_a[0], 1), (key_b[0], 1), (i, 1), model)
            ) * int(is_admissible((key_a[1], 1), (key_b[1], 1), (j, 1), model))
            if dim:
                out[(i, j)] = dim
    else:
        model = alg.factors[1]
        for key in _3C_KEYS:
            if is_admissible((key_a + 1, 1), (key_b + 1, 1), (key + 1, 1), model):
                out[key] = 1
    return out


def qdim_module(alg: GradedAlgebra, key) -> QDim:
    """Quantum dimension of an irreducible module, as a sine ratio."""
    key = _norm_key(alg, key)
    if alg.name == "5A":
        i, j = key
        value = (
            two_i_sin(8 * i, 7, 14)
            * two_i_sin(8 * j, 7, 14)
            * (two_i_sin(8, 7, 14) ** 2).inv()
        )
    else:
        value = two_i_sin(key + 1, 11, 22) * two_i_sin(1, 11, 22).inv()
    if not value.is_real():
        raise ArithmeticError(f"quantum dimension of {key} is not real")
    approx = value.embed()
    return QDim(value, approx.real)
