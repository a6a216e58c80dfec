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
from operator import mul
from typing import Callable, NamedTuple

from . import braiding
from .braiding import entry_3c as _e3c, entry_5a as _b, named_entry
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
        if not sectors or any(label.h != 0 for label in sectors[0].components):
            raise ValueError("first sector is not the vacuum")
        return super().__new__(cls, name, factors, sectors)


class _Spec(NamedTuple):
    """The data that tells one extension algebra from the other.

    chain lists the sizes n of the halving chain of subalgebras U1..Un.
    claims are the paper's quantum dimensions as (check name, sector
    index, value).
    A module key maps to the m-indices of its (m,1) labels on the
    factors after the Ising one.
    """

    factors: tuple[tuple[int, int], ...]
    sectors: tuple[tuple[str, tuple[tuple[int, int], ...]], ...]
    chain: tuple[int, ...]
    claims: tuple[tuple[str, int, CyclotomicNumber], ...]
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
        chain=(8, 4),
        claims=(
            ("qdim(U3) = (sin(3pi/8)/sin(pi/8))^2", 2,
             (two_i_sin(3, 8) * sine_inv(1, 8)) ** 2),
            ("qdim(U9) = 1/sin(pi/8)^2", 8,
             -4 * sine_inv(1, 8) ** 2),
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
        chain=(4, 2),
        claims=(
            ("qdim(U5) = sqrt(2)sin(pi/3)/sin(pi/12)", 4,
             (zeta(8) + zeta(8, -1)) * two_i_sin(1, 3) * sine_inv(1, 12)),
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
            for sector in _matched(alg, a, b)[1]:
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
        checks.append(ChainCheck(name, got == value, f"value {got}"))
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


class _Replay(NamedTuple):
    """What the printed elimination of one sector system claims; see
    solve_sector_system for how each field is checked."""

    unknowns: tuple[str, ...]
    equations: Callable[[], tuple[SectorEquation, ...]]
    nonzero: tuple[tuple[str, Callable[[dict], CyclotomicNumber]], ...]
    identities: tuple[tuple[str, Callable[[], tuple]], ...]
    full_rank: tuple[tuple[str, tuple[int, ...]], ...]
    solution: tuple[CyclotomicNumber, ...] | None
    steps: tuple[str, ...]


def _row_rule(ks: tuple[int, ...]) -> tuple[SectorEquation, ...]:
    # Both 5A systems obey one row rule: in row (i, j) the unknown of
    # column k has coefficient B[k,i]*Bt[k,j] - [k = i = j].
    return tuple(
        SectorEquation(f"({i},{j})", tuple(
            _b(k, i) * _bt(k, j) - 1 if k == i == j else _b(k, i) * _bt(k, j) for k in ks
        ), _ZERO)
        for i, j in _ROWS_9
    )


def _minor(index: int) -> CyclotomicNumber:
    # m1 (0) or m2 (1), looked up at call time so that a replaced fact is read
    return braiding.lemma_5a_combos()[index]


_ELIMINATION = "elimination identity failed"

# Existence has unknowns for k = 2, 3, 4: the pairwise products of
# structure constants that the crossing relation on (U3, U4, U4, U3) ties
# together.  Uniqueness has them for k = 3, 4: differences of the same
# relation for two candidate structures, linear in 1-mu^2 and
# 1-gamma^2.  3C keeps its constant side.
_REPLAYS = {
    "5A-existence": _Replay(
        unknowns=("u", "v", "w"),
        equations=partial(_row_rule, (2, 3, 4)),
        nonzero=(("the (4,4)/(2,3) minor", lambda rows: _minor(0)),),
        identities=(
            (_ELIMINATION, lambda: ((("(3,2)", _b(4, 4)), ("(4,2)", -_b(4, 3))),
                                    (_minor(0) * _bt(2, 2), None, _ZERO))),
            (_ELIMINATION, lambda: ((("(3,2)", _b(2, 4)), ("(4,2)", -_b(2, 3))),
                                    (_ZERO, None, -(_minor(0) * _bt(4, 2))))),
        ),
        # the (u, w) columns are the v = 0 branch, the (u, v) ones its mirror
        full_rank=(("the v = 0 branch", (0, 2)), ("the w = 0 branch", (0, 1))),
        solution=None,
        steps=(
            "assume v = 0; rows (2,2), (3,2), (4,2) close in u and w alone",
            "rows (3,2) and (4,2) eliminate to u * m1 * Bt[2,2] = 0 "
            "and w * m1 * Bt[4,2] = 0, m1 = B[4,4]B[2,3] - B[4,3]B[2,4]",
            "m1 != 0 (exact) and u != 0, so Bt[2,2] = 0 and w * Bt[4,2] = 0",
            "row (2,2) then collapses to u = 0, contradicting u != 0",
            "so v != 0; the mirrored elimination rules out w = 0 the same way",
        ),
    ),
    "5A-uniqueness": _Replay(
        unknowns=("1 - mu^2", "1 - gamma^2"),
        equations=partial(_row_rule, (3, 4)),
        nonzero=(
            ("the (3,2)/(4,4) minor", lambda rows: _minor(1)),
            ("row (4,3) pivot", lambda rows: rows["(4,3)"][1]),
        ),
        identities=(
            (_ELIMINATION, lambda: ((("(2,3)", _b(4, 4)), ("(4,3)", -_b(4, 2))),
                                    (_minor(1) * _bt(3, 3), _ZERO))),
            (_ELIMINATION, lambda: ((("(2,3)", _b(3, 4)), ("(4,3)", -_b(3, 2))),
                                    (_ZERO, -(_minor(1) * _bt(4, 3))))),
        ),
        full_rank=(("coefficient matrix", (0, 1)),),
        solution=(_ZERO, _ZERO),
        steps=(
            "rows (2,3) and (4,3) eliminate to (1-mu^2) * m2 * Bt[3,3] = 0 "
            "and (1-gamma^2) * m2 * Bt[4,3] = 0, m2 = B[3,2]B[4,4] - B[4,2]B[3,4]",
            "m2 != 0 (exact); if 1-mu^2 were nonzero, Bt[3,3] = 0 would follow",
            "row (3,3) then collapses to 1-mu^2 = 0, a contradiction, so mu^2 = 1",
            "with 1-mu^2 = 0, row (4,3) reads (1-gamma^2) * B[4,4]Bt[4,3] = 0",
            "B[4,4]Bt[4,3] != 0 (exact), so gamma^2 = 1",
            "a diagonal rescale by (1, lambda mu gamma, gamma, mu) matches the structures",
        ),
    ),
    "3C": _Replay(
        unknowns=("lambda^2",),
        equations=lambda: (
            SectorEquation("(2,1)", (_e3c(2, 1),), _e3c(2, 1)),
            SectorEquation("(2,2)", (_e3c(2, 2) - 1,), _e3c(2, 2) - 1),
        ),
        nonzero=(("the (2,1) braid entry", lambda rows: braiding.lemma_3c_entry()),),
        identities=(("system coefficients drifted from the braid matrix",
                     lambda: ((("(2,1)", _ONE),), (braiding.lemma_3c_entry(),))),),
        full_rank=(),
        solution=(_ONE,),
        steps=(
            "row (2,1) reads (1 - lambda^2) * B[2,1] = 0",
            "B[2,1] != 0 (exact), so lambda^2 = 1",
            "row (2,2) holds identically at lambda^2 = 1",
            "a diagonal rescale by lambda on the odd sector matches the two structures",
        ),
    ),
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
    names = tuple(_REPLAYS)
    canonical = {n.upper(): n for n in names}.get(key)
    if canonical is None:
        raise ValueError(f"unknown system {name!r}, expected one of {names}")
    replay = _REPLAYS[canonical]
    return SectorSystem(canonical, replay.unknowns, replay.equations())


def solve_sector_system(system: SectorSystem) -> SolutionSet:
    """Replay the published elimination, reading the system's table entry.

    Each fact a printed step rests on is checked exactly, in this order,
    and the first that fails raises DegenerateSystem naming it: the
    values a step cancels are nonzero (m1, m2, the row (4,3) pivot
    B[4,4]Bt[4,3], the 3C entry B[2,1]); each listed column set has full
    rank, by echelon (uniqueness: both columns; existence: (u, w) for
    v = 0 and (u, v) for w = 0); each identity holds, its weighted sum
    of rows equal to its target on every column not None (the four
    printed eliminations, and 3C's row (2,1) carrying exactly B[2,1]);
    the claimed solution satisfies every row, by substitution.  The
    solution, None for a contradiction, and the steps are the table's.
    """
    name = system.name
    replay = _REPLAYS.get(name)
    if replay is None:
        raise ValueError(f"unknown system {name!r}")
    rows = {eq.label: eq.coefficients for eq in system.equations}
    for fact, value in replay.nonzero:
        if value(rows).is_zero():
            raise DegenerateSystem(f"{name}: {fact} vanishes")
    for fact, columns in replay.full_rank:
        matrix = [[row[k] for k in columns] for row in rows.values()]
        if len(echelon(matrix)[1]) < len(columns):
            raise DegenerateSystem(f"{name}: {fact} is rank deficient")
    for fact, identity in replay.identities:
        weights, target = identity()
        for k, want in enumerate(target):
            if want is not None and want != sum(
                    (w * rows[label][k] for label, w in weights), _ZERO):
                raise DegenerateSystem(f"{name}: {fact}")
    if replay.solution is None:
        return SolutionSet("contradiction", (), replay.steps)
    for eq in system.equations:
        if sum(map(mul, eq.coefficients, replay.solution), _ZERO) != eq.rhs:
            raise DegenerateSystem(f"{name}: claimed solution fails relation {eq.label}")
    return SolutionSet("unique", tuple(zip(system.unknowns, replay.solution)), replay.steps)


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
