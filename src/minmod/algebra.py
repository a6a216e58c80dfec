"""The verify battery of the 5A and 3C extension algebras.

The algebras themselves, their sectors and irreducible modules, are data
in `sectors`.  Here they are checked against the paper, on the fusion
and braiding machinery: the exact lemma facts of the two braiding
matrices the uniqueness proofs pivot on, closure and quantum dimensions
of the subalgebra chains, the small linear systems satisfied by products
of structure constants, and the fusion-ring axioms of the module fusion
rules.  `claims(target)` gives the rows of every `mm verify` target.
"""

from functools import lru_cache, partial
from itertools import chain
from operator import mul
from typing import Callable, NamedTuple

from . import braiding
from .braiding import BraidMatrix, _brackets, named_label
from .exact import CyclotomicNumber, echelon, sine_inv, two_i_sin, zeta
from .minimal import MinimalModel, Side, qdim_tensor
from .sectors import (
    GradedAlgebra, IrreducibleModuleSpec, Sector, SectorProduct, _matched, build_algebra,
    irreducible_module, irreducible_modules, module_fusion, qdim_module, sector_fusion,
)

# minmod looks the sectors names listed here up in this module, and the
# bench traces algebra.sector_fusion and algebra.module_fusion
__all__ = [
    "ChainCheck", "DegenerateSystem", "GradedAlgebra", "IrreducibleModuleSpec", "RingCheck",
    "Sector", "SectorEquation", "SectorProduct", "SectorSystem", "SolutionSet", "TARGETS",
    "build_algebra", "build_sector_system", "check_fusion_ring", "check_subalgebra_chain",
    "claims", "irreducible_module", "irreducible_modules", "lemma_3c_entry", "lemma_5a_combos",
    "lemma_claims", "module_fusion", "named_entry", "named_matrix", "qdim_module",
    "sector_fusion", "solve_sector_system",
]


class DegenerateSystem(ArithmeticError):
    """A pivot that the solver relies on turned out to be zero."""


_ONE = CyclotomicNumber.from_rational(1)
_ZERO = CyclotomicNumber.from_rational(0)


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


# Per algebra: the sizes n of the halving chain of subalgebras U1..Un, and
# the paper's quantum dimensions as (check name, sector index, value).
_CHAINS = {
    "5A": ((8, 4), (
        ("qdim(U3) = (sin(3pi/8)/sin(pi/8))^2", 2,
         (two_i_sin(3, 8) * sine_inv(1, 8)) ** 2),
        ("qdim(U9) = 1/sin(pi/8)^2", 8,
         -4 * sine_inv(1, 8) ** 2),
    )),
    "3C": ((4, 2), (
        ("qdim(U5) = sqrt(2)sin(pi/3)/sin(pi/12)", 4,
         (zeta(8) + zeta(8, -1)) * two_i_sin(1, 3) * sine_inv(1, 12)),
    )),
}


def check_subalgebra_chain(alg: GradedAlgebra) -> tuple[ChainCheck, ...]:
    """Closure and relative quantum dimension of the simple-current chains."""
    sizes, claimed = _CHAINS[alg.name]
    s = alg.sectors
    checks = []
    top = len(s)
    for n in sizes:
        checks.append(_closure_check(alg, s[:n], f"U1..U{n} closed"))
        checks.append(_ratio_check(
            s[n:top], s[:n], f"qdim({_span(n + 1, top)})/qdim({_span(1, n)}) = 1"
        ))
        top = n
    for name, index, value in claimed:
        got = qdim_tensor(s[index].components).exact
        checks.append(ChainCheck(name, got == value, f"value {got}"))
    return tuple(checks)


# ---------------------------------------------------------------------------
# The lemma matrices: both uniqueness proofs pivot on one braiding matrix
# with named externals, B_{3,3}^{4,4} at (7,8) for 5A and B_{2,2}^{2,2}
# at (11,12) for 3C, whose exact facts are the lemma targets' rows.

@lru_cache(maxsize=None)
def named_matrix(p: int, ext: tuple[int, int, int, int]) -> BraidMatrix:
    """The braiding matrix at (p, p+1) whose externals are named modules;
    the paper reads B_{4,4}^{3,3} at (7,8) too."""
    model = MinimalModel(p, p + 1)
    # read through the module, so that a replaced braid_matrix is the one called
    return braiding.braid_matrix(model, tuple(named_label(model, i) for i in ext))


def named_entry(p: int, ext: tuple[int, int, int, int], i: int, j: int) -> CyclotomicNumber:
    """Entry (i, j) of named_matrix(p, ext), the channels named too."""
    model = MinimalModel(p, p + 1)
    return named_matrix(p, ext).entry(named_label(model, i), named_label(model, j))


# the two as (p, ext) of named_matrix, and their entries (i, j), channels named too
_MATRIX_5A, _MATRIX_3C = (7, (3, 3, 4, 4)), (11, (2, 2, 2, 2))
_b = partial(named_entry, *_MATRIX_5A)
_e3c = partial(named_entry, *_MATRIX_3C)


@lru_cache(maxsize=None)
def lemma_5a_combos() -> tuple[CyclotomicNumber, CyclotomicNumber]:
    """The two 2x2 minors of B_{3,3}^{4,4} at (7,8) that the nonvanishing
    argument rests on, (B44*B23 - B43*B24, B32*B44 - B42*B34), the numeric
    subscripts naming the modules P2, P3, P4."""
    first = _b(4, 4) * _b(2, 3) - _b(4, 3) * _b(2, 4)
    second = _b(3, 2) * _b(4, 4) - _b(4, 2) * _b(3, 4)
    return first, second


def lemma_3c_entry() -> CyclotomicNumber:
    """The entry (B_{2,2}^{2,2})_{2,1} at (11,12), exactly."""
    return _e3c(2, 1)


def lemma_claims(lemma: str) -> list:
    """The exact facts of the "5A" or "3C" uniqueness proof, as rows
    (name, value, want): value == want, or value nonzero when want is None.
    The forms are in the primed side's brackets and its y = power(4)."""
    if lemma == "3C":
        t, entry = Side(12, 11), lemma_3c_entry()
        product = (t.power(24) * (t[1] + t[3]) * (t[4] * (t[1] + t[3]) + _brackets(t, 1, 2))
                   * _brackets(t, 1, 1, 1, -2, -2, -2, -3, 10, 9, 8, -7, -6, -5, -3, -4))
        return [("B21 nonzero", entry, None),
                ("B21 matches its bracket product", entry, product),
                ("det B nonzero", named_matrix(*_MATRIX_3C).det(), None)]
    t = Side(8, 7)
    first, second = lemma_5a_combos()
    form_44 = _brackets(t, 6, 3, -5, -4) - _brackets(t, 1, 1, -5, -5, -6) * (t[4] + t[6])
    form_24 = -t.power(-12) * _brackets(t, 1, 7) * (_brackets(t, -5, -5, -4) * (t[4] + t[6])
                                                   + _brackets(t, -6, -6, -5) * (t[5] + t[7]))
    return [
        ("B44*B23 - B43*B24 nonzero", first, None),
        ("B32*B44 - B42*B34 = 1 + i", second, _ONE + zeta(4)),
        ("B32*B44 = (sqrt(2) - 1)/y", _b(3, 2) * _b(4, 4),
         (zeta(8) + zeta(8, -1) - _ONE) * t.power(-4)),
        ("B42*B34 = -1/y", _b(4, 2) * _b(3, 4), -t.power(-4)),
        ("B44 matches its bracket form", _b(4, 4), form_44),
        ("B43 matches its bracket form", _b(4, 3), t.power(8) * _brackets(t, 1, 6, -4, -5)),
        ("B24 matches its bracket form", _b(2, 4), form_24),
        ("B23 = [6]'[7]'/(y [4]' [5]')", _b(2, 3), t.power(-4) * _brackets(t, 6, 7, -4, -5)),
        ("det B nonzero", named_matrix(*_MATRIX_5A).det(), None),
    ]


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
    return lemma_5a_combos()[index]


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
        nonzero=(("the (2,1) braid entry", lambda rows: lemma_3c_entry()),),
        identities=(("system coefficients drifted from the braid matrix",
                     lambda: ((("(2,1)", _ONE),), (lemma_3c_entry(),))),),
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
# The verify targets: each is a list of rows (name, status, value), status
# pass, fail or info and value a field element, a message or None.

class RingCheck(NamedTuple):
    """The first counterexample to each fusion-ring axiom, None where it holds.

    unit is (a,) with unit x a != a, commutative is (a, b) with
    a x b != b x a, associative is (a, b, c) with (a x b) x c != a x (b x c).
    """

    unit: tuple | None = None
    commutative: tuple | None = None
    associative: tuple | None = None


def check_fusion_ring(keys, multiply, unit) -> RingCheck:
    """Check the unit, commutativity and associativity axioms over all keys.

    multiply(a, b) returns a mapping (or FusionMultiset) from labels to
    multiplicities; it is evaluated once per pair, and keys need not be
    closed under it.  Associativity compares (a x b) x c with a x (b x c)
    for every triple of keys.
    """
    keys = tuple(keys)
    table = {}

    def counts(a, b):
        if (a, b) not in table:
            table[(a, b)] = {c: n for c, n in multiply(a, b).items() if n}
        return table[(a, b)]

    unit_bad = next(((a,) for a in keys if counts(unit, a) != {a: 1}), None)
    comm_bad = next(((a, b) for a in keys for b in keys if counts(a, b) != counts(b, a)), None)
    # Fill in every product the associativity sums read, then go over to
    # integer ids.  A product's multiplicity vector packs into one
    # integer, a signed digit per label wide enough for any sum of
    # products, so each side of a triple is a short integer sum.
    outputs = dict.fromkeys(c for a in keys for b in keys for c in counts(a, b))
    for c in outputs:
        for a in keys:
            counts(a, c)
            counts(c, a)
    labels = dict.fromkeys(chain((unit,), keys, *table.values()))
    ids = {x: i for i, x in enumerate(labels)}
    bound = max((sum(map(abs, v.values())) for v in table.values()), default=0)
    width = (bound * bound).bit_length() + 2
    terms = [[()] * len(ids) for _ in ids]
    packed = [[0] * len(ids) for _ in ids]
    for (a, b), v in table.items():
        terms[ids[a]][ids[b]] = tuple((ids[c], n) for c, n in v.items())
        packed[ids[a]][ids[b]] = sum(n << width * ids[c] for c, n in v.items())
    index = [ids[k] for k in keys]
    assoc_bad = next(((keys[i], keys[j], keys[k])
                      for i, a in enumerate(index) for j, b in enumerate(index)
                      for k, c in enumerate(index)
                      if sum(n * packed[e][c] for e, n in terms[a][b])
                      != sum(n * packed[a][f] for f, n in terms[b][c])), None)
    return RingCheck(unit_bad, comm_bad, assoc_bad)


def _replay(system: str, fail_name: str, claim: str, shown: str | None = None) -> list:
    """The claim row and the printed steps of one solved sector system, or
    one fail row when a fact the elimination relies on does not hold.
    The claim row shows the solved value of the unknown `shown`, if any."""
    try:
        solution = solve_sector_system(build_sector_system(system))
    except DegenerateSystem as exc:
        return [(fail_name, "fail", str(exc))]
    return [(claim, "pass", None if shown is None else solution.value(shown)),
            *((step, "info", None) for step in solution.steps)]


def _uniqueness_5a() -> list:
    rows = _replay("5A-uniqueness", "uniqueness replay",
                   "unique solution: mu^2 = 1 and gamma^2 = 1")
    rows += _replay("5A-existence", "existence replay",
                    "even-sector coefficient forced nonzero")
    # Report only: with every structure constant 1, crossing would need
    # sum_k B[k,i]*Bt[k,j] = delta(i,j).  The raw braid normalization does
    # not promise it; row (i,j) of the existence system is that identity
    # with its coefficients split out, so the residual is their sum.
    for equation in build_sector_system("5A-existence").equations:
        rows.append((f"closure residual {equation.label}", "info",
                     sum(equation.coefficients, _ZERO)))
    return rows


def _lemma(name: str) -> list:
    # a claim passes when its value equals its want, or is nonzero for None
    return [(row, "pass" if (not value.is_zero() if want is None else value == want)
             else "fail", value)
            for row, value, want in lemma_claims(name)]


def _chains(name: str) -> list:
    return [(c.name, "pass", None) if c.passed else (f"{c.name} ({c.detail})", "fail", None)
            for c in check_subalgebra_chain(build_algebra(name))]


def _fusion(name: str) -> list:
    alg = build_algebra(name)
    modules = irreducible_modules(alg)
    keys = [m.key for m in modules]
    table = {(a, b): module_fusion(alg, a, b) for a in keys for b in keys}
    ring = check_fusion_ring(keys, lambda a, b: table[(a, b)], keys[0])
    dims = {k: qdim_module(alg, k).exact for k in keys}
    facts = {
        f"{len(modules)} irreducible modules": len({m.components for m in modules}) == len(modules),
        "vacuum module is the unit": ring.unit is None,
        "fusion is commutative": ring.commutative is None,
        "fusion is associative": ring.associative is None,
        "quantum dimension is multiplicative": all(
            dims[a] * dims[b] == sum((dims[k] for k in table[(a, b)]), _ZERO)
            for a in keys for b in keys),
    }
    return [(fact, "pass" if ok else "fail", None) for fact, ok in facts.items()]


# the `mm verify` targets answered here, in the order `verify all` runs them
TARGETS = {
    "lemma-5a": partial(_lemma, "5A"),
    "lemma-3c": partial(_lemma, "3C"),
    "uniqueness-5a": _uniqueness_5a,
    "uniqueness-3c": partial(_replay, "3C", "uniqueness replay",
                             "unique solution: lambda^2 = 1", "lambda^2"),
    "chains-5a": partial(_chains, "5A"),
    "chains-3c": partial(_chains, "3C"),
    "fusion-5a": partial(_fusion, "5A"),
    "fusion-3c": partial(_fusion, "3C"),
}


def claims(target: str) -> list:
    """The rows (name, status, value) of one verify target of TARGETS."""
    return TARGETS[target]()
