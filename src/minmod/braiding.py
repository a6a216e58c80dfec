"""Braiding matrices for unitary minimal models, built exactly.

The matrix (B_{a4,a1}^{a3,a2})_{mu,gamma} factorizes, up to an explicit
prefactor, into two chiral pieces r'(...) and r(...), each given by base
cases at m = 1 and n = 1, a closed-form row at m = 2 and a recursion
that peels m down to that row.  The chiral pieces live on the q = p + 1
and p sides respectively.  Their quantum brackets and bracket inverses
are sines in Q(zeta_{2q}) and Q(zeta_{2p}), and the quarter powers of
the deformation parameter put r' in Q(zeta_{4q}) and r in Q(zeta_{4p}).
Only a braiding-matrix entry multiplies the two up to Q(zeta_{4pq}), and
stays in the smaller field when one side is trivial.  Every nonvanishing
claim is a decidable coefficient comparison.
"""

from __future__ import annotations

from functools import lru_cache, partial
from math import prod
from typing import NamedTuple

from .exact import CyclotomicNumber, echelon, sine_inv, two_i_sin, zeta
from .minimal import (
    MinimalModel,
    ModelMismatch,
    ModuleLabel,
    NonUnitaryModel,
    ffk_pair,
    fuse,
    _side_admissible,
)


class IndexOutOfRange(ValueError):
    """A chiral r-matrix index left the open range of its side."""


class NonIntegerExponent(ArithmeticError, ValueError):
    """The half-integer sign exponent of the prefactor failed to be integral.

    Also a ValueError: the externals are outside the inputs the prefactor
    is defined for, so ``mm`` treats it as an unusable argument."""


# The modules the write-up enumerates: P1..P4 for (7,8) and U1, U2 for
# the (11,12) factor.  Hard data, also the index scheme of the CLI.
_NAMED_KAC = {
    (7, 8): {1: (1, 1), 2: (1, 7), 3: (1, 3), 4: (1, 5)},
    (11, 12): {1: (1, 1), 2: (1, 7)},
}


def named_label(model: MinimalModel, index: int) -> ModuleLabel:
    """The module a bare integer index refers to for this model."""
    try:
        m, n = _NAMED_KAC[(model.p, model.q)][index]
    except KeyError:
        raise KeyError(f"no named module {index} for {model!r}") from None
    return model.label(m, n)


class BracketTable:
    """Quantum brackets of one chirality.

    primed:   [l]' = y^{l/2} - y^{-l/2}, y for exp(2*pi*i*p/q), bound q
    unprimed: [l]  = x^{l/2} - x^{-l/2}, x for exp(2*pi*i*q/p), bound p

    With b the bound and o the other index, [l] is 2i*sin(pi*l*o/b), so
    every bracket and inverse comes from the cached exact.two_i_sin and
    exact.sine_inv in Q(zeta_{2b}).  (x or y)^{1/4} is the root
    zeta_{4b}^o, so power(k), the quarter power (x or y)^{k/4}, lives in
    Q(zeta_{4b}): Q(zeta_{4q}) on the primed side, Q(zeta_{4p}) on the
    unprimed side.  Brackets satisfy [0] = 0 and [-l] = -[l].
    """

    __slots__ = ("bound", "_other")

    def __init__(self, model: MinimalModel, variant: str) -> None:
        if not model.is_unitary:
            raise NonUnitaryModel(f"{model!r} has no chiral bracket data")
        if variant not in ("primed", "unprimed"):
            raise ValueError(f"unknown variant {variant!r}")
        if variant == "primed":
            self.bound, self._other = model.q, model.p
        else:
            self.bound, self._other = model.p, model.q

    def power(self, k: int) -> CyclotomicNumber:
        return zeta(4 * self.bound, k * self._other)

    def __getitem__(self, l: int) -> CyclotomicNumber:
        return two_i_sin(l * self._other, self.bound)

    def inv(self, l: int) -> CyclotomicNumber:
        return sine_inv(l * self._other, self.bound)


@lru_cache(maxsize=None)
def brackets(model: MinimalModel, variant: str) -> BracketTable:
    return BracketTable(model, variant)


class RQuery(NamedTuple):
    """One chiral r-matrix evaluation r(a, m, n, c)_{b, d}."""

    model: MinimalModel
    variant: str
    a: int
    m: int
    n: int
    c: int
    b: int
    d: int

    def indices(self) -> tuple[int, int, int, int, int, int]:
        return self[2:]


_R_MEMO: dict[RQuery, CyclotomicNumber] = {}

_ZERO = CyclotomicNumber.from_rational(0)
_ONE = CyclotomicNumber.from_rational(1)


def memoized_queries() -> tuple[RQuery, ...]:
    """Snapshot of every query evaluated so far (diagnostics, property tests)."""
    return tuple(_R_MEMO)


def _supported(q: RQuery, bound: int) -> bool:
    a, m, n, c, b, d = q.indices()
    return (
        _side_admissible(m, b, a, bound)
        and _side_admissible(n, c, b, bound)
        and _side_admissible(n, d, a, bound)
        and _side_admissible(m, c, d, bound)
    )


def _splittings(bound: int, a: int, m: int, b: int) -> list[int]:
    # candidates a1 adjacent to a with (m-1, b, a1) admissible
    return [
        a1
        for a1 in (a - 1, a + 1)
        if 0 < a1 < bound and _side_admissible(m - 1, b, a1, bound)
    ]


def r_matrix(query: RQuery) -> CyclotomicNumber:
    """Evaluate one chiral r-matrix entry exactly.

    Entries whose indices are compatible in range but not linked by the
    fusion constraints are exactly zero.  Indices outside the open
    range of the side raise IndexOutOfRange.

    A supported m = 2 entry is closed form.  With e = b - a and
    f = d - c, each +-1, and q the side's deformation parameter x or y,

        r(a, 2, n, c)_{b,d} = -f q^{(-e*a - f*c - 1)/4} [(e*a - f*c + n)/2] / [c].

    At n = 2 it is the table of Felder-Froehlich-Keller (CMP 124, 1989),
    and it keeps their step that peels n: both terms of the sum carry
    the same quarter power, and the brackets collapse by
    [x][y] - [x-1][y+1] = [1][y-x+1].  The tests check it exactly against
    that recursion, and the step up to p = 59.  For m > 2 the recursion
    peels m through the smallest admissible splitting index; the tests
    check that every other choice gives the same value.
    """
    cached = _R_MEMO.get(query)
    if cached is not None:
        return cached
    table = brackets(query.model, query.variant)
    bound = table.bound
    if not all(0 < x < bound for x in query.indices()):
        raise IndexOutOfRange(f"{query} outside 1..{bound - 1}")
    value = _r_value(query, table)
    _R_MEMO[query] = value
    return value


def _sub(query: RQuery, a, m, n, c, b, d) -> CyclotomicNumber:
    return r_matrix(RQuery(query.model, query.variant, a, m, n, c, b, d))


def _r_value(query: RQuery, table: BracketTable) -> CyclotomicNumber:
    bound = table.bound
    if not _supported(query, bound):
        return _ZERO
    a, m, n, c, b, d = query.indices()
    if m == 1:
        return _ONE if (b, d) == (a, c) else _ZERO
    if n == 1:
        return _ONE if (b, d) == (c, a) else _ZERO
    if m == 2:
        # the closed-form row (see r_matrix); the sign -f costs no product
        e, f = b - a, d - c
        value = table.power(-e * a - f * c - 1) * table[(e * a - f * c + n) // 2] * table.inv(c)
        return -value if f > 0 else value
    # peel one unit off m; the splitting index a1 is a matter of choice
    a1 = _splittings(bound, a, m, b)[0]
    total = _ZERO
    for d1 in (d - 1, d + 1):
        if 0 < d1 < bound:
            tail = _sub(query, a1, m - 1, n, c, b, d1)
            if tail:
                total = total + _sub(query, a, 2, n, d1, a1, d) * tail
    return total


class BraidMatrix(NamedTuple):
    """A braiding matrix over its fusion-allowed intermediate channels.

    external holds (a4, a1, a3, a2): subscripts first, superscripts
    second.  rows are the channels mu with a3 x mu -> a4 and
    a2 x a1 -> mu; cols the channels gamma with a2 x gamma -> a4 and
    a3 x a1 -> gamma.  Entries off those sets are exactly zero.
    """

    external: tuple[ModuleLabel, ModuleLabel, ModuleLabel, ModuleLabel]
    rows: tuple[ModuleLabel, ...]
    cols: tuple[ModuleLabel, ...]
    entries: dict

    def entry(self, mu: ModuleLabel, gamma: ModuleLabel) -> CyclotomicNumber:
        return self.entries.get((mu, gamma), _ZERO)

    def det(self) -> CyclotomicNumber:
        if len(self.rows) != len(self.cols):
            raise ValueError("determinant of a non-square braiding matrix")
        reduced, pivots, sign = echelon(
            [[self.entry(mu, ga) for ga in self.cols] for mu in self.rows]
        )
        if len(pivots) < len(self.rows):
            return _ZERO
        return sign * prod((row[i] for i, row in enumerate(reduced)), start=_ONE)


def braid_entry(
    model: MinimalModel,
    externals: tuple[ModuleLabel, ModuleLabel, ModuleLabel, ModuleLabel],
    mu: ModuleLabel,
    gamma: ModuleLabel,
) -> CyclotomicNumber:
    """One entry (B_{a4,a1}^{a3,a2})_{mu,gamma} of the factorized form.

    The two-index names are read off ffk_pair; the prefactor is a power
    of i = zeta_4 times a sign whose exponent must come out integral.
    """
    a4, a1, a3, a2 = externals
    n_p, n = ffk_pair(a1)
    m_p, m = ffk_pair(a4)
    c_p, c = ffk_pair(a3)
    a_p, a = ffk_pair(a2)
    b_p, b = ffk_pair(mu)
    d_p, d = ffk_pair(gamma)
    ipow = (-(m_p - 1) * (n - 1) - (n_p - 1) * (m - 1)) % 4
    doubled = (a - b + c - d) * (n_p + m) + (a_p - b_p + c_p - d_p) * (n + m)
    if doubled % 2:
        raise NonIntegerExponent(f"sign exponent {doubled}/2 for {externals}")
    sign = -1 if (doubled // 2) % 2 else 1
    primed = r_matrix(RQuery(model, "primed", a_p, m_p, n_p, c_p, b_p, d_p))
    unprimed = r_matrix(RQuery(model, "unprimed", a, m, n, c, b, d))
    return zeta(4, ipow) * sign * primed * unprimed


def braid_matrix(model: MinimalModel, externals) -> BraidMatrix:
    """Assemble the full braiding matrix over fusion-allowed channels."""
    if not model.is_unitary:
        raise NonUnitaryModel(f"{model!r} has no braiding data here")
    if any(x.model != model for x in externals):
        raise ModelMismatch(f"externals {externals} do not all belong to {model!r}")
    a4, a1, a3, a2 = externals
    a3a4, a3a1 = fuse(a3, a4), fuse(a3, a1)
    rows = tuple(x for x in fuse(a2, a1) if x in a3a4)
    cols = tuple(x for x in fuse(a2, a4) if x in a3a1)
    entries = {
        (mu, ga): braid_entry(model, tuple(externals), mu, ga)
        for mu in rows
        for ga in cols
    }
    return BraidMatrix(
        external=tuple(externals), rows=rows, cols=cols, entries=entries
    )


@lru_cache(maxsize=None)
def named_matrix(p: int, ext: tuple[int, int, int, int]) -> BraidMatrix:
    """The braiding matrix at (p, p+1) whose externals are named modules.

    The paper reads three: B_{3,3}^{4,4} and B_{4,4}^{3,3} at (7,8), and
    B_{2,2}^{2,2} at (11,12).
    """
    model = MinimalModel(p, p + 1)
    return braid_matrix(model, tuple(named_label(model, i) for i in ext))


def named_entry(p: int, ext: tuple[int, int, int, int], i: int, j: int) -> CyclotomicNumber:
    """Entry (i, j) of named_matrix(p, ext), the channels named too."""
    model = MinimalModel(p, p + 1)
    return named_matrix(p, ext).entry(named_label(model, i), named_label(model, j))


def lemma_5a_combos() -> tuple[CyclotomicNumber, CyclotomicNumber]:
    """The two 2x2 minors of B_{3,3}^{4,4} at (7,8) that the nonvanishing
    argument rests on.

    Returns (B44*B23 - B43*B24, B32*B44 - B42*B34) with numeric
    subscripts referring to the named modules P2, P3, P4.
    """
    e = partial(named_entry, 7, (3, 3, 4, 4))
    first = e(4, 4) * e(2, 3) - e(4, 3) * e(2, 4)
    second = e(3, 2) * e(4, 4) - e(4, 2) * e(3, 4)
    return first, second


def lemma_3c_entry() -> CyclotomicNumber:
    """The entry (B_{2,2}^{2,2})_{2,1} at (11,12), exactly."""
    return named_entry(11, (2, 2, 2, 2), 2, 1)
