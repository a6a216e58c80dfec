"""Braiding matrices for unitary minimal models, built exactly.

The matrix (B_{a4,a1}^{a3,a2})_{mu,gamma} factorizes, up to an explicit
prefactor, into two chiral pieces r'(...) and r(...), each one quantum
6j sum past its base cases.  They are evaluated on the model's two
minimal.Side objects: r' on the q = p + 1 side (the paper's primed
side), r on the p side.  A side's brackets and bracket inverses are
sines in Q(zeta_{2q}) or Q(zeta_{2p}), and its quarter powers of the
deformation parameter put r' in Q(zeta_{4q}) and r in Q(zeta_{4p}).
Only a braiding-matrix entry multiplies the two up to Q(zeta_{4pq}), and
stays in the smaller field when one side is trivial.
"""

from collections import Counter
from math import prod
from typing import NamedTuple

from .exact import CyclotomicNumber, DivisionByZero, echelon, zeta
from .minimal import MinimalModel, ModelMismatch, ModuleLabel, NonUnitaryModel, Side, fuse


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


class RQuery(NamedTuple):
    """One chiral r-matrix evaluation r(a, m, n, c)_{b, d} on one side."""

    side: Side
    a: int
    m: int
    n: int
    c: int
    b: int
    d: int

    def indices(self) -> tuple[int, int, int, int, int, int]:
        return self[1:]


_R_MEMO: dict[RQuery, CyclotomicNumber] = {}

_ZERO = CyclotomicNumber.from_rational(0)
_ONE = CyclotomicNumber.from_rational(1)


def memoized_queries() -> tuple[RQuery, ...]:
    """Snapshot of every query evaluated so far (diagnostics, property tests)."""
    return tuple(_R_MEMO)


def _supported(query: RQuery) -> bool:
    side, a, m, n, c, b, d = query
    return (
        side.admissible(m, b, a)
        and side.admissible(n, c, b)
        and side.admissible(n, d, a)
        and side.admissible(m, c, d)
    )


def r_matrix(query: RQuery) -> CyclotomicNumber:
    """Evaluate one chiral r-matrix entry exactly.

    Entries whose indices are compatible in range but not linked by the
    fusion constraints are exactly zero.  Indices outside the open
    range of the side raise IndexOutOfRange.

    m = 1 and n = 1 give 0 or 1.  Every other supported entry is the
    quantum 6j-symbol {A N B; C M D} of Kauffman-Lins (Temperley-Lieb
    Recoupling Theory, 1994) in colours A, ..., D = a - 1, ..., d - 1,
    in the vertex gauge of Felder-Froehlich-Keller (CMP 124, 1989) and
    times the Casimir phase q^{(a^2+c^2-b^2-d^2)/8}.  With the lows L,
    highs H and ups U of _r_value, and [k]! = [1][2]...[k] in the side's
    brackets, it is eps power((a^2+c^2-b^2-d^2)/2) [d] times

        sum_{max L <= s <= min H} (-1)^s [s+1]! prod_U [u]!
            / ([L3+1]! [L4+1]! prod_i [s-L_i]! prod_j [H_j-s]!)

    with eps = (-1)^((a+c-b-d)/2 + L1 + L2 + B).  Each term has as many
    brackets above the line as below.  The tests check it exactly
    against the recursion that peels m.
    """
    cached = _R_MEMO.get(query)
    if cached is not None:
        return cached
    bound = query.side.bound
    if not all(0 < x < bound for x in query.indices()):
        raise IndexOutOfRange(f"{query} outside 1..{bound - 1}")
    value = _r_value(query)
    _R_MEMO[query] = value
    return value


def _brackets(side: Side, *ls: int) -> CyclotomicNumber:
    # prod [l] over ls, with 1/[-l] for each l < 0.  On Side(b, o),
    # [l + b] = (-1)^o [l] and [b - l] = (-1)^(o+1) [l], so each l folds to
    # f = min(l mod b, b - l mod b) with that sign, and ups cancel downs
    # of the same f.  A [0 mod b] makes the product zero, or raises
    # DivisionByZero below the line.
    b, o = side.bound, side.other
    tally, flip, vanishes = Counter(), 0, False
    for l in ls:
        k, f = divmod(abs(l), b)
        if f == 0:
            if l < 0:
                raise DivisionByZero("inverse of zero")
            vanishes = True
        elif 2 * f > b:
            f = b - f
            flip += o + 1
        flip += k * o
        tally[f] += 1 if l > 0 else -1
    if vanishes:
        return _ZERO
    value = _ONE
    for f, count in tally.items():
        factor = side[f] if count > 0 else side.inv(f)
        for _ in range(abs(count)):
            value = factor if value is _ONE else value * factor
    return -value if flip % 2 else value


def _factorial_ratio(side: Side, ups, downs) -> CyclotomicNumber:
    # prod [u]! / prod [v]!, where [l] occurs #{u >= l} - #{v >= l} times
    tally, run, ls = Counter(ups), 0, []
    tally.subtract(downs)
    for l in range(max(tally), 0, -1):
        run += tally[l]
        ls += [l if run > 0 else -l] * abs(run)
    return _brackets(side, *ls)


def _r_value(query: RQuery) -> CyclotomicNumber:
    if not _supported(query):
        return _ZERO
    side = query.side
    a, m, n, c, b, d = query.indices()
    if m == 1:
        return _ONE if (b, d) == (a, c) else _ZERO
    if n == 1:
        return _ONE if (b, d) == (c, a) else _ZERO
    # the 6j sum (see r_matrix); signs cost no product
    A, M, N, C, B, D = (x - 1 for x in query.indices())
    lows = ((A + M + B) // 2, (N + C + B) // 2, (A + N + D) // 2, (C + M + D) // 2)
    highs = ((N + M + B + D) // 2, (A + C + B + D) // 2, (A + N + C + M) // 2)
    ups = ((M + B - A) // 2, (A + M - B) // 2, (N + C - B) // 2,
           (N + B - C) // 2, (A + D - N) // 2, (C + D - M) // 2)
    total = _ZERO
    for s in range(max(lows), min(highs) + 1):
        downs = (lows[2] + 1, lows[3] + 1, *(s - l for l in lows), *(h - s for h in highs))
        term = _factorial_ratio(side, (s + 1, *ups), downs)
        total = total - term if s % 2 else total + term
    value = side.power((a * a + c * c - b * b - d * d) // 2) * side[d] * total
    return -value if ((a + c - b - d) // 2 + lows[0] + lows[1] + B) % 2 else value


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

    Each label's Kac pair is read against model.sides: its m indexes r on
    the p side, its n indexes r' on the q side.  The prefactor is a power
    of i = zeta_4 times a sign whose exponent must come out integral; the
    sign is folded into the power of i.
    """
    a4, a1, a3, a2 = externals
    _check_labels(model, (*externals, mu, gamma))
    # the six indices of r(a, m, n, c)_{b,d}, one tuple per side
    indices = tuple(zip(*(x.kac for x in (a2, a4, a1, a3, mu, gamma))))
    (a, m, n, c, b, d), (a_p, m_p, n_p, c_p, b_p, d_p) = indices
    ipow = -(m_p - 1) * (n - 1) - (n_p - 1) * (m - 1)
    doubled = (a - b + c - d) * (n_p + m) + (a_p - b_p + c_p - d_p) * (n + m)
    if doubled % 2:
        raise NonIntegerExponent(f"sign exponent {doubled}/2 for {externals}")
    unprimed, primed = (r_matrix(RQuery(side, *i)) for side, i in zip(model.sides, indices))
    # the sign (-1)^(doubled/2) is i^doubled
    return zeta(4, ipow + doubled) * primed * unprimed


def _check_labels(model: MinimalModel, labels) -> None:
    if not model.is_unitary:
        raise NonUnitaryModel(f"{model!r} has no braiding data here")
    if any(x.model != model for x in labels):
        raise ModelMismatch(f"labels {labels} do not all belong to {model!r}")


def braid_channels(model: MinimalModel, externals) -> tuple[tuple, tuple]:
    """The rows and cols of the braiding matrix on externals, as in
    BraidMatrix; an entry off them is exactly zero."""
    _check_labels(model, externals)
    a4, a1, a3, a2 = externals
    a3a4, a3a1 = fuse(a3, a4), fuse(a3, a1)
    return (tuple(x for x in fuse(a2, a1) if x in a3a4),
            tuple(x for x in fuse(a2, a4) if x in a3a1))


def braid_matrix(model: MinimalModel, externals) -> BraidMatrix:
    """Assemble the full braiding matrix over fusion-allowed channels."""
    rows, cols = braid_channels(model, externals)
    entries = {
        (mu, ga): braid_entry(model, tuple(externals), mu, ga)
        for mu in rows
        for ga in cols
    }
    return BraidMatrix(
        external=tuple(externals), rows=rows, cols=cols, entries=entries
    )

