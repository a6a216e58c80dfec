"""Braiding matrices for unitary minimal models, built exactly.

The matrix (B_{a4,a1}^{a3,a2})_{mu,gamma} factorizes, up to an explicit
prefactor, into two chiral pieces r'(...) and r(...), each one quantum
6j sum past its base cases.  They are evaluated on the model's two
minimal.Side objects: r' on the q = p + 1 side (the paper's primed
side), r on the p side.  A side's brackets and bracket inverses are
sines in Q(zeta_{2q}) or Q(zeta_{2p}), and its quarter powers of the
deformation parameter put r' in Q(zeta_{4q}) and r in Q(zeta_{4p}).
Only a braiding-matrix entry multiplies the two up to Q(zeta_{4pq}), and
stays in the smaller field when one side is trivial.  Every nonvanishing
claim is a decidable coefficient comparison.
"""

from collections import Counter
from functools import lru_cache, partial
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
    of i = zeta_4 times a sign whose exponent must come out integral.
    """
    a4, a1, a3, a2 = externals
    _check_labels(model, (*externals, mu, gamma))
    # the six indices of r(a, m, n, c)_{b,d}, one tuple per side
    indices = tuple(zip(*(x.kac for x in (a2, a4, a1, a3, mu, gamma))))
    (a, m, n, c, b, d), (a_p, m_p, n_p, c_p, b_p, d_p) = indices
    ipow = (-(m_p - 1) * (n - 1) - (n_p - 1) * (m - 1)) % 4
    doubled = (a - b + c - d) * (n_p + m) + (a_p - b_p + c_p - d_p) * (n + m)
    if doubled % 2:
        raise NonIntegerExponent(f"sign exponent {doubled}/2 for {externals}")
    sign = -1 if (doubled // 2) % 2 else 1
    unprimed, primed = (r_matrix(RQuery(side, *i)) for side, i in zip(model.sides, indices))
    return zeta(4, ipow) * sign * primed * unprimed


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


# The paper's two lemma matrices, as (p, ext) of named_matrix, and their
# entries (i, j), channels named too: B_{3,3}^{4,4} at (7,8) for 5A and
# B_{2,2}^{2,2} at (11,12) for 3C
_MATRIX_5A, _MATRIX_3C = (7, (3, 3, 4, 4)), (11, (2, 2, 2, 2))
entry_5a = partial(named_entry, *_MATRIX_5A)
entry_3c = partial(named_entry, *_MATRIX_3C)


def lemma_5a_combos() -> tuple[CyclotomicNumber, CyclotomicNumber]:
    """The two 2x2 minors of B_{3,3}^{4,4} at (7,8) that the nonvanishing
    argument rests on.

    Returns (B44*B23 - B43*B24, B32*B44 - B42*B34) with numeric
    subscripts referring to the named modules P2, P3, P4.
    """
    e = entry_5a
    first = e(4, 4) * e(2, 3) - e(4, 3) * e(2, 4)
    second = e(3, 2) * e(4, 4) - e(4, 2) * e(3, 4)
    return first, second


def lemma_3c_entry() -> CyclotomicNumber:
    """The entry (B_{2,2}^{2,2})_{2,1} at (11,12), exactly."""
    return entry_3c(2, 1)


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
    b, t = entry_5a, Side(8, 7)
    first, second = lemma_5a_combos()
    form_44 = _brackets(t, 6, 3, -5, -4) - _brackets(t, 1, 1, -5, -5, -6) * (t[4] + t[6])
    form_24 = -t.power(-12) * _brackets(t, 1, 7) * (_brackets(t, -5, -5, -4) * (t[4] + t[6])
                                                   + _brackets(t, -6, -6, -5) * (t[5] + t[7]))
    return [
        ("B44*B23 - B43*B24 nonzero", first, None),
        ("B32*B44 - B42*B34 = 1 + i", second, _ONE + zeta(4)),
        ("B32*B44 = (sqrt(2) - 1)/y", b(3, 2) * b(4, 4),
         (zeta(8) + zeta(8, -1) - _ONE) * t.power(-4)),
        ("B42*B34 = -1/y", b(4, 2) * b(3, 4), -t.power(-4)),
        ("B44 matches its bracket form", b(4, 4), form_44),
        ("B43 matches its bracket form", b(4, 3), t.power(8) * _brackets(t, 1, 6, -4, -5)),
        ("B24 matches its bracket form", b(2, 4), form_24),
        ("B23 = [6]'[7]'/(y [4]' [5]')", b(2, 3), t.power(-4) * _brackets(t, 6, 7, -4, -5)),
        ("det B nonzero", named_matrix(*_MATRIX_5A).det(), None),
    ]


# the `mm verify` targets answered here, each by the claims of one lemma
TARGETS = {"lemma-5a": "5A", "lemma-3c": "3C"}


def claims(target: str) -> list:
    """The rows (name, status, value) of one verify target of TARGETS: a
    claim passes when its value equals its want, or is nonzero for None."""
    return [(name, "pass" if (not value.is_zero() if want is None else value == want)
             else "fail", value)
            for name, value, want in lemma_claims(TARGETS[target])]
