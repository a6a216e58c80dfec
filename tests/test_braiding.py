"""Chiral r-matrices and assembled braiding matrices."""
import cmath
import itertools
import json
import math
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import minmod
import oracles
from minmod import (
    BraidMatrix,
    CyclotomicNumber,
    DivisionByZero,
    IndexOutOfRange,
    MinimalModel,
    ModelMismatch,
    NonIntegerExponent,
    NonUnitaryModel,
    RQuery,
    braid_entry,
    braid_matrix,
    is_admissible,
    lemma_3c_entry,
    lemma_5a_combos,
    memoized_queries,
    named_label,
    qdim,
    r_matrix,
    zeta,
)
from minmod import braiding
from minmod.braiding import named_matrix
from minmod.cli import main
from minmod.exact import _reduce, sine_inv, two_i_sin
from minmod.minimal import Side

M78 = MinimalModel(7, 8)
M1112 = MinimalModel(11, 12)

ZERO = CyclotomicNumber.from_rational(0)
ONE = CyclotomicNumber.from_rational(1)
I = zeta(4)
SQRT2 = zeta(8) + zeta(8, -1)
SQRT3 = zeta(12) + zeta(12, -1)
S2 = math.sqrt(2)

# the (7,8) matrix the nonvanishing argument is about: subscripts
# (P3, P3), superscripts (P4, P4)
LEMMA_EXTS = tuple(named_label(M78, i) for i in (3, 3, 4, 4))


def _embed(value):
    return complex(value.embed())


def lemma_matrix() -> BraidMatrix:
    return braid_matrix(M78, LEMMA_EXTS)


def test_bracket_vanishing():
    unprimed, primed = M78.sides
    assert primed[0].is_zero()
    assert primed[8].is_zero()
    assert primed[-16].is_zero()
    assert unprimed[7].is_zero()
    assert not primed[7].is_zero()
    assert not unprimed[6].is_zero()
    with pytest.raises(DivisionByZero):
        primed.inv(16)
    with pytest.raises(DivisionByZero):
        unprimed.inv(0)


def test_bracket_antisymmetry_and_caching():
    primed = M78.sides[1]
    for l in range(1, 8):
        assert primed[-l] == -primed[l]
    assert MinimalModel(7, 8).sides[1] is MinimalModel(7, 8).sides[1]
    assert Side(8, 7) is primed


def test_primed_deformation_parameter():
    # y = (primed base)^{1} lives at the quarter power 4
    y = M78.sides[1].power(4)
    assert abs(_embed(y) - cmath.exp(7j * cmath.pi / 4)) < 1e-12
    y3c = M1112.sides[1].power(4)
    assert abs(_embed(y3c) - cmath.exp(11j * cmath.pi / 6)) < 1e-12


def test_bracket_against_sine_oracle():
    # oracles.sides(p) is (p side, q side), the order of model.sides
    for side, oracle in zip(M78.sides, oracles.sides(7)):
        assert side.bound == oracle.bound
        for l in range(1, side.bound):
            assert abs(_embed(side[l]) - oracle.br(l)) < 1e-12


@pytest.mark.parametrize("p", [7, 11, 13])
@pytest.mark.parametrize("index", [1, 0], ids=["primed", "unprimed"])
def test_brackets_live_in_their_side_field(p, index):
    # the full-field route: the same roots of unity taken in Q(zeta_{4pq})
    table = MinimalModel(p, p + 1).sides[index]
    bound = oracles.sides(p)[index].bound
    other = 2 * p + 1 - bound
    assert (table.bound, table.other) == (bound, other)
    full, step = 4 * p * (p + 1), 2 * p * (p + 1) // bound
    for l in range(1, bound):
        old = zeta(full, l * other * step) - zeta(full, -l * other * step)
        assert (2 * bound) % table[l].order == 0
        assert table[l].promote(full) == old
        assert (2 * bound) % table.inv(l).order == 0
        assert table.inv(l).promote(full) * old == ONE
        # one cache for the bracket and the sine-ratio routes
        assert table[l] is two_i_sin(l * other, bound)
        assert table.inv(l) is sine_inv(l * other, bound)
    for k in range(-2 * bound - 1, 2 * bound + 2):
        assert (4 * bound) % table.power(k).order == 0
        assert table.power(k).promote(full) == zeta(full, k * other**2)


def test_memoized_values_live_in_their_side_field():
    named_matrix(7, (3, 3, 4, 4))
    named_matrix(11, (2, 2, 2, 2))
    queries = memoized_queries()
    assert {*M78.sides, *M1112.sides} <= {query.side for query in queries}
    for query in queries:
        assert (4 * query.side.bound) % r_matrix(query).order == 0
    # qdim's factors are the sine ratios of the same side objects
    for label in M78.labels():
        assert all(f is side.ratio(k)[0] for f, side, k in
                   zip(qdim(label).factors, M78.sides, label.kac, strict=True))


def test_lemma_matrix_entries_live_in_the_primed_field():
    # every external and channel is (1, n), so the unprimed side is trivial
    for matrix, order in ((named_matrix(7, (3, 3, 4, 4)), 32),
                          (named_matrix(11, (2, 2, 2, 2)), 48)):
        assert matrix.entries
        for value in matrix.entries.values():
            assert order % value.order == 0


def test_products_across_fields_never_promote(monkeypatch):
    # r'*r multiplies Q(zeta_56) by Q(zeta_52) at (13,14), and a qdim's
    # exact value Q(zeta_46) by Q(zeta_48) at (23,24); both go straight
    # to the common field without re-expressing either factor
    model = MinimalModel(13, 14)
    externals = tuple(model.label(m, n) for m, n in ((3, 7), (3, 7), (4, 11), (2, 11)))
    matrix = braid_matrix(model, externals)
    labels = MinimalModel(23, 24).labels()
    dims = [qdim(label) for label in labels]
    promoted = []
    promote = CyclotomicNumber.promote
    monkeypatch.setattr(
        CyclotomicNumber, "promote",
        lambda self, order: promoted.append(order) or promote(self, order),
    )
    entries = [braid_entry(model, externals, mu, ga)
               for mu in matrix.rows for ga in matrix.cols]
    products = [d.exact for d in dims]
    assert promoted == []
    monkeypatch.undo()
    assert entries == [matrix.entries[mu, ga] for mu in matrix.rows for ga in matrix.cols]
    assert 4 * 13 * 14 in {e.order for e in entries}
    assert {x.order for x in products} == {2 * 23 * 24}
    assert len(products) == len(labels) == 253


def test_r_base_cases():
    for side, bound in zip(M78.sides, (7, 8)):
        for a in range(1, bound):
            for n in range(1, bound):
                for c in range(1, bound):
                    q = RQuery(side, a, 1, n, c, a, c)
                    if not (abs(n - c) < a < min(n + c, 2 * bound - n - c)):
                        continue
                    if (n + c + a) % 2 == 0:
                        continue
                    assert r_matrix(q) == ONE
    # m = 1 puts the unit at (b, d) = (a, c); n = 1 puts it at (c, a)
    assert r_matrix(RQuery(M78.sides[1], 2, 3, 1, 4, 4, 2)) == ONE


def test_r_unsupported_is_exact_zero():
    q = RQuery(M78.sides[1], 1, 3, 3, 1, 1, 1)
    assert oracles.sides(7)[1].r(1, 3, 3, 1, 1, 1) == 0
    assert r_matrix(q).is_zero()


def test_r_out_of_range():
    with pytest.raises(IndexOutOfRange):
        r_matrix(RQuery(M78.sides[1], 8, 1, 1, 8, 8, 8))
    with pytest.raises(IndexOutOfRange):
        r_matrix(RQuery(M78.sides[0], 7, 1, 1, 7, 7, 7))
    with pytest.raises(IndexOutOfRange):
        r_matrix(RQuery(M78.sides[1], 0, 1, 1, 1, 1, 1))


def test_r_against_float_oracle():
    for table, side in zip(M78.sides, oracles.sides(7)):
        bound = side.bound
        for a in range(1, bound):
            for m in range(1, min(bound, 5)):
                for n in range(1, min(bound, 5)):
                    for c in range(1, bound):
                        for b in range(1, bound):
                            for d in range(1, bound):
                                want = side.r(a, m, n, c, b, d)
                                if want is None:
                                    continue
                                got = r_matrix(RQuery(table, a, m, n, c, b, d))
                                assert abs(_embed(got) - want) < 1e-9


# -- the m-peeling recursion, the exact reference of the 6j sum -------------


def splittings(side, a, m, b):
    """The splitting indices a1 adjacent to a with (m-1, b, a1) admissible."""
    return [
        a1
        for a1 in (a - 1, a + 1)
        if 0 < a1 < side.bound and side.admissible(m - 1, b, a1)
    ]


@lru_cache(maxsize=None)
def m_peeled(query):
    """r(a, m, n, c)_{b,d} by the route the 6j sum replaced.

    The base cases at m = 1 and n = 1; the closed-form m = 2 row, with
    e = b - a and f = d - c, each +-1, and q the side's x or y,

        r(a, 2, n, c)_{b,d} = -f q^{(-e*a - f*c - 1)/4} [(e*a - f*c + n)/2] / [c];

    and for m > 2 one unit of m peeled through the smallest splitting
    index.  n_peeled_row is the reference of the row.
    """
    table = query.side
    if not braiding._supported(query):
        return ZERO
    a, m, n, c, b, d = query.indices()
    if m == 1:
        return ONE if (b, d) == (a, c) else ZERO
    if n == 1:
        return ONE if (b, d) == (c, a) else ZERO
    if m == 2:
        e, f = b - a, d - c
        value = table.power(-e * a - f * c - 1) * table[(e * a - f * c + n) // 2] * table.inv(c)
        return -value if f > 0 else value
    return peel(query, splittings(table, a, m, b)[0])


def peel(query, a1):
    """r(a, m, n, c)_{b,d}, m > 2, as the sum over d1 = d -+ 1 of
    r(a, 2, n, d1)_{a1,d} * r(a1, m-1, n, c)_{b,d1}; a product whose
    m - 1 factor is zero is skipped.

    The m - 1 factors peel the same way, each through its smallest
    splitting index, down to a base case of m_peeled.  The factors of one
    level differ only in d, so the chain is walked as rows over d: down
    to list the d's each level is asked at, then up in a loop, and m sets
    no Python stack depth."""
    levels = [(query, a1, {query.d})]
    while True:
        q, a, ds = levels[-1]
        tail = q._replace(a=a, m=q.m - 1)
        ds = {d1 for d in ds for d1 in (d - 1, d + 1) if 0 < d1 < q.side.bound}
        live = {d for d in ds if braiding._supported(tail._replace(d=d))}
        if tail.m == 2 or tail.n == 1 or not live:
            row = {d: m_peeled(tail._replace(d=d)) for d in ds}
            break
        levels.append((tail, splittings(q.side, tail.a, tail.m, tail.b)[0], live))
    for q, a, ds in reversed(levels):
        row = {d: peel_step(q._replace(d=d), a, row) for d in ds}
    return row[query.d]


def peel_step(query, a1, tails):
    """The sum of peel, with r(a1, m-1, n, c)_{b,d1} read from tails;
    a d1 missing from tails has a zero factor."""
    total = ZERO
    for d1 in (query.d - 1, query.d + 1):
        tail = tails.get(d1)
        if tail:
            total = total + m_peeled(query._replace(m=2, c=d1, b=a1)) * tail
    return total


def r_matrix_variants(query):
    """An r-matrix entry recomputed once per admissible top-level splitting.

    Only supported entries with m > 2 peel, so only those split.
    """
    if not (braiding._supported(query) and query.m > 2):
        return (m_peeled(query),)
    return tuple(peel(query, a1) for a1 in splittings(query.side, query.a, query.m, query.b))


def split_queries_of_the_lemma_matrices(monkeypatch):
    """The r-matrix queries of the two lemma matrices, from an empty memo.

    36 of them, 23 with two splittings.
    """
    monkeypatch.setattr(braiding, "_R_MEMO", {})
    braid_matrix(M78, LEMMA_EXTS)
    braid_matrix(M1112, (named_label(M1112, 2),) * 4)
    return memoized_queries()


def count_split_queries(queries):
    """Check that r_matrix gives the reference value of each query under
    every splitting, and count the queries with more than one splitting."""
    seen = 0
    for q in queries:
        values = r_matrix_variants(q)
        assert all(v == r_matrix(q) for v in values), q
        if len(values) > 1:
            assert q.m > 2
            seen += 1
    return seen


def test_recursion_choice_independence(monkeypatch):
    lemma_matrix()
    lemma_3c_entry()
    # the session memo: whatever this run has cached, any model or externals
    assert count_split_queries(memoized_queries()) > 0
    assert count_split_queries(split_queries_of_the_lemma_matrices(monkeypatch)) > 0


def identical(x, y):
    """Equal as field elements, and in the same field: what keeps every
    rendering byte-identical."""
    return x.order == y.order and x == y


def supported_entries(side):
    """Every (a, m, n, c, b, d) of one side that passes the support gate."""
    adm, r = side.admissible, range(1, side.bound)
    for a, m, b in itertools.product(r, repeat=3):
        if adm(m, b, a):
            for n, c in itertools.product(r, repeat=2):
                if adm(n, c, b):
                    for d in r:
                        if adm(n, d, a) and adm(m, c, d):
                            yield a, m, n, c, b, d


def drawn_entry(side, rng):
    """One supported (a, m, n, c, b, d) with m, n >= 2: a, m and n at
    random, then b, c and d among the indices the gate admits."""
    adm, bound = side.admissible, side.bound
    r = range(1, bound)
    while True:
        a, m, n = rng.randrange(1, bound), rng.randrange(2, bound), rng.randrange(2, bound)
        bs = [x for x in r if adm(m, x, a)]
        if not bs:
            continue
        b = rng.choice(bs)
        c = rng.choice([x for x in r if adm(n, x, b)])
        ds = [x for x in r if adm(n, x, a) and adm(m, c, x)]
        if ds:
            return a, m, n, c, b, rng.choice(ds)


@pytest.mark.parametrize("index", [1, 0], ids=["primed", "unprimed"])
def test_6j_sum_matches_m_peeling_on_every_supported_entry(index):
    # _r_value is r_matrix past its memo, which would keep every entry
    for p in range(3, 9):
        side = MinimalModel(p, p + 1).sides[index]
        for i in supported_entries(side):
            query = RQuery(side, *i)
            assert identical(braiding._r_value(query), m_peeled(query)), query


@pytest.mark.parametrize("ps,draws", [(range(9, 15), 50), ((23, 29, 41, 59), 6)],
                         ids=["p9-14", "p23-59"])
def test_6j_sum_matches_m_peeling_on_drawn_entries(ps, draws):
    for p in ps:
        rng = random.Random(p)
        for side in reversed(MinimalModel(p, p + 1).sides):
            for _ in range(draws):
                query = RQuery(side, *drawn_entry(side, rng))
                assert identical(braiding._r_value(query), m_peeled(query)), query


# -- the folded bracket product, against the plain loop it replaced ----------


def plain_brackets(side, *ls):
    """prod [l] over ls, with 1/[-l] for each l < 0, one factor at a time."""
    value = ONE
    for l in ls:
        factor = side[l] if l > 0 else side.inv(-l)
        value = factor if value is ONE else value * factor
    return value


def plain_factorial_ratio(side, ups, downs):
    """prod [u]! / prod [v]!, [l] taken #{u >= l} - #{v >= l} times, unfolded."""
    tally, run, ls = Counter(ups), 0, []
    tally.subtract(downs)
    for l in range(max(tally), 0, -1):
        run += tally[l]
        ls += [l if run > 0 else -l] * abs(run)
    return plain_brackets(side, *ls)


def bits(value):
    return value.order, value._num, value._den


def plain_r_value(query, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(braiding, "_factorial_ratio", plain_factorial_ratio)
        return braiding._r_value(query)


def test_folded_r_values_match_the_plain_loop_at_small_bounds(monkeypatch):
    # every supported entry with m, n > 1 on both sides of (p, p+1), p <= 7
    count = 0
    for p in range(3, 8):
        for side in MinimalModel(p, p + 1).sides:
            for i in supported_entries(side):
                if i[1] > 1 and i[2] > 1:
                    query = RQuery(side, *i)
                    assert bits(braiding._r_value(query)) == bits(
                        plain_r_value(query, monkeypatch)), query
                    count += 1
    assert count > 1000


def test_folded_r_values_match_the_plain_loop_on_drawn_entries(monkeypatch):
    # both unitary sides of each bound 11..30, and one side whose other
    # index is odd at an odd bound, which no unitary model has
    rng = random.Random(33)
    for bound in range(11, 31):
        odd = next(o for o in range(bound + 2, 3 * bound) if o % 2 and math.gcd(o, bound) == 1)
        for side in (Side(bound, bound + 1), Side(bound, bound - 1), Side(bound, odd)):
            for _ in range(3):
                query = RQuery(side, *drawn_entry(side, rng))
                assert bits(braiding._r_value(query)) == bits(
                    plain_r_value(query, monkeypatch)), query


def test_folded_brackets_match_the_plain_product():
    rng = random.Random(8)
    for bound, other in ((3, 4), (4, 3), (7, 8), (8, 7), (9, 4), (11, 12), (12, 11), (13, 5)):
        side = Side(bound, other)
        units = [l for l in range(1, 3 * bound) if l % bound]
        for _ in range(12):
            ls = [rng.choice(units) * rng.choice((1, -1)) for _ in range(rng.randint(0, 8))]
            assert braiding._brackets(side, *ls) == plain_brackets(side, *ls), (side, ls)
            # a [0 mod b] above the line makes the product zero, below it
            # a division by zero, wherever it stands
            zero = bound * rng.randint(1, 2)
            at = rng.randint(0, len(ls))
            assert braiding._brackets(side, *ls[:at], zero, *ls[at:]).is_zero()
            for route in (braiding._brackets, plain_brackets):
                with pytest.raises(DivisionByZero):
                    route(side, *ls[:at], -zero, *ls[at:], zero)


def test_r_matrix_does_not_recurse_on_m():
    # r(1, 399, 399, 1)_{399,399} on the primed side of (400, 401): the
    # m-peeling nests about m deep and cannot finish under 80 frames
    script = (
        "import sys\n"
        "from minmod import MinimalModel, RQuery, r_matrix\n"
        "sys.setrecursionlimit(80)\n"
        "print(r_matrix(RQuery(MinimalModel(400, 401).sides[1], 1, 399, 399, 1, 399, 399)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(minmod.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "z1604^404\n"


# -- the m = 2 row against the n-peeling ------------------------------------


def n_peeled_row(table):
    """r(a, 2, n, c)_{b,d} on one side by peeling n, the exact route the
    closed form replaced: the m = n = 2 table, then one unit off n through
    the smallest splitting index c1."""
    bound = table.bound
    memo = {}

    def r(a, n, c, b, d):
        key = (a, n, c, b, d)
        if key in memo:
            return memo[key]
        value = ZERO
        if not braiding._supported(RQuery(table, a, 2, n, c, b, d)):
            pass
        elif n == 1:
            value = ONE if (b, d) == (c, a) else ZERO
        elif n == 2:
            if c in (a - 2, a + 2):
                l = (a + c) // 2
                value = table.power(1) if (b, d) == (l, l) else ZERO
            elif c == a:
                l = a
                value = {
                    (l + 1, l + 1): -table.power(-1 - 2 * l) * table[1] * table.inv(l),
                    (l - 1, l - 1): table.power(-1 + 2 * l) * table[1] * table.inv(l),
                    (l + 1, l - 1): table.power(-1) * table[l + 1] * table.inv(l),
                    (l - 1, l + 1): table.power(-1) * table[l - 1] * table.inv(l),
                }.get((b, d), ZERO)
        else:
            c1 = splittings(table, b, n, c)[0]
            for d1 in (a - 1, a + 1):
                if 0 < d1 < bound:
                    value = value + r(a, 2, c1, b, d1) * r(d1, n - 1, c, c1, d)
        memo[key] = value
        return value

    return r


def supported_m2_rows(side):
    """Every (a, n, c, b, d) of an m = 2 row that passes the support gate.

    The rest are the zero of that one shared gate on either route."""
    adm, bound = side.admissible, side.bound
    for a in range(1, bound):
        for b in (a - 1, a + 1):
            for n in range(1, bound):
                for c in range(abs(n - b) + 1, min(n + b, 2 * bound - n - b), 2):
                    for d in (c - 1, c + 1):
                        if adm(2, b, a) and adm(n, d, a) and adm(2, c, d):
                            yield a, n, c, b, d


@lru_cache(maxsize=None)
def closed_form_rows(p, index):
    """{(a, n, c, b, d): r(a, 2, n, c)_{b,d}} on side index of (p, p + 1)
    by braiding, past the memo."""
    side = MinimalModel(p, p + 1).sides[index]
    return {
        i: braiding._r_value(RQuery(side, i[0], 2, *i[1:]))
        for i in supported_m2_rows(side)
    }


@pytest.mark.parametrize("index", [1, 0], ids=["primed", "unprimed"])
def test_closed_form_row_matches_n_peeling(index):
    for p in range(3, 15):
        reference = n_peeled_row(MinimalModel(p, p + 1).sides[index])
        for i, value in closed_form_rows(p, index).items():
            assert value == reference(*i), (p, i)


@pytest.mark.parametrize("p", [7, 11, 13])
def test_closed_form_row_against_float_oracle(p):
    for index, side in enumerate(oracles.sides(p)):
        for (a, n, c, b, d), value in closed_form_rows(p, index).items():
            assert abs(_embed(value) - side.r(a, 2, n, c, b, d)) < 1e-9, (p, a, n, c, b, d)


def test_bracket_exchange_identity():
    # [x][y] - [x-1][y+1] = [1][y-x+1], the step the n-peel of the
    # closed form reduces to
    for t in M78.sides:
        for x in range(-9, 10):
            for y in range(-9, 10):
                assert t[x] * t[y] - t[x - 1] * t[y + 1] == t[1] * t[y - x + 1]


@pytest.mark.parametrize("p", [23, 29, 41, 59])
def test_closed_form_row_satisfies_the_n_peel(p):
    """[c1][c] r(a,2,n,c)_{b,d} against the n-peel sum over d1 of
    [c1] r(a,2,2,c1)_{b,d1} times [c] r(d1,2,n-1,c)_{c1,d}, on 5000
    drawn supported rows with n > 2 on each side.

    Each cleared row is -f*zeta^(k+l) + f*zeta^(k-l) in Q(zeta_{4b}), so
    both sides are integer sums of powers of zeta_{4b}: equal as such
    sums, or else after reduction mod Phi_{4b}.  Every 50th row also
    checks that braiding's value times [c] is the cleared row.
    """
    rng = random.Random(p)
    for table in reversed(MinimalModel(p, p + 1).sides):
        adm, bound = table.admissible, table.bound
        other = 2 * p + 1 - bound
        order = 4 * bound

        def cleared(a, n, c, b, d):
            e, f = b - a, d - c
            k, l = (-e * a - f * c - 1) * other, (e * a - f * c + n) * other
            return ((-f, k + l), (f, k - l))

        def supported(a, n, c, b, d):
            return adm(2, b, a) and adm(n, c, b) and adm(n, d, a) and adm(2, c, d)

        drawn = 0
        while drawn < 5000:
            # a, b, n at random, then c where (n, c, b) is admissible
            a, n = rng.randrange(1, bound), rng.randrange(3, bound)
            b = a + rng.choice((-1, 1))
            top = min(n + b, 2 * bound - n - b)
            if top <= abs(n - b) + 1:
                continue
            c = rng.randrange(abs(n - b) + 1, top, 2)
            d = c + rng.choice((-1, 1))
            row = (a, n, c, b, d)
            if not supported(*row):
                continue
            c1 = splittings(table, b, n, c)[0]
            vec = [0] * order
            for u, i in cleared(*row):
                vec[(i + 2 * c1 * other) % order] += u
                vec[(i - 2 * c1 * other) % order] -= u
            for d1 in (a - 1, a + 1):
                if supported(a, 2, c1, b, d1) and supported(d1, n - 1, c, c1, d):
                    for u, i in cleared(a, 2, c1, b, d1):
                        for v, j in cleared(d1, n - 1, c, c1, d):
                            vec[(i + j) % order] -= u * v
            assert not any(vec) or not any(_reduce(vec, order)), (table, row)
            if drawn % 50 == 0:
                value = braiding._r_value(RQuery(table, a, 2, n, c, b, d))
                want = sum((u * zeta(order, i) for u, i in cleared(*row)), ZERO)
                assert value * table[c] == want, (table, row)
            drawn += 1


def test_rquery_is_hashable():
    a = RQuery(M78.sides[1], 1, 2, 2, 1, 2, 2)
    b = RQuery(MinimalModel(7, 8).sides[1], 1, 2, 2, 1, 2, 2)
    assert a == b and hash(a) == hash(b)
    assert {a: 1}[b] == 1


def test_lemma_matrix_channels():
    matrix = lemma_matrix()
    expect = tuple(named_label(M78, i) for i in (3, 4, 2))
    assert tuple(sorted(matrix.rows, key=lambda l: l.sort_key())) == tuple(
        sorted(expect, key=lambda l: l.sort_key())
    )
    assert matrix.rows == matrix.cols


def test_lemma_matrix_frozen_entries():
    # closed forms checked against the independent float route
    frozen = {
        (2, 2): -1j * (S2 - 1),
        (2, 3): (S2 - 1) / 2 * (1 + 1j),
        (2, 4): 0.5 - 0.5j,
        (3, 2): 1 + 1j,
        (3, 3): (S2 - 2) / 2,
        (3, 4): -1j * (2 + S2) / 2,
        (4, 2): (S2 - 1) * (1 - 1j),
        (4, 3): -1j * (2 - S2) / 2,
        (4, 4): (2 - S2) / 2,
    }
    matrix = lemma_matrix()
    lab = {i: named_label(M78, i) for i in (2, 3, 4)}
    for (i, j), want in frozen.items():
        got = _embed(matrix.entry(lab[i], lab[j]))
        assert abs(got - want) < 1e-12, (i, j)


@pytest.mark.parametrize(
    "p,q,exts",
    [
        (7, 8, ((1, 3), (1, 3), (1, 5), (1, 5))),
        (7, 8, ((1, 5), (1, 5), (1, 3), (1, 3))),
        (11, 12, ((1, 7), (1, 7), (1, 7), (1, 7))),
    ],
)
def test_braid_matrix_against_float_oracle(p, q, exts):
    model = MinimalModel(p, q)
    labels = tuple(model.label(m, n) for m, n in exts)
    matrix = braid_matrix(model, labels)
    rows, cols, entries = oracles.braid_matrix(p, q, exts)
    assert [r.kac for r in matrix.rows] == rows
    assert [c.kac for c in matrix.cols] == cols
    for mu in matrix.rows:
        for ga in matrix.cols:
            want = entries[(mu.kac, ga.kac)]
            got = _embed(matrix.entry(mu, ga))
            assert abs(got - want) < 1e-9


def test_entry_off_channel_is_zero():
    matrix = lemma_matrix()
    vac = M78.vacuum
    assert matrix.entry(vac, vac).is_zero()
    assert vac not in matrix.rows


def test_displayed_entry_has_inverted_parameter():
    # the (2,3) entry carries y^{-1}; the same product with y instead
    # lands elsewhere
    matrix = lemma_matrix()
    primed = M78.sides[1]
    form = (
        primed[6] * primed[7] * primed.inv(4) * primed.inv(5)
    )
    entry = matrix.entry(named_label(M78, 2), named_label(M78, 3))
    assert entry == primed.power(-4) * form
    assert entry != primed.power(4) * form


def test_minor_combinations_exact():
    first, second = lemma_5a_combos()
    assert first == (SQRT2 - 1) * (ONE + I) * Fraction(1, 2)
    assert second == ONE + I
    assert not first.is_zero()
    assert not second.is_zero()


def test_minor_intermediate_products_exact():
    matrix = lemma_matrix()
    lab = {i: named_label(M78, i) for i in (2, 3, 4)}
    y_inv = M78.sides[1].power(-4)
    assert matrix.entry(lab[3], lab[2]) * matrix.entry(lab[4], lab[4]) == (
        SQRT2 - 1
    ) * y_inv
    assert matrix.entry(lab[4], lab[2]) * matrix.entry(lab[3], lab[4]) == -y_inv


def test_lemma_matrix_determinant():
    assert lemma_matrix().det() == -I


def test_lemma_matrix_spectrum():
    matrix = lemma_matrix()
    array = np.array(
        [[_embed(matrix.entry(mu, ga)) for ga in matrix.cols] for mu in matrix.rows]
    )
    eigenvalues = np.linalg.eigvals(array)
    assert np.allclose(np.abs(eigenvalues), 1.0, atol=1e-9)
    # half-integer twists of the three channels, with signs
    expected = {1j, (1 - 1j) / S2, -(1 + 1j) / S2}
    for ev in eigenvalues:
        assert min(abs(ev - w) for w in expected) < 1e-9
    assert abs(np.prod(eigenvalues) - (-1j)) < 1e-9


def test_3c_entry_exact():
    entry = lemma_3c_entry()
    assert not entry.is_zero()
    assert entry == (5 - 3 * SQRT3) * Fraction(1, 2)
    assert entry.is_real()
    assert abs(_embed(entry) - (5 - 3 * math.sqrt(3)) / 2) < 1e-12


def test_lemma_claims_hold_at_a_split_prime():
    # an exact second route that uses neither is_zero nor ==: at a prime
    # l = 1 mod 96 every lemma value, in Q(zeta_32) or Q(zeta_48), has an
    # image in F_l; a nonzero image proves the value nonzero
    ell, w = oracles.split_prime(96)
    assert ell % 96 == 1
    rows = [*braiding.lemma_claims("5A"), *braiding.lemma_claims("3C")]
    assert len(rows) == 12
    for name, value, want in rows:
        got = oracles.image(value, ell, w)
        if want is None:
            assert got != 0, name
        else:
            assert got == oracles.image(want, ell, w), name


def test_split_prime_image_is_a_ring_map():
    ell, w = oracles.split_prime(96)
    values = [value for _, value, _ in braiding.lemma_claims("5A")]
    values += [zeta(96, 5), zeta(3), I, SQRT2 - Fraction(1, 3)]
    image = lambda x: oracles.image(x, ell, w)
    for n in (3, 4, 32, 48, 96):
        # zeta_n goes to an element of order exactly n
        z = image(zeta(n))
        assert pow(z, n, ell) == 1
        assert all(pow(z, n // r, ell) != 1 for r in (2, 3) if n % r == 0)
    for x, y in itertools.product(values, repeat=2):
        assert image(x * y) == image(x) * image(y) % ell
        assert image(x - y) == (image(x) - image(y)) % ell


def test_3c_entry_bracket_form():
    primed = M1112.sides[1]
    b = lambda l: primed[l]
    form = (
        primed.power(24)
        * b(1) ** 3
        * primed.inv(2) ** 3
        * (b(1) + b(3))
        * primed.inv(3)
        * b(10)
        * b(9)
        * b(8)
        * primed.inv(7)
        * primed.inv(6)
        * primed.inv(5)
        * (b(3) * b(4) + b(1) * b(4) + b(1) * b(2))
        * primed.inv(3)
        * primed.inv(4)
    )
    assert lemma_3c_entry() == form


def test_3c_matrix_determinant_nonzero():
    u2 = named_label(M1112, 2)
    matrix = braid_matrix(M1112, (u2, u2, u2, u2))
    assert len(matrix.rows) == 5
    assert not matrix.det().is_zero()


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 1: braid_matrix takes the superscripts as the braided "
    "pair and reads only the canonical Kac representative"))
def test_braids_with_the_vacuum_are_invertible(capsys):
    # A braiding matrix is invertible.  Every square, non-empty matrix at
    # (7,8) with the vacuum in the first or second external slot.
    vacuum, labels = M78.vacuum, M78.labels()
    singular = []
    for x in labels:
        for y in labels:
            for ext in ((vacuum, x, y, y), (x, vacuum, y, y)):
                matrix = braid_matrix(M78, ext)
                if matrix.rows and len(matrix.rows) == len(matrix.cols):
                    if matrix.det().is_zero():
                        singular.append(ext)
    assert singular == []
    # the third external is the vacuum
    assert main(["braid", "--p", "7", "--q", "8",
                 "--ext", "1,2,1,3,1,1,1,2", "--format", "json"]) == 0
    det = json.loads(capsys.readouterr().out)["checks"][-1]
    assert det["name"] == "det" and det["exact"] != "0"


def test_braid_entry_sign_exponent_guard():
    exts = tuple(
        M78.label(m, n) for m, n in ((2, 2), (3, 3), (1, 1), (3, 4))
    )
    with pytest.raises(NonIntegerExponent):
        braid_matrix(M78, exts)


@given(st.sampled_from(((7, 8), (11, 12))), st.data())
@settings(max_examples=40, deadline=None)
def test_braid_channels_match_admissibility_scan(pq, data):
    # a4 comes from a3 x (a2 x a1) or from anywhere, so both channel-rich
    # and empty draws occur; entries are stubbed, only the channels count
    p, q = pq
    model = MinimalModel(p, q)
    a1, a2, a3 = (data.draw(st.sampled_from(oracles.labels(p, q))) for _ in range(3))
    mu = data.draw(st.sampled_from(oracles.fuse(p, q, a2, a1)))
    a4 = data.draw(st.sampled_from([*oracles.fuse(p, q, a3, mu), *oracles.labels(p, q)]))
    a4, a1, a3, a2 = exts = tuple(model.label(m, n) for m, n in (a4, a1, a3, a2))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(braiding, "braid_entry", lambda *args: None)
        matrix = braid_matrix(model, exts)
    adm = lambda x, y, z: is_admissible(x, y, z, model)
    labs = model.labels()
    assert matrix.rows == tuple(x for x in labs if adm(a3, x, a4) and adm(a2, a1, x))
    assert matrix.cols == tuple(x for x in labs if adm(a2, x, a4) and adm(a3, a1, x))


def test_braid_matrix_rejects_foreign_externals():
    vac = MinimalModel(11, 12).vacuum
    with pytest.raises(ModelMismatch):
        braid_matrix(M78, (vac, vac, vac, vac))
    # one entry reads every external and channel against the model's sides
    a = M1112.label(1, 3)
    with pytest.raises(ModelMismatch):
        braid_entry(M78, (a,) * 4, a, a)
    with pytest.raises(ModelMismatch):
        braid_entry(M78, LEMMA_EXTS, named_label(M78, 3), a)


def test_braid_matrix_rejects_nonunitary():
    model = MinimalModel(2, 5)
    vac = model.vacuum
    with pytest.raises(NonUnitaryModel):
        braid_matrix(model, (vac, vac, vac, vac))
    with pytest.raises(NonUnitaryModel):
        braid_entry(model, (vac, vac, vac, vac), vac, vac)


def test_named_label_lookup():
    assert named_label(M78, 2).kac == (1, 7)
    assert named_label(M78, 4).kac == (1, 5)
    assert named_label(M1112, 2).kac == (1, 7)
    with pytest.raises(KeyError):
        named_label(M78, 9)
    with pytest.raises(KeyError):
        named_label(MinimalModel(3, 4), 1)


@given(
    st.sampled_from((1, 0)),
    st.integers(1, 7),
    st.integers(1, 4),
    st.integers(1, 4),
    st.integers(1, 7),
    st.integers(1, 7),
    st.integers(1, 7),
)
@settings(max_examples=80, deadline=None)
def test_exact_matches_float_everywhere(index, a, m, n, c, b, d):
    side = oracles.sides(7)[index]
    if max(a, m, n, c, b, d) >= side.bound:
        return
    want = side.r(a, m, n, c, b, d)
    if want is None:
        return
    got = r_matrix(RQuery(M78.sides[index], a, m, n, c, b, d))
    assert abs(_embed(got) - want) < 1e-9


def _array(matrix):
    return [[matrix.entry(mu, ga) for ga in matrix.cols] for mu in matrix.rows]


@pytest.mark.parametrize(
    "p,q,exts",
    [
        (7, 8, ((1, 3), (1, 3), (1, 5), (1, 5))),
        (7, 8, ((1, 5), (1, 5), (1, 3), (1, 3))),
        (11, 12, ((1, 7), (1, 7), (1, 7), (1, 7))),
        (7, 8, ((1, 1), (1, 1), (1, 1), (1, 1))),
    ],
)
def test_det_matches_leibniz_expansion(p, q, exts):
    model = MinimalModel(p, q)
    matrix = braid_matrix(model, tuple(model.label(m, n) for m, n in exts))
    assert matrix.det() == oracles.leibniz_det(_array(matrix))


@given(st.data())
@settings(max_examples=12, deadline=None)
def test_det_matches_leibniz_on_random_externals(data):
    # a4 is drawn from a3 x (a2 x a1), so at least one channel survives
    labels = oracles.labels(7, 8)
    a1, a2, a3 = (data.draw(st.sampled_from(labels)) for _ in range(3))
    mu = data.draw(st.sampled_from(oracles.fuse(7, 8, a2, a1)))
    a4 = data.draw(st.sampled_from(oracles.fuse(7, 8, a3, mu)))
    exts = tuple(M78.label(m, n) for m, n in (a4, a1, a3, a2))
    try:
        matrix = braid_matrix(M78, exts)
    except NonIntegerExponent:
        assume(False)
    assume(len(matrix.rows) <= 5)
    assert matrix.det() == oracles.leibniz_det(_array(matrix))


def _det_matches_numpy(model, exts, channels):
    # the exact det against numpy's det of the embedded matrix; returns
    # that matrix and the det
    matrix = braid_matrix(model, tuple(model.label(m, n) for m, n in exts))
    assert len(matrix.rows) == len(matrix.cols) == channels
    array = np.array([[_embed(x) for x in row] for row in _array(matrix)])
    det = matrix.det()
    assert not det.is_zero()
    assert abs(_embed(det) - np.linalg.det(array)) < 1e-9
    return array, det


def test_dense_eight_channel_det():
    # far past the reach of the permutation expansion: 8! * 8 products
    array, _ = _det_matches_numpy(M1112, ((2, 7), (2, 7), (3, 6), (3, 4)), 8)
    assert np.all(np.abs(array) > 1e-12)


@pytest.mark.parametrize("p,q,channels", [(13, 14, 6), (23, 24, 14)])
def test_large_order_braid_det(p, q, channels):
    # externals `3,7,3,7,4,11,2,11`: every pivot is inverted in the
    # entries' field, of order 4pq = 728 and 2208, and the det, a root of
    # unity there, demotes to -zeta_7^4 and -zeta_3
    model = MinimalModel(p, q)
    _, det = _det_matches_numpy(model, ((3, 7), (3, 7), (4, 11), (2, 11)), channels)
    assert det.order == 4 * p * q
    want = {13: -zeta(7, 4), 23: -zeta(3)}[p]
    got = det.at_conductor()
    assert (got.order, got) == (want.order, want)
