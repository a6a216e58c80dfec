"""Field arithmetic in the cyclotomic layer."""
import cmath
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from minmod import (
    CyclotomicNumber,
    DivisionByZero,
    parse_exact,
    zeta,
)
from minmod.exact import _cyclotomic, echelon, sine_inv, two_i_sin

ONE = CyclotomicNumber.from_rational(1)

_SMALL_ORDERS = (8, 16, 24)
_ALL_ORDERS = (8, 16, 24, 224, 528)
# Every descent shape of CyclotomicNumber.inv, which takes the least
# prime p off the order n at each step: the rational orders 1 and 2; the
# slice when p^2 | n (4, 32, 9, 25, 49); the re-expression when
# n = 2 mod 4 (30, 66); the trace at an odd p not dividing n/p (15); three
# primes, smallest first (105, 182, 728); and slices that end in a
# re-expression and a trace (224, 288).
_INVERSE_ORDERS = (1, 2, 4, 32, 9, 25, 49, 15, 105, 30, 66, 182, 224, 288, 728)


def _value(order, terms):
    total = CyclotomicNumber.from_rational(0)
    for exponent, coeff in terms:
        total = total + zeta(order, exponent % order) * coeff
    return total


def _values(orders, max_terms=4):
    coeff = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    return st.sampled_from(orders).flatmap(
        lambda order: st.builds(
            _value,
            st.just(order),
            st.lists(st.tuples(st.integers(0, order - 1), coeff),
                     min_size=0, max_size=max_terms),
        )
    )


# -- pinned values ------------------------------------------------------------

def test_primitive_root_relations():
    assert zeta(4) ** 2 == CyclotomicNumber.from_rational(-1)
    assert zeta(16, -3) == zeta(16, 13)
    assert zeta(6) == ONE + zeta(3)
    assert zeta(8) ** 8 == ONE


def test_sqrt2_squares_to_two():
    sqrt2 = zeta(8) + zeta(8, -1)
    assert sqrt2 * sqrt2 == CyclotomicNumber.from_rational(2)
    assert sqrt2.is_real()


def test_inverse_of_one_plus_zeta3():
    value = ONE + zeta(3)
    inverse = value.inv()
    assert inverse == ONE + zeta(3, 2)
    assert value * inverse == ONE


def test_inverse_descends_smallest_prime_first(monkeypatch):
    # At 435 = 3*5*29 one conjugate is taken at order 435 and three at
    # 145 before the 27 of the prime 29, which are taken in Q(zeta_29).
    orders = Counter()
    conjugate = CyclotomicNumber.conjugate

    def counted(self, k):
        orders[self.order] += 1
        return conjugate(self, k)

    monkeypatch.setattr(CyclotomicNumber, "conjugate", counted)
    value = zeta(435) + 2
    assert value * value.inv() == ONE
    assert orders == {435: 1, 145: 3, 29: 27}


@pytest.mark.parametrize("order,products", [(6, {3: 2}), (30, {15: 2, 5: 4})])
def test_inverse_forms_no_wasted_products(monkeypatch, order, products):
    # At n = 2 mod 4 the value is inverted in Q(zeta_{n/2}) with no product
    # at n, and a conjugate product starts from its first factor: each
    # step takes x*c and c*y, and at 5 two more products join the three
    # conjugates into c.
    orders = Counter()
    mul = CyclotomicNumber.__mul__

    def counted(self, other):
        orders[self.order] += 1
        return mul(self, other)

    monkeypatch.setattr(CyclotomicNumber, "__mul__", counted)
    value = zeta(order) + 2
    inverse = value.inv()
    monkeypatch.undo()
    assert orders == products
    assert inverse.order == order and value * inverse == ONE


def test_embed_pinned_eighth_root():
    approx = zeta(224, 196).embed()
    expect = cmath.exp(2j * cmath.pi * 7 / 8)
    assert abs(complex(approx.real, approx.imag) - expect) < 1e-12


def test_division_by_zero_raises():
    for order in _INVERSE_ORDERS:
        with pytest.raises(DivisionByZero):
            CyclotomicNumber(order, []).inv()


def test_rational_interface():
    value = CyclotomicNumber.from_rational(Fraction(25, 28))
    assert value.is_rational()
    assert value == Fraction(25, 28)
    assert not zeta(8).is_rational()


def test_promotion_preserves_value():
    value = zeta(8, 3) - ONE
    lifted = value.promote(224)
    assert lifted.order == 224
    assert lifted == value
    with pytest.raises(ValueError):
        value.promote(12)


def at_its_conductor(value):
    """True when, for each prime p of the order c, some Galois map
    zeta -> zeta^(1 + j*c/p) that fixes Q(zeta_{c/p}) moves the value, so
    it lies in no smaller field.  No map moves it when c is 2 mod 4, as
    Q(zeta_c) = Q(zeta_{c/2}) then."""
    c = value.order
    primes = [p for p in range(2, c + 1) if c % p == 0 and all(p % r for r in range(2, p))]
    return all(any(value.conjugate(k) != value
                   for k in range(1 + c // p, c, c // p) if math.gcd(k, c) == 1)
               for p in primes)


# (d, n): a value built in Q(zeta_d) and promoted to Q(zeta_n).  The d
# cover rational, 2-power, odd prime square, squarefree odd and mixed
# orders; the n add orders 2 mod 4 and reach 3480 = 8*3*5*29.
_CONDUCTOR_PAIRS = (
    (1, 2), (1, 30), (4, 32), (3, 6), (3, 9), (5, 25), (25, 50), (49, 98),
    (15, 105), (15, 30), (105, 210), (8, 3480), (12, 3480), (116, 3480),
    (435, 3480), (1740, 3480), (224, 448), (288, 864), (728, 1456),
)


@pytest.mark.parametrize("d,n", _CONDUCTOR_PAIRS)
def test_at_conductor_recovers_the_field_built_in(d, n):
    # a*zeta_d^u + b generates Q(zeta_d), so it comes back at order d;
    # sums of random powers come back equal, at their own conductor, which
    # divides d and so is never n
    rng = random.Random(n * d)
    u = next(u for u in range(rng.randrange(d), 2 * d) if math.gcd(u, d) == 1)
    generator = rng.randint(1, 5) * zeta(d, u) + Fraction(rng.randint(-5, 5), 3)
    got = generator.promote(n).at_conductor()
    assert (got.order, got) == (d, generator)
    for _ in range(3):
        value = _value(d, [(rng.randrange(d), rng.randint(-5, 5)) for _ in range(4)])
        got = value.promote(n).at_conductor()
        assert got == value and d % got.order == 0 and at_its_conductor(got)
        assert not at_its_conductor(value.promote(n)) and got.at_conductor() is got


def test_parse_ignores_radical_suffix():
    value = zeta(8) + zeta(8, -1)
    text = value.to_string() + " = sqrt(2)"
    assert parse_exact(text) == value


@pytest.mark.parametrize(
    "text", ["", "+ z4", "z4 +", "--1", "1e3", "z0", "1/0", "0/0", "3/0*z8"]
)
def test_parse_rejects_malformed_literals(text):
    with pytest.raises(ValueError):
        parse_exact(text)


# -- properties ---------------------------------------------------------------

@given(_values(_ALL_ORDERS), _values(_ALL_ORDERS))
@settings(max_examples=60, deadline=None)
def test_ring_commutativity(a, b):
    assert a + b == b + a
    assert a * b == b * a


@given(_values(_SMALL_ORDERS), _values(_SMALL_ORDERS), _values(_SMALL_ORDERS))
@settings(max_examples=60, deadline=None)
def test_ring_associativity_and_distributivity(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


# one draw per order, so that each example runs every descent shape; the
# mixed orders get sparser draws, whose inverses are cheaper to invert
@given(st.tuples(*(_values((n,), max_terms=2 if n > 200 else 4) for n in _INVERSE_ORDERS)))
@settings(max_examples=10, deadline=None)
def test_field_inverse(values):
    for a in values:
        if a.is_zero():
            with pytest.raises(DivisionByZero):
                a.inv()
            continue
        inverse = a.inv()
        assert a * inverse == ONE
        assert inverse.order == a.order
        assert inverse.inv() == a


@given(_values(_SMALL_ORDERS), st.integers(-4, 4))
@settings(max_examples=60, deadline=None)
def test_integer_powers(a, k):
    if a.is_zero() and k < 0:
        return
    direct = ONE
    base = a if k >= 0 else a.inv()
    for _ in range(abs(k)):
        direct = direct * base
    assert a ** k == direct


@given(_values(_ALL_ORDERS))
@settings(max_examples=60, deadline=None)
def test_render_parse_round_trip(a):
    assert parse_exact(a.to_string()) == a


@given(_values(_ALL_ORDERS), _values(_ALL_ORDERS))
@settings(max_examples=40, deadline=None)
def test_embed_is_multiplicative(a, b):
    pa, pb = a.embed(), b.embed()
    pab = (a * b).embed()
    got = complex(pa.real, pa.imag) * complex(pb.real, pb.imag)
    assert abs(got - complex(pab.real, pab.imag)) < 1e-9


@given(_values(_SMALL_ORDERS), _values(_SMALL_ORDERS), st.integers(1, 23))
@settings(max_examples=60, deadline=None)
def test_galois_action_is_a_homomorphism(a, b, k):
    order = (a * b).order
    from math import gcd
    if gcd(k, order) != 1:
        return
    assert (a * b).conjugate(k) == a.conjugate(k) * b.conjugate(k)
    assert (a + b).conjugate(k) == a.conjugate(k) + b.conjugate(k)


@given(_values(_ALL_ORDERS))
@settings(max_examples=40, deadline=None)
def test_complex_conjugation_matches_embedding(a):
    approx = a.embed()
    conj = a.conj().embed()
    assert abs(approx.real - conj.real) < 1e-9
    assert abs(approx.imag + conj.imag) < 1e-9
    assert (a * a.conj()).is_real()


@given(_values(_SMALL_ORDERS))
@settings(max_examples=60, deadline=None)
def test_mixed_order_coercion(a):
    lifted = a.promote(a.order * 2)
    assert lifted == a
    assert a + lifted == a + a
    assert ONE * a == a
    assert a + 0 == a
    assert a * Fraction(1, 1) == a


def test_two_i_sin_embeds_at_any_multiple_order():
    for k, b, order in ((1, 8, 16), (3, 8, 224), (5, 7, 56), (-2, 3, 12)):
        value = two_i_sin(k, b)
        assert value.order == 2 * b and value is two_i_sin(k, b)
        got = complex(value.promote(order).embed())
        assert abs(got - 2j * math.sin(math.pi * k / b)) < 1e-12
        assert sine_inv(k, b) * value == ONE
    assert two_i_sin(3, 8) == two_i_sin(3, 8).promote(224)
    with pytest.raises(DivisionByZero):
        sine_inv(16, 8)


def test_sine_inv_closed_form_is_the_field_inverse():
    # zeta_2b^k * sum_{s<m} s*w^s / m, w = zeta_2b^(2k) of order m, against
    # CyclotomicNumber.inv, c / (x*c) with c a product of Galois conjugates
    # of x, run once per k mod 2b
    for b in range(2, 25):
        field = {k: two_i_sin(k, b).inv() for k in range(1, 2 * b) if k != b}
        for k in range(-b + 1, 2 * b):
            if k % b == 0:
                continue
            got, want = sine_inv(k, b), field[k % (2 * b)]
            assert (got.order, got.coefficients) == (want.order, want.coefficients), (k, b)
        for k in (0, b, -2 * b):
            with pytest.raises(DivisionByZero):
                sine_inv(k, b)


# -- split-prime images: a ring map into F_l that shares no code with exact ----


def _sparse(order, rng, den):
    # a few random powers of zeta_order over one denominator
    return CyclotomicNumber.from_rational(rng.randint(-5, 5)) / den + sum(
        (zeta(order, rng.randrange(order)) * rng.randint(-5, 5) for _ in range(3)),
        CyclotomicNumber.from_rational(0))


@pytest.mark.parametrize("order", (*_INVERSE_ORDERS, 2208))
def test_split_prime_image_is_a_field_homomorphism(order):
    # At l = 1 mod order, zeta_order -> w^((l-1)/order) maps Q(zeta_order)
    # into F_l.  Operands of one order run the same-order paths of +, *
    # and ==; a divisor's operand runs the mixed-order ones.
    ell, w = oracles.split_prime(order)
    image = lambda x: oracles.image(x, ell, w)
    rng = random.Random(order)
    divisors = [d for d in range(1, order) if order % d == 0] or [1]
    for draw in range(2):
        x, y = (_sparse(order, rng, rng.choice((1, 1, 2, 3))) for _ in range(2))
        z = _sparse(rng.choice(divisors), rng, rng.choice((1, 4)))
        for a, b in ((x, y), (x, z), (z, x), (y, y)):
            assert image(a + b) == (image(a) + image(b)) % ell
            assert image(a - b) == (image(a) - image(b)) % ell
            assert image(a * b) == image(a) * image(b) % ell
            assert (a == b) == (image(a) == image(b))
        assert z.promote(order) == z and x == (x + y) - y
        for a in (x, z):
            if a:
                assert image(a.inv()) == pow(image(a), -1, ell)
            k = next(k for k in range(rng.randrange(1, a.order + 1), 2 * a.order + 1)
                     if math.gcd(k, a.order) == 1)
            assert image(a.conjugate(k)) == oracles.image(a, ell, pow(w, k, ell))


# -- products across orders, against shift, convolve and reduce ---------------

# The same order, order 1 against the largest field, divisor pairs both
# ways round, coprime pairs, and the qdim pair of (23,24), whose fields
# Q(zeta_46) and Q(zeta_48) meet in Q(zeta_1104).
_ORDER_PAIRS = (
    (1, 1), (1, 1104), (8, 8), (16, 224), (224, 16), (7, 8), (23, 48), (46, 48),
)


def _operand(order):
    phi = len(oracles.cyclotomic_poly(order)) - 1
    coeff = st.integers(-9, 9)
    sparse = st.dictionaries(st.integers(0, order - 1), coeff, max_size=4).map(
        lambda terms: [terms.get(e, 0) for e in range(order)]
    )
    dense = st.lists(coeff, min_size=phi, max_size=phi)
    return st.tuples(st.one_of(sparse, dense), st.integers(1, 6)).map(
        lambda pair: CyclotomicNumber(order, [Fraction(c, pair[1]) for c in pair[0]])
    )


def _integral(value):
    den = math.lcm(*(c.denominator for c in value.coefficients))
    return [int(c * den) for c in value.coefficients], den


def _product_reference(a, b):
    n = math.lcm(a.order, b.order)
    s, t = n // a.order, n // b.order
    (xs, da), (ys, db) = _integral(a), _integral(b)
    conv = [0] * (2 * n)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            conv[i * s + j * t] += x * y
    reduced = oracles.reduce_mod_cyclotomic(n, conv)
    return n, tuple(Fraction(c, da * db) for c in reduced)


@given(st.sampled_from(_ORDER_PAIRS).flatmap(
    lambda pair: st.tuples(_operand(pair[0]), _operand(pair[1]))))
@settings(max_examples=60, deadline=None)
def test_product_across_orders_matches_reference(operands):
    a, b = operands
    n, want = _product_reference(a, b)
    got = a * b
    assert got.order == n
    assert got.coefficients == want


# -- zero operands, against promote-both-then-operate --------------------------

_ZERO_ORDERS = (1, 4, 8, 24, 32, 48, 224)


def _maybe_zero(order):
    return st.one_of(st.just(CyclotomicNumber(order, [])), _operand(order))


@given(st.tuples(st.sampled_from(_ZERO_ORDERS), st.sampled_from(_ZERO_ORDERS)).flatmap(
    lambda pair: st.tuples(_maybe_zero(pair[0]), _maybe_zero(pair[1]))))
@settings(max_examples=80, deadline=None)
def test_zero_operands_keep_the_field_order(operands):
    a, b = operands
    n = math.lcm(a.order, b.order)
    pa, pb = a.promote(n), b.promote(n)
    want_sum = tuple(x + y for x, y in zip(pa.coefficients, pb.coefficients))
    for got in (a + b, b + a):
        assert got.order == n
        assert got.coefficients == want_sum
    for got in (a * b, b * a):
        assert got.order == n
        assert got.coefficients == _product_reference(a, b)[1]


# -- reduction into the power basis, against dense long division ---------------

# Odd orders, prime powers among them; even orders at every size the
# program reaches (bracket, qdim and braid-entry fields up to (23,24));
# 105 and 210, whose cyclotomic polynomials have a coefficient of
# absolute value 2.
_REDUCTION_ORDERS = (
    7, 11, 23, 27, 105, 125, 28, 32, 48, 56, 210, 264, 336, 728, 1104, 2208,
)


def _exponents(order, rng):
    if order <= 64:
        return range(order)
    phi = len(oracles.cyclotomic_poly(order)) - 1
    half = order // 2
    edges = {0, phi - 1, phi, phi + 1, half - 1, half, half + 1, order - 1}
    return sorted(edges | set(rng.sample(range(order), 12)))


@pytest.mark.parametrize("order", _REDUCTION_ORDERS)
def test_reduction_matches_dense_long_division(order):
    rng = random.Random(order)
    lengths = [order, order // 2 + 1, rng.randint(0, order), rng.randint(0, order)]
    for length in lengths:
        coeffs = [rng.randint(-5, 5) if rng.random() < 0.6 else 0 for _ in range(length)]
        want = oracles.reduce_mod_cyclotomic(order, coeffs)
        assert CyclotomicNumber(order, coeffs).coefficients == tuple(want)
    for e in _exponents(order, rng):
        unit = [0] * e + [1]
        assert zeta(order, e).coefficients == tuple(oracles.reduce_mod_cyclotomic(order, unit))


@pytest.mark.parametrize(
    "orders", [range(1, 301), (336, 728, 1104, 2208, 3480, 6888)], ids=["le300", "program"]
)
def test_cyclotomic_matches_moebius_product(orders):
    for n in orders:
        assert _cyclotomic(n) == oracles.cyclotomic_poly(n), n


def test_cyclotomic_over_the_divisors_multiplies_to_x_n_minus_1():
    # A check that does not rest on the Moebius formula _cyclotomic and
    # the oracle share: the Phi_d over d | n multiply out to X^n - 1.
    for n in (*range(1, 301), 2208):
        product = [1]
        for phi_d in (_cyclotomic(d) for d in range(1, n + 1) if n % d == 0):
            out = [0] * (len(product) + len(phi_d) - 1)
            for j, c in enumerate(phi_d):
                if c:
                    for i, a in enumerate(product):
                        out[i + j] += c * a
            product = out
        assert product == [-1] + [0] * (n - 1) + [1], n


def test_reduction_orders_cover_a_coefficient_two():
    for order in (105, 210):
        assert max(abs(c) for c in oracles.cyclotomic_poly(order)) == 2


# -- the elimination kernel, on Fraction matrices against numpy ---------------

_MATRICES = {
    "full rank": [[2, 1, 0], [1, 3, 1], [0, 1, 4]],
    "rank deficient": [[1, 2, 3], [2, 4, 6], [1, 0, 1]],
    "zero row": [[1, 2], [0, 0], [3, 4]],
    "zero column": [[0, 1, 2], [0, 3, 4], [0, 5, 7]],
    "wide": [[1, 2, 3, 4], [2, 4, 6, 9]],
    "all zero": [[0, 0], [0, 0]],
}


def _fractions(rows):
    return [[Fraction(x) for x in row] for row in rows]


def _rank(rows):
    return len(echelon(_fractions(rows))[1])


def _np_rank(rows):
    return int(np.linalg.matrix_rank(np.array(rows, dtype=float)))


def solve(aug):
    """A solution of the system whose augmented matrix is aug, free
    unknowns set to 0; None when the system is inconsistent.  Back
    substitution over `echelon`, and the reference elimination of the
    radical tests in test_cli.py."""
    rows, pivots, _ = echelon(aug)
    width = len(aug[0]) - 1
    if pivots and pivots[-1] == width:
        return None
    sol = [0] * width
    for row, c in reversed(list(zip(rows, pivots))):
        known = sum(row[j] * sol[j] for j in range(c + 1, width))
        sol[c] = (row[width] - known) / row[c]
    return tuple(sol)


def _check_solve(a, b):
    aug = _fractions([row + [rhs] for row, rhs in zip(a, b)])
    sol = solve(aug)
    consistent = _np_rank(a) == _np_rank([row + [rhs] for row, rhs in zip(a, b)])
    if not consistent:
        assert sol is None
        return
    assert sol is not None and len(sol) == len(a[0])
    for row, rhs in zip(a, b):
        assert sum(x * y for x, y in zip(row, sol)) == rhs


@pytest.mark.parametrize("name", sorted(_MATRICES))
def test_echelon_rank_matches_numpy(name):
    assert _rank(_MATRICES[name]) == _np_rank(_MATRICES[name])


def test_echelon_sign_and_pivots_give_det():
    rows, pivots, sign = echelon(_fractions([[0, 2, 1], [3, 1, 0], [1, 1, 1]]))
    assert pivots == (0, 1, 2)
    det = sign * rows[0][0] * rows[1][1] * rows[2][2]
    assert det == round(np.linalg.det([[0, 2, 1], [3, 1, 0], [1, 1, 1]]))


@pytest.mark.parametrize("name", sorted(_MATRICES))
def test_solve_substitutes_back(name):
    a = _MATRICES[name]
    _check_solve(a, [i + 1 for i in range(len(a))])
    _check_solve(a, [sum(row) for row in a])


def test_solve_rejects_inconsistent_systems():
    assert solve(_fractions([[1, 1, 1], [2, 2, 3]])) is None
    assert solve(_fractions([[1, 0, 1], [0, 0, 1]])) is None
    assert solve(_fractions([[0, 0, 1]])) is None
    assert solve(_fractions([[0, 0, 0]])) == (0, 0)


_SMALL_MATRIX = st.integers(1, 5).flatmap(
    lambda cols: st.lists(
        st.lists(st.integers(-2, 2), min_size=cols, max_size=cols),
        min_size=1,
        max_size=5,
    )
)


@given(_SMALL_MATRIX, st.lists(st.integers(-3, 3), min_size=5, max_size=5))
@settings(max_examples=60, deadline=None)
def test_kernel_matches_numpy_on_random_matrices(a, b):
    assert _rank(a) == _np_rank(a)
    _check_solve(a, b[: len(a)])
