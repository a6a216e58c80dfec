"""Exact arithmetic in the cyclotomic fields Q(zeta_N).

A value is a polynomial in zeta_N = exp(2*pi*i/N) reduced modulo the
N-th cyclotomic polynomial, stored as integer coefficients over a
common positive denominator.  The reduced form is canonical, so
equality and in particular nonvanishing are decided exactly.  A
floating-point embedding in plain doubles, with no error bound, is
available as a numeric cross-check, never as the source of truth.
"""

from __future__ import annotations

import cmath
import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod
from typing import Union

Rational = Union[int, Fraction]


class DivisionByZero(ZeroDivisionError):
    """Raised when a vanishing value appears in a denominator."""


def _primes(n: int) -> list[int]:
    # The distinct primes of n, ascending, by trial division up to sqrt(n).
    primes, p = [], 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return primes + [n] if n > 1 else primes


@lru_cache(maxsize=None)
def _cyclotomic(n: int) -> tuple[int, ...]:
    """Integer coefficients of the n-th cyclotomic polynomial, ascending.

    For n > 1, Phi_n(X) is the product over squarefree s | n of
    (1 - X^(n/s))^mu(s), which is prod (X^d - 1)^mu(n/d) as mu sums to 0.
    Taken as a power series mod X^(phi+1), a factor 1 - X^d subtracts the
    series shifted by d, top down, and its inverse adds it back, bottom up.
    """
    if n == 1:
        return (-1, 1)
    primes = _primes(n)
    phi = n * prod(p - 1 for p in primes) // prod(primes)
    factors = [(n, 1)]
    for p in primes:
        factors += [(d // p, -mu) for d, mu in factors]
    poly = [1] + [0] * phi
    for d, mu in factors:
        if mu > 0:
            for i in range(phi, d - 1, -1):
                poly[i] -= poly[i - d]
        else:
            for i in range(d, phi + 1):
                poly[i] += poly[i - d]
    return tuple(poly)


@lru_cache(maxsize=None)
def _field(n: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    # What every _reduce at n reads: phi and the nonzero terms (k, -c_k)
    # of the monic Phi_n below its leading one, so zeta_n^phi = sum of
    # -c_k * zeta_n^k.  Phi_n is sparse at the orders used here (30 terms
    # at n = 2208, where phi = 704).
    poly = _cyclotomic(n)
    return len(poly) - 1, tuple((k, -c) for k, c in enumerate(poly[:-1]) if c)


def _reduce(vec: list[int], n: int) -> list[int]:
    # vec holds coefficients for exponents 0..len(vec)-1, below 2n, and is
    # reduced in place.  zeta_n^n = 1 folds the exponents from n up; for
    # even n, zeta_n^(n/2) = -1 then folds the upper half; then long
    # division by Phi_n, top exponent down, visits only its nonzero terms.
    phi, tail = _field(n)
    out = vec
    out += [0] * (phi - len(out))
    if len(out) > n:
        for j in range(n, len(out)):
            out[j - n] += out[j]
        del out[n:]
    half = n // 2
    if n % 2 == 0 and len(out) > half:
        for j in range(half, len(out)):
            out[j - half] -= out[j]
        del out[half:]
    if len(out) > phi:
        for j in range(len(out) - 1, phi - 1, -1):
            c = out[j]
            if c:
                base = j - phi
                for k, t in tail:
                    out[base + k] += c * t
        del out[phi:]
    return out


class CyclotomicNumber:
    """An element of Q(zeta_N) in canonical reduced form.

    Supports field arithmetic through the usual operators, exact
    comparison with rationals, Galois conjugation, and embedding into
    the complex numbers.  Values of different orders meet in the field
    of their least common order: a product scatters both coefficient
    vectors straight into it, while sums and comparisons promote both
    operands first.  A zero operand costs no arithmetic: the product is
    the zero of that field, and the sum the other operand when its field
    holds the zero's.

    Instances are immutable.  Hashing is disabled on purpose: equal
    values of different orders would need a normalized key, and nothing
    downstream keys on field elements.
    """

    __slots__ = ("order", "_num", "_den")

    __hash__ = None

    def __init__(self, order: int, coefficients) -> None:
        if order < 1:
            raise ValueError(f"order must be positive, got {order}")
        coeffs = [Fraction(c) for c in coefficients]
        if len(coeffs) > order:
            raise ValueError("more coefficients than the order allows")
        den = lcm(*(c.denominator for c in coeffs)) if coeffs else 1
        vec = _reduce([int(c * den) for c in coeffs], order)
        object.__setattr__(self, "order", order)
        self._store(vec, den)

    def _store(self, vec: list[int], den: int) -> None:
        g = gcd(den, *vec) if vec else den
        if g > 1:
            den //= g
            vec = [c // g for c in vec]
        if den < 0:
            den = -den
            vec = [-c for c in vec]
        object.__setattr__(self, "_num", tuple(vec))
        object.__setattr__(self, "_den", den)

    def __setattr__(self, name, value):
        raise AttributeError("CyclotomicNumber is immutable")

    @classmethod
    def _raw(cls, order: int, vec: list[int], den: int) -> "CyclotomicNumber":
        # vec already reduced mod Phi_order, length phi(order).
        self = object.__new__(cls)
        object.__setattr__(self, "order", order)
        self._store(vec, den)
        return self

    @classmethod
    def from_rational(cls, value: Rational) -> "CyclotomicNumber":
        value = Fraction(value)
        return cls._raw(1, [value.numerator], value.denominator)

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        """Canonical coordinates in the power basis 1, zeta, ..., zeta^(phi-1)."""
        return tuple(Fraction(c, self._den) for c in self._num)

    # -- order handling -------------------------------------------------

    def promote(self, order: int) -> "CyclotomicNumber":
        """Re-express the value in Q(zeta_order); order must be a multiple."""
        if order % self.order:
            raise ValueError(f"{order} is not a multiple of order {self.order}")
        if order == self.order:
            return self
        t = order // self.order
        vec = [0] * ((len(self._num) - 1) * t + 1)
        vec[::t] = self._num
        return CyclotomicNumber._raw(order, _reduce(vec, order), self._den)

    def at_conductor(self) -> "CyclotomicNumber":
        """The same value in Q(zeta_c), c the least order whose field holds it.

        Each prime p of the order n is taken off while the value lies in
        Q(zeta_{n/p}), that is while its trace there over the degree, y,
        promotes back to it.  When p^2 | n, Phi_n(X) = Phi_{n/p}(X^p) and y
        is the slice of exponents p divides.  Otherwise zeta_n^e traces to
        zeta_{n/p}^(e/p mod n/p) times p - 1 if p | e, else -1.
        """
        x = self
        for p in _primes(self.order):
            while x.order % p == 0:
                n, m = x.order, x.order // p
                if m % p == 0:
                    y = CyclotomicNumber._raw(m, list(x._num[::p]), x._den)
                else:
                    vec, r = [0] * m, pow(p, -1, m)
                    for e, c in enumerate(x._num):
                        if c:
                            vec[e * r % m] += c * (p - 1) if e % p == 0 else -c
                    y = CyclotomicNumber._raw(m, _reduce(vec, m), x._den * (p - 1))
                if y.promote(n) != x:
                    break
                x = y
        return x

    @staticmethod
    def _coerce(value) -> "CyclotomicNumber":
        if isinstance(value, CyclotomicNumber):
            return value
        if isinstance(value, (int, Fraction)):
            return CyclotomicNumber.from_rational(value)
        return NotImplemented

    def _pair(self, other) -> "tuple[CyclotomicNumber, CyclotomicNumber] | None":
        other = self._coerce(other)
        if other is NotImplemented:
            return None
        n = lcm(self.order, other.order)
        return self.promote(n), other.promote(n)

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        if other.__class__ is not CyclotomicNumber or other.order != self.order:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
            # a zero summand whose field lies inside the other's changes nothing
            if other.order % self.order == 0 and not any(self._num):
                return other
            if self.order % other.order == 0 and not any(other._num):
                return self
            self, other = self._pair(other)
        if self._den == other._den:
            den, vec = self._den, [x + y for x, y in zip(self._num, other._num)]
        else:
            den = lcm(self._den, other._den)
            fa, fb = den // self._den, den // other._den
            vec = [fa * x + fb * y for x, y in zip(self._num, other._num)]
        return CyclotomicNumber._raw(self.order, vec, den)

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicNumber._raw(self.order, [-c for c in self._num], self._den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        # Both factors go straight into Q(zeta_n), n the least common
        # order: x_i * y_j lands at exponent i*(n/n1) + j*(n/n2).
        n = self.order
        if other.__class__ is CyclotomicNumber and other.order == n:
            s = t = 1
        else:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
            n = lcm(n, other.order)
            s, t = n // self.order, n // other.order
        if not any(self._num) or not any(other._num):
            return CyclotomicNumber._raw(n, [0] * _field(n)[0], 1)
        ys = [(j * t, y) for j, y in enumerate(other._num) if y]
        conv = [0] * ((len(self._num) - 1) * s + (len(other._num) - 1) * t + 1)
        for i, x in enumerate(self._num):
            if x:
                base = i * s
                for e, y in ys:
                    conv[base + e] += x * y
        return CyclotomicNumber._raw(n, _reduce(conv, n), self._den * other._den)

    __rmul__ = __mul__

    def inv(self) -> "CyclotomicNumber":
        """Multiplicative inverse; raises DivisionByZero on zero.

        x^-1 = c / (x*c), with c the product of x's images under the
        Galois maps that fix a subfield, so that x*c lies in it.  When r^2
        divides the order n, the maps zeta -> zeta^(1 + j*n/r) fix
        Q(zeta_{n/r}), and Phi_n(X) = Phi_{n/r}(X^r) puts x*c there at
        every r-th coefficient.  Otherwise n is squarefree, and the maps of
        each odd prime r in turn (all k = 1 mod n/r but the one k = 0 mod r)
        leave a rational.  The result keeps the order n.
        """
        if not any(self._num):
            raise DivisionByZero("inverse of zero")
        n = self.order
        primes = _primes(n)
        r = next((p for p in primes if n % (p * p) == 0), None)
        if r is not None:
            c = prod(self.conjugate(1 + j * (n // r)) for j in range(1, r))
            y = self * c
            return c * CyclotomicNumber._raw(n // r, list(y._num[::r]), y._den).inv()
        c, y = zeta(n, 0), self
        for r in (p for p in primes if p > 2):
            ks = (1 + j * (n // r) for j in range(1, r))
            norm = prod(y.conjugate(k) for k in ks if k % r)
            c, y = c * norm, y * norm
        return c * Fraction(y._den, y._num[0])

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inv()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        base = self
        if exponent < 0:
            base = self.inv()
            exponent = -exponent
        result = CyclotomicNumber.from_rational(1)
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    # -- predicates -------------------------------------------------------

    def __eq__(self, other):
        if other.__class__ is CyclotomicNumber and other.order == self.order:
            return self._num == other._num and self._den == other._den
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return a._num == b._num and a._den == b._den

    def __bool__(self) -> bool:
        return any(self._num)

    def is_zero(self) -> bool:
        return not any(self._num)

    def is_rational(self) -> bool:
        return not any(self._num[1:])

    def is_real(self) -> bool:
        return self == self.conj()

    # -- Galois action ------------------------------------------------------

    def conjugate(self, k: int) -> "CyclotomicNumber":
        """Apply the Galois map zeta -> zeta^k; k must be coprime to the order."""
        n = self.order
        k %= n
        if gcd(k, n) != 1:
            raise ValueError(f"exponent {k} is not coprime to {n}")
        vec = [0] * n
        for e, c in enumerate(self._num):
            if c:
                vec[e * k % n] += c
        return CyclotomicNumber._raw(n, _reduce(vec, n), self._den)

    def conj(self) -> "CyclotomicNumber":
        """Complex conjugate."""
        return self.conjugate(self.order - 1)

    # -- embedding ----------------------------------------------------------

    def embed(self) -> complex:
        """Numeric value under zeta_N -> exp(2*pi*i/N), in doubles."""
        total = 0j
        n = self.order
        for e, c in enumerate(self._num):
            if c:
                total += c * cmath.exp(2j * cmath.pi * e / n)
        return total / self._den

    # -- rendering ------------------------------------------------------------

    def to_string(self) -> str:
        sym = f"z{self.order}"
        parts: list[tuple[int, str]] = []
        for e, c in enumerate(self._num):
            if not c:
                continue
            mag = Fraction(abs(c), self._den)
            if e == 0:
                body = str(mag)
            else:
                mono = sym if e == 1 else f"{sym}^{e}"
                body = mono if mag == 1 else f"{mag}*{mono}"
            parts.append((1 if c > 0 else -1, body))
        if not parts:
            return "0"
        sign, body = parts[0]
        out = [("-" if sign < 0 else "") + body]
        for sign, body in parts[1:]:
            out.append((" + " if sign > 0 else " - ") + body)
        return "".join(out)

    __str__ = to_string

    def __repr__(self) -> str:
        return self.to_string()


_TERM_RE = re.compile(
    r"^(?:(?P<coef>\d+(?:/0*[1-9]\d*)?)\*?)?(?:z(?P<order>\d+)(?:\^(?P<exp>\d+))?)?$"
)


def parse_exact(text: str) -> CyclotomicNumber:
    """Parse the to_string form back into a value.

    Anything after a top-level " = " (an appended radical rendering) is
    ignored, so round-tripping report output works unchanged.
    """
    text = text.split(" = ")[0].strip()
    if not text:
        raise ValueError("empty cyclotomic literal")
    text = text.replace(" - ", " + -").lstrip()
    total = CyclotomicNumber.from_rational(0)
    for chunk in text.split(" + "):
        chunk = chunk.strip()
        sign = 1
        if chunk.startswith("-"):
            sign = -1
            chunk = chunk[1:].strip()
        m = _TERM_RE.match(chunk)
        if not m or (m.group("coef") is None and m.group("order") is None):
            raise ValueError(f"bad cyclotomic term {chunk!r}")
        coef = Fraction(m.group("coef")) if m.group("coef") else Fraction(1)
        if m.group("order"):
            order = int(m.group("order"))
            exp = int(m.group("exp")) if m.group("exp") else 1
            term = sign * coef * zeta(order, exp)
        else:
            term = CyclotomicNumber.from_rational(sign * coef)
        total = total + term
    return total


def zeta(order: int, exponent: int = 1) -> CyclotomicNumber:
    """The root of unity zeta_order^exponent as an exact value."""
    if order < 1:
        raise ValueError(f"order must be positive, got {order}")
    e = exponent % order
    vec = [0] * (e + 1)
    vec[e] = 1
    return CyclotomicNumber._raw(order, _reduce(vec, order), 1)


@lru_cache(maxsize=None)
def two_i_sin(k: int, b: int) -> CyclotomicNumber:
    """2i*sin(pi*k/b) as zeta_{2b}^k - zeta_{2b}^{-k}, in Q(zeta_{2b})."""
    return zeta(2 * b, k) - zeta(2 * b, -k)


@lru_cache(maxsize=None)
def sine_inv(k: int, b: int) -> CyclotomicNumber:
    """1 / (2i*sin(pi*k/b)) in Q(zeta_{2b}); DivisionByZero when b divides k.

    With zeta = zeta_{2b} and w = zeta^(2k) of order m = b/gcd(k, b),
    sum_{s<m} s*w^s = m/(w - 1), so 1/(zeta^k - zeta^-k) = zeta^k/(w - 1)
    is zeta^k * sum_{s<m} s*w^s / m: no field inverse.
    """
    m = b // gcd(k, b)
    if m == 1:
        raise DivisionByZero("inverse of zero")
    n = 2 * b
    vec = [0] * n
    for s in range(1, m):
        vec[(k + 2 * k * s) % n] += s
    return CyclotomicNumber._raw(n, _reduce(vec, n), m)


def echelon(rows):
    """Row echelon form by forward elimination over an exact field.

    Entries may be Fractions or CyclotomicNumbers: only truth, *, - and
    1 / x are used.  Each pivot is inverted once and only the entries
    right of it are updated.  Returns (rows, pivot_cols, sign): row i has
    its pivot in column pivot_cols[i] and holds the reduced values from
    there on; entries left of that, and the rows past the last pivot, are
    stale.  sign is the parity of the row swaps.
    """
    rows = [list(row) for row in rows]
    width = len(rows[0]) if rows else 0
    pivots: list[int] = []
    sign = 1
    for c in range(width):
        r = len(pivots)
        hit = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if hit is None:
            continue
        if hit != r:
            rows[r], rows[hit] = rows[hit], rows[r]
            sign = -sign
        pivots.append(c)
        if c + 1 == width:
            break
        top = rows[r]
        inv = 1 / top[c]
        for row in rows[r + 1:]:
            if row[c]:
                f = row[c] * inv
                row[c + 1:] = [x - f * y for x, y in zip(row[c + 1:], top[c + 1:])]
    return rows, tuple(pivots), sign

