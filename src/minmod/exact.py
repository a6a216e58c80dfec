"""Exact arithmetic in the cyclotomic fields Q(zeta_N).

A value is a polynomial in zeta_N = exp(2*pi*i/N) reduced modulo the
N-th cyclotomic polynomial, stored as integer coefficients over a
common positive denominator.  The reduced form is canonical, so
equality and in particular nonvanishing are decided exactly.  A
floating-point embedding with a tracked error bound is available as a
numeric cross-check, never as the source of truth.
"""

from __future__ import annotations

import cmath
import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm
from typing import NamedTuple, Union

Rational = Union[int, Fraction]


class DivisionByZero(ZeroDivisionError):
    """Raised when a vanishing value appears in a denominator."""


@lru_cache(maxsize=None)
def _cyclotomic(n: int) -> tuple[int, ...]:
    """Integer coefficients of the n-th cyclotomic polynomial, ascending.

    Phi_n(X) = Phi_{n/p}(X^p) whenever p^2 divides n, so the work is done
    at the radical of n.  A squarefree n is computed by dividing X^n - 1
    by Phi_d over its proper divisors d.
    """
    if n == 1:
        return (-1, 1)
    p = next((k for k in range(2, isqrt(n) + 1) if n % (k * k) == 0), None)
    if p is not None:
        base = _cyclotomic(n // p)
        poly = [0] * ((len(base) - 1) * p + 1)
        poly[::p] = base
        return tuple(poly)
    poly = [0] * (n + 1)
    poly[0] = -1
    poly[n] = 1
    for d in range(1, n // 2 + 1):
        if n % d == 0:
            poly, rem = _poly_divmod(poly, _cyclotomic(d))
            if rem:
                raise ArithmeticError("inexact polynomial division")
    return tuple(poly)


@lru_cache(maxsize=None)
def _reduction_tail(n: int) -> tuple[tuple[int, int], ...]:
    # The nonzero terms (k, -c_k) of the monic Phi_n below its leading
    # one, so zeta_n^phi = sum of -c_k * zeta_n^k.  Phi_n is sparse at the
    # orders used here (30 terms at n = 2208, where phi = 704).
    poly = _cyclotomic(n)
    return tuple((k, -c) for k, c in enumerate(poly[:-1]) if c)


def _degree(n: int) -> int:
    return len(_cyclotomic(n)) - 1


def _reduce(vec: list[int], n: int) -> list[int]:
    # vec holds coefficients for exponents 0..len(vec)-1, already < n.
    # For even n, zeta_n^(n/2) = -1 folds the upper half first; then long
    # division by Phi_n, top exponent down, visits only its nonzero terms.
    phi = _degree(n)
    out = list(vec) + [0] * (phi - len(vec))
    half = n // 2
    if n % 2 == 0 and len(out) > half:
        for j in range(half, len(out)):
            out[j - half] -= out[j]
        del out[half:]
    if len(out) > phi:
        tail = _reduction_tail(n)
        for j in range(len(out) - 1, phi - 1, -1):
            c = out[j]
            if c:
                base = j - phi
                for k, t in tail:
                    out[base + k] += c * t
        del out[phi:]
    return out


def _poly_divmod(
    num: list[Fraction], den: list[Fraction]
) -> tuple[list[Fraction], list[Fraction]]:
    # den is monic, so integer coefficients stay integers.  Returns
    # (quotient, remainder) with deg rem < deg den.
    num = list(num)
    dd = len(den) - 1
    if len(num) < len(den):
        return [], num
    out = [Fraction(0)] * (len(num) - dd)
    for i in range(len(num) - dd - 1, -1, -1):
        c = num[i + dd]
        out[i] = c
        if c:
            for j in range(dd + 1):
                num[i + j] -= c * den[j]
    rem = num[: dd]
    while rem and not rem[-1]:
        rem.pop()
    return out, rem


def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _poly_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = list(a) + [Fraction(0)] * (len(b) - len(a))
    for i, y in enumerate(b):
        out[i] -= y
    while out and not out[-1]:
        out.pop()
    return out


def _inv_coeffs(num: tuple[int, ...], den: int, order: int) -> tuple[list[int], int]:
    """Invert (sum num[k] zeta^k) / den modulo Phi_order.

    Extended Euclid over Q[x] against the (irreducible) cyclotomic
    polynomial; the divisor is kept monic at each step to limit
    coefficient growth.
    """
    a = [Fraction(c) for c in num]
    while a and not a[-1]:
        a.pop()
    if not a:
        raise DivisionByZero("inverse of zero")
    r0: list[Fraction] = [Fraction(c) for c in _cyclotomic(order)]
    s0: list[Fraction] = []
    r1, s1 = a, [Fraction(1)]
    while True:
        lc = r1[-1]
        if lc != 1:
            r1 = [c / lc for c in r1]
            s1 = [c / lc for c in s1]
        if len(r1) == 1:
            break
        q, rem = _poly_divmod(r0, r1)
        r0, s0, r1, s1 = r1, s1, rem, _poly_sub(s0, _poly_mul(q, s1))
        assert r1, "cyclotomic polynomial is irreducible"
    # s1 * (num/den) == 1, so the inverse is den * s1.
    scaled = [den * c for c in s1]
    common = lcm(*(c.denominator for c in scaled)) if scaled else 1
    ints = [int(c * common) for c in scaled]
    ints += [0] * (_degree(order) - len(ints))
    return ints, common


class CyclotomicNumber:
    """An element of Q(zeta_N) in canonical reduced form.

    Supports field arithmetic through the usual operators, exact
    comparison with rationals and with elements of compatible orders
    (values are promoted to the least common order first), Galois
    conjugation, and embedding into the complex numbers.

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
    def from_rational(cls, value: Rational, order: int = 1) -> "CyclotomicNumber":
        value = Fraction(value)
        vec = [value.numerator] + [0] * (_degree(order) - 1)
        return cls._raw(order, vec, value.denominator)

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        """Canonical coordinates in the power basis 1, zeta, ..., zeta^(phi-1)."""
        return tuple(Fraction(c, self._den) for c in self._num)

    # -- order handling -------------------------------------------------

    def _promoted_vec(self, order: int) -> list[int]:
        t = order // self.order
        if t == 1:
            return list(self._num)
        vec = [0] * ((len(self._num) - 1) * t + 1 if self._num else 1)
        for e, c in enumerate(self._num):
            if c:
                vec[e * t] = c
        return _reduce(vec, order)

    def promote(self, order: int) -> "CyclotomicNumber":
        """Re-express the value in Q(zeta_order); order must be a multiple."""
        if order % self.order:
            raise ValueError(f"{order} is not a multiple of order {self.order}")
        if order == self.order:
            return self
        return CyclotomicNumber._raw(order, self._promoted_vec(order), self._den)

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
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        den = lcm(a._den, b._den)
        fa, fb = den // a._den, den // b._den
        vec = [fa * x + fb * y for x, y in zip(a._num, b._num)]
        return CyclotomicNumber._raw(a.order, vec, den)

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicNumber._raw(self.order, [-c for c in self._num], self._den)

    def __sub__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return a + (-b)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        n = a.order
        conv = [0] * (len(a._num) + len(b._num) - 1)
        for i, x in enumerate(a._num):
            if x:
                for j, y in enumerate(b._num):
                    if y:
                        conv[i + j] += x * y
        if len(conv) > n:
            for k in range(n, len(conv)):
                conv[k - n] += conv[k]
            conv = conv[:n]
        return CyclotomicNumber._raw(n, _reduce(conv, n), a._den * b._den)

    __rmul__ = __mul__

    def inv(self) -> "CyclotomicNumber":
        """Multiplicative inverse; raises DivisionByZero on zero."""
        vec, den = _inv_coeffs(self._num, self._den, self.order)
        return CyclotomicNumber._raw(self.order, vec, den)

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
        result = CyclotomicNumber.from_rational(1, base.order)
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    # -- predicates -------------------------------------------------------

    def __eq__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return a._num == b._num and a._den == b._den

    def __bool__(self) -> bool:
        return any(self._num)

    def is_zero(self) -> bool:
        return not any(self._num)

    def is_one(self) -> bool:
        return self._den == 1 and self._num[0] == 1 and not any(self._num[1:])

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

    def embed(self) -> "ComplexApprox":
        """Numeric value under zeta_N -> exp(2*pi*i/N), in doubles.

        The error bound is the coarse a-priori estimate
        2^-40 * (1 + sum |coefficients|), generous enough to absorb the
        rounding of the exponentials.
        """
        scale = sum(abs(c) for c in self._num)
        bound = 2.0 ** -40 * float(1 + Fraction(scale, self._den))
        total = 0j
        n = self.order
        for e, c in enumerate(self._num):
            if c:
                total += c * cmath.exp(2j * cmath.pi * e / n)
        total /= self._den
        return ComplexApprox(total.real, total.imag, bound)

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
    r"^(?:(?P<coef>\d+(?:/\d+)?)\*?)?(?:z(?P<order>\d+)(?:\^(?P<exp>\d+))?)?$"
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


def two_i_sin(k: int, b: int, order: int) -> CyclotomicNumber:
    """2i*sin(pi*k/b) as zeta_{2b}^k - zeta_{2b}^{-k}, in Q(zeta_order).

    order must be a multiple of 2b.
    """
    step = order // (2 * b)
    return zeta(order, k * step) - zeta(order, -k * step)


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


def solve(aug):
    """A solution of the system whose augmented matrix is aug, free
    unknowns set to 0; None when the system is inconsistent."""
    rows, pivots, _ = echelon(aug)
    width = len(aug[0]) - 1
    if pivots and pivots[-1] == width:
        return None
    sol = [0] * width
    for row, c in reversed(list(zip(rows, pivots))):
        known = sum(row[j] * sol[j] for j in range(c + 1, width))
        sol[c] = (row[width] - known) / row[c]
    return tuple(sol)


class ComplexApprox(NamedTuple):
    """A complex float approximation with an absolute error bound."""

    real: float
    imag: float
    error_bound: float

    def __complex__(self) -> complex:
        return complex(self.real, self.imag)

    def __str__(self) -> str:
        return f"{self.real:+.12g}{self.imag:+.12g}i (err<={self.error_bound:.2g})"
