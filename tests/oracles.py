"""Independent numeric oracles for the test suite.

Everything here recomputes results through a different route than the
package: plain complex floats for the braid recursion, a numpy S-matrix
for fusion multiplicities, integer power iteration for quantum
dimensions, the permutation expansion for determinants, dense long
division by a Moebius-product cyclotomic polynomial for the reduction
into the power basis, plain dictionary sums for the fusion-ring
axioms, and images in F_l at a split prime l for exact field values.
Nothing imports from minmod.
"""
import cmath
import functools
import itertools
import math
from fractions import Fraction

import numpy as np


# -- labels and admissibility -------------------------------------------------

def weight(p, q, m, n):
    return Fraction((n * p - m * q) ** 2 - (p - q) ** 2, 4 * p * q)


def canonical(p, q, m, n):
    return min((m, n), (p - m, q - n))


@functools.lru_cache(maxsize=None)
def labels(p, q):
    out = set()
    for m in range(1, p):
        for n in range(1, q):
            out.add(canonical(p, q, m, n))
    return tuple(sorted(out, key=lambda t: (weight(p, q, *t), t)))


def _raw_adm(p, q, t1, t2, t3):
    for tri, bound in (((t1[0], t2[0], t3[0]), p), ((t1[1], t2[1], t3[1]), q)):
        a, b, c = tri
        if not all(0 < x < bound for x in tri):
            return False
        if (a + b + c) % 2 == 0 or a + b + c >= 2 * bound:
            return False
        if a >= b + c or b >= a + c or c >= a + b:
            return False
    return True


def adm(p, q, t1, t2, t3):
    c1, c2, c3 = (canonical(p, q, *t) for t in (t1, t2, t3))
    flip = (p - c3[0], q - c3[1])
    return _raw_adm(p, q, c1, c2, c3) or _raw_adm(p, q, c1, c2, flip)


def fuse(p, q, a, b):
    return [c for c in labels(p, q) if adm(p, q, a, b, c)]


# -- Verlinde route -----------------------------------------------------------

def s_matrix(p, q):
    labs = labels(p, q)
    k = len(labs)
    S = np.zeros((k, k))
    for i, (m, n) in enumerate(labs):
        for j, (mp, nq) in enumerate(labs):
            S[i, j] = (
                2 * math.sqrt(2 / (p * q)) * (-1) ** (1 + m * nq + n * mp)
                * math.sin(math.pi * q * m * mp / p)
                * math.sin(math.pi * p * n * nq / q)
            )
    return labs, S


def verlinde_tensor(p, q):
    """N[a,b,c] from the S-matrix; entries land within 1e-8 of integers.

    The division is by the vacuum's row, which in a non-unitary model
    is not the row of the label of least weight.
    """
    labs, S = s_matrix(p, q)
    return labs, np.einsum("ax,bx,cx->abc", S, S, S / S[labs.index((1, 1))])


# -- Perron-Frobenius route ---------------------------------------------------

@functools.lru_cache(maxsize=None)
def pf_qdim(p, q, a, tol=Fraction(1, 10**11), max_iter=5000):
    """Spectral radius of the fusion matrix of a, minus nothing.

    Power iteration on N_a + I with exact Collatz-Wielandt bounds: for
    any positive integer vector v, min_i (Bv)_i/v_i and max_i (Bv)_i/v_i
    bracket the top eigenvalue.  The +I shift separates the dominant
    eigenvalue from same-modulus rotations, and every communicating
    class shares the same top value because the qdim vector is a
    strictly positive eigenvector.  Returns an exact Fraction once the
    bracket is tighter than tol.
    """
    labs = labels(p, q)
    index = {lab: k for k, lab in enumerate(labs)}
    rows = [
        [index[c] for c in labs if adm(p, q, a, b, c)] for b in labs
    ]
    v = [1] * len(labs)
    for _ in range(max_iter):
        w = [sum(v[j] for j in row) + v[i] for i, row in enumerate(rows)]
        lo = min(Fraction(w[i], v[i]) for i in range(len(v)))
        hi = max(Fraction(w[i], v[i]) for i in range(len(v)))
        if hi - lo < tol:
            return (lo + hi) / 2 - 1
        v = w
        top = max(v).bit_length()
        if top > 200:
            shift = top - 140
            v = [max(x >> shift, 1) for x in v]
    raise AssertionError(f"no convergence for {a} at ({p},{q})")


def sine_qdim(p, q, m, n):
    """Closed-form check value, kept separate from both other routes."""
    num = math.sin(math.pi * q * m / p) * math.sin(math.pi * p * n / q)
    den = math.sin(math.pi * q / p) * math.sin(math.pi * p / q)
    return abs(num / den)


# -- float braid route --------------------------------------------------------

class Side:
    """One chirality of the hexagon data: brackets at one root, floats."""

    def __init__(self, bound, alpha_sq):
        self.bound = bound
        self.alpha_sq = alpha_sq
        self.memo = {}

    def tq(self, k):
        return cmath.exp(2j * cmath.pi * float(self.alpha_sq) * k / 4)

    def br(self, l):
        return self.tq(2 * l) - self.tq(-2 * l)

    def adm(self, r, s, t):
        b = self.bound
        if not all(0 < x < b for x in (r, s, t)):
            return False
        if (r + s + t) % 2 == 0 or r + s + t >= 2 * b:
            return False
        return abs(r - s) < t < r + s

    def support(self, a, m, n, c, b, d):
        return (self.adm(m, b, a) and self.adm(n, c, b)
                and self.adm(n, d, a) and self.adm(m, c, d))

    def r(self, a, m, n, c, b, d):
        key = (a, m, n, c, b, d)
        if key not in self.memo:
            self.memo[key] = self._r(a, m, n, c, b, d)
        return self.memo[key]

    def _r(self, a, m, n, c, b, d):
        if not all(0 < x < self.bound for x in (a, m, n, c, b, d)):
            raise ValueError(f"index out of range: {(a, m, n, c, b, d)}")
        if not self.support(a, m, n, c, b, d):
            return 0
        if m == 1:
            return 1 if (b, d) == (a, c) else 0
        if n == 1:
            return 1 if (b, d) == (c, a) else 0
        if m == 2 and n == 2:
            if c in (a + 2, a - 2):
                l = (a + c) // 2
                return self.tq(1) if (b, d) == (l, l) else 0
            if c == a:
                l = a
                if (b, d) == (l + 1, l + 1):
                    return -self.tq(-1 - 2 * l) * self.br(1) / self.br(l)
                if (b, d) == (l - 1, l - 1):
                    return self.tq(-1 + 2 * l) * self.br(1) / self.br(l)
                if (b, d) == (l + 1, l - 1):
                    return self.tq(-1) * self.br(l + 1) / self.br(l)
                if (b, d) == (l - 1, l + 1):
                    return self.tq(-1) * self.br(l - 1) / self.br(l)
            return 0
        if m > 2:
            a1 = self.choose(a, m, b)
            total = 0
            for d1 in (d - 1, d + 1):
                if 0 < d1 < self.bound:
                    total += (self.r(a, 2, n, d1, a1, d)
                              * self.r(a1, m - 1, n, c, b, d1))
            return total
        c1 = self.choose(b, n, c)
        total = 0
        for d1 in (a - 1, a + 1):
            if 0 < d1 < self.bound:
                total += (self.r(a, m, 2, c1, b, d1)
                          * self.r(d1, m, n - 1, c, c1, d))
        return total

    def choose(self, a, m, b):
        for a1 in (a - 1, a + 1):
            if 0 < a1 < self.bound and self.adm(m - 1, b, a1):
                return a1
        raise ValueError(f"no admissible splitting for {(a, m, b)}")


def sides(p):
    """(unprimed, primed) recursion sides for the unitary model (p, p+1)."""
    return Side(p, Fraction(p + 1, p)), Side(p + 1, Fraction(p, p + 1))


def ffk_indices(m, n):
    return (n, m)


def braid_entry(p, exts, mu, gamma, cache={}):
    """Entry (B_{a4,a1}^{a3,a2})_{mu,gamma} for the model (p, p+1)."""
    if p not in cache:
        cache[p] = sides(p)
    un, pr = cache[p]
    a4, a1, a3, a2 = exts
    n_p, n = ffk_indices(*a1)
    m_p, m = ffk_indices(*a4)
    c_p, c = ffk_indices(*a3)
    a_p, a = ffk_indices(*a2)
    b_p, b = ffk_indices(*mu)
    d_p, d = ffk_indices(*gamma)
    ipow = (-(m_p - 1) * (n - 1) - (n_p - 1) * (m - 1)) % 4
    doubled = (a - b + c - d) * (n_p + m) + (a_p - b_p + c_p - d_p) * (n + m)
    if doubled % 2:
        raise ValueError("non-integer sign exponent")
    sign = -1 if (doubled // 2) % 2 else 1
    return (1j ** ipow * sign
            * pr.r(a_p, m_p, n_p, c_p, b_p, d_p)
            * un.r(a, m, n, c, b, d))


def braid_matrix(p, q, exts):
    assert q == p + 1
    rows = [x for x in labels(p, q)
            if adm(p, q, exts[2], x, exts[0]) and adm(p, q, exts[3], exts[1], x)]
    cols = [x for x in labels(p, q)
            if adm(p, q, exts[3], x, exts[0]) and adm(p, q, exts[2], exts[1], x)]
    entries = {(mu, ga): braid_entry(p, exts, mu, ga)
               for mu in rows for ga in cols}
    return rows, cols, entries


# -- fusion-ring axioms --------------------------------------------------------

def ring_axioms(keys, multiply, unit):
    """First counterexamples (unit, commutativity, associativity) over keys,
    None where the axiom holds; products as dicts label -> multiplicity."""
    def prod(a, b):
        return {c: n for c, n in multiply(a, b).items() if n}

    def times(counts, c, on_right):
        out = {}
        for e, m1 in counts.items():
            for d, m2 in prod(*((e, c) if on_right else (c, e))).items():
                out[d] = out.get(d, 0) + m1 * m2
        return {d: n for d, n in out.items() if n}

    keys = list(keys)
    return (
        next(((a,) for a in keys if prod(unit, a) != {a: 1}), None),
        next(((a, b) for a, b in itertools.product(keys, repeat=2)
              if prod(a, b) != prod(b, a)), None),
        next(((a, b, c) for a, b, c in itertools.product(keys, repeat=3)
              if times(prod(a, b), c, True) != times(prod(b, c), a, False)), None),
    )


# -- Leibniz determinant ------------------------------------------------------

def leibniz_det(matrix):
    """Determinant as the signed sum over all k! permutations.

    Entries may come from any commutative ring that mixes with Python
    ints under +, - and *; the empty matrix gives 1.
    """
    k = len(matrix)
    total = 0
    for perm in itertools.permutations(range(k)):
        term = 1
        for i, j in enumerate(perm):
            term = term * matrix[i][j]
        inversions = sum(perm[i] > perm[j] for i in range(k) for j in range(i + 1, k))
        total = total + (-term if inversions % 2 else term)
    return total


# -- cyclotomic reduction -----------------------------------------------------

def _mobius(n):
    sign, m, d = 1, n, 2
    while d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return 0
            sign = -sign
        d += 1
    return -sign if m > 1 else sign


def _times_xd_minus_1(poly, d):
    out = [0] * (len(poly) + d)
    for i, c in enumerate(poly):
        out[i + d] += c
        out[i] -= c
    return out


def _long_divide(num, den):
    """(quotient, remainder) of integer polynomials, ascending; den monic."""
    num = list(num)
    dd = len(den) - 1
    quot = [0] * max(len(num) - dd, 0)
    for j in range(len(num) - 1, dd - 1, -1):
        c = num[j]
        quot[j - dd] = c
        if c:
            for i in range(dd + 1):
                num[j - dd + i] -= c * den[i]
    return quot, num[:dd] + [0] * (dd - len(num))


@functools.lru_cache(maxsize=None)
def cyclotomic_poly(n):
    """Phi_n, ascending integer coefficients, as the product over d | n
    of (x^d - 1)^mu(n/d): the mu = +1 factors multiplied out, the
    mu = -1 ones divided out exactly."""
    top, bottom = [1], [1]
    for d in range(1, n + 1):
        if n % d == 0:
            mu = _mobius(n // d)
            if mu == 1:
                top = _times_xd_minus_1(top, d)
            elif mu == -1:
                bottom = _times_xd_minus_1(bottom, d)
    quot, rem = _long_divide(top, bottom)
    assert not any(rem), "Moebius product did not divide exactly"
    return tuple(quot)


def reduce_mod_cyclotomic(n, coeffs):
    """Coordinates of sum coeffs[e] * zeta_n^e in the power basis
    1, zeta_n, ..., zeta_n^(phi-1): the remainder of plain long division
    by Phi_n over every one of its coefficients."""
    return _long_divide(coeffs, cyclotomic_poly(n))[1]


# -- split-prime images -------------------------------------------------------
#
# For a prime l = 1 mod N, reduction mod l is a ring map from Q(zeta_n),
# n | N, to F_l that sends zeta_n to w^((l-1)/n) for a primitive root w:
# a nonzero image proves a value nonzero.  Only int and pow are used.

def _prime_factors(n):
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + [n] if n > 1 else out


def split_prime(n):
    """(l, w): the least prime l >= 2^31 with l = 1 mod n, and the least
    primitive root w mod l."""
    ell = 2**31 + (1 - 2**31) % n
    while _prime_factors(ell) != [ell]:
        ell += n
    rs = _prime_factors(ell - 1)
    w = next(g for g in range(2, ell) if all(pow(g, (ell - 1) // r, ell) != 1 for r in rs))
    return ell, w


def image(value, ell, w):
    """The image in F_l of a cyclotomic value: sum c_k zeta_n^k with
    zeta_n -> w^((l-1)/n), read from its order n and coefficients c_k.
    A denominator that l divides raises ValueError."""
    n = value.order
    assert (ell - 1) % n == 0, (ell, n)
    zeta = pow(w, (ell - 1) // n, ell)
    coefficients = value.coefficients
    den = math.lcm(*(c.denominator for c in coefficients))
    # running powers of zeta, and one inverse of the common denominator
    total, power = 0, 1
    for c in coefficients:
        total += c.numerator * (den // c.denominator) * power
        power = power * zeta % ell
    return total * pow(den, -1, ell) % ell
