"""Virasoro minimal models: labels, fusion rules, quantum dimensions.

The model L(c_{p,q}, 0) for coprime 2 <= p < q has (p-1)(q-1)/2
irreducible modules, labelled by Kac pairs (m, n) with 0 < m < p,
0 < n < q modulo the identification (m, n) ~ (p-m, q-n).  The model has
two chiral sides, su(2) truncated at p for the m index and at q for the
n index (Felder-Froehlich-Keller, CMP 124, 1989); a Side holds the
fusion rule, the quantum brackets and the sine ratio of one of them.
Fusion, quantum dimensions and the braiding layer's r-matrices all read
them.  Everything here is exact: weights and central charges are
Fractions, and a quantum dimension is kept as its two sine ratios, one
in Q(zeta_{2p}) and one in Q(zeta_{2q}), whose product lives in
Q(zeta_{2pq}).
"""

from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import gcd, prod
from typing import NamedTuple, Sequence

from .exact import CyclotomicNumber, sine_inv, two_i_sin, zeta


class InvalidModel(ValueError):
    """The (p, q) pair does not define a minimal model."""


class InvalidLabel(ValueError):
    """Kac indices that are not integers in the open box 0 < m < p, 0 < n < q."""


class ModelMismatch(ValueError):
    """Labels from different models were combined."""


class NonUnitaryModel(ValueError):
    """The operation needs the unitary series q = p + 1."""


# One object per side, keyed by (bound, other): the r-matrix memo and
# the sine-ratio cache key on sides, and many models share them.
_SIDES: dict[tuple[int, int], "Side"] = {}


class Side:
    """One chiral side of a minimal model: su(2) truncated at bound.

    The model (p, q) has Side(p, q) for its m indices and Side(q, p) for
    its n indices (the paper's primed side when q = p + 1).  With b the
    bound and o the other index, the quantum bracket [l] is
    2i*sin(pi*l*o/b), so every bracket and inverse comes from the cached
    exact.two_i_sin and exact.sine_inv in Q(zeta_{2b}), and [0] = 0,
    [-l] = -[l].  The deformation parameter's quarter root is
    zeta_{4b}^o, so power(k), its k-th power, lives in Q(zeta_{4b}).
    The constructor returns the one shared object of (bound, other).
    """

    __slots__ = ("bound", "other")

    def __new__(cls, bound: int, other: int) -> "Side":
        side = _SIDES.get((bound, other))
        if side is None:
            side = _SIDES[(bound, other)] = object.__new__(cls)
            side.bound, side.other = bound, other
        return side

    def __repr__(self):
        return f"Side({self.bound}, {self.other})"

    def fusion(self, k1: int, k2: int) -> range:
        """The k3 with k1 x k2 -> k3 in the su(2) fusion rule truncated at bound."""
        return range(abs(k1 - k2) + 1, min(k1 + k2, 2 * self.bound - k1 - k2), 2)

    def admissible(self, k1: int, k2: int, k3: int) -> bool:
        return 0 < k1 < self.bound and 0 < k2 < self.bound and k3 in self.fusion(k1, k2)

    def __getitem__(self, l: int) -> CyclotomicNumber:
        return two_i_sin(l * self.other, self.bound)

    def inv(self, l: int) -> CyclotomicNumber:
        return sine_inv(l * self.other, self.bound)

    def power(self, k: int) -> CyclotomicNumber:
        return zeta(4 * self.bound, k * self.other)

    @lru_cache(maxsize=None)
    def ratio(self, k: int) -> tuple[CyclotomicNumber, float]:
        """|[k]/[1]| = |sin(pi*k*o/b) / sin(pi*o/b)| in Q(zeta_{2b}), and its float.

        sin(pi*x) has the sign (-1)^floor(x), so the sign of the ratio comes
        from integers; its realness is decided exactly.
        """
        b, o = self.bound, self.other
        value = self[k] * self.inv(1)
        if (k * o // b + o // b) % 2:
            value = -value
        approx = value.embed().real
        if not (value.is_real() and approx > 0):
            raise ArithmeticError(
                f"sine ratio sin(pi*{k * o}/{b})/sin(pi*{o}/{b}) is not real and positive"
            )
        return value, approx


class MinimalModel:
    """The minimal model L(c_{p,q}, 0); hashable, compared by (p, q).

    sides is (Side(p, q), Side(q, p)), in the order of a label's (m, n).
    """

    __slots__ = ("p", "q", "sides", "_hash")

    def __init__(self, p: int, q: int) -> None:
        if not isinstance(p, int) or not isinstance(q, int):
            raise InvalidModel(f"integer (p, q) required, got ({p!r}, {q!r})")
        if p < 2 or q <= p or gcd(p, q) != 1:
            raise InvalidModel(f"need coprime 2 <= p < q, got ({p}, {q})")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "sides", (Side(p, q), Side(q, p)))
        # every label's hash reads it, so the hash is kept
        object.__setattr__(self, "_hash", hash((MinimalModel, p, q)))

    def __setattr__(self, name, value):
        raise AttributeError("MinimalModel is immutable")

    def __eq__(self, other):
        if not isinstance(other, MinimalModel):
            return NotImplemented
        return (self.p, self.q) == (other.p, other.q)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"MinimalModel({self.p}, {self.q})"

    @property
    def is_unitary(self) -> bool:
        return self.q == self.p + 1

    def central_charge(self) -> Fraction:
        p, q = self.p, self.q
        return 1 - Fraction(6 * (p - q) ** 2, p * q)

    def _check_range(self, m: int, n: int) -> None:
        if not (0 < m < self.p and 0 < n < self.q):
            raise InvalidLabel(f"(m, n)=({m}, {n}) outside the box of {self!r}")

    def canonical(self, m: int, n: int) -> tuple[int, int]:
        """The lexicographically smaller of (m, n) and (p-m, q-n)."""
        # bool is an int subclass, but a label built from True would be
        # interned under (1, ...) and print as (True, ...) ever after
        if type(m) is not int or type(n) is not int:
            raise InvalidLabel(f"integer (m, n) required, got ({m!r}, {n!r})")
        self._check_range(m, n)
        return min((m, n), (self.p - m, self.q - n))

    def conformal_weight(self, m: int, n: int) -> Fraction:
        self._check_range(m, n)
        p, q = self.p, self.q
        return Fraction((n * p - m * q) ** 2 - (p - q) ** 2, 4 * p * q)

    def label(self, m: int, n: int) -> "ModuleLabel":
        return ModuleLabel(self, m, n)

    @property
    def vacuum(self) -> "ModuleLabel":
        return ModuleLabel(self, 1, 1)

    def labels(self) -> tuple["ModuleLabel", ...]:
        """All canonical labels, sorted by (weight, m, n)."""
        return tuple(ModuleLabel(self, m, n) for m, n in _canonical_pairs(self.p, self.q))


# One object per canonical label, keyed by (p, q, m, n): a model has
# at most a few hundred labels, and fusion hands out the same ones.
_LABELS: dict[tuple[int, int, int, int], "ModuleLabel"] = {}


class ModuleLabel:
    """A canonical Kac label of a minimal model.

    The constructor accepts either representative and returns the one
    shared object of the canonical label, so ModuleLabel(m34, 2, 2) is
    ModuleLabel(m34, 1, 2).  Labels are immutable and compare equal only
    to labels.
    """

    __slots__ = ("model", "m", "n", "kac", "_hash")

    def __new__(cls, model: MinimalModel, m: int, n: int) -> "ModuleLabel":
        kac = model.canonical(m, n)
        m, n = kac
        key = (model.p, model.q, m, n)
        label = _LABELS.get(key)
        if label is None:
            label = object.__new__(cls)
            object.__setattr__(label, "model", model)
            object.__setattr__(label, "m", m)
            object.__setattr__(label, "n", n)
            object.__setattr__(label, "kac", kac)
            object.__setattr__(label, "_hash", hash((model, m, n)))
            _LABELS[key] = label
        return label

    def __setattr__(self, name, value):
        raise AttributeError("ModuleLabel is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.model, self.m, self.n) == (other.model, other.m, other.n)

    def __hash__(self):
        return self._hash

    @property
    def h(self) -> Fraction:
        return self.model.conformal_weight(self.m, self.n)

    def sort_key(self) -> tuple:
        return (self.h, self.m, self.n)

    def __repr__(self):
        return f"({self.m},{self.n})@{self.model.p},{self.model.q}"


@lru_cache(maxsize=None)
def _canonical_pairs(p: int, q: int) -> tuple[tuple[int, int], ...]:
    # h_{m,n} = ((np - mq)^2 - (p - q)^2) / 4pq grows with (np - mq)^2, so
    # this integer key gives the (weight, m, n) order without a Fraction.
    pairs = {min((m, n), (p - m, q - n)) for m in range(1, p) for n in range(1, q)}
    return tuple(sorted(pairs, key=lambda mn: ((mn[1] * p - mn[0] * q) ** 2, mn)))


class FusionMultiset:
    """A fusion product decomposition: canonical labels with multiplicities.

    Built from a mapping label -> multiplicity.  Compares equal to any
    such mapping and, when every multiplicity is one, to a plain set of
    labels.
    """

    __slots__ = ("_counts",)

    def __init__(self, counts: dict) -> None:
        self._counts = {l: int(k) for l, k in counts.items() if k}

    def __getitem__(self, label) -> int:
        return self._counts.get(label, 0)

    def __contains__(self, label) -> bool:
        return label in self._counts

    def __iter__(self):
        return iter(sorted(self._counts, key=ModuleLabel.sort_key))

    def __len__(self) -> int:
        return len(self._counts)

    def items(self):
        return [(l, self._counts[l]) for l in self]

    def __eq__(self, other):
        if isinstance(other, FusionMultiset):
            return self._counts == other._counts
        if isinstance(other, dict):
            return self._counts == {l: k for l, k in other.items() if k}
        if isinstance(other, (set, frozenset)):
            return set(self._counts) == other and all(
                k == 1 for k in self._counts.values()
            )
        return NotImplemented

    def __repr__(self):
        inner = " + ".join(
            (f"{k}*{l!r}" if k != 1 else repr(l)) for l, k in self.items()
        )
        return "{" + inner + "}"


class QDim(NamedTuple):
    """A quantum dimension: its positive real sine ratios, each in its
    own cyclotomic field, and the float of their product."""

    factors: tuple[CyclotomicNumber, ...]
    approx: float

    @property
    def exact(self) -> CyclotomicNumber:
        """The product of the factors, in the field of their least common order."""
        return prod(self.factors, start=CyclotomicNumber.from_rational(1))


def is_admissible(t1, t2, t3, model: MinimalModel) -> bool:
    """Whether t3 occurs in the fusion product t1 x t2 (fusion number one).

    Each argument may be a ModuleLabel of the model or a plain (m, n)
    pair of either representative; a pair is range-checked and
    canonicalised as a ModuleLabel.
    """
    labels = []
    for t in (t1, t2, t3):
        if not isinstance(t, ModuleLabel):
            m, n = t
            t = ModuleLabel(model, m, n)
        elif t.model != model:
            raise ModelMismatch(f"{t!r} does not belong to {model!r}")
        labels.append(t)
    a, b, c = labels
    return c in _fusion_product(a, b)


@lru_cache(maxsize=None)
def _fusion_product(a: ModuleLabel, b: ModuleLabel) -> tuple[ModuleLabel, ...]:
    # The product of the two sides' fusion rules, in label order.  One of
    # p, q is odd, so m3 and p - m3 (or n3 and q - n3) differ in parity
    # and no label arises twice.
    model = a.model
    ms, ns = (side.fusion(k1, k2) for side, k1, k2 in zip(model.sides, a.kac, b.kac))
    out = {model.canonical(m3, n3) for m3 in ms for n3 in ns}
    return tuple(ModuleLabel(model, *c) for c in _canonical_pairs(model.p, model.q)
                 if c in out)


def fuse(a: ModuleLabel, b: ModuleLabel) -> FusionMultiset:
    """The fusion product of two modules of the same model."""
    if a.model != b.model:
        raise ModelMismatch(f"cannot fuse {a!r} with {b!r}")
    return FusionMultiset(dict.fromkeys(_fusion_product(a, b), 1))


def qdim(label: ModuleLabel) -> QDim:
    """Quantum dimension of a module, exact and positive.

    Closed form |sin(pi*q*m/p) * sin(pi*p*n/q)| / (sin(pi*q/p) * sin(pi*p/q)),
    kept as its two sine ratios, one in Q(zeta_{2p}) and one in
    Q(zeta_{2q}); their product lands in Q(zeta_{2pq}).
    """
    return _qdim_cached(label.model.p, label.model.q, label.m, label.n)


@lru_cache(maxsize=None)
def _qdim_cached(p: int, q: int, m: int, n: int) -> QDim:
    return _qdim_from(side.ratio(k) for side, k in zip(MinimalModel(p, q).sides, (m, n)))


def _qdim_from(ratios) -> QDim:
    """The quantum dimension whose factors are the given Side.ratio pairs."""
    values, approxes = zip(*ratios)
    return QDim(values, prod(approxes))


def qdim_tensor(labels: Sequence[ModuleLabel]) -> QDim:
    """Quantum dimension of a tensor product, factors possibly from
    different models."""
    if not labels:
        raise ValueError("qdim_tensor needs at least one label")
    dims = [qdim(label) for label in labels]
    factors = tuple(chain.from_iterable(d.factors for d in dims))
    return QDim(factors, prod(d.approx for d in dims))
