"""Virasoro minimal models: labels, fusion rules, quantum dimensions.

The model L(c_{p,q}, 0) for coprime 2 <= p < q has (p-1)(q-1)/2
irreducible modules, labelled by Kac pairs (m, n) with 0 < m < p,
0 < n < q modulo the identification (m, n) ~ (p-m, q-n).  Everything
here is exact: weights and central charges are Fractions, and a
quantum dimension is kept as its two sine ratios, one in Q(zeta_{2p})
and one in Q(zeta_{2q}), whose product lives in Q(zeta_{2pq}).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain, product
from math import gcd, prod
from typing import NamedTuple, Sequence

from .exact import CyclotomicNumber, sine_inv, two_i_sin


class InvalidModel(ValueError):
    """The (p, q) pair does not define a minimal model."""


class InvalidLabel(ValueError):
    """Kac indices outside the open box 0 < m < p, 0 < n < q."""


class ModelMismatch(ValueError):
    """Labels from different models were combined."""


class NonUnitaryModel(ValueError):
    """The operation needs the unitary series q = p + 1."""


class MinimalModel:
    """The minimal model L(c_{p,q}, 0); hashable, compared by (p, q)."""

    __slots__ = ("p", "q", "_hash")

    def __init__(self, p: int, q: int) -> None:
        if not isinstance(p, int) or not isinstance(q, int):
            raise InvalidModel(f"integer (p, q) required, got ({p!r}, {q!r})")
        if p < 2 or q <= p or gcd(p, q) != 1:
            raise InvalidModel(f"need coprime 2 <= p < q, got ({p}, {q})")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        # models and labels key the r-matrix memo, so the hash is kept
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


# Equal labels share one hash object: a warm session keeps some 10^5
# labels alive, and an int object of its own would add 36 bytes to each.
_LABEL_HASHES: dict[int, int] = {}


class ModuleLabel:
    """A canonical Kac label of a minimal model.

    The constructor accepts either representative and stores the
    canonical one, so ModuleLabel(m34, 2, 2) equals ModuleLabel(m34, 1, 2).
    Labels are immutable and compare equal only to labels.
    """

    __slots__ = ("model", "m", "n", "_hash")

    def __init__(self, model: MinimalModel, m: int, n: int) -> None:
        m, n = model.canonical(m, n)
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        h = hash((model, m, n))
        object.__setattr__(self, "_hash", _LABEL_HASHES.setdefault(h, h))

    def __setattr__(self, name, value):
        raise AttributeError("ModuleLabel is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.model, self.m, self.n) == (other.model, other.m, other.n)

    def __hash__(self):
        return self._hash

    @property
    def kac(self) -> tuple[int, int]:
        return (self.m, self.n)

    @property
    def h(self) -> Fraction:
        return self.model.conformal_weight(self.m, self.n)

    def sort_key(self) -> tuple:
        return (self.h, self.m, self.n)

    def __repr__(self):
        return f"({self.m},{self.n})@{self.model.p},{self.model.q}"


@lru_cache(maxsize=None)
def _canonical_pairs(p: int, q: int) -> tuple[tuple[int, int], ...]:
    model = MinimalModel(p, q)
    seen = set()
    for m in range(1, p):
        for n in range(1, q):
            seen.add(model.canonical(m, n))
    return tuple(sorted(seen, key=lambda mn: (model.conformal_weight(*mn), mn)))


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


def ffk_pair(label: ModuleLabel) -> tuple[int, int]:
    """The two-index name (i', i) of a module of a unitary model.

    The first index runs on the q = p + 1 side, so the canonical label
    (m, n) maps to (n, m).  The weight of the name,
    ((p*i' - (p+1)*i)^2 - 1) / (4p(p+1)), is h_{m,n} itself, since
    (p - q)^2 = 1 there.
    """
    model = label.model
    if not model.is_unitary:
        raise NonUnitaryModel(f"{model!r} is not in the unitary series")
    return (label.n, label.m)


def _kac(t, model: MinimalModel) -> tuple[int, int]:
    if isinstance(t, ModuleLabel):
        if t.model != model:
            raise ModelMismatch(f"{t!r} does not belong to {model!r}")
        return t.kac
    m, n = t
    return (int(m), int(n))


def _side_admissible(k1: int, k2: int, k3: int, bound: int) -> bool:
    total = k1 + k2 + k3
    return (
        0 < k1 < bound
        and 0 < k2 < bound
        and 0 < k3 < bound
        and k1 < k2 + k3
        and k2 < k1 + k3
        and k3 < k1 + k2
        and total % 2 == 1
        and total < 2 * bound
    )


def is_admissible(t1, t2, t3, model: MinimalModel) -> bool:
    """Whether the triple of Kac pairs is admissible (fusion number one).

    Each argument may be a ModuleLabel of the model or a plain (m, n)
    pair; pairs may be either representative.  The identification
    (m, n) ~ (p-m, q-n) is honored by checking all combinations of
    representatives and accepting if any passes.
    """
    p, q = model.p, model.q
    triples = []
    for t in (t1, t2, t3):
        m, n = _kac(t, model)
        model._check_range(m, n)
        triples.append(((m, n), (p - m, q - n)))
    for (m1, n1), (m2, n2), (m3, n3) in product(*triples):
        if _side_admissible(m1, m2, m3, p) and _side_admissible(n1, n2, n3, q):
            return True
    return False


@lru_cache(maxsize=None)
def _fuse_pairs(p: int, q: int, ab: tuple, bb: tuple) -> tuple[tuple[int, int], ...]:
    # The product of two truncated su(2) rules, at bound p on the m side
    # and q on the n side.  One of p, q is odd, so m3 and p - m3 (or n3
    # and q - n3) differ in parity and no label arises twice.
    model = MinimalModel(p, q)
    (m1, n1), (m2, n2) = ab, bb
    out = {
        model.canonical(m3, n3)
        for m3 in range(abs(m1 - m2) + 1, min(m1 + m2, 2 * p - m1 - m2), 2)
        for n3 in range(abs(n1 - n2) + 1, min(n1 + n2, 2 * q - n1 - n2), 2)
    }
    return tuple(c for c in _canonical_pairs(p, q) if c in out)


def fuse(a: ModuleLabel, b: ModuleLabel) -> FusionMultiset:
    """The fusion product of two modules of the same model."""
    if a.model != b.model:
        raise ModelMismatch(f"cannot fuse {a!r} with {b!r}")
    model = a.model
    pairs = _fuse_pairs(model.p, model.q, a.kac, b.kac)
    return FusionMultiset({ModuleLabel(model, m, n): 1 for m, n in pairs})


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
    comm_bad = next(
        ((a, b) for a in keys for b in keys if counts(a, b) != counts(b, a)), None
    )
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
    assoc_bad = next(
        (
            (keys[i], keys[j], keys[k])
            for i, a in enumerate(index)
            for j, b in enumerate(index)
            for k, c in enumerate(index)
            if sum(n * packed[e][c] for e, n in terms[a][b])
            != sum(n * packed[a][f] for f, n in terms[b][c])
        ),
        None,
    )
    return RingCheck(unit_bad, comm_bad, assoc_bad)


def qdim(label: ModuleLabel) -> QDim:
    """Quantum dimension of a module, exact and positive.

    Closed form |sin(pi*q*m/p) * sin(pi*p*n/q)| / (sin(pi*q/p) * sin(pi*p/q)),
    kept as its two sine ratios, one in Q(zeta_{2p}) and one in
    Q(zeta_{2q}); their product lands in Q(zeta_{2pq}).
    """
    return _qdim_cached(label.model.p, label.model.q, label.m, label.n)


@lru_cache(maxsize=None)
def _qdim_cached(p: int, q: int, m: int, n: int) -> QDim:
    return _qdim_from(((q, m, p), (p, n, q)))


def _qdim_from(ratios) -> QDim:
    """The quantum dimension whose factors are the sine ratios (k, m, b)."""
    pairs = [_sine_ratio(*ratio) for ratio in ratios]
    return QDim(tuple(value for value, _ in pairs), prod(x for _, x in pairs))


@lru_cache(maxsize=None)
def _sine_ratio(k: int, m: int, b: int) -> tuple[CyclotomicNumber, float]:
    """|sin(pi*k*m/b) / sin(pi*k/b)| in Q(zeta_{2b}), and its float.

    sin(pi*x) has the sign (-1)^floor(x), so the sign of the ratio comes
    from integers; its realness is decided exactly.
    """
    value = two_i_sin(k * m, b) * sine_inv(k, b)
    if (k * m // b + k // b) % 2:
        value = -value
    approx = value.embed().real
    if not (value.is_real() and approx > 0):
        raise ArithmeticError(
            f"sine ratio sin(pi*{k * m}/{b})/sin(pi*{k}/{b}) is not real and positive"
        )
    return value, approx


def qdim_tensor(labels: Sequence[ModuleLabel]) -> QDim:
    """Quantum dimension of a tensor product, factors possibly from
    different models."""
    if not labels:
        raise ValueError("qdim_tensor needs at least one label")
    dims = [qdim(label) for label in labels]
    factors = tuple(chain.from_iterable(d.factors for d in dims))
    return QDim(factors, prod(d.approx for d in dims))
