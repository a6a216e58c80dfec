"""Virasoro minimal models: labels, fusion rules, quantum dimensions.

The model L(c_{p,q}, 0) for coprime 2 <= p < q has (p-1)(q-1)/2
irreducible modules, labelled by Kac pairs (m, n) with 0 < m < p,
0 < n < q modulo the identification (m, n) ~ (p-m, q-n).  Everything
here is exact: weights and central charges are Fractions, and a
quantum dimension is a product of two sine ratios, one in Q(zeta_{2p})
and one in Q(zeta_{2q}), so it lives in Q(zeta_{2pq}).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd
from typing import Sequence

from .exact import CyclotomicNumber, two_i_sin


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

    __slots__ = ("p", "q")

    def __init__(self, p: int, q: int) -> None:
        if not isinstance(p, int) or not isinstance(q, int):
            raise InvalidModel(f"integer (p, q) required, got ({p!r}, {q!r})")
        if p < 2 or q <= p or gcd(p, q) != 1:
            raise InvalidModel(f"need coprime 2 <= p < q, got ({p}, {q})")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    def __setattr__(self, name, value):
        raise AttributeError("MinimalModel is immutable")

    def __eq__(self, other):
        if not isinstance(other, MinimalModel):
            return NotImplemented
        return (self.p, self.q) == (other.p, other.q)

    def __hash__(self):
        return hash((MinimalModel, self.p, self.q))

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
        return tuple(ModuleLabel(self, m, n) for m, n in _canonical_pairs(self.p, self.q))


@dataclass(frozen=True)
class ModuleLabel:
    """A canonical Kac label of a minimal model.

    The constructor accepts either representative and stores the
    canonical one, so ModuleLabel(m34, 2, 2) equals ModuleLabel(m34, 1, 2).
    """

    model: MinimalModel
    m: int
    n: int

    def __post_init__(self):
        m, n = self.model.canonical(self.m, self.n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)

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

    Compares equal to any mapping label -> multiplicity and, when every
    multiplicity is one, to a plain set of labels.
    """

    __slots__ = ("_counts",)

    def __init__(self, counts) -> None:
        if isinstance(counts, (set, frozenset, list, tuple)):
            counts = {label: 1 for label in counts}
        self._counts = {l: int(k) for l, k in dict(counts).items() if k}

    def __getitem__(self, label) -> int:
        return self._counts.get(label, 0)

    def __contains__(self, label) -> bool:
        return label in self._counts

    def __iter__(self):
        return iter(sorted(self._counts, key=ModuleLabel.sort_key))

    def __len__(self) -> int:
        return len(self._counts)

    def total(self) -> int:
        return sum(self._counts.values())

    def labels(self) -> tuple[ModuleLabel, ...]:
        return tuple(self)

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


@dataclass(frozen=True)
class QDim:
    """A quantum dimension: exact real cyclotomic value plus its float."""

    exact: CyclotomicNumber
    approx: float

    def __float__(self) -> float:
        return self.approx


def central_charge(model: MinimalModel) -> Fraction:
    return model.central_charge()


def conformal_weight(label: ModuleLabel) -> Fraction:
    return label.h


def list_labels(model: MinimalModel) -> tuple[ModuleLabel, ...]:
    """All canonical labels, sorted by (weight, m, n)."""
    return model.labels()


def ffk_pair(label: ModuleLabel) -> tuple[int, int]:
    """The two-index name (i', i) of a module of a unitary model.

    The first index runs on the q = p + 1 side, so the canonical label
    (m, n) maps to (n, m).  Both weight conventions,
    h_{m,n} and ((p*i' - (p+1)*i)^2 - 1) / (4p(p+1)),
    are evaluated and compared; a mismatch would mean the naming is
    ambiguous for this label, and raises rather than picking silently.
    """
    model = label.model
    if not model.is_unitary:
        raise NonUnitaryModel(f"{model!r} is not in the unitary series")
    p = model.p
    i_prime, i = label.n, label.m
    h_pair = Fraction((p * i_prime - (p + 1) * i) ** 2 - 1, 4 * p * (p + 1))
    if h_pair != label.h:
        raise ArithmeticError(
            f"weight conventions disagree for {label!r}: {label.h} vs {h_pair}"
        )
    return (i_prime, i)


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
    model = MinimalModel(p, q)
    return tuple(
        c for c in _canonical_pairs(p, q) if is_admissible(ab, bb, c, model)
    )


def fuse(a: ModuleLabel, b: ModuleLabel) -> FusionMultiset:
    """The fusion product of two modules of the same model."""
    if a.model != b.model:
        raise ModelMismatch(f"cannot fuse {a!r} with {b!r}")
    model = a.model
    pairs = _fuse_pairs(model.p, model.q, a.kac, b.kac)
    return FusionMultiset({ModuleLabel(model, m, n): 1 for m, n in pairs})


def qdim(label: ModuleLabel) -> QDim:
    """Quantum dimension of a module, exact and positive.

    Closed form |sin(pi*q*m/p) * sin(pi*p*n/q)| / (sin(pi*q/p) * sin(pi*p/q))
    with each sine realized as a difference of roots of unity.  The factors
    of 2i cancel within each ratio, which is computed in its own field,
    Q(zeta_{2p}) or Q(zeta_{2q}); the product lands in Q(zeta_{2pq}).  The
    overall sign is normalized by the positivity of the embedding.
    """
    return _qdim_cached(label.model.p, label.model.q, label.m, label.n)


@lru_cache(maxsize=None)
def _qdim_cached(p: int, q: int, m: int, n: int) -> QDim:
    value = (two_i_sin(q * m, p, 2 * p) * _sine_inv(q, p)) * (
        two_i_sin(p * n, q, 2 * q) * _sine_inv(p, q)
    )
    approx = value.embed()
    if approx.real < 0:
        value = -value
        approx = value.embed()
    if abs(approx.imag) > approx.error_bound or not value.is_real():
        raise ArithmeticError(f"quantum dimension of ({m},{n}) at ({p},{q}) is not real")
    return QDim(exact=value, approx=approx.real)


@lru_cache(maxsize=None)
def _sine_inv(k: int, b: int) -> CyclotomicNumber:
    """1 / (2i*sin(pi*k/b)) in Q(zeta_{2b})."""
    return two_i_sin(k, b, 2 * b).inv()


def qdim_tensor(labels: Sequence[ModuleLabel]) -> QDim:
    """Quantum dimension of a tensor product, factors possibly from
    different models."""
    if not labels:
        raise ValueError("qdim_tensor needs at least one label")
    value = CyclotomicNumber.from_rational(1)
    for label in labels:
        value = value * qdim(label).exact
    return QDim(exact=value, approx=value.embed().real)
