"""Minimal models: weights, labels, fusion, quantum dimensions."""
import random
from fractions import Fraction
from math import gcd
from itertools import combinations_with_replacement, permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from minmod import (
    CyclotomicNumber,
    InvalidLabel,
    InvalidModel,
    MinimalModel,
    ModelMismatch,
    ModuleLabel,
    NonUnitaryModel,
    RingCheck,
    check_fusion_ring,
    ffk_pair,
    fuse,
    is_admissible,
    qdim,
    qdim_tensor,
    zeta,
)
from minmod import minimal
from minmod.exact import two_i_sin

M34 = MinimalModel(3, 4)
M78 = MinimalModel(7, 8)
M1112 = MinimalModel(11, 12)

SQRT2 = zeta(8) + zeta(8, -1)
SQRT3 = zeta(12) + zeta(12, -1)
ONE = CyclotomicNumber.from_rational(1)


def test_central_charges():
    assert MinimalModel(2, 3).central_charge() == 0
    assert M34.central_charge() == Fraction(1, 2)
    assert M78.central_charge() == Fraction(25, 28)
    assert M1112.central_charge() == Fraction(21, 22)
    assert MinimalModel(2, 5).central_charge() == Fraction(-22, 5)


def test_model_validation():
    for p, q in ((4, 6), (1, 2), (3, 3), (4, 3), (0, 5)):
        with pytest.raises(InvalidModel):
            MinimalModel(p, q)


def test_label_counts():
    assert len(MinimalModel(2, 3).labels()) == 1
    assert len(M34.labels()) == 3
    assert len(M78.labels()) == 21
    assert len(M1112.labels()) == 55


def test_label_canonicalization():
    assert ModuleLabel(M78, 5, 1).kac == (2, 7)
    assert ModuleLabel(M1112, 7, 1).kac == (4, 11)
    assert ModuleLabel(M1112, 9, 1).kac == (2, 11)
    # both Kac copies name the same module
    assert ModuleLabel(M78, 1, 3) == ModuleLabel(M78, 6, 5)


def test_label_record_semantics():
    label = ModuleLabel(M78, 6, 5)
    assert label == ModuleLabel(M78, 1, 3)
    assert hash(label) == hash(ModuleLabel(M78, 1, 3)) == hash((M78, 1, 3))
    # a label equals only labels, never its plain (model, m, n) tuple
    assert label != (M78, 1, 3)
    assert label != ModuleLabel(M1112, 1, 3)
    with pytest.raises(AttributeError):
        label.m = 6
    assert label.kac == (1, 3)


def test_label_validation():
    with pytest.raises(InvalidLabel):
        ModuleLabel(M78, 0, 1)
    with pytest.raises(InvalidLabel):
        ModuleLabel(M78, 7, 1)
    with pytest.raises(InvalidLabel):
        ModuleLabel(M34, 1, 4)


def test_ising_weights():
    weights = [label.h for label in M34.labels()]
    assert weights == [0, Fraction(1, 16), Fraction(1, 2)]


def test_weights_at_7_8():
    assert ModuleLabel(M78, 1, 1).h == 0
    assert ModuleLabel(M78, 1, 3).h == Fraction(3, 4)
    assert ModuleLabel(M78, 1, 5).h == Fraction(13, 4)
    assert ModuleLabel(M78, 1, 7).h == Fraction(15, 2)
    assert ModuleLabel(M1112, 1, 7).h == 8


def test_ffk_pair_convention():
    # the dual-convention cross-check is baked in; a mismatch raises
    assert ffk_pair(ModuleLabel(M78, 1, 1)) == (1, 1)
    assert ffk_pair(ModuleLabel(M78, 1, 3)) == (3, 1)
    assert ffk_pair(ModuleLabel(M78, 1, 7)) == (7, 1)
    assert ffk_pair(ModuleLabel(M1112, 1, 7)) == (7, 1)
    with pytest.raises(NonUnitaryModel):
        ffk_pair(ModuleLabel(MinimalModel(2, 5), 1, 1))


def test_named_fusion_table_at_7_8():
    one = ModuleLabel(M78, 1, 1)
    p2 = ModuleLabel(M78, 1, 7)
    p3 = ModuleLabel(M78, 1, 3)
    p4 = ModuleLabel(M78, 1, 5)
    assert fuse(p2, p2) == {one}
    assert fuse(p2, p3) == {p4}
    assert fuse(p2, p4) == {p3}
    assert fuse(p3, p3) == {one, p3, p4}
    assert fuse(p3, p4) == {p2, p3, p4}
    assert fuse(p4, p4) == {one, p3, p4}
    assert fuse(one, p3) == {p3}


def test_fusion_multiset_interface():
    p3 = ModuleLabel(M78, 1, 3)
    product = fuse(p3, p3)
    assert product == {ModuleLabel(M78, 1, 1): 1, p3: 1, ModuleLabel(M78, 1, 5): 1}
    assert ModuleLabel(M78, 1, 5) in product
    assert product[p3] == 1
    assert product[ModuleLabel(M78, 1, 7)] == 0
    items = product.items()
    assert items == sorted(items, key=lambda kv: kv[0].sort_key())


def test_cross_model_fuse_rejected():
    with pytest.raises(ModelMismatch):
        fuse(ModuleLabel(M34, 1, 1), ModuleLabel(M78, 1, 1))


ENUMERATION_MODELS = [(2, 5), (3, 5), (4, 7), (5, 7), (7, 9), (13, 14)]


@pytest.mark.parametrize("p,q", ENUMERATION_MODELS)
def test_fusion_enumeration_matches_admissibility_scan(p, q):
    # Both admissibility predicates are symmetric in their three labels
    # (test_admissibility_is_symmetric), so each is evaluated once per
    # unordered triple; the ordered scan {c : is_admissible(a, b, c)} for
    # every pair a, b is then read off in label order.  fuse re-sorts its
    # output, so the enumeration's own order is checked on _fuse_pairs;
    # fuse itself meets the oracle in the next test.
    model = MinimalModel(p, q)
    labs = model.labels()
    assert [lab.kac for lab in labs] == oracles.labels(p, q)
    hits = []
    for triple in combinations_with_replacement(range(len(labs)), 3):
        a, b, c = (labs[k] for k in triple)
        admissible = is_admissible(a, b, c, model)
        assert admissible == oracles.adm(p, q, a.kac, b.kac, c.kac), (a, b, c)
        if admissible:
            hits.append(triple)
    scan = np.zeros((len(labs),) * 3, dtype=bool)
    for order in permutations(np.array(hits).T):
        scan[order] = True
    for i, a in enumerate(labs):
        for j, b in enumerate(labs):
            want = tuple(labs[k].kac for k in np.flatnonzero(scan[i, j]))
            assert minimal._fuse_pairs(p, q, a.kac, b.kac) == want, (a, b)
            # the other Kac representative of a, where the m side truncates
            assert minimal._fuse_pairs(p, q, (p - a.m, q - a.n), b.kac) == want, (a, b)


@pytest.mark.parametrize("p,q", ENUMERATION_MODELS[:-1])
def test_fusion_enumeration_matches_oracle_fuse(p, q):
    # (13,14) is covered triple by triple above; the oracle rebuilds its
    # label list on every call, about 1 ms at 78 labels.
    labs = MinimalModel(p, q).labels()
    for a in labs:
        for b in labs:
            got = [c.kac for c in fuse(a, b)]
            assert got == oracles.fuse(p, q, a.kac, b.kac), (a, b)


def test_ring_checker_passes_a_group_ring_and_flags_commutativity():
    # the group ring of S3: associative with unit, not commutative
    keys = sorted(permutations(range(3)))
    compose = lambda g, h: {tuple(g[h[i]] for i in range(3)): 1}
    assert check_fusion_ring(keys, compose, (0, 1, 2)) == RingCheck(
        commutative=((0, 2, 1), (1, 0, 2))
    )


def test_ring_checker_flags_non_associative_table():
    # unital and commutative, but (x x) y = y y = y while x (x y) = x 1 = x
    table = {("x", "x"): "y", ("x", "y"): "1", ("y", "x"): "1", ("y", "y"): "y"}
    multiply = lambda a, b: {b if a == "1" else a if b == "1" else table[(a, b)]: 1}
    assert check_fusion_ring(("1", "x", "y"), multiply, "1") == RingCheck(
        associative=("x", "x", "y")
    )


def test_ring_checker_flags_wrong_unit():
    labs = M34.labels()
    sigma = ModuleLabel(M34, 2, 2)
    assert check_fusion_ring(labs, fuse, M34.vacuum) == RingCheck()
    assert check_fusion_ring(labs, fuse, sigma) == RingCheck(unit=(M34.vacuum,))


def test_ring_checker_counts_multiplicities():
    # integer spins of su(2), 1 x 1 = 0 + 1 + 2: a wrongly doubled
    # channel in that one product must break associativity
    def spin(a, b, extra=False):
        out = {c: 1 for c in range(abs(a - b), a + b + 1)}
        if extra and (a, b) == (1, 1):
            out[0] += 1
        return out

    assert check_fusion_ring(range(3), spin, 0) == RingCheck()
    doubled = check_fusion_ring(range(3), lambda a, b: spin(a, b, True), 0)
    assert doubled == RingCheck(associative=(1, 1, 2))


@pytest.mark.parametrize("k,m", [(1, 1), (2, 3)])
def test_ring_checker_sums_do_not_carry(k, m):
    # (1 x 1) x 1 = k (2 x 1) + 3 x 1 = 2 [5] or 8 [5], 1 x (1 x 1) = [6].
    # Packed with a digit of 1 or 3 bits per label, the left side would
    # carry into [6] and pass; a digit must hold any sum of products.
    table = {(1, 1): {2: k, 3: 1}, (2, 1): {5: m}, (3, 1): {5: m - k + 1},
             (1, 2): {}, (1, 3): {6: 1}}
    multiply = lambda a, b: {b: 1} if a == 0 else {a: 1} if b == 0 else table[(a, b)]
    assert check_fusion_ring((0, 1), multiply, 0) == RingCheck(associative=(1, 1, 1))


@st.composite
def _product_tables(draw):
    # small tables over 0..n-1, 0 the unit on the left; entries may
    # leave the keys, repeat or be negative
    n = draw(st.integers(1, 4))
    labels = range(n + draw(st.integers(0, 2)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    entry = lambda: {c: rng.choice((-1, 1, 1, 2, 3))
                     for c in rng.sample(labels, rng.randint(0, len(labels)))}
    table = {(a, b): ({b: 1} if a == 0 else entry()) for a in labels for b in labels}
    return tuple(range(n)), table, draw(st.sampled_from((0, 0, n - 1)))


@given(_product_tables())
@settings(max_examples=100, deadline=None)
def test_ring_checker_matches_plain_sums(bundle):
    keys, table, unit = bundle
    multiply = lambda a, b: table[(a, b)]
    assert check_fusion_ring(keys, multiply, unit) == oracles.ring_axioms(keys, multiply, unit)


@pytest.mark.parametrize("p,q", [(3, 4), (7, 8), (11, 12)])
def test_fusion_matches_verlinde(p, q):
    model = MinimalModel(p, q)
    labs, tensor = oracles.verlinde_tensor(p, q)
    package = model.labels()
    assert [lab.kac for lab in package] == labs
    for i, a in enumerate(package):
        for j, b in enumerate(package):
            product = fuse(a, b)
            for k, c in enumerate(package):
                assert abs(tensor[i, j, k] - product[c]) < 1e-8


def test_qdim_closed_forms():
    assert qdim(ModuleLabel(M78, 1, 3)).exact == ONE + SQRT2
    assert qdim(ModuleLabel(M1112, 1, 7)).exact == SQRT3 + 2
    assert qdim(ModuleLabel(M1112, 1, 5)).exact == SQRT3 + 2
    assert qdim(ModuleLabel(M34, 2, 2)).exact == SQRT2
    assert qdim(ModuleLabel(M78, 1, 1)).exact == ONE


@pytest.mark.parametrize("p,q", [(7, 8), (11, 12)])
def test_qdim_against_perron_frobenius(p, q):
    model = MinimalModel(p, q)
    for label in model.labels():
        bracket = float(oracles.pf_qdim(p, q, label.kac))
        assert abs(qdim(label).approx - bracket) < 1e-9
        assert qdim(label).approx > 0


@pytest.mark.parametrize("p,q", [(7, 8), (11, 12), (2, 5), (3, 5)])
def test_qdim_lives_in_q_zeta_2pq(p, q):
    # the full-field route: both sine ratios taken in Q(zeta_{4pq})
    full = 4 * p * q
    den_inv = (two_i_sin(q, p, full) * two_i_sin(p, q, full)).inv()
    for label in MinimalModel(p, q).labels():
        m, n = label.kac
        old = two_i_sin(q * m, p, full) * two_i_sin(p * n, q, full) * den_inv
        value = qdim(label).exact
        assert (2 * p * q) % value.order == 0
        assert value == old or value == -old


GALOIS_MODELS = [(3, 4), (5, 6), (7, 8), (11, 12), (2, 5), (3, 5), (4, 7),
                 (5, 7), (2, 7), (3, 7), (2, 9), (4, 9), (5, 8)]


@pytest.mark.parametrize("p,q", GALOIS_MODELS)
def test_qdim_galois_conjugates_are_s_matrix_columns(p, q):
    # Coste-Gannon: sigma_l(S[a,b]/S[vac,b]) = +-S[a,c]/S[vac,c] for the
    # column c = pi_l(b); at b = vac the ratio is the quantum dimension.
    model = MinimalModel(p, q)
    labs, S = oracles.s_matrix(p, q)
    columns = np.abs(S / S[labs.index((1, 1))])
    dims = [(labs.index(label.kac), qdim(label).exact) for label in model.labels()]
    for l in range(1, 2 * p * q):
        if gcd(l, 2 * p * q) != 1:
            continue
        image = np.zeros(len(labs))
        for row, d in dims:
            conj = d.conjugate(l)
            assert conj.is_real()
            if model.is_unitary:
                # the quantum dimension is the largest of its conjugates
                here, there = d.embed(), conj.embed()
                assert here.real - abs(there.real) >= -(here.error_bound + there.error_bound)
            image[row] = abs(conj.embed().real)
        gaps = np.max(np.abs(columns - image[:, None]), axis=0)
        assert gaps.min() <= 1e-9, (l, gaps.min())


@pytest.mark.parametrize("tilt", [zeta(8), 1 + Fraction(1, 2**60) * zeta(4)])
def test_non_real_qdim_raises(monkeypatch, tilt):
    # zeta_8 is caught by the embedding; 1 + 2^-60 i only by the exact
    # realness test, since its imaginary part is below the error bound.
    sine_inv = minimal._sine_inv
    monkeypatch.setattr(minimal, "_sine_inv", lambda k, b: sine_inv(k, b) * tilt)
    with pytest.raises(ArithmeticError, match="not real"):
        minimal._qdim_cached.__wrapped__(7, 8, 2, 3)


def test_qdim_embeds_once_per_label(monkeypatch):
    # a sign flip negates the first approximation instead of embedding again
    labs = MinimalModel(23, 24).labels()
    calls = []
    embed = CyclotomicNumber.embed
    monkeypatch.setattr(
        CyclotomicNumber, "embed", lambda self, *a: calls.append(1) or embed(self, *a)
    )
    dims = [minimal._qdim_cached.__wrapped__(23, 24, *lab.kac) for lab in labs]
    assert len(calls) == len(dims) == 253
    monkeypatch.undo()
    assert all(d.approx == d.exact.embed().real > 0 for d in dims)


def test_qdim_tensor_multiplies_across_models():
    a = ModuleLabel(M34, 2, 2)
    b = ModuleLabel(M78, 1, 3)
    mixed = qdim_tensor((a, b))
    assert mixed.exact == qdim(a).exact * qdim(b).exact
    assert mixed.approx == pytest.approx(qdim(a).approx * qdim(b).approx)


def test_admissibility_matches_oracle_spot():
    for p, q in ((7, 8), (11, 12)):
        model = MinimalModel(p, q)
        labs = model.labels()
        for a in labs[:6]:
            for b in labs[:6]:
                for c in labs:
                    assert is_admissible(a, b, c, model) == oracles.adm(
                        p, q, a.kac, b.kac, c.kac
                    )


@st.composite
def _model_and_labels(draw, count):
    p, q = draw(st.sampled_from(((3, 4), (7, 8), (11, 12))))
    model = MinimalModel(p, q)
    labs = model.labels()
    picks = tuple(draw(st.sampled_from(labs)) for _ in range(count))
    return (model,) + picks


@given(_model_and_labels(2))
@settings(max_examples=60, deadline=None)
def test_fusion_commutes(bundle):
    _, a, b = bundle
    assert fuse(a, b) == fuse(b, a)


@given(_model_and_labels(3))
@settings(max_examples=40, deadline=None)
def test_fusion_associates(bundle):
    model, a, b, c = bundle
    assert check_fusion_ring((a, b, c), fuse, model.vacuum) == RingCheck()


@given(_model_and_labels(3))
@settings(max_examples=60, deadline=None)
def test_admissibility_is_symmetric(bundle):
    model, a, b, c = bundle
    reference = is_admissible(a, b, c, model)
    assert is_admissible(b, a, c, model) == reference
    assert is_admissible(a, c, b, model) == reference
    assert is_admissible(c, b, a, model) == reference


@given(_model_and_labels(1))
@settings(max_examples=60, deadline=None)
def test_vacuum_is_the_fusion_unit(bundle):
    model, a = bundle
    assert fuse(model.vacuum, a) == {a}
