"""Minimal models: weights, labels, fusion, quantum dimensions."""
import random
from fractions import Fraction
from functools import lru_cache
from math import gcd, prod
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


@pytest.mark.parametrize("p,q", [(3, 4), (7, 8), (11, 12), (5, 7), (23, 24)])
def test_hashes_keep_their_tuple_formulas(p, q):
    # Kept at construction, with the values the tuples give, so set and
    # dict orders do not depend on the cache; equal labels share the one
    # int, and both classes stay immutable.
    model = MinimalModel(p, q)
    assert hash(model) == hash((MinimalModel, p, q))
    for m in range(1, p):
        for n in range(1, q):
            label = ModuleLabel(model, m, n)
            assert hash(label) == hash((model, *label.kac))
            twin = ModuleLabel(MinimalModel(p, q), p - m, q - n)
            assert hash(twin) == hash(label) and twin._hash is label._hash
    for obj, attr in ((model, "p"), (model, "_hash"), (label, "n"), (label, "_hash")):
        with pytest.raises(AttributeError):
            setattr(obj, attr, 0)


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
    assert tuple(lab.kac for lab in labs) == oracles.labels(p, q)
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


@pytest.mark.parametrize("p,q", ENUMERATION_MODELS[:-1] + [(11, 12)])
def test_fusion_enumeration_matches_oracle_fuse(p, q):
    # (13,14) is covered triple by triple above.  The oracle's admissibility
    # is symmetric in a and b, so it is asked once per unordered pair and
    # fuse is held to that answer in both orders.
    labs = MinimalModel(p, q).labels()
    for i, a in enumerate(labs):
        for b in labs[i:]:
            want = oracles.fuse(p, q, a.kac, b.kac)
            assert [c.kac for c in fuse(a, b)] == want, (a, b)
            assert [c.kac for c in fuse(b, a)] == want, (b, a)


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
    assert tuple(lab.kac for lab in package) == labs
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
    den_inv = (two_i_sin(q, p).promote(full) * two_i_sin(p, q).promote(full)).inv()
    for label in MinimalModel(p, q).labels():
        m, n = label.kac
        old = (two_i_sin(q * m, p).promote(full) * two_i_sin(p * n, q).promote(full)
               * den_inv)
        # sin(pi*x) has the sign (-1)^floor(x)
        sign = (-1) ** (q * m // p + q // p + p * n // q + p // q)
        value = qdim(label).exact
        assert value.order == 2 * p * q
        assert value == sign * old


GALOIS_MODELS = [(3, 4), (5, 6), (7, 8), (11, 12), (2, 5), (3, 5), (4, 7),
                 (5, 7), (2, 7), (3, 7), (2, 9), (4, 9), (5, 8)]


def _check_galois_columns(p, q):
    # Coste-Gannon: sigma_l(S[a,b]/S[vac,b]) = +-S[a,c]/S[vac,c] for the
    # column c = pi_l(b); at b = vac the ratio is the quantum dimension.
    # sigma_l acts on each sine ratio of a quantum dimension in its own field.
    model = MinimalModel(p, q)
    labs, S = oracles.s_matrix(p, q)
    columns = np.abs(S / S[labs.index((1, 1))])
    dims = [(labs.index(label.kac), qdim(label)) for label in model.labels()]
    for l in range(1, 2 * p * q):
        if gcd(l, 2 * p * q) != 1:
            continue
        image = np.zeros(len(labs))
        for row, d in dims:
            conj = [f.conjugate(l) for f in d.factors]
            assert all(c.is_real() for c in conj)
            there = abs(prod(c.embed().real for c in conj))
            if model.is_unitary:
                # the quantum dimension is the largest of its conjugates
                assert d.approx - there >= -1e-12 * d.approx
            image[row] = there
        gaps = np.max(np.abs(columns - image[:, None]), axis=0)
        assert gaps.min() <= 1e-9, (l, gaps.min())


@pytest.mark.parametrize("p,q", GALOIS_MODELS)
def test_qdim_galois_conjugates_are_s_matrix_columns(p, q):
    _check_galois_columns(p, q)


@st.composite
def _coprime_models(draw, max_q=13):
    q = draw(st.integers(3, max_q))
    p = draw(st.integers(2, q - 1).filter(lambda p: gcd(p, q) == 1))
    return p, q


@given(_coprime_models())
@settings(max_examples=15, deadline=None)
def test_qdim_galois_conjugates_of_drawn_models(model):
    # unitary (q = p + 1) and non-unitary models alike, up to q = 13
    _check_galois_columns(*model)


def _embed_bound(value):
    # a coarse a-priori bound on the rounding of embed():
    # 2^-40 * (1 + sum of |coefficients|)
    return 2.0 ** -40 * (1 + sum(map(abs, value._num)) / value._den)


@pytest.mark.parametrize("tilt", [zeta(8), 1 + Fraction(1, 2**60) * zeta(4)])
def test_non_real_qdim_raises(monkeypatch, tilt):
    # both tilts are caught by the exact realness test, in Q(zeta_56) and
    # Q(zeta_28); the imaginary part of 1 + 2^-60 i is far below any float
    # tolerance.
    sine_inv = minimal.sine_inv
    monkeypatch.setattr(minimal, "sine_inv", lambda k, b: sine_inv(k, b) * tilt)
    with pytest.raises(ArithmeticError, match="not real"):
        minimal._sine_ratio.__wrapped__(8, 2, 7)


def test_qdim_embeds_once_per_ratio(monkeypatch):
    # each distinct sine ratio is embedded once, in its own field; the
    # product at order 2pq is never embedded
    p, q = 23, 24
    labs = MinimalModel(p, q).labels()
    orders = []
    embed = CyclotomicNumber.embed
    monkeypatch.setattr(
        CyclotomicNumber, "embed", lambda self: orders.append(self.order) or embed(self)
    )
    monkeypatch.setattr(
        minimal, "_sine_ratio", lru_cache(maxsize=None)(minimal._sine_ratio.__wrapped__)
    )
    dims = [minimal._qdim_cached.__wrapped__(p, q, *lab.kac) for lab in labs]
    ratios = {(q, m, p) for m, _ in (l.kac for l in labs)}
    ratios |= {(p, n, q) for _, n in (l.kac for l in labs)}
    assert len(dims) == 253
    assert len(orders) == len(ratios)
    assert set(orders) == {2 * p, 2 * q}
    monkeypatch.undo()
    for d in dims:
        assert d.approx == prod(f.embed().real for f in d.factors) > 0
        assert abs(d.approx - d.exact.embed().real) <= _embed_bound(d.exact)


def test_sine_ratio_sign_is_parity():
    # the sign of sin(pi*k*m/b) / sin(pi*k/b) is (-1)^(floor(k*m/b) +
    # floor(k/b)), against the embedding for every residue k mod 2b prime
    # to b and every 0 < m < b; _sine_ratio applies it up to b = 12
    for b in range(2, 31):
        sines = [two_i_sin(j, b).embed().imag for j in range(2 * b)]
        for k in range(1, 2 * b):
            if gcd(k, b) != 1:
                continue
            for m in range(1, b):
                raw = sines[k * m % (2 * b)] / sines[k]
                sign = (-1) ** (k * m // b + k // b)
                assert raw * sign > 0, (k, m, b)
                if b <= 12:
                    exact = two_i_sin(k * m, b) / two_i_sin(k, b)
                    value, approx = minimal._sine_ratio(k, m, b)
                    assert value == sign * exact
                    assert approx == pytest.approx(abs(raw), rel=1e-12)


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
