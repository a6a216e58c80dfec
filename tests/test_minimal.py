"""Minimal models: weights, labels, fusion, quantum dimensions."""
from fractions import Fraction

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
    central_charge,
    conformal_weight,
    ffk_pair,
    fuse,
    is_admissible,
    list_labels,
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
    assert central_charge(MinimalModel(2, 3)) == 0
    assert central_charge(M34) == Fraction(1, 2)
    assert central_charge(M78) == Fraction(25, 28)
    assert central_charge(M1112) == Fraction(21, 22)
    assert central_charge(MinimalModel(2, 5)) == Fraction(-22, 5)


def test_model_validation():
    for p, q in ((4, 6), (1, 2), (3, 3), (4, 3), (0, 5)):
        with pytest.raises(InvalidModel):
            MinimalModel(p, q)


def test_label_counts():
    assert len(list_labels(MinimalModel(2, 3))) == 1
    assert len(list_labels(M34)) == 3
    assert len(list_labels(M78)) == 21
    assert len(list_labels(M1112)) == 55


def test_label_canonicalization():
    assert ModuleLabel(M78, 5, 1).kac == (2, 7)
    assert ModuleLabel(M1112, 7, 1).kac == (4, 11)
    assert ModuleLabel(M1112, 9, 1).kac == (2, 11)
    # both Kac copies name the same module
    assert ModuleLabel(M78, 1, 3) == ModuleLabel(M78, 6, 5)


def test_label_validation():
    with pytest.raises(InvalidLabel):
        ModuleLabel(M78, 0, 1)
    with pytest.raises(InvalidLabel):
        ModuleLabel(M78, 7, 1)
    with pytest.raises(InvalidLabel):
        ModuleLabel(M34, 1, 4)


def test_ising_weights():
    weights = [label.h for label in list_labels(M34)]
    assert weights == [0, Fraction(1, 16), Fraction(1, 2)]


def test_weights_at_7_8():
    assert conformal_weight(ModuleLabel(M78, 1, 1)) == 0
    assert conformal_weight(ModuleLabel(M78, 1, 3)) == Fraction(3, 4)
    assert conformal_weight(ModuleLabel(M78, 1, 5)) == Fraction(13, 4)
    assert conformal_weight(ModuleLabel(M78, 1, 7)) == Fraction(15, 2)
    assert conformal_weight(ModuleLabel(M1112, 1, 7)) == 8


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


@pytest.mark.parametrize("p,q", [(3, 4), (7, 8), (11, 12)])
def test_fusion_matches_verlinde(p, q):
    model = MinimalModel(p, q)
    labs, tensor = oracles.verlinde_tensor(p, q)
    package = list_labels(model)
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
    for label in list_labels(model):
        bracket = float(oracles.pf_qdim(p, q, label.kac))
        assert abs(qdim(label).approx - bracket) < 1e-9
        assert qdim(label).approx > 0


@pytest.mark.parametrize("p,q", [(7, 8), (11, 12), (2, 5), (3, 5)])
def test_qdim_lives_in_q_zeta_2pq(p, q):
    # the full-field route: both sine ratios taken in Q(zeta_{4pq})
    full = 4 * p * q
    den_inv = (two_i_sin(q, p, full) * two_i_sin(p, q, full)).inv()
    for label in list_labels(MinimalModel(p, q)):
        m, n = label.kac
        old = two_i_sin(q * m, p, full) * two_i_sin(p * n, q, full) * den_inv
        value = qdim(label).exact
        assert (2 * p * q) % value.order == 0
        assert value == old or value == -old


@pytest.mark.parametrize("tilt", [zeta(8), 1 + Fraction(1, 2**60) * zeta(4)])
def test_non_real_qdim_raises(monkeypatch, tilt):
    # zeta_8 is caught by the embedding; 1 + 2^-60 i only by the exact
    # realness test, since its imaginary part is below the error bound.
    sine_inv = minimal._sine_inv
    monkeypatch.setattr(minimal, "_sine_inv", lambda k, b: sine_inv(k, b) * tilt)
    with pytest.raises(ArithmeticError, match="not real"):
        minimal._qdim_cached.__wrapped__(7, 8, 2, 3)


def test_qdim_tensor_multiplies_across_models():
    a = ModuleLabel(M34, 2, 2)
    b = ModuleLabel(M78, 1, 3)
    mixed = qdim_tensor((a, b))
    assert mixed.exact == qdim(a).exact * qdim(b).exact
    assert float(mixed) == pytest.approx(qdim(a).approx * qdim(b).approx)


def test_admissibility_matches_oracle_spot():
    for p, q in ((7, 8), (11, 12)):
        model = MinimalModel(p, q)
        labs = list_labels(model)
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
    labs = list_labels(model)
    picks = tuple(draw(st.sampled_from(labs)) for _ in range(count))
    return (model,) + picks


def _product_counts(counts_by_label, extra):
    out = dict(counts_by_label)
    for label, count in extra:
        out[label] = out.get(label, 0) + count
    return out


@given(_model_and_labels(2))
@settings(max_examples=60, deadline=None)
def test_fusion_commutes(bundle):
    _, a, b = bundle
    assert fuse(a, b) == fuse(b, a)


@given(_model_and_labels(3))
@settings(max_examples=40, deadline=None)
def test_fusion_associates(bundle):
    _, a, b, c = bundle
    left = {}
    for e, m1 in fuse(a, b).items():
        for d, m2 in fuse(e, c).items():
            left[d] = left.get(d, 0) + m1 * m2
    right = {}
    for f, m1 in fuse(b, c).items():
        for d, m2 in fuse(a, f).items():
            right[d] = right.get(d, 0) + m1 * m2
    assert left == right


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
