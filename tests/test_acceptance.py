"""Acceptance gate.

One test per shipped claim, one printed PASS/FAIL line each (run with
-s to see them).  Criterion 2 is split: 2a pins the catalogued value of
the first minor combination as the value of its sign-slipped source
display and checks the true value on r-matrix-independent evidence
(determinant against the twist phases), 2b covers the second
combination and the intermediate products.  The erratum is written out
in the README, section "Acceptance suite".
"""
import math
from contextlib import contextmanager
from fractions import Fraction

import oracles
from minmod import (
    CyclotomicNumber,
    MinimalModel,
    ModuleLabel,
    RingCheck,
    braid_matrix,
    build_algebra,
    build_sector_system,
    check_fusion_ring,
    check_subalgebra_chain,
    fuse,
    irreducible_modules,
    is_admissible,
    lemma_3c_entry,
    lemma_5a_combos,
    memoized_queries,
    module_fusion,
    named_label,
    parse_exact,
    qdim,
    qdim_tensor,
    sector_fusion,
    solve_sector_system,
    zeta,
)
from test_algebra import RESIDUALS_5A, closure_residuals, sector_names
from test_braiding import count_split_queries, split_queries_of_the_lemma_matrices

ONE = CyclotomicNumber.from_rational(1)
I = zeta(4)
SQRT2 = zeta(8) + zeta(8, -1)
SQRT3 = zeta(12) + zeta(12, -1)

M78 = MinimalModel(7, 8)
M1112 = MinimalModel(11, 12)


@contextmanager
def criterion(tag: str, title: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {tag} ({title}): FAIL")
        raise
    print(f"ACCEPTANCE {tag} ({title}): PASS")


def test_criterion_01_charges_and_weights():
    with criterion("1", "central charges and conformal weights"):
        assert M78.central_charge() == Fraction(25, 28)
        assert M1112.central_charge() == Fraction(21, 22)
        # FFK's two-index name (i', i) of a module, q side first
        by_pair = {
            oracles.ffk_indices(*label.kac): label.h
            for label in M78.labels()
            if label.m == 1 and label.n in (1, 3, 5, 7)
        }
        assert by_pair == {
            (1, 1): 0,
            (3, 1): Fraction(3, 4),
            (5, 1): Fraction(13, 4),
            (7, 1): Fraction(15, 2),
        }
        lab = ModuleLabel(M1112, 1, 7)
        (_, i), (side, i_p) = zip(M1112.sides, lab.kac)
        assert (i_p, i, side.bound) == (7, 1, 12)
        assert lab.h == 8


def _twist_product(matrix) -> CyclotomicNumber:
    """prod over the channels mu of exp(i pi (h_mu - h_a1 - h_a2)), exactly.

    The channels mu are the outputs of a2 x a1, so this is the determinant
    the twist spectrum forces, with no use of the r-matrix.
    """
    _, a1, _, a2 = matrix.external
    total = ONE
    for mu in matrix.rows:
        r = mu.h - a1.h - a2.h
        total = total * zeta(2 * r.denominator, r.numerator)
    return total


def test_criterion_02a_first_minor_catalogued_value():
    with criterion(
        "2a", "catalogued first minor is the slipped display's; true value holds"
    ):
        first, _ = lemma_5a_combos()
        catalogued = (SQRT2 - 1) * Fraction(1, 2) + (3 - 2 * SQRT2) * Fraction(
            1, 2
        ) * I
        matrix = braid_matrix(M78, tuple(named_label(M78, i) for i in (3, 3, 4, 4)))
        lab = {i: named_label(M78, i) for i in (2, 3, 4)}
        y = M78.sides[1].power(4)
        entries = dict(matrix.entries)
        # the source display prints y in B23 where the r-matrix forces 1/y
        entries[(lab[2], lab[3])] = y * y * entries[(lab[2], lab[3])]
        slipped = matrix._replace(entries=entries)

        def e(m, i, j):
            return m.entry(lab[i], lab[j])

        assert e(slipped, 4, 4) * e(slipped, 2, 3) - e(slipped, 4, 3) * e(
            slipped, 2, 4
        ) == catalogued, "the catalogued value is not the slipped display's"
        assert slipped.det() != _twist_product(slipped), (
            "the slipped display passes the twist-phase determinant check"
        )
        assert not first.is_zero()
        assert first != catalogued, (
            "the first minor equals the catalogued value, which inherits the "
            "y-for-1/y slip in B23; the true exact value is (sqrt(2)-1)(1+i)/2"
        )
        assert first == (SQRT2 - 1) * (ONE + I) * Fraction(1, 2)
        assert matrix.det() == _twist_product(matrix), (
            "the braiding matrix fails the twist-phase determinant check"
        )


def test_criterion_02b_second_minor_and_intermediates():
    with criterion("2b", "second minor combination and intermediate products"):
        first, second = lemma_5a_combos()
        assert second == ONE + I
        assert not first.is_zero()
        matrix = braid_matrix(M78, tuple(named_label(M78, i) for i in (3, 3, 4, 4)))
        lab = {i: named_label(M78, i) for i in (2, 3, 4)}
        y_inv = M78.sides[1].power(-4)
        assert matrix.entry(lab[3], lab[2]) * matrix.entry(lab[4], lab[4]) == (
            SQRT2 - 1
        ) * y_inv
        assert (
            matrix.entry(lab[4], lab[2]) * matrix.entry(lab[3], lab[4]) == -y_inv
        )


def test_criterion_03_3c_entry():
    with criterion("3", "3C pivot entry, exact and against the float oracle"):
        entry = lemma_3c_entry()
        assert not entry.is_zero()
        primed = M1112.sides[1]
        b = primed.__getitem__
        product = (
            primed.power(24)
            * b(1) ** 3
            * primed.inv(2) ** 3
            * (b(1) + b(3))
            * primed.inv(3)
            * b(10)
            * b(9)
            * b(8)
            * primed.inv(7)
            * primed.inv(6)
            * primed.inv(5)
            * (b(3) * b(4) + b(1) * b(4) + b(1) * b(2))
            * primed.inv(3)
            * primed.inv(4)
        )
        assert entry == product
        _, _, entries = oracles.braid_matrix(11, 12, ((1, 7),) * 4)
        want = entries[((1, 7), (1, 1))]
        assert abs(complex(entry.embed()) - want) < 1e-9


def test_criterion_04_fusion_tables():
    with criterion("4", "named fusion table, sector table, 3C closure"):
        p = {i: named_label(M78, i) for i in (1, 2, 3, 4)}
        table = {
            (2, 2): {p[1]},
            (2, 3): {p[4]},
            (2, 4): {p[3]},
            (3, 3): {p[1], p[3], p[4]},
            (3, 4): {p[2], p[3], p[4]},
            (4, 4): {p[1], p[3], p[4]},
        }
        for (i, j), want in table.items():
            assert fuse(p[i], p[j]) == want, (i, j)

        a5 = build_algebra("5A")
        u_table = {
            (2, 2): ("U1",),
            (2, 3): ("U4",),
            (2, 4): ("U3",),
            (3, 3): ("U1", "U3", "U4"),
            (3, 4): ("U2", "U3", "U4"),
            (4, 4): ("U1", "U3", "U4"),
        }
        for (i, j), names in u_table.items():
            got = sector_fusion(a5, a5.sectors[i - 1], a5.sectors[j - 1])
            assert sector_names(got) == names, (i, j)

        a3 = build_algebra("3C")
        closed = a3.sectors[:2]
        for a in closed:
            for b in closed:
                got = sector_fusion(a3, a, b)
                assert set(sector_names(got)) <= {"U1", "U2"}, (a.name, b.name)


def test_criterion_05_quantum_dimensions():
    with criterion("5", "quantum dimensions, chain sums, eigenvalue oracle"):
        a5 = build_algebra("5A")
        a3 = build_algebra("3C")
        s8 = math.sin(math.pi / 8)
        trio_5a = (1.0, (math.sin(3 * math.pi / 8) / s8) ** 2, 1 / s8**2)
        for sector, want in zip((a5.sectors[0], a5.sectors[2], a5.sectors[8]), trio_5a):
            assert abs(qdim_tensor(sector.components).approx - want) < 1e-9
        s12 = math.sin(math.pi / 12)
        trio_3c = (
            1.0,
            math.sin(5 * math.pi / 12) / s12,
            math.sqrt(2) * math.sin(4 * math.pi / 12) / s12,
        )
        for sector, want in zip((a3.sectors[0], a3.sectors[1], a3.sectors[4]), trio_3c):
            assert abs(qdim_tensor(sector.components).approx - want) < 1e-9

        for alg in (a5, a3):
            for check in check_subalgebra_chain(alg):
                assert check.passed, check

        for p, q in ((7, 8), (11, 12)):
            model = MinimalModel(p, q)
            for label in model.labels():
                bracket = float(oracles.pf_qdim(p, q, label.kac))
                assert abs(qdim(label).approx - bracket) < 1e-9, label


def test_criterion_06_structure_constant_systems():
    with criterion("6", "structure-constant systems"):
        tc = solve_sector_system(build_sector_system("3C"))
        assert tc.kind == "unique"
        assert tc.assignments == (("lambda^2", ONE),)

        un = solve_sector_system(build_sector_system("5A-uniqueness"))
        assert un.kind == "unique"
        assert [str(v) for _, v in un.assignments] == ["0", "0"]

        ex = solve_sector_system(build_sector_system("5A-existence"))
        assert ex.kind == "contradiction"
        assert ex.steps


def test_criterion_07_module_fusion():
    with criterion("7", "module fusion rings against the Verlinde oracle"):
        a5 = build_algebra("5A")
        a3 = build_algebra("3C")
        keys_5a = [spec.key for spec in irreducible_modules(a5)]
        keys_3c = [spec.key for spec in irreducible_modules(a3)]
        assert len(keys_5a) == 9 and len(keys_3c) == 5

        for a in keys_5a:
            for b in keys_5a:
                got = module_fusion(a5, a, b)
                for c in keys_5a:
                    want = int(
                        is_admissible((a[0], 1), (b[0], 1), (c[0], 1), M78)
                    ) * int(is_admissible((a[1], 1), (b[1], 1), (c[1], 1), M78))
                    assert got.get(c, 0) == want

        labs, tensor = oracles.verlinde_tensor(11, 12)
        index = {lab: k for k, lab in enumerate(labs)}
        for a in keys_3c:
            for b in keys_3c:
                got = module_fusion(a3, a, b)
                assert module_fusion(a3, b, a) == got
                assert got if (a == 0 or b == 0) else True
                for c in keys_3c:
                    spot = lambda k: index[oracles.canonical(11, 12, k + 1, 1)]
                    assert got.get(c, 0) == round(tensor[spot(a), spot(b), spot(c)])

        for alg, keys in ((a5, keys_5a), (a3, keys_3c)):
            ring = check_fusion_ring(
                keys, lambda a, b: module_fusion(alg, a, b), keys[0]
            )
            assert ring == RingCheck(), alg.name


def test_criterion_08_property_suites(monkeypatch):
    with criterion("8", "field axioms, associativity, choice independence, float agreement"):
        # field-axiom spot checks across orders
        z8, z24, z224 = zeta(8), zeta(24), zeta(224)
        samples = (
            z8 + 1,
            z24**5 - 2 * z24,
            z224**31 + z224 * Fraction(2, 3),
            CyclotomicNumber.from_rational(Fraction(-7, 5)),
        )
        for a in samples:
            for b in samples:
                assert a + b == b + a
                assert a * b == b * a
                for c in samples:
                    assert (a + b) * c == a * c + b * c
                    assert (a * b) * c == a * (b * c)
            if not a.is_zero():
                assert a * a.inv() == ONE

        for p, q in ((3, 4), (7, 8), (11, 12)):
            model = MinimalModel(p, q)
            ring = check_fusion_ring(model.labels(), fuse, model.vacuum)
            assert ring == RingCheck(), (p, q)

        braid_matrix(M78, tuple(named_label(M78, i) for i in (3, 3, 4, 4)))
        braid_matrix(M1112, (named_label(M1112, 2),) * 4)
        assert count_split_queries(memoized_queries()) > 0
        # every query of the lemma matrices equals the m-peeling reference
        # under each of its splittings
        assert count_split_queries(split_queries_of_the_lemma_matrices(monkeypatch)) > 0

        for p, q, exts in (
            (7, 8, ((1, 3), (1, 3), (1, 5), (1, 5))),
            (11, 12, ((1, 7),) * 4),
        ):
            model = MinimalModel(p, q)
            matrix = braid_matrix(model, tuple(model.label(m, n) for m, n in exts))
            _, _, entries = oracles.braid_matrix(p, q, exts)
            for mu in matrix.rows:
                for ga in matrix.cols:
                    got = complex(matrix.entry(mu, ga).embed())
                    assert abs(got - entries[(mu.kac, ga.kac)]) < 1e-9


def test_report_only_residual_emission(capsys):
    with criterion("report-only", "raw-normalization residual info lines"):
        rows = closure_residuals(capsys)
        assert len(rows) == 9
        assert all(c["status"] == "info" for c in rows)
        values = [parse_exact(c["exact"]) for c in rows]
        assert values == list(RESIDUALS_5A.values())
        assert not any(v.is_zero() for v in values)
