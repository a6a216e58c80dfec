"""Graded algebras: sectors, chains, structure-constant systems, modules."""
import json
import math
import re
from fractions import Fraction
from pathlib import Path

import pytest

import oracles
from minmod import (
    CyclotomicNumber,
    DegenerateSystem,
    ModuleLabel,
    RingCheck,
    build_algebra,
    build_sector_system,
    check_fusion_ring,
    check_subalgebra_chain,
    irreducible_modules,
    module_fusion,
    parse_exact,
    qdim_module,
    qdim_tensor,
    sector_fusion,
    solve_sector_system,
    zeta,
)
from minmod import algebra, braiding
from minmod.algebra import GradedAlgebra, Sector, _qdim_sum, _ratio_check
from minmod.braiding import named_entry
from minmod.cli import main
from minmod.exact import two_i_sin

ONE = CyclotomicNumber.from_rational(1)
ZERO = CyclotomicNumber.from_rational(0)
I = zeta(4)
SQRT2 = zeta(8) + zeta(8, -1)
SQRT3 = zeta(12) + zeta(12, -1)

A5 = build_algebra("5A")
A3 = build_algebra("3C")


def sector_names(product):
    """The names of the matched sectors of a sector_fusion product."""
    return tuple(sector.name for sector, _ in product.terms)


def module_weights(spec):
    """The conformal weights of each component of an irreducible module."""
    return tuple(tuple(label.h for label in comp) for comp in spec.components)

SECTOR_WEIGHTS_5A = (
    (0, 0, 0),
    (0, Fraction(15, 2), Fraction(15, 2)),
    (0, Fraction(3, 4), Fraction(13, 4)),
    (0, Fraction(13, 4), Fraction(3, 4)),
    (Fraction(1, 2), 0, Fraction(15, 2)),
    (Fraction(1, 2), Fraction(15, 2), 0),
    (Fraction(1, 2), Fraction(3, 4), Fraction(3, 4)),
    (Fraction(1, 2), Fraction(13, 4), Fraction(13, 4)),
    (Fraction(1, 16), Fraction(5, 32), Fraction(57, 32)),
    (Fraction(1, 16), Fraction(57, 32), Fraction(5, 32)),
    (Fraction(1, 16), Fraction(57, 32), Fraction(165, 32)),
    (Fraction(1, 16), Fraction(165, 32), Fraction(57, 32)),
)

SECTOR_WEIGHTS_3C = (
    (0, 0),
    (0, 8),
    (Fraction(1, 2), Fraction(45, 2)),
    (Fraction(1, 2), Fraction(7, 2)),
    (Fraction(1, 16), Fraction(31, 16)),
    (Fraction(1, 16), Fraction(175, 16)),
)


def test_build_algebra_shapes():
    assert len(A5.sectors) == 12
    assert len(A3.sectors) == 6
    assert [m.central_charge() for m in A5.factors] == [
        Fraction(1, 2),
        Fraction(25, 28),
        Fraction(25, 28),
    ]
    assert [m.central_charge() for m in A3.factors] == [
        Fraction(1, 2),
        Fraction(21, 22),
    ]
    assert build_algebra("5a") is A5
    assert build_algebra(" 3c ") is A3
    with pytest.raises(ValueError):
        build_algebra("6A")


def test_sector_and_algebra_validate_on_construction():
    u2 = A3.sectors[1]
    assert Sector("U2", u2.components) == u2
    with pytest.raises(ValueError, match="not the vacuum"):
        GradedAlgebra("3C", A3.factors, A3.sectors[1:])
    with pytest.raises(ValueError, match="pairwise distinct"):
        GradedAlgebra("3C", A3.factors, A3.sectors + (A3.sectors[1],))
    with pytest.raises(ValueError, match="not the vacuum"):
        GradedAlgebra("X", (), ())


def test_sector_fusion_compares_by_value():
    first = sector_fusion(A5, A5.sectors[8], A5.sectors[10])
    again = sector_fusion(A5, A5.sectors[8], A5.sectors[10])
    assert first is not again
    assert first == again
    assert first != sector_fusion(A5, A5.sectors[0], A5.sectors[8])


def test_sector_weights_verbatim():
    assert tuple(s.weights for s in A5.sectors) == SECTOR_WEIGHTS_5A
    assert tuple(s.weights for s in A3.sectors) == SECTOR_WEIGHTS_3C
    assert str(A3.sectors[1]) == "U2 = [0, 8]"


U_TABLE_5A = {
    (2, 2): ("U1",),
    (2, 3): ("U4",),
    (2, 4): ("U3",),
    (3, 3): ("U1", "U3", "U4"),
    (3, 4): ("U2", "U3", "U4"),
    (4, 4): ("U1", "U3", "U4"),
}


def test_5a_u_table():
    for (i, j), names in U_TABLE_5A.items():
        product = sector_fusion(A5, A5.sectors[i - 1], A5.sectors[j - 1])
        assert sector_names(product) == names, (i, j)
        assert all(count == 1 for _, count in product.terms)
        swapped = sector_fusion(A5, A5.sectors[j - 1], A5.sectors[i - 1])
        assert sector_names(swapped) == names


def test_5a_u3_u3_has_extras():
    product = sector_fusion(A5, A5.sectors[2], A5.sectors[2])
    assert "U3" in sector_names(product)
    assert "U2" not in sector_names(product)
    assert product.extras
    # stray componentwise products do not assemble into sectors
    for labels, count in product.extras:
        assert count >= 1
        assert len(labels) == 3


def test_3c_closure_pair():
    product = sector_fusion(A3, A3.sectors[1], A3.sectors[1])
    assert sector_names(product) == ("U1", "U2")
    mixed = sector_fusion(A3, A3.sectors[1], A3.sectors[0])
    assert sector_names(mixed) == ("U2",)
    extras = dict(product.extras)
    kacs = {tuple(label.kac for label in labels) for labels in extras}
    assert kacs == {((1, 1), (1, 3)), ((1, 1), (1, 5)), ((1, 1), (1, 9))}


def test_sector_fusion_rejects_foreign_sector():
    with pytest.raises(ValueError):
        sector_fusion(A5, A3.sectors[0], A5.sectors[0])


def test_subalgebra_chains_all_pass():
    for alg, expected_names in (
        (
            A5,
            (
                "U1..U8 closed",
                "qdim(U9+..+U12)/qdim(U1+..+U8) = 1",
                "U1..U4 closed",
                "qdim(U5+..+U8)/qdim(U1+..+U4) = 1",
                "qdim(U3) = (sin(3pi/8)/sin(pi/8))^2",
                "qdim(U9) = 1/sin(pi/8)^2",
            ),
        ),
        (
            A3,
            (
                "U1..U4 closed",
                "qdim(U5+U6)/qdim(U1+..+U4) = 1",
                "U1..U2 closed",
                "qdim(U3+U4)/qdim(U1+U2) = 1",
                "qdim(U5) = sqrt(2)sin(pi/3)/sin(pi/12)",
            ),
        ),
    ):
        checks = check_subalgebra_chain(alg)
        assert tuple(c.name for c in checks) == expected_names
        assert all(c.passed for c in checks), [c for c in checks if not c.passed]


def test_ratio_check_needs_equal_nonzero_sums():
    s5, s3 = A5.sectors, A3.sectors
    for top, bottom in ((s5[8:], s5[:8]), (s5[4:8], s5[:4]), (s3[4:], s3[:4]), (s3[2:4], s3[:2])):
        assert _ratio_check(top, bottom, "shipped").passed
    # 8 sqrt2 + 16 over 4 sqrt2 + 8: a ratio of 2
    unequal = _ratio_check(s5[8:], s5[:4], "unequal")
    assert not unequal.passed
    assert unequal.detail == f"{_qdim_sum(s5[8:])} over {_qdim_sum(s5[:4])}"
    # 0 over 0 is no ratio of 1
    empty = _ratio_check((), (), "empty")
    assert not empty.passed
    assert empty.detail == "0 over 0"


def test_sector_qdims_exact():
    def sq(i):
        return qdim_tensor(A5.sectors[i - 1].components).exact

    assert sq(1) == sq(2) == sq(5) == sq(6) == ONE
    assert sq(3) == 2 * SQRT2 + 3
    assert sq(4) == 2 * SQRT2 + 3
    assert sq(7) == 2 * SQRT2 + 3
    assert sq(9) == 2 * SQRT2 + 4

    def tq(i):
        return qdim_tensor(A3.sectors[i - 1].components).exact

    assert tq(1) == tq(3) == ONE
    assert tq(2) == SQRT3 + 2
    assert tq(4) == SQRT3 + 2
    assert tq(5) == SQRT3 + 3
    assert tq(6) == SQRT3 + 3


def test_chain_qdim_sums_exact():
    def total(alg, lo, hi):
        acc = CyclotomicNumber.from_rational(0)
        for s in alg.sectors[lo:hi]:
            acc = acc + qdim_tensor(s.components).exact
        return acc

    assert total(A5, 0, 8) == 8 * SQRT2 + 16
    assert total(A5, 8, 12) == 8 * SQRT2 + 16
    assert total(A5, 0, 4) == 4 * SQRT2 + 8
    assert total(A3, 0, 4) == 2 * SQRT3 + 6
    assert total(A3, 4, 6) == 2 * SQRT3 + 6
    assert total(A3, 0, 2) == SQRT3 + 3


def test_build_systems():
    ex = build_sector_system("5A-existence")
    assert ex.unknowns == ("u", "v", "w")
    assert len(ex.equations) == 9
    assert [eq.label for eq in ex.equations] == [
        "(2,2)", "(3,3)", "(4,4)", "(2,3)", "(2,4)", "(3,2)", "(3,4)", "(4,2)", "(4,3)",
    ]
    un = build_sector_system("5a-uniqueness")
    assert un.unknowns == ("1 - mu^2", "1 - gamma^2")
    assert len(un.equations) == 9
    tc = build_sector_system("3C")
    assert tc.unknowns == ("lambda^2",)
    assert len(tc.equations) == 2
    with pytest.raises(ValueError):
        build_sector_system("5A")


def test_solve_3c_system():
    system = build_sector_system("3C")
    solution = solve_sector_system(system)
    assert solution.kind == "unique"
    assert solution.value("lambda^2") == ONE
    assert solution.steps
    with pytest.raises(KeyError):
        solution.value("mu^2")


def test_solve_5a_uniqueness():
    solution = solve_sector_system(build_sector_system("5A-uniqueness"))
    assert solution.kind == "unique"
    assert solution.value("1 - mu^2").is_zero()
    assert solution.value("1 - gamma^2").is_zero()
    assert len(solution.steps) >= 2


def test_solve_5a_existence_contradiction():
    solution = solve_sector_system(build_sector_system("5A-existence"))
    assert solution.kind == "contradiction"
    assert solution.assignments == ()
    assert solution.steps
    # solving again reproduces the same certificate
    again = solve_sector_system(build_sector_system("5A-existence"))
    assert again.steps == solution.steps


def _edit(system, change, label=None):
    # the system with change(equation) in place of row `label`, or of every row
    return system._replace(equations=tuple(
        change(eq) if label in (None, eq.label) else eq for eq in system.equations
    ))


def _column(k, new):
    # an equation change: coefficient k becomes new(coefficients)
    return lambda eq: eq._replace(coefficients=tuple(
        new(eq.coefficients) if i == k else c for i, c in enumerate(eq.coefficients)
    ))


def _bumped(label, k=0):
    return lambda system: _edit(system, _column(k, lambda c: c[k] + 1), label)


def _u_copied_into(k):
    return lambda system: _edit(system, _column(k, lambda c: c[0]))


def test_elimination_clears_its_column():
    # Shift the 1-gamma^2 column of rows (2,3) and (4,3) so that the
    # B[3,.] combination keeps its value: only the requirement that the
    # B[4,.] combination clears that column can refuse the system.
    system = build_sector_system("5A-uniqueness")
    system = _edit(system, _column(1, lambda c: c[1] + algebra._b(3, 2)), "(2,3)")
    system = _edit(system, _column(1, lambda c: c[1] + algebra._b(3, 4)), "(4,3)")
    with pytest.raises(DegenerateSystem, match="elimination identity failed"):
        solve_sector_system(system)


def _table_reasons():
    # (system, message prefix) of each DegenerateSystem the table can raise
    for name, replay in algebra._REPLAYS.items():
        yield from ((name, f"{fact} vanishes") for fact, _ in replay.nonzero)
        yield from ((name, f"{fact} is rank deficient") for fact, _ in replay.full_rank)
        yield from dict.fromkeys((name, fact) for fact, _ in replay.identities)
        if replay.solution is not None:
            yield name, "claimed solution fails relation"


# How each reason is reached: (id, change to the system, braiding facts
# patched).  A reason the table gains without an entry here fails
# collection.  The v = 0 columns keep rank 2 whenever the printed
# eliminations hold, and the rank checks run first, so copying u into w
# reaches that branch.
BREAKS = {
    ("5A-existence", "the (4,4)/(2,3) minor vanishes"): [
        ("5A-existence-minor", None, {"lemma_5a_combos": lambda: (ZERO, ONE)})],
    ("5A-existence", "the v = 0 branch is rank deficient"): [
        ("5A-existence-v-branch", _u_copied_into(2), {})],
    ("5A-existence", "the w = 0 branch is rank deficient"): [
        ("5A-existence-w-branch", _u_copied_into(1), {})],
    ("5A-existence", "elimination identity failed"): [
        ("5A-existence-(3,2)", _bumped("(3,2)"), {}),
        ("5A-existence-identity", None, {"lemma_5a_combos": lambda: (ONE, ONE)})],
    ("5A-uniqueness", "the (3,2)/(4,4) minor vanishes"): [
        ("5A-uniqueness-minor", None, {"lemma_5a_combos": lambda: (ONE, ZERO)})],
    ("5A-uniqueness", "row (4,3) pivot vanishes"): [
        ("5A-uniqueness-pivot",
         lambda system: _edit(system, _column(1, lambda c: ZERO), "(4,3)"), {})],
    ("5A-uniqueness", "coefficient matrix is rank deficient"): [
        ("5A-uniqueness-rank", _u_copied_into(1), {})],
    ("5A-uniqueness", "elimination identity failed"): [
        ("5A-uniqueness-(4,3)", _bumped("(4,3)"), {}),
        ("5A-uniqueness-identity", None, {"lemma_5a_combos": lambda: (ONE, ONE)})],
    ("5A-uniqueness", "claimed solution fails relation"): [
        ("5A-uniqueness-solution",
         lambda system: _edit(system, lambda eq: eq._replace(rhs=ONE), "(2,2)"), {})],
    ("3C", "the (2,1) braid entry vanishes"): [
        ("3C-pivot", None, {"lemma_3c_entry": lambda: ZERO})],
    ("3C", "system coefficients drifted from the braid matrix"): [
        ("3C-(2,1)", _bumped("(2,1)"), {})],
    ("3C", "claimed solution fails relation"): [
        ("3C-(2,2)", _bumped("(2,2)"), {})],
}


# The substitution check also names the row that fails: the row each
# solution case breaks.  A solution case without an entry fails collection.
FAILING_ROW = {"5A-uniqueness-solution": "(2,2)", "3C-(2,2)": "(2,2)"}


def _message(name, reason, case):
    if reason == "claimed solution fails relation":
        return f"{name}: {reason} {FAILING_ROW[case]}"
    return f"{name}: {reason}"


@pytest.mark.parametrize("name, message, change, facts", [
    pytest.param(name, _message(name, reason, case), change, facts, id=case)
    for name, reason in _table_reasons()
    for case, change, facts in BREAKS[name, reason]
])
def test_degenerate_fact_is_refused(monkeypatch, name, message, change, facts):
    # Each fact the table checks refuses the system when it fails, with a
    # message that names the system and the fact.
    system = build_sector_system(name)
    for attr, value in facts.items():
        monkeypatch.setattr(braiding, attr, value)
    with pytest.raises(DegenerateSystem, match=re.escape(message)):
        solve_sector_system(change(system) if change else system)


def test_nonzero_facts_have_a_nonzero_split_prime_image():
    # m1, m2, the row (4,3) pivot B[4,4]*Bt[4,3] and the 3C entry B[2,1],
    # proved nonzero by a second route: a nonzero image in F_l at a prime
    # l = 1 mod the value's order, which uses neither is_zero nor ==
    facts = []
    for name, replay in algebra._REPLAYS.items():
        rows = {eq.label: eq.coefficients for eq in build_sector_system(name).equations}
        facts += [(name, fact, value(rows)) for fact, value in replay.nonzero]
    assert [fact for _, fact, _ in facts] == [
        "the (4,4)/(2,3) minor", "the (3,2)/(4,4) minor", "row (4,3) pivot",
        "the (2,1) braid entry"]
    for name, fact, value in facts:
        ell, w = oracles.split_prime(value.order)
        assert oracles.image(value, ell, w) != 0, (name, fact)


RESIDUALS_5A = {
    "(2,2)": 10 - 8 * SQRT2,
    "(3,3)": 3 - 3 * SQRT2,
    "(4,4)": ONE - SQRT2,
    "(2,3)": (3 * SQRT2 - 4) * (ONE + I),
    "(2,4)": (SQRT2 - 4) * (ONE - I),
    "(3,2)": (SQRT2 * Fraction(7, 2) - 5) * (ONE - I),
    "(3,4)": (SQRT2 - 3) * I,
    "(4,2)": (SQRT2 * Fraction(5, 2) - 3) * (ONE + I),
    "(4,3)": (3 - SQRT2) * I,
}


def closure_residuals(capsys) -> list:
    """The report-only closure residual rows of `mm verify uniqueness-5a`."""
    assert main(["verify", "uniqueness-5a", "--format", "json"]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    return [c for c in checks if c["name"].startswith("closure residual")]


def test_normalization_residuals_5a(capsys):
    rows = closure_residuals(capsys)
    assert [c["name"] for c in rows] == [
        f"closure residual {label}" for label in RESIDUALS_5A
    ]
    for row, want in zip(rows, RESIDUALS_5A.values()):
        value = parse_exact(row["exact"])
        assert value == want, row["name"]
        assert not value.is_zero()


def test_normalization_residuals_3c():
    # sum_k B[k,j] - 1 over the two rows of the (11,12) matrix
    values = [
        named_entry(11, (2, 2, 2, 2), 1, j) + named_entry(11, (2, 2, 2, 2), 2, j) - 1
        for j in (1, 2)
    ]
    assert values[0] == (7 - 5 * SQRT3) * Fraction(1, 2)
    assert values[1] == (-1 - 3 * SQRT3) * Fraction(1, 2)
    got = complex(values[0].embed())
    assert abs(got - (7 - 5 * math.sqrt(3)) / 2) < 1e-12


def _h78(m, n):
    return Fraction((7 * n - 8 * m) ** 2 - 1, 4 * 7 * 8)


# grade pattern of a 5A module, in sector order U1..U12
_5A_SHAPE = (
    (0, (1, 1)), (0, (7, 7)), (0, (3, 5)), (0, (5, 3)),
    (Fraction(1, 2), (1, 7)), (Fraction(1, 2), (7, 1)),
    (Fraction(1, 2), (3, 3)), (Fraction(1, 2), (5, 5)),
    (Fraction(1, 16), (2, 4)), (Fraction(1, 16), (4, 2)),
    (Fraction(1, 16), (4, 6)), (Fraction(1, 16), (6, 4)),
)


def test_5a_modules():
    specs = irreducible_modules(A5)
    assert [spec.key for spec in specs] == [
        (i, j) for i in (1, 3, 5) for j in (1, 3, 5)
    ]
    for spec in specs:
        i, j = spec.key
        assert len(spec.components) == 12
        want = tuple(
            (h0, _h78(i, ni), _h78(j, nj)) for h0, (ni, nj) in _5A_SHAPE
        )
        assert module_weights(spec) == want
    # the vacuum module is the algebra itself, sector by sector
    vacuum = specs[0]
    assert module_weights(vacuum) == tuple(s.weights for s in A5.sectors)


MODULE_WEIGHTS_3C = {
    2: (
        (0, Fraction(13, 11)), (0, Fraction(35, 11)),
        (Fraction(1, 2), Fraction(15, 22)), (Fraction(1, 2), Fraction(301, 22)),
        (Fraction(1, 16), Fraction(21, 176)), (Fraction(1, 16), Fraction(901, 176)),
    ),
    4: (
        (0, Fraction(6, 11)), (0, Fraction(50, 11)),
        (Fraction(1, 2), Fraction(1, 22)), (Fraction(1, 2), Fraction(155, 22)),
        (Fraction(1, 16), Fraction(85, 176)), (Fraction(1, 16), Fraction(261, 176)),
    ),
    6: (
        (0, Fraction(1, 11)), (0, Fraction(111, 11)),
        (Fraction(1, 2), Fraction(35, 22)), (Fraction(1, 2), Fraction(57, 22)),
        (Fraction(1, 16), Fraction(5, 176)), (Fraction(1, 16), Fraction(533, 176)),
    ),
    8: (
        (0, Fraction(20, 11)), (0, Fraction(196, 11)),
        (Fraction(1, 2), Fraction(7, 22)), (Fraction(1, 2), Fraction(117, 22)),
        (Fraction(1, 16), Fraction(133, 176)), (Fraction(1, 16), Fraction(1365, 176)),
    ),
}


def test_3c_modules():
    specs = irreducible_modules(A3)
    assert [spec.key for spec in specs] == [0, 2, 4, 6, 8]
    vacuum = specs[0]
    assert module_weights(vacuum) == tuple(s.weights for s in A3.sectors)
    for spec in specs[1:]:
        assert len(spec.components) == 6
        got = module_weights(spec)
        want = MODULE_WEIGHTS_3C[spec.key]
        # per grade, as multisets: listing order inside a grade pair is
        # not part of the contract
        for grade in (0, Fraction(1, 2), Fraction(1, 16)):
            assert sorted(w for g, w in got if g == grade) == sorted(
                w for g, w in want if g == grade
            ), (spec.key, grade)


def test_module_fusion_5a_matches_verlinde():
    labs, tensor = oracles.verlinde_tensor(7, 8)
    index = {lab: k for k, lab in enumerate(labs)}
    keys = [(i, j) for i in (1, 3, 5) for j in (1, 3, 5)]
    for a in keys:
        for b in keys:
            table = module_fusion(A5, a, b)
            for c in keys:
                canon = lambda i: index[oracles.canonical(7, 8, i, 1)]
                want = round(
                    tensor[canon(a[0]), canon(b[0]), canon(c[0])]
                ) * round(tensor[canon(a[1]), canon(b[1]), canon(c[1])])
                assert table.get(c, 0) == want, (a, b, c)


def test_module_fusion_3c_matches_verlinde():
    labs, tensor = oracles.verlinde_tensor(11, 12)
    index = {lab: k for k, lab in enumerate(labs)}
    for a in (0, 2, 4, 6, 8):
        for b in (0, 2, 4, 6, 8):
            table = module_fusion(A3, a, b)
            for c in (0, 2, 4, 6, 8):
                canon = lambda i: index[oracles.canonical(11, 12, i + 1, 1)]
                want = round(tensor[canon(a), canon(b), canon(c)])
                assert table.get(c, 0) == want, (a, b, c)


def test_module_fusion_ring_axioms():
    for alg, keys in ((A5, [(i, j) for i in (1, 3, 5) for j in (1, 3, 5)]), (A3, [0, 2, 4, 6, 8])):
        ring = check_fusion_ring(keys, lambda a, b: module_fusion(alg, a, b), keys[0])
        assert ring == RingCheck(), alg.name


FUSION_GOLDEN = Path(__file__).with_name("fusion.golden.json")


def _cli_key(key) -> str:
    return ",".join(map(str, key)) if isinstance(key, tuple) else str(key)


def fusion_products():
    """(name, terms) for every ordered sector pair and module key pair of
    both algebras, each product in the order the function returns it:
    matched sector names and extras as Kac lists, with their counts."""
    for alg in (A5, A3):
        for a in alg.sectors:
            for b in alg.sectors:
                product = sector_fusion(alg, a, b)
                yield f"sector {alg.name} {a.name} {b.name}", {
                    "terms": [[s.name, k] for s, k in product.terms],
                    "extras": [[[list(l.kac) for l in labels], k]
                               for labels, k in product.extras],
                }
        keys = [spec.key for spec in irreducible_modules(alg)]
        for a in keys:
            for b in keys:
                yield f"module {alg.name} {_cli_key(a)} {_cli_key(b)}", [
                    [_cli_key(k), v] for k, v in module_fusion(alg, a, b).items()
                ]


def test_sector_and_module_fusion_are_pinned():
    # 144 + 36 sector products and 81 + 25 module products, one line each
    lines = [f"{json.dumps(name)}: {json.dumps(value)}" for name, value in fusion_products()]
    assert len(lines) == 144 + 36 + 81 + 25
    assert "{\n" + ",\n".join(lines) + "\n}\n" == FUSION_GOLDEN.read_text()


def test_qdim_module_values():
    assert qdim_module(A5, (1, 1)).exact == ONE
    assert qdim_module(A3, 0).exact == ONE
    assert abs(qdim_module(A3, 2).approx - 2.6825070656623624) < 1e-9
    assert abs(qdim_module(A5, (3, 3)).approx - 5.048917339522305) < 1e-9
    # sine ratios against the plain library
    for k in (0, 2, 4, 6, 8):
        want = math.sin((k + 1) * math.pi / 11) / math.sin(math.pi / 11)
        assert abs(qdim_module(A3, k).approx - want) < 1e-12


def test_qdim_module_sine_formulas():
    # the paper's sine ratios written out by hand: the strings pin both
    # the element and its field, Q(zeta_14) for 5A and Q(zeta_22) for 3C
    for i in (1, 3, 5):
        for j in (1, 3, 5):
            want = (
                two_i_sin(8 * i, 7)
                * two_i_sin(8 * j, 7)
                * (two_i_sin(8, 7) ** 2).inv()
            )
            got = qdim_module(A5, (i, j)).exact
            assert got == want and got.to_string() == want.to_string()
    for k in (0, 2, 4, 6, 8):
        want = two_i_sin(k + 1, 11) * two_i_sin(1, 11).inv()
        got = qdim_module(A3, k).exact
        assert got == want and got.to_string() == want.to_string()


@pytest.mark.parametrize("alg", [A5, A3], ids=["5A", "3C"])
def test_qdim_module_matches_qdim_tensor_of_index_labels(alg):
    # the m-side ratios alone against the full quantum dimensions of the
    # (m,1) index labels, whose n-side ratios are all 1
    modules = irreducible_modules(alg)
    assert len(modules) == {"5A": 9, "3C": 5}[alg.name]
    for module in modules:
        ms = module.key if alg.name == "5A" else (module.key + 1,)
        labels = [ModuleLabel(model, m, 1) for model, m in zip(alg.factors[1:], ms)]
        got, want = qdim_module(alg, module.key), qdim_tensor(labels)
        assert got.exact == want.exact
        assert got.approx == pytest.approx(want.approx, rel=1e-12)


def test_qdim_module_is_ring_hom():
    keys = [0, 2, 4, 6, 8]
    for a in keys:
        for b in keys:
            total = CyclotomicNumber.from_rational(0)
            for c, mult in module_fusion(A3, a, b).items():
                total = total + mult * qdim_module(A3, c).exact
            assert total == qdim_module(A3, a).exact * qdim_module(A3, b).exact


def test_module_key_validation():
    with pytest.raises(ValueError):
        qdim_module(A5, (2, 2))
    with pytest.raises(ValueError):
        qdim_module(A3, 1)
    with pytest.raises(ValueError):
        module_fusion(A5, (1, 1), 0)
    with pytest.raises(ValueError):
        module_fusion(A3, 0, (1, 1))
    with pytest.raises(ValueError):
        module_fusion(A3, "0", 0)
    with pytest.raises(ValueError):
        qdim_module(A3, "0")
    with pytest.raises(ValueError):
        qdim_module(A3, (1, 1))
    # an unhashable key is an unknown key, not a TypeError
    with pytest.raises(ValueError):
        module_fusion(A5, [[1], 3], (1, 1))
    with pytest.raises(ValueError):
        qdim_module(A3, {})
    # a key compares by value: bools and floats equal to a key name it
    assert qdim_module(A3, False) == qdim_module(A3, 0)
    assert module_fusion(A3, 2.0, False) == module_fusion(A3, 2, 0)
    assert module_fusion(A5, (1.0, 3), [True, 5]) == module_fusion(A5, (1, 3), (1, 5))
    # a list names the same 5A module as its tuple
    assert module_fusion(A5, [3, 5], (1, 1)) == module_fusion(A5, (3, 5), (1, 1))
    assert qdim_module(A5, [3, 5]) == qdim_module(A5, (3, 5))
