"""End-to-end CLI checks, run in process through main()."""
import argparse
import gc
import io
import json
import math
import os
import random
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import minmod
import oracles
from minmod import (
    CyclotomicNumber, DegenerateSystem, DivisionByZero, algebra, braiding, cli, minimal,
    parse_exact, zeta,
)
from minmod.cli import main
from test_exact import at_its_conductor, solve


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert err == ""
    return code, json.loads(out)


def assert_schema(report):
    assert set(report) == {"command", "checks", "elapsed_ms"}
    assert isinstance(report["elapsed_ms"], int)
    for check in report["checks"]:
        assert set(check) == {"name", "status", "exact", "approx"}
        assert check["status"] in ("pass", "fail", "info")
        if check["exact"]:
            parse_exact(check["exact"])


def test_info_7_8(capsys):
    code, report = run_json(capsys, "info", "--p", "7", "--q", "8")
    assert code == 0
    assert_schema(report)
    assert report["command"] == "info (7,8)"
    assert len(report["checks"]) == 22
    charge = report["checks"][0]
    assert charge["name"] == "central charge"
    assert charge["exact"] == "25/28"
    names = [c["name"] for c in report["checks"][1:]]
    assert names[0] == "(1,1)"
    assert "(1,7)" in names and "(2,7)" in names


def test_info_2_3(capsys):
    code, report = run_json(capsys, "info", "--p", "2", "--q", "3")
    assert code == 0
    assert len(report["checks"]) == 2
    assert report["checks"][0]["exact"] == "0"


def test_info_rejects_bad_model(capsys):
    code, out, err = run(capsys, "info", "--p", "4", "--q", "6")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_fusion_example(capsys):
    code, report = run_json(
        capsys, "fusion", "--p", "7", "--q", "8", "--a", "1,3", "--b", "1,3"
    )
    assert code == 0
    names = [c["name"] for c in report["checks"]]
    assert names == ["(1,1)", "(1,3)", "(1,5)"]


def test_fusion_multiplicity_rendering(capsys):
    # (2,2)x(2,2) at (3,4) is multiplicity free; pick one that is not
    code, report = run_json(
        capsys, "fusion", "--p", "11", "--q", "12", "--a", "5,5", "--b", "5,5"
    )
    assert code == 0
    for check in report["checks"]:
        assert check["status"] == "info"


def test_qdim_example(capsys):
    code, out, err = run(
        capsys, "qdim", "--p", "11", "--q", "12", "--label", "1,7"
    )
    assert code == 0
    assert "= 2 + sqrt(3)" in out
    # 2 + sqrt(3) = 3.7320508075688772..., at the 12 decimals a double
    # gets right to within one unit of the last
    assert out.splitlines()[0].endswith("~ 3.732050807569")


def test_precision_flag_widens_output(capsys):
    # the widest output the removed flag gave is the default now: the qdim
    # row's approx carries 12 decimals without any option
    code, out, err = run(
        capsys, "qdim", "--p", "11", "--q", "12", "--label", "1,7"
    )
    assert code == 0
    approx = out.splitlines()[0].rpartition("~ ")[2]
    assert re.fullmatch(r"\d+\.\d{12}", approx), approx


# -- radical rendering, against the elimination over lcm(n, 24) -----------------

_RADICAL_NAMES = ("", "sqrt(2)", "sqrt(3)", "sqrt(6)",
                  "i", "sqrt(2)*i", "sqrt(3)*i", "sqrt(6)*i")


def _radical_basis():
    s2, s3 = zeta(8) + zeta(8, -1), zeta(12) + zeta(12, -1)
    reals = (CyclotomicNumber.from_rational(1), s2, s3, s2 * s3)
    return reals + tuple(zeta(4) * b for b in reals)


def _radical_reference(value):
    # every basis element and the value promoted to lcm(n, 24), one
    # eight-column elimination there
    order = math.lcm(value.order, 24)
    cols = [b.promote(order).coefficients for b in _radical_basis()]
    sol = solve([list(row) for row in zip(*cols, value.promote(order).coefficients)])
    return None if sol is None else tuple(sol)


def _spelled_coordinates(text):
    # the coordinates a radical rendering spells, in _RADICAL_NAMES order
    coords = dict.fromkeys(_RADICAL_NAMES, 0)
    for term in text.replace("- ", "-").replace("+ ", "").split(" "):
        sign = -1 if term.startswith("-") else 1
        mag, _, name = term.lstrip("-").partition("*")
        if not mag[0].isdigit():
            mag, name = "1", term.lstrip("-")
        coords[name] += sign * Fraction(mag)
    return tuple(coords.values())


def _radical_coordinates(value):
    radical = cli.as_radical(value)
    return None if radical is None else _spelled_coordinates(radical)


def test_radical_coordinates_of_verify_all_match_the_lcm_route(capsys):
    _, report = run_json(capsys, "verify", "all")
    values = [parse_exact(c["exact"]) for c in report["checks"] if c["exact"]]
    values = [v for v in values if not v.is_rational()]
    assert values
    for value in values:
        assert _radical_coordinates(value) == _radical_reference(value), value


# Odd orders and orders 2 mod 4 that 3 divides, where sqrt(3)*i lies in
# the field but i does not; multiples of 24; and orders meeting Q(zeta_24)
# in Q(zeta_8) only.
_RADICAL_ORDERS = (3, 5, 6, 9, 15, 30, 48, 96, 120, 224, 728)


def _seeded_radical_values():
    # elements of Q(zeta_gcd(n,24)) in Q(zeta_n), every second one moved
    # off that meet by a zeta_n^e term
    rng = random.Random(24)
    for order in _RADICAL_ORDERS:
        meet = math.gcd(order, 24)
        for draw in range(8):
            value = sum((Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                         * zeta(meet, rng.randrange(meet)) for _ in range(3)),
                        CyclotomicNumber.from_rational(0)).promote(order)
            if draw % 2:
                value = value + rng.randint(1, 5) * zeta(order, rng.randrange(order))
            yield value


def test_radical_coordinates_of_seeded_values_match_the_lcm_route():
    outside = 0
    for value in _seeded_radical_values():
        want = _radical_reference(value)
        assert _radical_coordinates(value) == want, value
        outside += want is None
    assert outside


def _rebuild_radical(text):
    # the value a radical rendering spells, from the test's own sqrt(2),
    # sqrt(3) and i
    return sum((c * b for c, b in zip(_spelled_coordinates(text), _radical_basis())),
               CyclotomicNumber.from_rational(0))


def test_radical_renderings_rebuild_their_values(capsys):
    # Every radical form verify all prints, and every one of the seeded
    # draws, spells its value exactly.
    _, report = run_json(capsys, "verify", "all")
    shown = [c["exact"].split(" = ") for c in report["checks"] if " = " in c["exact"]]
    assert shown
    for poly, radical in shown:
        assert _rebuild_radical(radical) == parse_exact(poly), (poly, radical)
    rendered = 0
    for value in _seeded_radical_values():
        radical = cli.as_radical(value)
        if radical is not None:
            assert _rebuild_radical(radical) == value, (value, radical)
            rendered += 1
    assert rendered


def _radical_by_products(value):
    # the rendering as it was read off eight field products: the coordinate
    # on b is (y_0 + y_4/2)/b^2, y the Q(zeta_24) coefficients of x*b
    value = value.at_conductor()
    if 24 % value.order:
        return None
    parts = []
    squares = (1, 2, 3, 6, -1, -2, -3, -6)
    for b, square, name in zip(_radical_basis(), squares, _RADICAL_NAMES):
        y = (value * b.promote(24)).coefficients
        coeff = (y[0] + y[4] / 2) / square
        if coeff:
            mag = abs(coeff)
            body = str(mag) if not name else name if mag == 1 else f"{mag}*{name}"
            sign = ("" if coeff > 0 else "-") if not parts else ("+ " if coeff > 0 else "- ")
            parts.append(sign + body)
    return " ".join(parts) if parts else "0"


def test_radical_dot_products_match_the_field_products():
    # random values of Q(zeta_24) and of each of its subfields, in their
    # own field and promoted, spelled alike by the trace rows
    rng = random.Random(33)
    for order in (1, 2, 3, 4, 6, 8, 12, 24):
        for _ in range(12):
            value = sum((Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                         * zeta(order, rng.randrange(order))
                         for _ in range(rng.randint(0, 4))),
                        CyclotomicNumber.from_rational(0))
            for shown in (value, value.promote(24), value.promote(48)):
                assert cli.as_radical(shown) == _radical_by_products(shown), shown


def test_braid_entry_example(capsys):
    code, out, err = run(
        capsys,
        "braid", "--p", "7", "--q", "8", "--ext", "3,3,4,4", "--entry", "2,3",
    )
    assert code == 0
    assert "0.207106781187 + 0.207106781187i" in out


def test_braid_named_and_kac_externals_agree(capsys):
    code_a, rep_a = run_json(
        capsys,
        "braid", "--p", "7", "--q", "8", "--ext", "3,3,4,4", "--entry", "2,3",
    )
    code_b, rep_b = run_json(
        capsys,
        "braid", "--p", "7", "--q", "8",
        "--ext", "1,3,1,3,1,5,1,5", "--entry", "1,7,1,3",
    )
    assert code_a == code_b == 0
    assert rep_a["checks"][0]["exact"] == rep_b["checks"][0]["exact"]


def test_braid_full_matrix(capsys):
    code, report = run_json(
        capsys, "braid", "--p", "7", "--q", "8", "--ext", "3,3,4,4"
    )
    assert code == 0
    names = [c["name"] for c in report["checks"]]
    assert len(names) == 10
    assert sum(1 for n in names if n.startswith("B[")) == 9
    assert names[-1] == "det"
    det = report["checks"][-1]
    assert parse_exact(det["exact"]) is not None


def test_braid_rejects_unknown_named_index(capsys):
    code, out, err = run(
        capsys, "braid", "--p", "7", "--q", "8", "--ext", "9,9,9,9"
    )
    assert code == 2
    assert err.startswith("error: no named module")


def _kac(label):
    return f"{label.m},{label.n}"


@pytest.mark.parametrize("p,ext", [(7, "3,3,4,4"), (11, "2,2,2,2"), (11, "2,7,2,7,3,6,3,4")])
def test_braid_entry_computes_only_its_entry(capsys, monkeypatch, p, ext):
    # --entry I,J prints the full matrix's row for every channel pair with
    # one braid_entry call, and 0 off the channels with none
    argv = ["braid", "--p", str(p), "--q", str(p + 1), "--ext", ext]
    code, full = run_json(capsys, *argv)
    assert code == 0
    rows = {c["name"]: (c["exact"], c["approx"]) for c in full["checks"]}
    calls = []
    entry = braiding.braid_entry
    monkeypatch.setattr(braiding, "braid_entry", lambda *a: calls.append(a) or entry(*a))
    model = minimal.MinimalModel(p, p + 1)
    externals = cli._labels(model, ext, 4, "--ext")
    channels, cols = braiding.braid_channels(model, externals)
    pairs = [(mu, gamma) for mu in channels for gamma in cols]
    assert len(pairs) == len(rows) - 1  # and det
    for mu, gamma in pairs:
        del calls[:]
        code, one = run_json(capsys, *argv, "--entry", f"{_kac(mu)},{_kac(gamma)}")
        (check,) = one["checks"]
        assert code == 0 and len(calls) == 1
        assert (check["exact"], check["approx"]) == rows[f"B[({_kac(mu)}),({_kac(gamma)})]"]
    del calls[:]
    off = next(x for x in model.labels() if x not in channels)
    code, one = run_json(capsys, *argv, "--entry", f"{_kac(off)},{_kac(cols[0])}")
    assert (code, calls, one["checks"][0]["exact"]) == (0, [], "0")


def test_braid_entry_is_refused_only_for_its_own_sign_exponent(capsys):
    # two entries of this matrix have a half-integral sign exponent; the
    # whole matrix is refused, one of its other entries is not
    argv = ["braid", "--p", "7", "--q", "8", "--ext", "2,3,2,7,3,3,3,5", "--entry"]
    code, out, err = run(capsys, *argv, "2,3,2,5")
    assert (code, err) == (0, "")
    assert out.startswith("INFO  B[2,3,2,5]  ")
    code, out, err = run(capsys, *argv, "2,3,3,3")
    assert (code, out) == (2, "")
    assert err.startswith("error: sign exponent ") and err.count("\n") == 1


def test_braid_entry_keeps_the_refusals_of_its_externals(capsys):
    # a non-unitary model and a bad --entry are refused as for the matrix
    code, out, err = run(capsys, "braid", "--p", "3", "--q", "5", "--ext", "1,1,1,1,1,1,1,1",
                         "--entry", "1,1,1,1")
    assert (code, out) == (2, "") and "has no braiding data" in err
    code, out, err = run(capsys, "braid", "--p", "7", "--q", "8", "--ext", "3,3,4,4",
                         "--entry", "9,9")
    assert (code, out) == (2, "") and err.startswith("error: no named module")


@pytest.mark.parametrize(
    "target",
    [
        "lemma-5a", "lemma-3c", "uniqueness-5a", "uniqueness-3c",
        "chains-5a", "chains-3c", "fusion-5a", "fusion-3c",
    ],
)
def test_verify_targets_pass(capsys, target):
    code, report = run_json(capsys, "verify", target)
    assert code == 0
    assert_schema(report)
    statuses = {c["status"] for c in report["checks"]}
    assert "fail" not in statuses
    assert "pass" in statuses


def test_verify_all(capsys):
    code, report = run_json(capsys, "verify", "all")
    assert code == 0
    # every target's checks, in order, each named "<target>: <check>"
    want = []
    for target in cli._VERIFY:
        _, sub = run_json(capsys, "verify", target)
        want += [f"{target}: {c['name']}" for c in sub["checks"]]
    assert [c["name"] for c in report["checks"]] == want


def test_verify_targets_are_the_layers_tables():
    # cli names the targets without importing the battery; algebra's
    # table lists what its claims(target) answers, in `verify all` order
    assert tuple(cli._VERIFY) == tuple(algebra.TARGETS)


def test_braiding_defines_no_verify_target():
    # every verify row comes from algebra.claims; braiding keeps the
    # r-matrix and the braids
    assert not {"claims", "TARGETS", "lemma_claims", "named_matrix"} & set(vars(braiding))


# a child that runs `python -m minmod.cli ARGV` and reports, from atexit,
# whether the program entry froze the heap before the interpreter exits
_FREEZE_PROBE = (
    "import atexit, gc, runpy, sys\n"
    "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0, file=sys.stderr))\n"
    "runpy.run_module('minmod.cli', run_name='__main__', alter_sys=True)\n"
)


@pytest.mark.parametrize("argv,code", [
    (["info", "--p", "7", "--q", "8"], 0),
    (["info", "--q", "8"], 2),
    (["-h"], 0),
], ids=["info", "usage-error", "help"])
def test_program_entry_freezes_the_heap_before_exit(argv, code):
    done = subprocess.run([sys.executable, "-c", _FREEZE_PROBE, *argv], capture_output=True,
                          text=True, env=_subprocess_env(), timeout=120)
    assert done.returncode == code, done.stderr
    assert done.stderr.splitlines()[-1] == "frozen True"
    assert bool(done.stdout) == (code == 0)


def test_main_in_process_never_freezes(capsys):
    before = gc.get_freeze_count()
    assert run(capsys, "qdim", "--p", "7", "--q", "8", "--label", "2,3")[0] == 0
    with pytest.raises(SystemExit):
        main(["qdim", "--p", "7"])
    assert gc.get_freeze_count() == before


def test_mm_script_is_the_program_entry():
    # pyproject's `mm` and `python -m minmod.cli` both go through cli.run
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert re.search(r'^mm = "minmod\.cli:(\w+)"$', pyproject, re.M)[1] == "run"
    source = Path(cli.__file__).read_text()
    assert source.endswith('if __name__ == "__main__":\n    sys.exit(run())\n')


def test_closed_stdout_exits_1_without_traceback():
    # The read end is closed before the child prints, so its first write
    # fails with EPIPE whatever the timing.
    env = dict(os.environ, PYTHONPATH=str(Path(minmod.__file__).resolve().parents[1]))
    with subprocess.Popen(
        [sys.executable, "-m", "minmod.cli", "info", "--p", "13", "--q", "14"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    ) as child:
        child.stdout.close()
        err = child.stderr.read()
        assert child.wait(timeout=120) == 1
    assert "Traceback" not in err and "Exception" not in err
    lines = err.splitlines()
    assert len(lines) <= 1 and all(line.startswith("error: ") for line in lines)


@pytest.mark.parametrize("argv", [("verify", "all"), ("info", "--p", "13", "--q", "14")])
def test_report_does_not_rest_on_assert(argv):
    # python -O strips assert statements, so no check may live in one.
    env = dict(os.environ, PYTHONPATH=str(Path(minmod.__file__).resolve().parents[1]))

    def report(*flags):
        done = subprocess.run(
            [sys.executable, *flags, "-m", "minmod.cli", *argv, "--format", "json"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        out = json.loads(done.stdout)
        del out["elapsed_ms"]
        return out

    assert report("-O") == report()


def test_verify_failing_check_exits_1(capsys, monkeypatch):
    zero = CyclotomicNumber.from_rational(0)
    monkeypatch.setattr(algebra, "lemma_5a_combos", lambda: (zero, zero))
    code, report = run_json(capsys, "verify", "lemma-5a")
    assert code == 1
    first = report["checks"][0]
    assert (first["name"], first["status"]) == ("B44*B23 - B43*B24 nonzero", "fail")


def test_verify_fails_a_wrong_claim(capsys, monkeypatch):
    # B23 with y where the paper has 1/y, the slip of its displayed form
    claims = algebra.lemma_claims
    y2 = minimal.Side(8, 7).power(8)

    def with_slip(lemma):
        return [(name, value, want * y2 if name.startswith("B23") else want)
                for name, value, want in claims(lemma)]

    monkeypatch.setattr(algebra, "lemma_claims", with_slip)
    code, report = run_json(capsys, "verify", "lemma-5a")
    assert code == 1
    statuses = {c["name"]: c["status"] for c in report["checks"]}
    assert len(statuses) == 9
    assert statuses.pop("B23 = [6]'[7]'/(y [4]' [5]')") == "fail"
    assert set(statuses.values()) == {"pass"}


def test_verify_uniqueness_3c_claim(capsys):
    code, report = run_json(capsys, "verify", "uniqueness-3c")
    assert code == 0
    claims = [c for c in report["checks"] if c["status"] == "pass"]
    assert claims[0]["name"] == "unique solution: lambda^2 = 1"
    assert any(c["status"] == "info" for c in report["checks"])


def test_verify_uniqueness_5a_residuals(capsys):
    code, report = run_json(capsys, "verify", "uniqueness-5a")
    assert code == 0
    residuals = [
        c for c in report["checks"] if c["name"].startswith("closure residual")
    ]
    assert len(residuals) == 9
    for check in residuals:
        assert check["status"] == "info"
        assert check["exact"]
        parse_exact(check["exact"])
    passes = [c["name"] for c in report["checks"] if c["status"] == "pass"]
    assert "unique solution: mu^2 = 1 and gamma^2 = 1" in passes
    assert "even-sector coefficient forced nonzero" in passes


CERTIFICATE_5A = [
    ("unique solution: mu^2 = 1 and gamma^2 = 1", "pass"),
    ("rows (2,3) and (4,3) eliminate to (1-mu^2) * m2 * Bt[3,3] = 0 and "
     "(1-gamma^2) * m2 * Bt[4,3] = 0, m2 = B[3,2]B[4,4] - B[4,2]B[3,4]", "info"),
    ("m2 != 0 (exact); if 1-mu^2 were nonzero, Bt[3,3] = 0 would follow", "info"),
    ("row (3,3) then collapses to 1-mu^2 = 0, a contradiction, so mu^2 = 1", "info"),
    ("with 1-mu^2 = 0, row (4,3) reads (1-gamma^2) * B[4,4]Bt[4,3] = 0", "info"),
    ("B[4,4]Bt[4,3] != 0 (exact), so gamma^2 = 1", "info"),
    ("a diagonal rescale by (1, lambda mu gamma, gamma, mu) matches the structures", "info"),
    ("even-sector coefficient forced nonzero", "pass"),
    ("assume v = 0; rows (2,2), (3,2), (4,2) close in u and w alone", "info"),
    ("rows (3,2) and (4,2) eliminate to u * m1 * Bt[2,2] = 0 and "
     "w * m1 * Bt[4,2] = 0, m1 = B[4,4]B[2,3] - B[4,3]B[2,4]", "info"),
    ("m1 != 0 (exact) and u != 0, so Bt[2,2] = 0 and w * Bt[4,2] = 0", "info"),
    ("row (2,2) then collapses to u = 0, contradicting u != 0", "info"),
    ("so v != 0; the mirrored elimination rules out w = 0 the same way", "info"),
] + [
    (f"closure residual ({i},{j})", "info")
    for i, j in ((2, 2), (3, 3), (4, 4), (2, 3), (2, 4), (3, 2), (3, 4), (4, 2), (4, 3))
]

CERTIFICATE_3C = [
    ("unique solution: lambda^2 = 1", "pass"),
    ("row (2,1) reads (1 - lambda^2) * B[2,1] = 0", "info"),
    ("B[2,1] != 0 (exact), so lambda^2 = 1", "info"),
    ("row (2,2) holds identically at lambda^2 = 1", "info"),
    ("a diagonal rescale by lambda on the odd sector matches the two structures", "info"),
]


@pytest.mark.parametrize("target", ("uniqueness-5a", "uniqueness-3c"))
def test_verify_uniqueness_certificate_is_pinned(capsys, target):
    # every check name and status, in order, of the replayed eliminations
    certificate = CERTIFICATE_5A if target.endswith("5a") else CERTIFICATE_3C
    code, report = run_json(capsys, "verify", target)
    assert code == 0
    assert [(c["name"], c["status"]) for c in report["checks"]] == certificate


GOLDEN = Path(__file__).with_name("verify_all.golden.json")


def test_verify_all_json_is_pinned(capsys):
    # Every row of the paper battery, exact and approx strings included,
    # in the order `mm verify all --format json` prints them; elapsed_ms
    # is left out.  The file changes only with an intended output change.
    code, out, err = run(capsys, "verify", "all", "--format", "json")
    assert (code, err) == (0, "")
    report = json.loads(out)
    del report["elapsed_ms"]
    assert json.dumps(report, indent=2) + "\n" == GOLDEN.read_text()


DECOMPOSE_GOLDEN = Path(__file__).with_name("decompose.golden.json")
DECOMPOSE_ARGV = (
    ("5a",), ("3c",),
    *(("5a", "--module", f"{i},{j}") for i in (1, 3, 5) for j in (1, 3, 5)),
    *(("3c", "--module", str(k)) for k in (0, 2, 4, 6, 8)),
)


def test_decompose_json_is_pinned(capsys):
    # Both sector listings and every module's components, in the order
    # `mm decompose ... --format json` prints them, keyed by the arguments
    # after `decompose`; elapsed_ms is left out.
    reports = {}
    for args in DECOMPOSE_ARGV:
        code, out, err = run(capsys, "decompose", *args, "--format", "json")
        assert (code, err) == (0, "")
        report = json.loads(out)
        del report["elapsed_ms"]
        reports[" ".join(args)] = report
    assert json.dumps(reports, indent=2) + "\n" == DECOMPOSE_GOLDEN.read_text()


COMMANDS_GOLDEN = Path(__file__).with_name("commands.golden.json")
COMMANDS_ARGV = (
    # braids with both sides nontrivial, then the named ones whose n side
    # alone moves
    ("braid", "--p", "5", "--q", "6", "--ext", "2,2,2,2,2,2,2,2"),
    ("braid", "--p", "7", "--q", "8", "--ext", "2,3,2,3,2,5,2,5"),
    ("braid", "--p", "11", "--q", "12", "--ext", "2,7,2,7,3,6,3,4"),
    ("braid", "--p", "7", "--q", "8", "--ext", "3,3,4,4"),
    ("braid", "--p", "11", "--q", "12", "--ext", "2,2,2,2"),
    ("info", "--p", "4", "--q", "7"),
    ("info", "--p", "13", "--q", "14"),
    ("qdim", "--p", "23", "--q", "24", "--label", "5,7"),
    ("fusion", "--p", "13", "--q", "14", "--a", "3,5", "--b", "4,7"),
)


def test_commands_json_is_pinned(capsys):
    # The `braid`, `info`, `qdim` and `fusion` reports, exact and approx
    # strings included, keyed by the argv; elapsed_ms is left out.
    reports = {}
    for argv in COMMANDS_ARGV:
        code, out, err = run(capsys, *argv, "--format", "json")
        assert (code, err) == (0, "")
        report = json.loads(out)
        del report["elapsed_ms"]
        reports[" ".join(argv)] = report
    assert json.dumps(reports, indent=2) + "\n" == COMMANDS_GOLDEN.read_text()


def test_golden_exact_fields_are_at_their_conductors():
    # every exact field the golden files pin parses back to a value that
    # no smaller cyclotomic field holds
    reports = [json.loads(GOLDEN.read_text())]
    for path in (DECOMPOSE_GOLDEN, COMMANDS_GOLDEN):
        reports += json.loads(path.read_text()).values()
    fields = [c["exact"] for r in reports for c in r["checks"] if c["exact"]]
    assert len(fields) > 100
    for text in fields:
        assert at_its_conductor(parse_exact(text)), text


REPLAYS = [
    ("5A-uniqueness", "uniqueness-5a",
     "unique solution: mu^2 = 1 and gamma^2 = 1", "uniqueness replay"),
    ("5A-existence", "uniqueness-5a",
     "even-sector coefficient forced nonzero", "existence replay"),
    ("3C", "uniqueness-3c", "unique solution: lambda^2 = 1", "uniqueness replay"),
]


@pytest.mark.parametrize("system,target,claim,fail_name", REPLAYS,
                         ids=[r[0] for r in REPLAYS])
def test_degenerate_replay_is_one_fail_row(capsys, monkeypatch, system, target,
                                           claim, fail_name):
    # The claim row and the printed steps of the broken system give way to
    # one fail row carrying the reason; every other row stays as it was.
    _, healthy = run_json(capsys, "verify", "all")
    steps = minmod.solve_sector_system(minmod.build_sector_system(system)).steps
    solve = algebra.solve_sector_system

    def degenerate(sector_system):
        if sector_system.name == system:
            raise DegenerateSystem(f"{system}: pivot vanished")
        return solve(sector_system)

    monkeypatch.setattr(algebra, "solve_sector_system", degenerate)
    code, report = run_json(capsys, "verify", "all")
    assert code == 1
    rows = healthy["checks"]
    start = [c["name"] for c in rows].index(f"{target}: {claim}")
    end = start + 1 + len(steps)
    assert [c["name"] for c in rows[start + 1:end]] == [f"{target}: {s}" for s in steps]
    fail = {"name": f"{target}: {fail_name}", "status": "fail",
            "exact": f"{system}: pivot vanished", "approx": ""}
    assert report["checks"] == rows[:start] + [fail] + rows[end:]


@pytest.mark.parametrize("flag,value", [
    ("--ext", "1,2,3"), ("--ext", "1,2,3,4,5"), ("--ext", "1,2,3,4,5,6"),
    ("--entry", "1"), ("--entry", "1,2,3"), ("--entry", "1,2,3,4,5"),
])
def test_label_count_is_refused_with_one_line(capsys, flag, value):
    argv = ["braid", "--p", "7", "--q", "8", "--ext", "3,3,4,4"]
    if flag == "--ext":
        argv[-1] = value
    else:
        argv += ["--entry", value]
    code, out, err = run(capsys, *argv)
    word = "four" if flag == "--ext" else "two"
    assert (code, out) == (2, "")
    assert err == f"error: {flag} wants {word} named indices or {word} m,n pairs\n"


def test_verify_rejects_unknown_target(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "lemma-9x"])
    assert exc.value.code == 2


def test_decompose_5a(capsys):
    code, report = run_json(capsys, "decompose", "5a")
    assert code == 0
    assert report["command"] == "decompose 5A"
    assert len(report["checks"]) == 12
    assert report["checks"][0]["name"].startswith("U1 =")


def test_decompose_3c(capsys):
    code, report = run_json(capsys, "decompose", "3c")
    assert code == 0
    assert len(report["checks"]) == 6


def test_decompose_3c_module(capsys):
    code, report = run_json(capsys, "decompose", "3c", "--module", "4")
    assert code == 0
    assert report["command"] == "decompose 3C module 4"
    assert len(report["checks"]) == 6
    assert any("85/176" in c["name"] for c in report["checks"])


def test_decompose_vacuum_module_is_sector_listing(capsys):
    for algebra, key in (("5a", "1,1"), ("3c", "0")):
        code_a, rep_a = run_json(capsys, "decompose", algebra, "--module", key)
        code_b, rep_b = run_json(capsys, "decompose", algebra)
        assert code_a == code_b == 0
        assert rep_a["command"] == rep_b["command"] == f"decompose {algebra.upper()}"
        assert rep_a["checks"] == rep_b["checks"]


def test_decompose_rejects_bad_input(capsys):
    code, out, err = run(capsys, "decompose", "6a")
    assert code == 2
    code, out, err = run(capsys, "decompose", "3c", "--module", "3")
    assert (code, err) == (2, "error: unknown 3C module key 3\n")
    code, out, err = run(capsys, "decompose", "5a", "--module", "2,2")
    assert (code, err) == (2, "error: unknown 5A module key (2, 2)\n")


def test_table_format_footer(capsys):
    code, out, err = run(capsys, "verify", "lemma-3c")
    assert code == 0
    footer = out.strip().splitlines()[-1]
    assert "pass" in footer and "ms" in footer
    assert "verify lemma-3c" in footer


@pytest.mark.parametrize("p", [15, 21, 23])
def test_wide_info_rows_within_one_unit_of_the_12th_decimal(capsys, p):
    # the promise of the approx column: 12 decimals, within one unit of
    # the last
    code, report = run_json(capsys, "info", "--p", str(p), "--q", str(p + 1))
    assert code == 0
    rows = report["checks"][1:]
    assert len(rows) == p * (p - 1) // 2
    for check in rows:
        m, n = map(int, re.fullmatch(r"\((\d+),(\d+)\)", check["name"]).groups())
        want = oracles.sine_qdim(p, p + 1, m, n)
        assert len(check["approx"].split(".")[1]) == 12
        assert abs(float(check["approx"]) - want) <= 1e-12 * max(1.0, want), check


def _subprocess_env():
    return dict(os.environ, PYTHONPATH=str(Path(minmod.__file__).resolve().parents[1]))


def _recording_orders(method, orders):
    def wrapper(self, *args):
        result = method(self, *args)
        if isinstance(result, CyclotomicNumber):
            orders.append(result.order)
        return result
    return wrapper


def test_info_stays_in_the_sine_ratio_fields(capsys, monkeypatch):
    # info prints only the floats of the quantum dimensions, so every
    # field operation stays in Q(zeta_2p) or Q(zeta_2q), never Q(zeta_2pq)
    orders = []
    for name in ("__mul__", "__rmul__", "conjugate", "inv"):
        method = getattr(CyclotomicNumber, name)
        monkeypatch.setattr(CyclotomicNumber, name, _recording_orders(method, orders))
    for owner, name in ((minimal, "_qdim_cached"), (minimal.Side, "ratio"),
                        (minimal, "sine_inv")):
        fresh = lru_cache(maxsize=None)(getattr(owner, name).__wrapped__)
        monkeypatch.setattr(owner, name, fresh)
    code, out, err = run(capsys, "info", "--p", "41", "--q", "42")
    assert code == 0
    assert len(out.splitlines()) == 820 + 2
    assert orders and max(orders) <= 2 * 42


def test_mm_needs_no_mpmath():
    script = (
        "import io, sys\n"
        "from contextlib import redirect_stdout\n"
        "from minmod.cli import main\n"
        "with redirect_stdout(io.StringIO()):\n"
        "    codes = [main(['verify', 'all']),\n"
        "             main(['braid', '--p', '7', '--q', '8', '--ext', '3,3,4,4'])]\n"
        "print(codes, 'mpmath' in sys.modules)\n"
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=_subprocess_env(), timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[0, 0] False\n"


def test_braid_half_integral_sign_exponent_is_a_usage_error(capsys):
    code, out, err = run(
        capsys, "braid", "--p", "7", "--q", "8", "--ext", "2,3,2,7,3,3,3,5"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: sign exponent ")
    assert len(err.strip().splitlines()) == 1


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc
    return fail


def _non_real_qdims(monkeypatch):
    # tilt one sine ratio off the real line, as in test_non_real_qdim_raises
    sine_inv = minimal.sine_inv
    monkeypatch.setattr(minimal, "sine_inv", lambda k, b: sine_inv(k, b) * zeta(8))
    monkeypatch.setattr(minimal.Side, "ratio", minimal.Side.ratio.__wrapped__)
    monkeypatch.setattr(minimal, "_qdim_cached", minimal._qdim_cached.__wrapped__)


@pytest.mark.parametrize("patch,argv", [
    (lambda mp: mp.setattr(algebra, "check_subalgebra_chain",
                           _raise(DegenerateSystem("pivot 2 vanished"))),
     ["verify", "chains-5a"]),
    (lambda mp: mp.setattr(braiding, "braid_matrix",
                           _raise(DivisionByZero("bracket [7] vanishes"))),
     ["braid", "--p", "7", "--q", "8", "--ext", "3,3,4,4"]),
    (_non_real_qdims, ["qdim", "--p", "7", "--q", "8", "--label", "2,3"]),
], ids=["degenerate-system", "division-by-zero", "non-real-qdim"])
def test_arithmetic_error_is_one_error_line(capsys, monkeypatch, patch, argv):
    patch(monkeypatch)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("p,want", [(170, "-z57^5 - z57^24"), (340, "z341^86")])
def test_braid_near_the_side_bound(capsys, p, want):
    # r(1, p, p, 1)_{p,p} on the primed side: the 6j sum has one term and
    # nothing nests with m, so the Python stack sets no limit on p.  The
    # value, -zeta_684^174 = zeta_57^43 and zeta_1364^344 = zeta_341^86,
    # prints at its conductor.
    code, report = run_json(capsys, "braid", "--p", str(p), "--q", str(p + 1),
                            "--ext", f"1,{p - 1},1,{p - 1},1,1,1,1")
    assert code == 0
    entry, det = report["checks"]
    assert entry["exact"] == det["exact"] == want


@pytest.mark.parametrize("bits", ["0", "80", "x"])
def test_precision_flag_is_refused(capsys, bits):
    # the approx column has one width, so there is no flag to set it
    for argv in (["qdim", "--p", "7", "--q", "8", "--label", "1,3"], ["verify", "all"]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--precision", bits])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        (line,) = [line for line in err.splitlines() if "error:" in line]
        assert "--precision" in line


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_commands_run(capsys):
    # every `mm` line of the README's command block runs, and a value its
    # comment promises after `~` is in the output
    blocks = re.findall(r"^```\n(.*?)^```", README.read_text(), re.M | re.S)
    (block,) = [b for b in blocks if b.startswith("mm ")]
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        code, out, err = run(capsys, *command.split()[1:])
        assert (code, err) == (0, ""), line
        if "~" in comment:
            assert comment.split("~")[1].strip() in out, line


# -- the contract on generated argv ---------------------------------------------

_MALFORMED = st.sampled_from(["x", "", "3.5", "1e2", " ", "1,,2", "-"])


def _valid(draw):
    # four draws in five take the valid branch
    return draw(st.sampled_from((True, True, True, True, False)))


def _join(xs):
    return ",".join(map(str, xs))


def _draw_model(draw, max_p):
    if _valid(draw):
        p = draw(st.integers(2, max_p))
        return p, p + 1
    # out of range, non-coprime, non-unitary or malformed
    return draw(st.one_of(
        st.tuples(st.integers(-1, max_p + 2), st.integers(-1, max_p + 3)),
        st.tuples(_MALFORMED, st.integers(2, 14)),
    ))


def _draw_pairs(draw, model, count):
    p, q = model
    if _valid(draw) and isinstance(p, int) and 1 < p < q:
        pairs = [(draw(st.integers(1, p - 1)), draw(st.integers(1, q - 1)))
                 for _ in range(count)]
        return _join(x for pair in pairs for x in pair)
    return draw(st.one_of(
        st.lists(st.integers(-1, 15), min_size=1, max_size=2 * count + 1).map(_join),
        _MALFORMED,
    ))


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(
        ["info", "fusion", "qdim", "braid", "decompose", "verify"]))
    argv = [command]
    if command in ("info", "fusion", "qdim", "braid"):
        model = _draw_model(draw, 11 if command == "braid" else 13)
        argv += ["--p", str(model[0]), "--q", str(model[1])]
    if command == "fusion":
        argv += ["--a", _draw_pairs(draw, model, 1),
                 "--b", _draw_pairs(draw, model, 1)]
    elif command == "qdim":
        argv += ["--label", _draw_pairs(draw, model, 1)]
    elif command == "braid":
        named = st.lists(st.integers(0, 5), min_size=4, max_size=4).map(_join)
        argv += ["--ext", _draw_pairs(draw, model, 4) if _valid(draw) else draw(named)]
        if draw(st.booleans()):
            argv += ["--entry", _draw_pairs(draw, model, 2)]
    elif command == "decompose":
        argv.append(draw(st.sampled_from(["5a", "3c", "5A", "3C", "6a", ""])))
        if draw(st.booleans()):
            argv += ["--module", draw(st.sampled_from(
                ["4", "0", "2", "3", "8", "1,1", "3,5", "2,2", "1,2,3"]) | _MALFORMED)]
    elif command == "verify":
        argv.append(draw(st.sampled_from(
            ["lemma-5a", "lemma-3c", "uniqueness-5a", "uniqueness-3c",
             "chains-5a", "chains-3c", "fusion-5a", "fusion-3c", "all", "lemma-9x"])))
    argv += ["--format", draw(st.sampled_from(["json", "json", "table"]))]
    if not _valid(draw):
        # an option mm does not have
        argv += ["--precision", draw(st.sampled_from(["1", "80", "200", "0", "x"]))]
    return argv


def _parse_approx(text):
    # the three shapes _fmt_complex prints: "re", "im i", "re +/- im i"
    if not text.endswith("i"):
        return complex(float(text), 0.0)
    parts = text[:-1].split(" ")
    if len(parts) == 1:
        return complex(0.0, float(parts[0]))
    re, sign, im = parts
    return complex(float(re), float(sign + im))


def _call(argv, run=main):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:  # mm refusing the argv
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@given(_argv())
@settings(max_examples=100, deadline=None)
def test_cli_contract_on_generated_argv(argv):
    code, out, err = _call(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert out == ""
        assert sum("error:" in line for line in err.splitlines()) == 1
        assert "Traceback" not in err
        return
    assert err == "" and out
    if argv[argv.index("--format") + 1] != "json":
        return
    report = json.loads(out)
    assert_schema(report)
    for check in report["checks"]:
        if check["approx"]:
            parts = re.findall(r"\d+\.(\d+)", check["approx"])
            assert parts and all(len(d) == 12 for d in parts), check
        if not check["exact"]:
            continue
        value = parse_exact(check["exact"])
        if argv[0] in ("info", "fusion") and check["name"] != "central charge":
            # module rows: the weight as exact, the quantum dimension as approx
            assert value.is_rational()
            continue
        want = complex(value.embed())
        got = _parse_approx(check["approx"])
        assert abs(got - want) <= 1e-11 * max(1.0, abs(want)), check


# -- the argv grammar, with argparse as its oracle -------------------------------

@lru_cache(maxsize=1)
def reference_parser() -> argparse.ArgumentParser:
    """The argparse parser mm had before it read its own argv."""
    parser = argparse.ArgumentParser(
        prog="mm", description="exact minimal-model and extension-algebra tool"
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("table", "json"), default="table")
    model = argparse.ArgumentParser(add_help=False)
    model.add_argument("--p", type=int, required=True)
    model.add_argument("--q", type=int, required=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", parents=[common, model],
                       help="central charge and module list")
    p.set_defaults(func=cli.cmd_info)

    p = sub.add_parser("fusion", parents=[common, model], help="fusion product")
    p.add_argument("--a", required=True, metavar="M,N")
    p.add_argument("--b", required=True, metavar="M,N")
    p.set_defaults(func=cli.cmd_fusion)

    p = sub.add_parser("qdim", parents=[common, model], help="quantum dimension")
    p.add_argument("--label", required=True, metavar="M,N")
    p.set_defaults(func=cli.cmd_qdim)

    p = sub.add_parser("braid", parents=[common, model],
                       help="braiding matrix or one entry of it")
    p.add_argument("--ext", required=True, metavar="A,B,C,D",
                   help="externals: four named indices or four m,n pairs")
    p.add_argument("--entry", metavar="I,J")
    p.set_defaults(func=cli.cmd_braid)

    p = sub.add_parser("verify", parents=[common],
                       help="run one verification target or all of them")
    p.add_argument("target", choices=tuple(cli._VERIFY) + ("all",))
    p.set_defaults(func=cli.cmd_verify)

    p = sub.add_parser("decompose", parents=[common],
                       help="sector or module decomposition of 5A/3C")
    p.add_argument("algebra", help="5a or 3c")
    p.add_argument("--module", metavar="KEY",
                   help="module key: i,j for 5A, an even integer for 3C")
    p.set_defaults(func=cli.cmd_decompose)
    return parser


def _reference(argv):
    values = vars(reference_parser().parse_args(argv))
    del values["command"]
    return values


def _ours(argv):
    func, output, values = cli._parse(argv)
    return {**values, "format": output, "func": func}


def _option_like_value(argv):
    # argparse reads a word after an option as an option string when it
    # starts with "-" and is neither "-" nor a negative number
    return any(flag.startswith("--") and value[:1] == "-" and value != "-"
               and not re.fullmatch(r"-\d+|-\d*\.\d+", value)
               for flag, value in zip(argv, argv[1:]))


def assert_parsers_agree(argv):
    want = _call(argv, _reference)[0]
    got, out, err = _call(argv, _ours)
    if got == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
    if want == 2 and got != 2 and _option_like_value(argv):
        # mm takes such a word as the value it follows, and the command
        # refuses it instead of the parser
        assert _call(argv)[0] == 2, argv
        return
    assert got == want, argv


_EDGE_ARGV = [
    [],
    ["foo"],
    ["info", "--p=7", "--q=8"],
    ["info", "--p", "3", "--q", "4", "--p", "7"],
    ["info", "--p", "-3", "--q", "8"],
    ["info", "--p", "x", "--q", "8"],
    ["info", "--q", "8"],
    ["qdim", "--p", "7", "--q", "8", "--label"],
    ["info", "--p", "7", "--q", "8", "extra"],
    ["info", "--p", "7", "--q", "8", "--module", "4"],
    ["verify", "all", "--format", "xml"],
    ["verify", "lemma-9x"],
    ["verify"],
    ["verify", "all", "all"],
    ["verify", "--format=json", "all"],
    ["decompose", "3c", "--module=4"],
    ["decompose", "", "--module", ""],
    ["braid", "--p", "7", "--q", "8", "--ext", "3,3,4,4", "--entry", "2,3"],
    ["fusion", "--p", "7", "--q", "8", "--a", "-1,3", "--b", "1,1"],
    ["-h"],
    ["verify", "-h"],
]


@pytest.mark.parametrize("argv", _EDGE_ARGV, ids=" ".join)
def test_parser_agrees_with_argparse_on_edge_argv(argv):
    assert_parsers_agree(argv)


@given(_argv())
@settings(max_examples=300, deadline=None)
def test_parser_agrees_with_argparse_on_generated_argv(argv):
    assert_parsers_agree(argv)


def test_abbreviated_option_is_refused():
    # argparse took --lab for --label; mm names every option in full
    argv = ["qdim", "--p", "7", "--q", "8", "--lab", "1,3"]
    assert _call(argv, _reference)[0]["label"] == "1,3"
    assert _call(argv) == (2, "", "error: qdim takes no option --lab\n")


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["braid", "-h"],
                                  ["info", "--p", "7", "--help"]])
def test_help_lists_every_command(argv):
    code, out, err = _call(argv)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert [line.split()[1] for line in lines] == list(cli._COMMANDS)
    assert all(line.startswith("mm ") and "[--format table|json]" in line for line in lines)
