"""Command line front end, installed as ``mm``.

``info``, ``fusion``, ``qdim`` and ``braid`` answer one-off questions
about a minimal model; ``verify`` runs the exact verification battery;
``decompose`` lists the sector or module structure of the 5A and 3C
algebras.  Every run produces a report of named checks, rendered as an
aligned table or as JSON.  Exit status is 0 when nothing failed, 1 when
a verification check failed or the exact arithmetic broke down, 2 on
unusable arguments.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction
from functools import lru_cache, partial
from operator import mul
from typing import NamedTuple

# braiding and algebra are imported inside the functions that read them,
# so `info`, `fusion` and `qdim` never compile either
from .exact import CyclotomicNumber, zeta
from .minimal import (
    MinimalModel, ModuleLabel, check_fusion_ring, fuse, qdim, qdim_tensor,
)

# -- reports ----------------------------------------------------------------

class Check(NamedTuple):
    name: str
    status: str  # pass | fail | info
    exact: str = ""
    approx: str = ""


class Report:
    def __init__(self, command: str, checks: list, elapsed_ms: int = 0) -> None:
        self.command = command
        self.checks = checks
        self.elapsed_ms = elapsed_ms

    def as_dict(self) -> dict:
        return {
            "command": self.command,
            "checks": [c._asdict() for c in self.checks],
            "elapsed_ms": self.elapsed_ms,
        }

    def failed(self) -> bool:
        return any(c.status == "fail" for c in self.checks)


def _render_json(report: Report) -> str:
    return json.dumps(report.as_dict(), indent=2)


def _table_cell(exact: str) -> str:
    # long polynomials collapse to their radical form in the table; the
    # JSON report always carries the full string
    if len(exact) <= 96:
        return exact
    if " = " in exact:
        return exact.rsplit(" = ", 1)[1]
    return exact[:93] + "..."


def _render_table(report: Report) -> str:
    width = min(max((len(c.name) for c in report.checks), default=0), 64)
    lines = []
    for c in report.checks:
        row = f"{c.status.upper():<4}  {c.name:<{width}}"
        cell = _table_cell(c.exact)
        if cell:
            row += f"  {cell}"
        if c.approx:
            row += f"  ~ {c.approx}"
        lines.append(row.rstrip())
    counts = {"pass": 0, "fail": 0, "info": 0}
    for c in report.checks:
        counts[c.status] += 1
    lines.append(
        f"{report.command}: {counts['pass']} pass, {counts['fail']} fail,"
        f" {counts['info']} info, {report.elapsed_ms} ms"
    )
    return "\n".join(lines)


# -- numeric rendering ------------------------------------------------------

def _fmt_complex(approx) -> str:
    # a double prints every value the commands show within one unit of the
    # 12th decimal; a part below 5e-13, half a unit there, is left out
    re, im = approx.real, approx.imag
    if abs(im) < 5e-13:
        return f"{re:.12f}"
    if abs(re) < 5e-13:
        return f"{im:.12f}i"
    sign = "+" if im >= 0 else "-"
    return f"{re:.12f} {sign} {abs(im):.12f}i"


# -- radical recognition ----------------------------------------------------
#
# Values whose conductor divides 24 lie in Q(sqrt2, sqrt3, i) and get a
# readable second rendering.  The eight products b below are orthogonal
# under the trace form of Q(zeta_24), with b^2 the rational _RADICAL_SQUARES,
# so the coordinate on b is Tr(x*b)/(8*b^2).  Each b is a sum of powers of
# zeta_24, so Tr(x*b) is the dot product of x's power-basis coefficients
# with the integers Tr(zeta_24^e * b), read off Tr = 8*y_0 + 4*y_4.

_RADICAL_NAMES = ("", "sqrt(2)", "sqrt(3)", "sqrt(6)",
                  "i", "sqrt(2)*i", "sqrt(3)*i", "sqrt(6)*i")
_RADICAL_SQUARES = (1, 2, 3, 6, -1, -2, -3, -6)
# 1, sqrt2 = z^3 + z^-3, sqrt3 = z^2 + z^-2 and sqrt6 as exponents of z =
# zeta_24; i = z^6 shifts them to the other four
_RADICAL_EXPONENTS = ((0,), (3, 21), (2, 22), (1, 5, 19, 23))


@lru_cache(maxsize=1)
def _trace_rows() -> tuple:
    # row b: Tr(zeta_24^e * b) for e < 8, one integer per power-basis slot
    traces = [int(8 * y[0] + 4 * y[4]) for y in (zeta(24, k).coefficients for k in range(24))]
    return tuple(tuple(sum(traces[(e + a + shift) % 24] for a in exps) for e in range(8))
                 for shift in (0, 6) for exps in _RADICAL_EXPONENTS)


def as_radical(value: CyclotomicNumber) -> str | None:
    """Render value over Q(sqrt2, sqrt3, i) when it lives there."""
    value = value.at_conductor()
    if 24 % value.order:
        return None
    value = value.promote(24)
    parts = []
    for row, square, name in zip(_trace_rows(), _RADICAL_SQUARES, _RADICAL_NAMES):
        coeff = Fraction(sum(map(mul, value._num, row)), 8 * square * value._den)
        if not coeff:
            continue
        mag = abs(coeff)
        if not name:
            body = str(mag)
        elif mag == 1:
            body = name
        else:
            body = f"{mag}*{name}"
        if not parts:
            parts.append(body if coeff > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(parts) if parts else "0"


def _render_exact(value: CyclotomicNumber) -> str:
    # printed at its conductor; a radical form exists exactly when that
    # divides 24
    value = value.at_conductor()
    text = value.to_string()
    if value.is_rational() or 24 % value.order:
        return text
    return f"{text} = {as_radical(value)}"


def _row(name: str, status: str, value: CyclotomicNumber) -> Check:
    return Check(name, status, _render_exact(value), _fmt_complex(value.embed()))


def _claim(name: str, ok: bool, value: CyclotomicNumber | None = None) -> Check:
    status = "pass" if ok else "fail"
    return Check(name, status) if value is None else _row(name, status, value)


# -- argument parsing helpers -----------------------------------------------

def _ints(text: str) -> tuple:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from None


def _pair(text: str) -> tuple:
    parts = _ints(text)
    if len(parts) != 2:
        raise ValueError(f"expected a label m,n, got {text!r}")
    return parts


def _labels(model: MinimalModel, text: str, count: int, flag: str) -> tuple:
    from .braiding import named_label
    # count named indices, or count m,n pairs
    parts = _ints(text)
    if len(parts) == count:
        return tuple(named_label(model, i) for i in parts)
    if len(parts) == 2 * count:
        return tuple(ModuleLabel(model, m, n) for m, n in zip(parts[::2], parts[1::2]))
    word = {2: "two", 4: "four"}[count]
    raise ValueError(f"{flag} wants {word} named indices or {word} m,n pairs")


def _module_key(text: str):
    parts = _ints(text)
    if len(parts) == 1:
        return parts[0]
    if len(parts) == 2:
        return parts
    raise ValueError(f"expected a module key like 4 or 1,1, got {text!r}")


# -- commands ---------------------------------------------------------------

def _qdim_row(name: str, exact: str, d) -> Check:
    # the numeric column of every listing row is a quantum dimension
    return Check(name, "info", exact, _fmt_complex(d.approx))


def cmd_info(args) -> Report:
    model = MinimalModel(args.p, args.q)
    c = model.central_charge()
    checks = [Check("central charge", "info", str(c), _fmt_complex(float(c)))]
    for label in model.labels():
        checks.append(_qdim_row(f"({label.m},{label.n})", str(label.h), qdim(label)))
    return Report(f"info ({model.p},{model.q})", checks)


def cmd_fusion(args) -> Report:
    model = MinimalModel(args.p, args.q)
    a = ModuleLabel(model, *_pair(args.a))
    b = ModuleLabel(model, *_pair(args.b))
    checks = [_qdim_row(f"({label.m},{label.n})", str(label.h), qdim(label))
              for label in fuse(a, b)]
    command = (
        f"fusion ({a.m},{a.n}) x ({b.m},{b.n}) at ({model.p},{model.q})"
    )
    return Report(command, checks)


def cmd_qdim(args) -> Report:
    model = MinimalModel(args.p, args.q)
    label = ModuleLabel(model, *_pair(args.label))
    d = qdim(label)
    check = _qdim_row(f"qdim ({label.m},{label.n})", _render_exact(d.exact), d)
    return Report(f"qdim ({label.m},{label.n}) at ({model.p},{model.q})", [check])


def cmd_braid(args) -> Report:
    from .braiding import braid_matrix
    model = MinimalModel(args.p, args.q)
    matrix = braid_matrix(model, _labels(model, args.ext, 4, "--ext"))
    checks = []
    if args.entry:
        mu, gamma = _labels(model, args.entry, 2, "--entry")
        checks.append(_row(f"B[{args.entry}]", "info", matrix.entry(mu, gamma)))
    else:
        for mu in matrix.rows:
            for gamma in matrix.cols:
                checks.append(_row(f"B[({mu.m},{mu.n}),({gamma.m},{gamma.n})]",
                                   "info", matrix.entry(mu, gamma)))
        if len(matrix.rows) == len(matrix.cols):
            checks.append(_row("det", "info", matrix.det()))
    return Report(f"braid {args.ext} at ({model.p},{model.q})", checks)


def cmd_verify(args) -> Report:
    targets = tuple(_VERIFY) if args.target == "all" else (args.target,)
    checks = []
    for target in targets:
        sub = _VERIFY[target]()
        if len(targets) > 1:
            sub = [c._replace(name=f"{target}: {c.name}") for c in sub]
        checks.extend(sub)
    return Report(f"verify {args.target}", checks)


def cmd_decompose(args) -> Report:
    from .algebra import build_algebra, irreducible_module, irreducible_modules
    alg = build_algebra(args.algebra)
    vacuum = irreducible_modules(alg)[0]
    spec = vacuum if args.module is None else irreducible_module(alg, _module_key(args.module))
    if spec is vacuum:
        # the vacuum module is the algebra itself; list its sectors
        checks = []
        for sector in alg.sectors:
            d = qdim_tensor(sector.components)
            checks.append(_qdim_row(str(sector), _render_exact(d.exact), d))
        return Report(f"decompose {alg.name}", checks)
    checks = []
    for component in spec.components:
        labels = " x ".join(f"({l.m},{l.n})" for l in component)
        weights = ", ".join(str(l.h) for l in component)
        d = qdim_tensor(component)
        checks.append(_qdim_row(f"{labels}  [{weights}]", _render_exact(d.exact), d))
    return Report(f"decompose {alg.name} module {args.module}", checks)


# -- verify targets ---------------------------------------------------------

def _verify_lemma(lemma: str) -> list:
    from .braiding import lemma_claims
    return [_claim(name, not value.is_zero() if want is None else value == want, value)
            for name, value, want in lemma_claims(lemma)]


def _replay(system: str, fail_name: str, claim: str, shown: str | None = None) -> list:
    """The claim row and the printed steps of one solved sector system, or
    one fail row when a fact the elimination relies on does not hold.
    The claim row shows the solved value of the unknown `shown`, if any."""
    from .algebra import DegenerateSystem, build_sector_system, solve_sector_system
    try:
        solution = solve_sector_system(build_sector_system(system))
    except DegenerateSystem as exc:
        return [Check(fail_name, "fail", str(exc))]
    value = None if shown is None else solution.value(shown)
    return [_claim(claim, True, value),
            *(Check(step, "info") for step in solution.steps)]


def _verify_uniqueness_5a() -> list:
    from .algebra import build_sector_system
    checks = _replay("5A-uniqueness", "uniqueness replay",
                     "unique solution: mu^2 = 1 and gamma^2 = 1")
    checks += _replay("5A-existence", "existence replay",
                      "even-sector coefficient forced nonzero")
    # Report only: with every structure constant 1, crossing would need
    # sum_k B[k,i]*Bt[k,j] = delta(i,j).  The raw braid normalization does
    # not promise it; row (i,j) of the existence system is that identity
    # with its coefficients split out, so the residual is their sum.
    for equation in build_sector_system("5A-existence").equations:
        residual = sum(equation.coefficients, CyclotomicNumber.from_rational(0))
        checks.append(_row(f"closure residual {equation.label}", "info", residual))
    return checks


def _verify_uniqueness_3c() -> list:
    return _replay("3C", "uniqueness replay", "unique solution: lambda^2 = 1",
                   "lambda^2")


def _verify_chains(name: str) -> list:
    from .algebra import build_algebra, check_subalgebra_chain
    checks = []
    for c in check_subalgebra_chain(build_algebra(name)):
        label = c.name if c.passed else f"{c.name} ({c.detail})"
        checks.append(Check(label, "pass" if c.passed else "fail"))
    return checks


def _verify_fusion(name: str) -> list:
    from .algebra import build_algebra, irreducible_modules, module_fusion, qdim_module
    alg = build_algebra(name)
    modules = irreducible_modules(alg)
    keys = [m.key for m in modules]
    table = {(a, b): module_fusion(alg, a, b) for a in keys for b in keys}
    ring = check_fusion_ring(keys, lambda a, b: table[(a, b)], keys[0])
    dims = {k: qdim_module(alg, k).exact for k in keys}
    zero = CyclotomicNumber.from_rational(0)
    hom_ok = all(dims[a] * dims[b] == sum((dims[k] for k in table[(a, b)]), zero)
                 for a in keys for b in keys)
    return [
        _claim(f"{len(modules)} irreducible modules",
               len({m.components for m in modules}) == len(modules)),
        _claim("vacuum module is the unit", ring.unit is None),
        _claim("fusion is commutative", ring.commutative is None),
        _claim("fusion is associative", ring.associative is None),
        _claim("quantum dimension is multiplicative", hom_ok),
    ]


_VERIFY = {
    "lemma-5a": partial(_verify_lemma, "5A"),
    "lemma-3c": partial(_verify_lemma, "3C"),
    "uniqueness-5a": _verify_uniqueness_5a,
    "uniqueness-3c": _verify_uniqueness_3c,
    "chains-5a": partial(_verify_chains, "5A"),
    "chains-3c": partial(_verify_chains, "3C"),
    "fusion-5a": partial(_verify_fusion, "5A"),
    "fusion-3c": partial(_verify_fusion, "3C"),
}


# -- entry point ------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
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
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("fusion", parents=[common, model], help="fusion product")
    p.add_argument("--a", required=True, metavar="M,N")
    p.add_argument("--b", required=True, metavar="M,N")
    p.set_defaults(func=cmd_fusion)

    p = sub.add_parser("qdim", parents=[common, model], help="quantum dimension")
    p.add_argument("--label", required=True, metavar="M,N")
    p.set_defaults(func=cmd_qdim)

    p = sub.add_parser("braid", parents=[common, model],
                       help="braiding matrix or one entry of it")
    p.add_argument("--ext", required=True, metavar="A,B,C,D",
                   help="externals: four named indices or four m,n pairs")
    p.add_argument("--entry", metavar="I,J")
    p.set_defaults(func=cmd_braid)

    p = sub.add_parser("verify", parents=[common],
                       help="run one verification target or all of them")
    p.add_argument("target", choices=tuple(_VERIFY) + ("all",))
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("decompose", parents=[common],
                       help="sector or module decomposition of 5A/3C")
    p.add_argument("algebra", help="5a or 3c")
    p.add_argument("--module", metavar="KEY",
                   help="module key: i,j for 5A, an even integer for 3C")
    p.set_defaults(func=cmd_decompose)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        report = args.func(args)
    except (ValueError, KeyError, ArithmeticError) as exc:
        reason = exc.args[0] if exc.args else exc
        print(f"error: {reason}", file=sys.stderr)
        return 2 if isinstance(exc, (ValueError, KeyError)) else 1
    report.elapsed_ms = int((time.perf_counter() - start) * 1000)
    render = _render_json if args.format == "json" else _render_table
    try:
        print(render(report))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader left early.  Point stdout at the null device so the
        # flush at exit cannot fail again, and report it by status alone.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 1 if report.failed() else 0


if __name__ == "__main__":
    sys.exit(main())
