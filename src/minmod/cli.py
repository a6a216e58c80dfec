"""Command line front end, installed as ``mm``.

``info``, ``fusion``, ``qdim`` and ``braid`` answer one-off questions
about a minimal model; ``verify`` runs the exact verification battery;
``decompose`` lists the sector or module structure of the 5A and 3C
algebras.  Every run produces a report of named checks, rendered as an
aligned table or as JSON.  Exit status is 0 when nothing failed, 1 when
a verification check failed or the exact arithmetic broke down, 2 on
unusable arguments.
"""

import gc
import json
import os
import sys
import time
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import NamedTuple

# sectors, braiding and algebra are imported inside the functions that
# read them, so `info`, `fusion` and `qdim` compile none of them
from .exact import CyclotomicNumber, zeta
from .minimal import MinimalModel, ModuleLabel, fuse, qdim, qdim_tensor

# -- reports ----------------------------------------------------------------

class Check(NamedTuple):
    name: str
    status: str  # pass | fail | info
    exact: str = ""
    approx: str = ""


class Report(NamedTuple):
    command: str
    checks: list
    elapsed_ms: int = 0


def _render_json(report: Report) -> str:
    checks = [c._asdict() for c in report.checks]
    return json.dumps({**report._asdict(), "checks": checks}, indent=2)


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
    statuses = [c.status for c in report.checks]
    lines.append(f"{report.command}: {statuses.count('pass')} pass, {statuses.count('fail')}"
                 f" fail, {statuses.count('info')} info, {report.elapsed_ms} ms")
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
    if 24 % value.order:
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


def _row(name: str, status: str, value) -> Check:
    # value is a field element, a message or None, as in a claims row
    if value is None or isinstance(value, str):
        return Check(name, status, value or "")
    return Check(name, status, _render_exact(value), _fmt_complex(value.embed()))


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


def cmd_info(p: int, q: int) -> Report:
    model = MinimalModel(p, q)
    c = model.central_charge()
    checks = [Check("central charge", "info", str(c), _fmt_complex(float(c)))]
    for label in model.labels():
        checks.append(_qdim_row(f"({label.m},{label.n})", str(label.h), qdim(label)))
    return Report(f"info ({model.p},{model.q})", checks)


def cmd_fusion(p: int, q: int, a: str, b: str) -> Report:
    model = MinimalModel(p, q)
    a = ModuleLabel(model, *_pair(a))
    b = ModuleLabel(model, *_pair(b))
    checks = [_qdim_row(f"({label.m},{label.n})", str(label.h), qdim(label))
              for label in fuse(a, b)]
    return Report(f"fusion ({a.m},{a.n}) x ({b.m},{b.n}) at ({model.p},{model.q})", checks)


def cmd_qdim(p: int, q: int, label: str) -> Report:
    model = MinimalModel(p, q)
    label = ModuleLabel(model, *_pair(label))
    d = qdim(label)
    check = _qdim_row(f"qdim ({label.m},{label.n})", _render_exact(d.exact), d)
    return Report(f"qdim ({label.m},{label.n}) at ({model.p},{model.q})", [check])


def cmd_braid(p: int, q: int, ext: str, entry: str | None) -> Report:
    from .braiding import braid_channels, braid_entry, braid_matrix
    model = MinimalModel(p, q)
    externals = _labels(model, ext, 4, "--ext")
    command = f"braid {ext} at ({model.p},{model.q})"
    if entry:
        # one entry: zero off the channels, else braid_entry once
        rows, cols = braid_channels(model, externals)
        mu, gamma = _labels(model, entry, 2, "--entry")
        value = (braid_entry(model, externals, mu, gamma) if mu in rows and gamma in cols
                 else CyclotomicNumber.from_rational(0))
        return Report(command, [_row(f"B[{entry}]", "info", value)])
    matrix = braid_matrix(model, externals)
    checks = [_row(f"B[({mu.m},{mu.n}),({gamma.m},{gamma.n})]", "info", matrix.entry(mu, gamma))
              for mu in matrix.rows for gamma in matrix.cols]
    if len(matrix.rows) == len(matrix.cols):
        checks.append(_row("det", "info", matrix.det()))
    return Report(command, checks)


def cmd_verify(target: str) -> Report:
    from .algebra import claims
    targets = _VERIFY if target == "all" else (target,)
    checks = []
    for name in targets:
        prefix = f"{name}: " if len(targets) > 1 else ""
        checks += [_row(prefix + row, status, value) for row, status, value in claims(name)]
    return Report(f"verify {target}", checks)


def cmd_decompose(algebra: str, module: str | None) -> Report:
    from .sectors import build_algebra, irreducible_module, irreducible_modules
    alg = build_algebra(algebra)
    vacuum = irreducible_modules(alg)[0]
    spec = vacuum if module is None else irreducible_module(alg, _module_key(module))
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
    return Report(f"decompose {alg.name} module {module}", checks)


# -- entry point ------------------------------------------------------------

# command: (function, positional or "", required options, optional ones,
# what it does).  An option maps to its metavar; every command also takes
# --format.  --p and --q are integers; a name in _CHOICES takes only its values.
_MODEL = {"p": "P", "q": "Q"}
_COMMANDS = {
    "info": (cmd_info, "", _MODEL, {}, "central charge and module list"),
    "fusion": (cmd_fusion, "", {**_MODEL, "a": "M,N", "b": "M,N"}, {}, "fusion product"),
    "qdim": (cmd_qdim, "", {**_MODEL, "label": "M,N"}, {}, "quantum dimension"),
    "braid": (cmd_braid, "", {**_MODEL, "ext": "A,B,C,D"}, {"entry": "I,J"},
              "braiding matrix or one entry of it"),
    "verify": (cmd_verify, "target", {}, {}, "run one verification target or all of them"),
    "decompose": (cmd_decompose, "algebra", {}, {"module": "KEY"},
                  "sector or module decomposition of 5a or 3c"),
}
# algebra.claims' targets in `verify all` order, known without importing it
_VERIFY = ("lemma-5a", "lemma-3c", "uniqueness-5a", "uniqueness-3c",
           "chains-5a", "chains-3c", "fusion-5a", "fusion-3c")
_CHOICES = {"format": ("table", "json"), "target": (*_VERIFY, "all")}


def _refuse(message: str):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _parse(argv: list) -> tuple:
    """The function argv names, its keyword values and the output format.
    Options are --name value or --name=value, the last one counting; -h or
    --help prints one usage line per command and exits 0, and argv that does
    not fit the table exits 2 after one error line."""
    if "-h" in argv or "--help" in argv:
        for command, (_, positional, required, optional, about) in _COMMANDS.items():
            words = [command, "|".join(_CHOICES.get(positional, [positional.upper()]))]
            words += [f"--{name} {metavar}" for name, metavar in required.items()]
            words += [f"[--{name} {metavar}]" for name, metavar in optional.items()]
            print("mm", *filter(None, words), f"[--format table|json]  {about}")
        raise SystemExit(0)
    words = iter(argv)
    command = next(words, None)
    if command not in _COMMANDS:
        _refuse(f"the first word must be a command: {', '.join(_COMMANDS)}")
    func, positional, required, optional, _ = _COMMANDS[command]
    values = {"format": "table", **dict.fromkeys(optional)}
    for word in words:
        if word.startswith("--"):
            name, eq, value = word[2:].partition("=")
            if name not in required and name not in optional and name != "format":
                _refuse(f"{command} takes no option --{name}")
            value = value if eq else next(words, None)
            if value is None:
                _refuse(f"--{name} needs a value")
        elif positional and positional not in values:
            name, value = positional, word
        else:
            _refuse(f"{command} takes no argument {word!r}")
        if name in _MODEL:
            try:
                value = int(value)
            except ValueError:
                _refuse(f"--{name} wants an integer, got {value!r}")
        elif value not in _CHOICES.get(name, (value,)):
            _refuse(f"{name} must be one of {', '.join(_CHOICES[name])}; got {value!r}")
        values[name] = value
    missing = [f"--{name}" for name in required if name not in values]
    if missing or positional and positional not in values:
        _refuse(f"{command} needs {', '.join(missing) or positional}")
    return func, values.pop("format"), values


def main(argv=None) -> int:
    func, output, values = _parse(sys.argv[1:] if argv is None else list(argv))
    start = time.perf_counter()
    try:
        report = func(**values)
    except (ValueError, KeyError, ArithmeticError) as exc:
        reason = exc.args[0] if exc.args else exc
        print(f"error: {reason}", file=sys.stderr)
        return 2 if isinstance(exc, (ValueError, KeyError)) else 1
    report = report._replace(elapsed_ms=int((time.perf_counter() - start) * 1000))
    render = _render_json if output == "json" else _render_table
    try:
        print(render(report))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader left early.  Point stdout at the null device so the
        # flush at exit cannot fail again, and report it by status alone.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 1 if any(c.status == "fail" for c in report.checks) else 0


def run() -> int:
    """The entry of `mm` and `python -m minmod.cli`: main(), then a
    gc.freeze() so that the collections at shutdown skip the heap.  In
    process, call main(), which never freezes."""
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
