"""Output gate: every benchmark op is checked outside its timed region.

CLI ops are checked against the independent routes in
``tests/oracles.py`` (float braid recursion, sine quantum dimensions,
label and fusion enumeration).  Every non-empty ``exact`` field must
parse back through ``parse_exact``; it is compared as a field element or
through its embedding, never as a string, so a value moved to a smaller
Q(zeta_N) still passes.  Each check returns None on success or a short
reason.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from functools import lru_cache
from itertools import product

import numpy as np

TRACEBACK = "Traceback (most recent call last)"
EXIT_CODES = (0, 1, 2)
ABS_TOL = 1e-7   # printed approximations carry 8 decimals at 53 bits
REL_TOL = 1e-7   # float braid recursion against exact embedding

_APPROX_RE = re.compile(
    r"^(?P<re>-?\d+\.\d+)?(?: (?P<sign>[+-]) (?P<im>\d+\.\d+)i| ?(?P<imonly>-?\d+\.\d+)i)?$"
)
_LABEL_RE = re.compile(r"\((\d+),(\d+)\)")
_SECTOR_RE = re.compile(r"^U\d+ = \[")

# Named modules of the verification battery (Kac labels).
_P78 = {2: (1, 7), 3: (1, 3), 4: (1, 5)}
_U_11_12 = {1: (1, 1), 2: (1, 7)}
# Tensor factors of the extension algebras, as (p, q).
ALGEBRA_FACTORS = {"5A": ((3, 4), (7, 8), (7, 8)), "3C": ((3, 4), (11, 12))}


def parse_approx(text: str) -> complex:
    m = _APPROX_RE.match(text.strip())
    if not m or not text.strip():
        raise ValueError(f"unreadable approximation {text!r}")
    if m.group("imonly") is not None:
        return complex(0.0, float(m.group("imonly")))
    real = float(m.group("re"))
    if m.group("im") is None:
        return complex(real, 0.0)
    imag = float(m.group("im"))
    return complex(real, -imag if m.group("sign") == "-" else imag)


def close(a: complex, b: complex, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= ABS_TOL + rel * max(abs(a), abs(b))


def first_minor_reference(exact) -> object:
    """(sqrt(2) - 1)(1 + i)/2, the true first 2x2 minor of the (7,8) matrix."""
    sqrt2 = exact.zeta(8) + exact.zeta(8, -1)
    return (sqrt2 - 1) * (1 + exact.zeta(4)) * Fraction(1, 2)


class Gate:
    """Checks outputs with the oracle module and the program's parser."""

    def __init__(self, oracles, exact) -> None:
        self.oracles = oracles
        self.exact = exact
        self._verify_refs = None
        # oracles.fuse, over a label list sorted once per model rather
        # than on every call
        labels = lru_cache(maxsize=None)(oracles.labels)
        self.fuse = lru_cache(maxsize=None)(
            lambda p, q, a, b: [c for c in labels(p, q) if oracles.adm(p, q, a, b, c)])

    # -- shared pieces ------------------------------------------------------

    def parse_value(self, check: dict, paired: bool = True):
        """(parsed value or None, reason); checks parse-back and, when the
        approx column renders the same value (paired), the embedding."""
        text = check.get("exact", "")
        if not text:
            return None, None
        try:
            value = self.exact.parse_exact(text)
        except (ValueError, ArithmeticError) as exc:
            return None, f"exact field does not parse: {exc}"
        if paired and check.get("approx"):
            emb = value.embed()
            try:
                approx = parse_approx(check["approx"])
            except ValueError as exc:
                return value, str(exc)
            if not close(complex(emb.real, emb.imag), approx):
                return value, f"embedding {emb} != approx {check['approx']}"
        return value, None

    @staticmethod
    def value_of(value) -> complex:
        emb = value.embed()
        return complex(emb.real, emb.imag)

    def report(self, rc: int, out: str, err: str):
        """(report dict or None, reason) for an op that must succeed."""
        if TRACEBACK in err:
            return None, "traceback: " + err.strip().splitlines()[-1][:160]
        if rc not in EXIT_CODES:
            return None, f"exit code {rc}"
        if rc != 0:
            return None, f"exit {rc}: {err.strip()[:160]}"
        try:
            report = json.loads(out)
        except json.JSONDecodeError:
            return None, "stdout is not one JSON report"
        if not isinstance(report.get("checks"), list) or "command" not in report:
            return None, "report lacks command or checks"
        for check in report["checks"]:
            if check.get("status") not in ("pass", "info"):
                return None, f"check {check.get('name')!r} is {check.get('status')}"
        return report, None

    # -- per command --------------------------------------------------------

    def cli_op(self, kind: str, meta: dict, rc: int, out: str, err: str):
        refused = kind == "braid-refused"
        if refused and (TRACEBACK in err or rc != 0):
            return self.refusal(rc, err)
        report, reason = self.report(rc, out, err)
        if reason:
            return reason
        values = {}
        for check in report["checks"]:
            # info and fusion rows pair a weight (exact) with a quantum
            # dimension (approx); _label_rows checks both against the oracle
            paired = kind not in ("info", "fusion") or check["name"] == "central charge"
            value, reason = self.parse_value(check, paired)
            if reason:
                return f"{check['name']}: {reason}"
            values[check["name"]] = value
        if refused:
            return self._braid(report, values, meta, partial=True)
        return getattr(self, "_" + kind)(report, values, meta)

    @staticmethod
    def refusal(rc: int, err: str):
        """A draw the oracle refuses passes on exit 2 with one error line."""
        if TRACEBACK in err:
            return "refused draw: traceback " + err.strip().splitlines()[-1][:120]
        lines = err.strip().splitlines()
        if rc == 2 and len(lines) == 1 and lines[0].startswith("error:"):
            return None
        return f"refused draw: exit {rc} without exactly one error: line"

    def _verify(self, report, values, meta):
        refs = self.verify_references()
        names = {c["name"] for c in report["checks"]}
        for name in ("lemma-5a: B44*B23 - B43*B24 nonzero", "lemma-3c: B21 nonzero"):
            if name not in names:
                return f"missing check {name!r}"
        minor = values["lemma-5a: B44*B23 - B43*B24 nonzero"]
        if minor != first_minor_reference(self.exact):
            return f"first 5A minor is {minor}, not (sqrt(2)-1)(1+i)/2"
        for name, want in refs.items():
            got = values.get(name)
            if got is not None and not close(self.value_of(got), want):
                return f"{name}: {self.value_of(got)} != oracle {want}"
        return None

    def verify_references(self) -> dict:
        if self._verify_refs is None:
            o = self.oracles
            ext = (_P78[3], _P78[3], _P78[4], _P78[4])
            rows, cols, ent = o.braid_matrix(7, 8, ext)

            def b(i, j):
                return ent[(_P78[i], _P78[j])]

            u1, u2 = _U_11_12[1], _U_11_12[2]
            b21 = o.braid_entry(11, (u2, u2, u2, u2), u2, u1)
            det = np.linalg.det(np.array([[ent[(r, c)] for c in cols] for r in rows]))
            pre = "lemma-5a: "
            self._verify_refs = {
                pre + "B44*B23 - B43*B24 nonzero": b(4, 4) * b(2, 3) - b(4, 3) * b(2, 4),
                pre + "B32*B44 - B42*B34 = 1 + i": b(3, 2) * b(4, 4) - b(4, 2) * b(3, 4),
                pre + "B32*B44 = (sqrt(2) - 1)/y": b(3, 2) * b(4, 4),
                pre + "B42*B34 = -1/y": b(4, 2) * b(3, 4),
                pre + "B44 matches its bracket form": b(4, 4),
                pre + "B43 matches its bracket form": b(4, 3),
                pre + "B24 matches its bracket form": b(2, 4),
                pre + "B23 = [6]'[7]'/(y [4]' [5]')": b(2, 3),
                pre + "det B nonzero": complex(det),
                "lemma-3c: B21 nonzero": b21,
                "lemma-3c: B21 matches its bracket product": b21,
                "lemma-3c: B21 embedding within 1e-9 of the stored reference": b21,
            }
        return self._verify_refs

    def _info(self, report, values, meta):
        o, p = self.oracles, meta["p"]
        q = p + 1
        checks = report["checks"]
        c = Fraction(1) - Fraction(6 * (p - q) ** 2, p * q)
        if not checks or checks[0]["name"] != "central charge":
            return "first check is not the central charge"
        if values["central charge"] != c:
            return f"central charge {checks[0]['exact']} != {c}"
        return self._label_rows(checks[1:], values, p, q, o.labels(p, q))

    def _label_rows(self, checks, values, p, q, want_labels):
        o = self.oracles
        got = []
        for check in checks:
            m = _LABEL_RE.match(check["name"])
            if not m or " x" in check["name"]:
                return f"unexpected row {check['name']!r}"
            label = (int(m.group(1)), int(m.group(2)))
            got.append(label)
            if values[check["name"]] != o.weight(p, q, *label):
                return f"weight of {label} is {check['exact']}"
            if not close(parse_approx(check["approx"]), o.sine_qdim(p, q, *label)):
                return f"qdim of {label} is {check['approx']}"
        if sorted(got) != sorted(want_labels):
            return f"labels {sorted(got)} != oracle {sorted(want_labels)}"
        return None

    def _fusion(self, report, values, meta):
        p, q = meta["p"], meta["q"]
        want = self.oracles.fuse(p, q, tuple(meta["a"]), tuple(meta["b"]))
        return self._label_rows(report["checks"], values, p, q, want)

    def _qdim(self, report, values, meta):
        p, q = meta["p"], meta["q"]
        want = self.oracles.sine_qdim(p, q, *meta["label"])
        (check,) = report["checks"]
        value = values[check["name"]]
        if not close(self.value_of(value), want):
            return f"qdim {self.value_of(value)} != oracle {want}"
        return None

    def _decompose(self, report, values, meta):
        factors = ALGEBRA_FACTORS[meta["algebra"].upper()]
        for check in report["checks"]:
            got = self.value_of(values[check["name"]])
            # the vacuum module (no key, or its own key) lists the sectors
            if _SECTOR_RE.match(check["name"]):
                ok = abs(got.imag) <= ABS_TOL and got.real >= 1 - ABS_TOL
                if not ok:
                    return f"sector qdim {got} is not real and >= 1"
                continue
            labels = [(int(m), int(n)) for m, n in _LABEL_RE.findall(check["name"])]
            if len(labels) != len(factors):
                return f"unexpected component row {check['name']!r}"
            want = math.prod(self.oracles.sine_qdim(p, q, *lab)
                             for (p, q), lab in zip(factors, labels))
            if not close(got, want):
                return f"{check['name']}: qdim {got} != oracle {want}"
        return None

    def _braid(self, report, values, meta, partial=False):
        o, p = self.oracles, meta["p"]
        ext = tuple(tuple(x) for x in meta["ext"])
        pool = o.labels(p, p + 1)
        rows = [x for x in pool if o.adm(p, p + 1, ext[2], x, ext[0])
                and o.adm(p, p + 1, ext[3], ext[1], x)]
        cols = [x for x in pool if o.adm(p, p + 1, ext[3], x, ext[0])
                and o.adm(p, p + 1, ext[2], ext[1], x)]
        want = {}
        for mu in rows:
            for ga in cols:
                try:
                    want[(mu, ga)] = o.braid_entry(p, ext, mu, ga)
                except ValueError:
                    if not partial:
                        return f"oracle refuses entry {mu},{ga}"
        seen = set()
        det = None
        for check in report["checks"]:
            value = values[check["name"]]
            if check["name"] == "det":
                det = value
                continue
            key = tuple((int(m), int(n)) for m, n in _LABEL_RE.findall(check["name"]))
            if len(key) != 2:
                return f"unexpected braid row {check['name']!r}"
            seen.add(key)
            if key in want and not close(self.value_of(value), want[key]):
                return f"B{key} = {self.value_of(value)} != oracle {want[key]}"
        if seen != {(mu, ga) for mu in rows for ga in cols}:
            return "braid channels differ from the oracle's"
        if not partial and len(rows) == len(cols):
            if det is None:
                return "square braid matrix without det"
            matrix = np.array([[want[(r, c)] for c in cols] for r in rows])
            if not close(self.value_of(det), complex(np.linalg.det(matrix)), 1e-6):
                return f"det {self.value_of(det)} != oracle"
        return None

    # -- fusion-ring session -----------------------------------------------

    def ring_output(self, call: list, out) -> str | None:
        """Check one fill-pass output of the warm session."""
        o = self.oracles
        kind = call[0]
        if not out["ok"]:
            return f"{kind} axiom fails on {call[1:]}"
        if kind == "sector":
            return self._sector(call, out)
        if kind == "module":
            return self._module(call, out)
        p, q = call[1], call[2]
        labels = [tuple(x) for x in call[3:]]
        got = sorted((tuple(x[:2]), x[2]) for x in out["value"])
        if kind == "assoc":
            a, b, c = labels
            want = {}
            for e in self.fuse(p, q, a, b):
                for d in self.fuse(p, q, e, c):
                    want[d] = want.get(d, 0) + 1
            want = sorted(want.items())
        elif kind == "unit":
            want = [(o.canonical(p, q, *labels[0]), 1)]
        else:
            want = sorted((x, 1) for x in self.fuse(p, q, *labels))
        if got != want:
            return f"{kind}{call[1:]} gives {got}, oracle {want}"
        if kind == "qdmul":
            for label, value in zip(labels, out["qdims"]):
                if not close(value, o.sine_qdim(p, q, *label)):
                    return f"qdim {label} at ({p},{q}) is {value}"
        return None

    def _sector(self, call, out):
        factors = ALGEBRA_FACTORS[call[1]]
        comps = [[tuple(x) for x in comp] for comp in out["components"]]
        a, b = comps[call[2]], comps[call[3]]
        per_factor = [self.fuse(p, q, x, y)
                      for (p, q), x, y in zip(factors, a, b)]
        names = {tuple(comp): i for i, comp in enumerate(comps)}
        terms, extras = {}, {}
        for combo in product(*per_factor):
            if combo in names:
                terms[names[combo]] = terms.get(names[combo], 0) + 1
            else:
                extras[combo] = extras.get(combo, 0) + 1
        got_terms = {i: k for i, k in out["terms"]}
        got_extras = {tuple(tuple(x) for x in combo): k for combo, k in out["extras"]}
        if got_terms != terms or got_extras != extras:
            return f"sector_fusion{call[1:]} differs from the oracle"
        return None

    def _module(self, call, out):
        adm = self.oracles.adm
        alg, ka, kb = call[1], call[2], call[3]
        if alg == "5A":
            keys = [(i, j) for i in (1, 3, 5) for j in (1, 3, 5)]
            want = {key: 1 for key in keys
                    if adm(7, 8, (ka[0], 1), (kb[0], 1), (key[0], 1))
                    and adm(7, 8, (ka[1], 1), (kb[1], 1), (key[1], 1))}
            got = {tuple(k): v for k, v in out["value"]}
        else:
            want = {key: 1 for key in (0, 2, 4, 6, 8)
                    if adm(11, 12, (ka + 1, 1), (kb + 1, 1), (key + 1, 1))}
            got = {k: v for k, v in out["value"]}
        if got != want:
            return f"module_fusion{call[1:]} gives {got}, oracle {want}"
        return None

