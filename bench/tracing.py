"""Spans around the public functions of each minmod layer.

``install`` replaces every binding of a traced function inside the
loaded ``minmod`` modules with a wrapper: the defining module, each
``from .x import y`` copy, the package namespace, and class attributes
such as ``__mul__``/``__rmul__``.  Recursive calls through a module
global (``r_matrix``) therefore pass the wrapper too.  Spans stay in
memory and are written once, at exit.

A span is ``(id, parent, name, start, end, tail, phi, bits)``: ``end`` is
when the wrapped call returned and ``tail`` when the wrapper finished its
own bookkeeping, so that bookkeeping is charged to neither the span nor
its parent.  Times are ``perf_counter`` seconds.  ``phi`` is the degree
of the field a product or inverse lands in (the channel count for
``braiding.det``) and ``bits`` its largest coefficient bit length.
"""

from __future__ import annotations

import json
import sys
import time
from functools import lru_cache, wraps

# layer span name -> (module, attribute); "Class.method" names a method.
TRACED = {
    "exact.mul": ("minmod.exact", "CyclotomicNumber.__mul__"),
    "exact.inv": ("minmod.exact", "CyclotomicNumber.inv"),
    "exact.conjugate": ("minmod.exact", "CyclotomicNumber.conjugate"),
    "minimal.fuse": ("minmod.minimal", "fuse"),
    "minimal.qdim": ("minmod.minimal", "qdim"),
    "minimal.is_admissible": ("minmod.minimal", "is_admissible"),
    "braiding.r_matrix": ("minmod.braiding", "r_matrix"),
    "braiding.braid_matrix": ("minmod.braiding", "braid_matrix"),
    "braiding.det": ("minmod.braiding", "BraidMatrix.det"),
    "algebra.check_subalgebra_chain": ("minmod.algebra", "check_subalgebra_chain"),
    "algebra.solve_sector_system": ("minmod.algebra", "solve_sector_system"),
    "algebra.build_sector_system": ("minmod.algebra", "build_sector_system"),
    "algebra.sector_fusion": ("minmod.algebra", "sector_fusion"),
    "algebra.module_fusion": ("minmod.algebra", "module_fusion"),
    "cli.as_radical": ("minmod.cli", "as_radical"),
    "cli.main": ("minmod.cli", "main"),
}
# Spans whose result is a field element: record its degree and size.
FIELD_RESULTS = ("exact.mul", "exact.inv")
PHI_BUCKETS = ((64, "phi_le64"), (256, "phi_le256"), (None, "phi_gt256"))


@lru_cache(maxsize=None)
def totient(n: int) -> int:
    out, m, f = n, n, 2
    while f * f <= m:
        if m % f == 0:
            while m % f == 0:
                m //= f
            out -= out // f
        f += 1
    if m > 1:
        out -= out // m
    return out


def _field_size(value) -> tuple[int, int]:
    """(phi(order), largest coefficient bit length) of a field element."""
    order = getattr(value, "order", None)
    if order is None:
        return 0, 0
    num = getattr(value, "_num", None)
    if num is None:
        bits = max((max(abs(c.numerator).bit_length(), c.denominator.bit_length())
                    for c in value.coefficients), default=0)
    else:
        bits = max(max(map(abs, num), default=0).bit_length(),
                   value._den.bit_length())
    return totient(order), bits


class Recorder:
    """Collects spans for one process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self._stack: list[int] = [-1]

    def wrap(self, name: str, func):
        if name not in self.names:
            self.names.append(name)
        code = self.names.index(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        sized = name in FIELD_RESULTS

        @wraps(func)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                result = func(*args, **kwargs)
            except BaseException:
                t1 = clock()
                stack.pop()
                spans[sid] = (sid, parent, code, t0, t1, t1, 0, 0)
                raise
            t1 = clock()
            stack.pop()
            phi = bits = 0
            if sized and result is not NotImplemented:
                phi, bits = _field_size(result)
            elif name == "braiding.det":
                phi = len(args[0].rows)
            spans[sid] = (sid, parent, code, t0, t1, clock(), phi, bits)
            return result

        return traced

    def dump(self, path: str, meta: dict) -> None:
        # A span still open at exit has no end; keep its slot so ids stay
        # positions, and mark it so aggregation skips it.
        spans = [s if s is not None else (i, -1, -1, 0.0, 0.0, 0.0, 0, 0)
                 for i, s in enumerate(self.spans)]
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": spans, "meta": meta}, fh)


def _resolve(module_name: str, attr: str):
    owner = sys.modules[module_name]
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
    return owner, attr


def install(recorder: Recorder) -> int:
    """Wrap every binding of each TRACED function; returns bindings wrapped."""
    originals = {}
    for name, (module_name, attr) in TRACED.items():
        if module_name not in sys.modules:
            continue
        owner, attr = _resolve(module_name, attr)
        originals[id(owner.__dict__[attr])] = name
    wrappers: dict[int, object] = {}
    count = 0
    owners = [m for n, m in list(sys.modules.items())
              if n == "minmod" or n.startswith("minmod.")]
    owners += [v for m in list(owners) for v in vars(m).values()
               if isinstance(v, type) and v.__module__.startswith("minmod")]
    for owner in owners:
        for attr, value in list(vars(owner).items()):
            name = originals.get(id(value))
            if name is None:
                continue
            if id(value) not in wrappers:
                wrappers[id(value)] = recorder.wrap(name, value)
            setattr(owner, attr, wrappers[id(value)])
            count += 1
    return count


# -- aggregation ------------------------------------------------------------

def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus what its children cover.

    ``spans`` is a sequence of (id, parent, ...) tuples with ids equal to
    positions; a child covers its whole interval, bookkeeping included.
    """
    covered = [0.0] * len(spans)
    for sid, parent, _name, t0, _t1, t2, *_ in spans:
        if parent >= 0:
            covered[parent] += t2 - t0
    return [s[4] - s[3] - covered[s[0]] for s in spans]


def layer_stats(names, spans) -> dict:
    """Per-name calls, self time and field-size counters of one trace."""
    own = self_times(spans)
    stats: dict[str, dict] = {}
    for span, self_s in zip(spans, own):
        if span[2] < 0:
            continue
        name = names[span[2]]
        row = stats.setdefault(name, {"calls": 0, "self_s": 0.0, "wall_s": 0.0,
                                      "phi_sum": 0, "bits_max": 0,
                                      "max_channels": 0})
        row["calls"] += 1
        row["self_s"] += self_s
        if span[1] < 0:
            row["wall_s"] += span[4] - span[3]
        phi, bits = span[6], span[7]
        if name in FIELD_RESULTS:
            row["phi_sum"] += phi
            row["bits_max"] = max(row["bits_max"], bits)
            for limit, bucket in PHI_BUCKETS:
                if limit is None or phi <= limit:
                    row[bucket] = row.get(bucket, 0.0) + self_s
                    break
        elif name == "braiding.det":
            row["max_channels"] = max(row["max_channels"], phi)
    return stats


def merge_stats(total: dict, part: dict) -> dict:
    for name, row in part.items():
        acc = total.setdefault(name, {})
        for key, value in row.items():
            if key in ("bits_max", "max_channels"):
                acc[key] = max(acc.get(key, 0), value)
            else:
                acc[key] = acc.get(key, 0) + value
    return total


def load(path: str) -> tuple[dict, dict]:
    """(layer stats, meta) of a span file written by Recorder.dump."""
    with open(path) as fh:
        data = json.load(fh)
    spans = [tuple(s) for s in data["spans"]]
    return layer_stats(data["names"], spans), data["meta"]
