"""Warm fusion-ring session: one process, one client, seeded calls.

    python3 bench/session.py CALLS_JSON SECONDS [--setup-only] [--trace SPANS_JSON]

Set-up is ``import minmod``, binding the call list to labels, and one
untimed pass over it that fills the fusion and quantum-dimension caches
and keeps each call's output.  The timed loop then cycles through the
list until SECONDS elapse; after each call, outside its timed region,
its output is compared with the set-up pass.  The last stdout line is a
JSON summary whose ``outputs`` the parent gates against the oracles.

Timed passes are bracketed by runs of the host-speed loop
(``hostspeed.py``); ``pass_scales`` gives each timed pass its factor to
the reference speed.  With --trace, untraced and traced passes
alternate; their wall-time difference is the tracing overhead, and the
factors are left at 1.
"""

import json
import resource
import sys
import time

import hostspeed

# ring-axiom ops; each returns (axiom holds, output) and looks `fuse` and
# `qdim` up on the package at call time so that tracing sees every call.


def _assoc(mm, a, b, c):
    left, right = {}, {}
    for e, m1 in mm.fuse(a, b).items():
        for d, m2 in mm.fuse(e, c).items():
            left[d] = left.get(d, 0) + m1 * m2
    for f, m1 in mm.fuse(b, c).items():
        for d, m2 in mm.fuse(a, f).items():
            right[d] = right.get(d, 0) + m1 * m2
    return left == right, left


def _comm(mm, a, b):
    ab = mm.fuse(a, b)
    return ab == mm.fuse(b, a), ab


def _unit(mm, vacuum, a):
    product = mm.fuse(vacuum, a)
    return product == {a}, product


def _qdmul(mm, a, b):
    product = mm.fuse(a, b)
    lhs = mm.qdim(a).approx * mm.qdim(b).approx
    rhs = sum(mm.qdim(c).approx * k for c, k in product.items())
    return abs(lhs - rhs) <= 1e-9 * max(1.0, lhs), product


def _sector(mm, alg, a, b):
    return True, mm.sector_fusion(alg, a, b)


def _module(mm, alg, a, b):
    return True, mm.module_fusion(alg, a, b)


def bind(mm, calls):
    """(kind, function, args) per call, with labels built once."""
    ops = []
    for call in calls:
        kind = call[0]
        if kind in ("sector", "module"):
            alg = mm.build_algebra(call[1])
            if kind == "sector":
                args = (alg, alg.sectors[call[2]], alg.sectors[call[3]])
            else:
                keys = [tuple(k) if isinstance(k, list) else k for k in call[2:]]
                args = (alg, *keys)
        else:
            model = mm.MinimalModel(call[1], call[2])
            args = tuple(model.label(*x) for x in call[3:])
            if kind == "unit":
                args = (model.vacuum,) + args
        ops.append((kind, globals()["_" + kind], args))
    return ops


def _kac_counts(items):
    return sorted([label.m, label.n, k] for label, k in items)


def to_json(mm, kind, args, ok, value):
    """The gate's view of one output: Kac labels and multiplicities."""
    out = {"ok": bool(ok)}
    if kind == "sector":
        alg = args[0]
        index = {s.name: i for i, s in enumerate(alg.sectors)}
        out["components"] = [[list(l.kac) for l in s.components] for s in alg.sectors]
        out["terms"] = [[index[s.name], k] for s, k in value.terms]
        out["extras"] = [[[list(l.kac) for l in combo], k] for combo, k in value.extras]
    elif kind == "module":
        out["value"] = [[list(k) if isinstance(k, tuple) else k, v]
                        for k, v in value.items()]
    else:
        out["value"] = _kac_counts(value.items())
        if kind == "qdmul":
            out["qdims"] = [mm.qdim(x).approx for x in args]
    return out


def run_pass(mm, ops, expected, latencies, clock=time.perf_counter_ns):
    """One timed pass; returns the number of calls whose output changed."""
    mismatches = 0
    for i, (_kind, func, args) in enumerate(ops):
        t0 = clock()
        result = func(mm, *args)
        latencies.append(clock() - t0)
        if result != expected[i]:
            mismatches += 1
    return mismatches


def main() -> None:
    calls_path, seconds = sys.argv[1], float(sys.argv[2])
    setup_only = "--setup-only" in sys.argv
    spans_path = sys.argv[sys.argv.index("--trace") + 1] if "--trace" in sys.argv else None
    with open(calls_path) as fh:
        calls = json.load(fh)

    t0 = time.perf_counter()
    import minmod as mm
    ops = bind(mm, calls)
    expected = [func(mm, *args) for _kind, func, args in ops]
    setup_s = time.perf_counter() - t0
    if setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    latencies: list[int] = []
    scales: list[float] = []
    mismatches = passes = 0
    summary = {"setup_s": setup_s}
    start = time.perf_counter()
    if spans_path is None:
        meter = hostspeed.Meter()
        while time.perf_counter() - start < seconds:
            mismatches += run_pass(mm, ops, expected, latencies)
            scales.append(meter.factor())
            passes += 1
    else:
        import tracing
        recorder = tracing.Recorder()
        plain: list[int] = []
        untraced = traced = 0.0
        while time.perf_counter() - start < seconds and len(recorder.spans) < 100_000:
            t = time.perf_counter()
            mismatches += run_pass(mm, ops, expected, plain)
            untraced += time.perf_counter() - t
            if not passes:
                tracing.install(recorder)
            t = time.perf_counter()
            mismatches += run_pass(mm, ops, expected, latencies)
            traced += time.perf_counter() - t
            scales.append(1.0)
            passes += 1
        summary["untraced_s"] = untraced
        summary["traced_s"] = traced
        recorder.dump(spans_path, {})
    summary["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    summary.update(
        passes=passes,
        pass_scales=scales,
        mismatches=mismatches,
        latencies_ns=latencies,
        kinds=[kind for kind, _f, _a in ops],
        outputs=[to_json(mm, kind, args, *result)
                 for (kind, _f, args), result in zip(ops, expected)],
    )
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
