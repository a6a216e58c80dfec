"""The minmod benchmark.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` and the oracles from ``tests/oracles.py``.  One client, closed
loop: the next op starts when the previous one has finished and been
checked.  Workloads:

- ``verify-paper``  cold ``mm verify all --format json`` processes, the
  paper's whole verification battery; the seed is not used.
- ``model-sweep``   seeded rounds of cold ``mm info`` (unitary p up to
  23), ``mm braid`` on random Kac externals and quick
  ``qdim``/``fusion``/``decompose`` queries.
- ``fusion-ring``   one warm session of seeded ring-axiom checks on the
  public ``fuse``/``qdim``/``sector_fusion``/``module_fusion``.

Every op is checked by ``gate.py`` outside its timed region.  The last
stdout line is one JSON object: ``correct``, ``attempted``, ``failed``
and the end-to-end metrics (``--trace 0``) or the per-layer metrics of
a traced run (``--trace 1``).  End to end: ops per second over the time
spent in ops, the median and tail op latency, the share of ops that
passed the gate, the median of several cold set-ups, and peak RSS.
Every time in them is scaled to a reference host speed measured next to
it (``hostspeed.py``), because the host's own speed drifts.  A
traced run times each CLI op once more under ``launch.py`` (the warm
session alternates untraced and traced passes) and reports the layer
spans and the tracing overhead.  A report with machine facts and one
row per op kind goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import re
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen
import hostspeed
import report
import tracing
from gate import Gate

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("verify-paper", "model-sweep", "fusion-ring")
SETUP_REPS = {"verify-paper": 9, "model-sweep": 9, "fusion-ring": 3}
# Percentile reported as op_tail_ms.  Warm calls number some 10^5 a run,
# so p99 has about a thousand beyond it.  Cold processes number 30-90, so
# p90 and p95 have only a few; on model-sweep p95 falls inside the band
# of its slowest op kind (see gen.QUICK_PER_ROUND).
TAIL = {"verify-paper": 90, "model-sweep": 95, "fusion-ring": 99}
OP_TIMEOUT_S = 60.0
RUN_LIMIT_S = 170.0   # a run must end within 180 s
IMPORT_CLI = "import minmod, minmod.cli; print(minmod.__file__)"


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark."""


# -- processes ---------------------------------------------------------------

def spawn(argv, env, cwd, timeout, meter=None):
    """Run argv to completion: (rc, stdout, stderr, wall_s, peak_rss_mb).

    Pipes are drained while the child runs; the child is reaped with
    wait4 so its own peak RSS is known.  On timeout it is killed and rc
    is None.  With a meter, the host speed is probed whenever the child
    has been quiet for a while; the child shares this CPU, so the time
    the probes took is left out of wall_s.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, cwd=cwd)
    chunks = {proc.stdout: [], proc.stderr: []}
    deadline = t0 + timeout
    timed_out = False
    probing = 0.0
    with selectors.DefaultSelector() as sel:
        for pipe in chunks:
            sel.register(pipe, selectors.EVENT_READ)
        while sel.get_map():
            remaining = deadline - time.perf_counter()
            if remaining <= 0 and not timed_out:
                proc.kill()
                timed_out = True
            wait = max(remaining, 0.05)
            events = sel.select(timeout=min(wait, hostspeed.PROBE_EVERY_S)
                                if meter else wait)
            for key, _ in events:
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
            if not events and meter:
                probing += meter.probe()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0 - probing
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    out = b"".join(chunks[proc.stdout]).decode(errors="replace")
    err = b"".join(chunks[proc.stderr]).decode(errors="replace")
    rc = None if timed_out else proc.returncode
    return rc, out, err, wall, usage.ru_maxrss / 1024


class Checkout:
    """The source tree under test and how to start its processes."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.src = root / "src"
        if not (self.src / "minmod" / "__init__.py").is_file():
            raise SetupError(f"no minmod package under {self.src}")
        oracle_path = root / "tests" / "oracles.py"
        if not oracle_path.is_file():
            raise SetupError(f"no oracle module at {oracle_path}")
        spec = importlib.util.spec_from_file_location("bench_oracles", oracle_path)
        self.oracles = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(self.oracles)
        sys.path.insert(0, str(self.src))
        import minmod.exact
        if not Path(minmod.exact.__file__).resolve().is_relative_to(self.src.resolve()):
            raise SetupError(f"minmod imported from {minmod.exact.__file__}")
        self.exact = minmod.exact
        self.env = dict(os.environ, PYTHONPATH=str(self.src))
        self.out = BENCH / "out"
        self.out.mkdir(exist_ok=True)
        self.started = time.perf_counter()

    def run(self, argv, timeout=OP_TIMEOUT_S, meter=None):
        left = RUN_LIMIT_S - (time.perf_counter() - self.started)
        return spawn([sys.executable, *argv], self.env, self.root, min(timeout, left),
                     meter)

    def setup_times(self, argv, reps: int) -> tuple[list[float], str]:
        """Scaled wall times of reps cold set-ups, and the last one's stdout."""
        walls = []
        meter = hostspeed.Meter()
        for _ in range(reps):
            rc, out, err, wall, _rss = self.run(argv, meter=meter)
            if rc != 0:
                raise SetupError(f"set-up exited {rc}: {err.strip()[-300:]}")
            walls.append(wall * meter.factor())
        return walls, out


# -- CLI workloads -----------------------------------------------------------

def run_cli(ck: Checkout, gate, workload: str, seed: int, seconds: float,
            trace: bool) -> dict:
    walls, where = ck.setup_times(["-c", IMPORT_CLI], SETUP_REPS[workload])
    if not Path(where.strip()).resolve().is_relative_to(ck.src.resolve()):
        raise SetupError(f"child imported minmod from {where.strip()}")
    groups: dict = {}
    stats: dict = {}
    rss = 0.0
    imports, outside, memo = [], [], 0
    overhead = untraced = 0.0
    spans_path = ck.out / f"spans-{os.getpid()}.json"
    rounds = gen.cli_rounds(workload, seed, ck.oracles)
    meter = hostspeed.Meter()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        for kind, argv, meta in next(rounds):
            rc, out, err, wall, op_rss = ck.run(["-m", "minmod.cli", *argv], meter=meter)
            # a traced run prints no end-to-end metrics, so the next
            # factor may span its traced op too
            scaled = wall * meter.factor()
            rss = max(rss, op_rss)
            reason = "timeout" if rc is None else gate.cli_op(kind, meta, rc, out, err)
            self_s = None
            if trace:
                t_rc, t_out, _err, t_wall, _rss = ck.run(
                    [str(BENCH / "launch.py"), str(spans_path), *argv])
                if t_rc != rc or _without_elapsed(t_out) != _without_elapsed(out):
                    reason = reason or "traced run differs from untraced run"
                if not spans_path.exists():  # killed at the time limit
                    tally(groups, kind, [scaled], reason or "traced run timed out")
                    continue
                op_stats, meta_t = tracing.load(spans_path)
                spans_path.unlink()
                tracing.merge_stats(stats, op_stats)
                self_s = {k: v["self_s"] for k, v in op_stats.items()}
                main_s = op_stats.get("cli.main", {}).get("wall_s", 0.0)
                imports.append(meta_t["import_s"])
                outside.append(t_wall - main_s - meta_t["install_s"])
                memo += meta_t["r_memo_growth"]
                overhead += t_wall - wall
                untraced += wall
            tally(groups, kind, [scaled], reason, self_s)
    result = summarize(groups)
    result["setup_walls_s"] = walls
    result["host_slowdown"] = statistics.median(meter.slowdowns)
    if trace:
        result["metrics"] = per_layer(stats, {
            "cli.import_s": statistics.median(imports or [0.0]),
            "cli.outside_main_s": statistics.median(outside or [0.0]),
            "braiding.r_matrix.misses": memo,
            "trace.overhead_s": overhead,
            "trace.untraced_s": untraced,
        })
    else:
        result["metrics"] = end_to_end(groups, walls, rss, TAIL[workload])
    result["rows"] = report.op_rows(groups)
    return result


def _without_elapsed(out: str) -> str:
    return re.sub(r'"elapsed_ms": \d+', "", out)


# -- fusion-ring -------------------------------------------------------------

def run_ring(ck: Checkout, gate, seed: int, seconds: float, trace: bool) -> dict:
    calls = gen.ring_calls(seed, ck.oracles)
    calls_path = ck.out / f"calls-{os.getpid()}.json"
    spans_path = ck.out / f"spans-{os.getpid()}.json"
    calls_path.write_text(json.dumps(calls))
    session = [str(BENCH / "session.py"), str(calls_path), str(seconds)]
    try:
        walls, _ = ck.setup_times(session + ["--setup-only"], SETUP_REPS["fusion-ring"])
        rc, out, err, _wall, _rss = ck.run(
            session + (["--trace", str(spans_path)] if trace else []), timeout=RUN_LIMIT_S)
        if rc != 0:
            raise SetupError(f"session exited {rc}: {err.strip()[-300:]}")
        summary = json.loads(out.strip().splitlines()[-1])
    finally:
        calls_path.unlink()
    bad = [gate.ring_output(call, output)
           for call, output in zip(calls, summary["outputs"])]
    kinds, n = summary["kinds"], len(calls)
    scales = summary["pass_scales"]
    groups: dict = {}
    for j, ns in enumerate(summary["latencies_ns"]):
        tally(groups, kinds[j % n], [ns / 1e9 * scales[j // n]], bad[j % n])
    if summary["mismatches"]:
        # timed calls whose output differed from the set-up pass
        tally(groups, "changed-output", [], "output changed between passes",
              failed=summary["mismatches"])
    result = summarize(groups)
    result["setup_walls_s"] = walls
    result["host_slowdown"] = statistics.median(1 / f for f in scales)
    result["passes"] = summary["passes"]
    if trace:
        stats, _meta = tracing.load(spans_path)
        spans_path.unlink()
        result["metrics"] = per_layer(stats, {
            "cli.import_s": 0.0,
            "cli.outside_main_s": 0.0,
            "braiding.r_matrix.misses": 0,
            "trace.overhead_s": summary["traced_s"] - summary["untraced_s"],
            "trace.untraced_s": summary["untraced_s"],
        })
    else:
        result["metrics"] = end_to_end(groups, walls, summary["peak_rss_mb"],
                                       TAIL["fusion-ring"])
    result["rows"] = report.op_rows(groups)
    return result


# -- metrics -----------------------------------------------------------------

def tally(groups: dict, kind: str, walls: list, reason, self_s=None,
          failed: int | None = None) -> None:
    """Add timed ops of one kind; a reason marks them failed."""
    group = groups.setdefault(kind, {"walls": [], "failed": 0, "reasons": [],
                                     "self_s": {}})
    group["walls"].extend(walls)
    if reason:
        group["failed"] += len(walls) if failed is None else failed
        if reason not in group["reasons"] and len(group["reasons"]) < 5:
            group["reasons"].append(reason)
    for name, value in (self_s or {}).items():
        group["self_s"][name] = group["self_s"].get(name, 0.0) + value


def summarize(groups: dict) -> dict:
    failed = sum(g["failed"] for g in groups.values())
    return {
        "attempted": sum(len(g["walls"]) for g in groups.values()),
        "failed": failed,
        # no wrong or missing answer to an input the oracle answers; draws
        # the oracle refuses too count as failed but leave this true
        "correct": all(not g["failed"] for k, g in groups.items()
                       if k != "braid-refused"),
    }


def end_to_end(groups: dict, setup_walls: list[float], rss_mb: float,
               tail: int) -> dict:
    walls = [w for g in groups.values() for w in g["walls"]]
    attempted = len(walls)
    failed = sum(g["failed"] for g in groups.values())
    values = {
        "ops_per_s": (attempted / sum(walls), "1/s"),
        "op_p50_ms": (report.quantile_ms(walls, 50), "ms"),
        "op_tail_ms": (report.quantile_ms(walls, tail), "ms"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        "setup_s": (statistics.median(setup_walls), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}


def per_layer(stats: dict, extra: dict) -> dict:
    def get(name, key="calls"):
        return stats.get(name, {}).get(key, 0)

    values = {}
    for op in ("mul", "inv"):
        values[f"exact.{op}.calls"] = (get(f"exact.{op}"), "count")
        values[f"exact.{op}.self_s"] = (get(f"exact.{op}", "self_s"), "s")
    values["exact.conjugate.self_s"] = (get("exact.conjugate", "self_s"), "s")
    mul_calls = get("exact.mul")
    values["exact.mul.mean_phi"] = (
        get("exact.mul", "phi_sum") / mul_calls if mul_calls else 0.0, "count")
    for op in ("mul", "inv"):
        for _limit, bucket in tracing.PHI_BUCKETS:
            values[f"exact.{op}.self_s.{bucket}"] = (get(f"exact.{op}", bucket), "s")
    values["exact.coeff_bits.max"] = (
        max(get("exact.mul", "bits_max"), get("exact.inv", "bits_max")), "bits")
    for fn in ("fuse", "qdim", "is_admissible"):
        values[f"minimal.{fn}.calls"] = (get(f"minimal.{fn}"), "count")
        values[f"minimal.{fn}.self_s"] = (get(f"minimal.{fn}", "self_s"), "s")
    r_calls, misses = get("braiding.r_matrix"), extra["braiding.r_matrix.misses"]
    values["braiding.r_matrix.calls"] = (r_calls, "count")
    values["braiding.r_matrix.misses"] = (misses, "count")
    values["braiding.r_matrix.hit_ratio"] = (
        1 - misses / r_calls if r_calls else 0.0, "ratio")
    values["braiding.r_matrix.self_s"] = (get("braiding.r_matrix", "self_s"), "s")
    values["braiding.braid_matrix.self_s"] = (get("braiding.braid_matrix", "self_s"), "s")
    values["braiding.det.calls"] = (get("braiding.det"), "count")
    values["braiding.det.self_s"] = (get("braiding.det", "self_s"), "s")
    values["braiding.det.max_channels"] = (get("braiding.det", "max_channels"), "count")
    for fn in ("check_subalgebra_chain", "solve_sector_system", "build_sector_system"):
        values[f"algebra.{fn}.self_s"] = (get(f"algebra.{fn}", "self_s"), "s")
    for fn in ("sector_fusion", "module_fusion"):
        values[f"algebra.{fn}.calls"] = (get(f"algebra.{fn}"), "count")
        values[f"algebra.{fn}.self_s"] = (get(f"algebra.{fn}", "self_s"), "s")
    values["cli.import_s"] = (extra["cli.import_s"], "s")
    values["cli.as_radical.calls"] = (get("cli.as_radical"), "count")
    values["cli.as_radical.self_s"] = (get("cli.as_radical", "self_s"), "s")
    values["cli.outside_main_s"] = (extra["cli.outside_main_s"], "s")
    values["trace.overhead_s"] = (extra["trace.overhead_s"], "s")
    values["trace.untraced_s"] = (extra["trace.untraced_s"], "s")
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}


# -- entry point -------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    hostspeed.pin_to_one_cpu()
    try:
        ck = Checkout(Path.cwd())
        gate = Gate(ck.oracles, ck.exact)
        if args.workload == "fusion-ring":
            result = run_ring(ck, gate, args.seed, args.seconds, bool(args.trace))
        else:
            result = run_cli(ck, gate, args.workload, args.seed, args.seconds,
                             bool(args.trace))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report.write(ck.out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": report.machine(),
        "source": report.source_identity(ck.root), **result,
    })
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
