"""Run reports: what one benchmark run measured, on which machine.

Each run writes ``bench/out/<workload>-seed<seed>-trace<t>.json`` with
the machine facts, seed, source identity, the printed metrics, one row
per op kind and the workload totals.  Comparing two reports prints the
delta of every metric and row:

    python3 bench/report.py OLD.json NEW.json
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path


def quantile_ms(walls_s, q: int) -> float:
    """q-th percentile in ms, interpolated inside the sample range."""
    if len(walls_s) == 1:
        return walls_s[0] * 1000
    return statistics.quantiles(walls_s, n=100, method="inclusive")[q - 1] * 1000


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine() -> dict:
    import mpmath

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "platform": platform.platform(),
    }


def source_identity(root: Path) -> dict:
    """Git commit when available, and a digest of the package sources."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    commit = "unknown"
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def op_rows(groups: dict) -> list[dict]:
    """One row per op kind: count, failures, latency and traced self time."""
    rows = []
    for kind, group in sorted(groups.items()):
        walls = group["walls"]
        row = {"kind": kind, "count": len(walls), "failed": group["failed"]}
        if walls:
            row.update(p50_ms=quantile_ms(walls, 50), p90_ms=quantile_ms(walls, 90),
                       mean_ms=statistics.fmean(walls) * 1000)
        if group["self_s"]:
            row["self_s"] = dict(sorted(group["self_s"].items(), key=lambda kv: -kv[1]))
        if group["reasons"]:
            row["reasons"] = group["reasons"]
        rows.append(row)
    return rows


def write(path: Path, data: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=1))


def _delta(old, new) -> str:
    if not isinstance(old, (int, float)) or not isinstance(new, (int, float)):
        return ""
    if old == 0:
        return "" if new == 0 else "new"
    return f"{(new - old) / abs(old):+.1%}"


def compare(old: dict, new: dict) -> list[str]:
    lines = [f"old: seed {old['seed']} {old['source']}", f"new: seed {new['seed']} {new['source']}"]
    for name in sorted(set(old["metrics"]) | set(new["metrics"])):
        a = old["metrics"].get(name, {}).get("value")
        b = new["metrics"].get(name, {}).get("value")
        lines.append(f"{name:40} {a!s:>14} {b!s:>14} {_delta(a, b):>8}")
    old_rows = {r["kind"]: r for r in old["rows"]}
    for row in new["rows"]:
        base = old_rows.get(row["kind"], {})
        for key in ("count", "failed", "p50_ms", "p90_ms", "mean_ms"):
            a, b = base.get(key), row.get(key)
            lines.append(f"{row['kind'] + '.' + key:40} {a!s:>14} {b!s:>14} {_delta(a, b):>8}")
    return lines


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: python3 bench/report.py OLD.json NEW.json")
    reports = [json.loads(Path(p).read_text()) for p in sys.argv[1:]]
    print("\n".join(compare(*reports)))
