"""The mutation corpus: source edits that named tests must catch.

    python3 tests/mutants.py [NAME ...]

Each mutant is (name, file, snippet, replacement, tests): the snippet
occurs exactly once in the file, and replacing it must make at least one
of the tests fail.  For each mutant the script copies ``src/``,
``tests/`` and ``pyproject.toml`` into a temporary directory, applies the
edit there and runs ``pytest -x -q`` on the named tests under a time
limit.  Before the mutants, the named tests run once on an unedited copy
and must pass.  The script prints one line per mutant and exits 0 only
when every mutant is killed: its tests failed.  A snippet that no longer
occurs exactly once, a run that times out, and a run that cannot collect
its tests count as survivors.  pytest does not collect this file; with
NAMEs, only those mutants run.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIMIT_S = 300

CLI, EXACT, MINIMAL = "src/minmod/cli.py", "src/minmod/exact.py", "src/minmod/minimal.py"
ALGEBRA, BRAIDING = "src/minmod/algebra.py", "src/minmod/braiding.py"
SECTORS = "src/minmod/sectors.py"
LAYERS = "tests/test_imports.py::test_each_command_loads_only_its_layers"

MUTANTS = [
    ("entry-no-freeze", CLI, "        gc.freeze()", "        pass",
     ["tests/test_cli.py::test_program_entry_freezes_the_heap_before_exit"]),
    ("chains-pass-as-fail", ALGEBRA,
     '(c.name, "pass", None) if c.passed', '(c.name, "fail", None) if c.passed',
     ["tests/test_cli.py::test_verify_targets_pass"]),
    ("entry-transposed", CLI,
     'mu, gamma = _labels(model, entry, 2, "--entry")',
     'gamma, mu = _labels(model, entry, 2, "--entry")',
     ["tests/test_cli.py::test_braid_entry_computes_only_its_entry"]),
    ("bracket-fold-sign", BRAIDING, "flip += o + 1", "flip += o",
     ["tests/test_braiding.py::test_folded_brackets_match_the_plain_product",
      "tests/test_braiding.py::test_folded_r_values_match_the_plain_loop_at_small_bounds"]),
    ("descend-no-minus-one", EXACT,
     "c * (p - 1) if e % p == 0 else -c", "c * (p - 1) if e % p == 0 else c",
     ["tests/test_exact.py::test_at_conductor_recovers_the_field_built_in"]),
    ("no-typeddict-warning-filter", "pyproject.toml",
     '    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning",\n', "",
     ["tests/test_settings.py"]),
    ("decompose-loads-battery", CLI,
     "    from .sectors import build_algebra,", "    from .algebra import build_algebra,",
     [LAYERS]),
    ("sectors-imports-braiding", SECTORS,
     "from .minimal import MinimalModel,", "from . import braiding\nfrom .minimal import MinimalModel,",
     [LAYERS]),
    ("module-fusion-key-a-twice", SECTORS,
     "irreducible_module(alg, key_b).index", "irreducible_module(alg, key_a).index",
     ["tests/test_algebra.py::test_module_fusion_ring_axioms"]),
    ("reduce-tail-base", EXACT, "base = j - phi", "base = j - phi + 1",
     ["tests/test_exact.py::test_reduction_matches_dense_long_division"]),
    ("echelon-no-row-update", EXACT,
     "row[c + 1:] = [x - f * y for x, y in zip(row[c + 1:], top[c + 1:])]", "pass",
     ["tests/test_exact.py::test_echelon_rank_matches_numpy",
      "tests/test_exact.py::test_solve_substitutes_back"]),
    ("fusion-bound-shift", MINIMAL,
     "2 * self.bound - k1 - k2)", "2 * self.bound - k1 - k2 + 2)",
     ["tests/test_minimal.py::test_fusion_matches_verlinde"]),
    ("lemma-status-flipped", ALGEBRA, "(not value.is_zero() if", "(value.is_zero() if",
     ["tests/test_cli.py::test_verify_all_json_is_pinned",
      "tests/test_cli.py::test_verify_failing_check_exits_1"]),
    ("braid-phase-no-sign", BRAIDING,
     "zeta(4, ipow + doubled)", "zeta(4, ipow)",
     ["tests/test_cli.py::test_commands_json_is_pinned",
      "tests/test_braiding.py::test_braid_matrix_against_float_oracle"]),
    ("inverse-largest-prime-first", EXACT, "p = _primes(n)[0]", "p = _primes(n)[-1]",
     ["tests/test_exact.py::test_inverse_descends_smallest_prime_first"]),
]


def _copy(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _pytest(copy: Path, tests: list) -> str:
    """pass, fail, timeout or error (pytest could not run the tests)."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(copy / "src"))
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(argv, cwd=copy, env=env, capture_output=True, timeout=LIMIT_S)
    except subprocess.TimeoutExpired:
        return "timeout"
    return {0: "pass", 1: "fail"}.get(done.returncode, "error")


def _mutate(path: Path, snippet: str, replacement: str) -> bool:
    text = path.read_text()
    if text.count(snippet) != 1:
        return False
    path.write_text(text.replace(snippet, replacement))
    return True


def main(names: list) -> int:
    chosen = [m for m in MUTANTS if not names or m[0] in names]
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "base"
        _copy(base)
        baseline = _pytest(base, sorted({t for *_, tests in chosen for t in tests}))
        if baseline != "pass":
            print(f"the named tests do not pass unmutated: {baseline}")
            return 2
        survivors = 0
        for name, file, snippet, replacement, tests in chosen:
            copy = Path(tmp) / name
            _copy(copy)
            start = time.perf_counter()
            if not _mutate(copy / file, snippet, replacement):
                result = "stale snippet"
            else:
                result = _pytest(copy, tests)
            killed = result == "fail"
            survivors += not killed
            seconds = time.perf_counter() - start
            print(f"{'killed' if killed else 'SURVIVED':<8}  {name:<28}  {result:<13}  {seconds:5.1f} s")
            shutil.rmtree(copy)
    print(f"{len(chosen) - survivors} of {len(chosen)} mutants killed")
    return 0 if survivors == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
