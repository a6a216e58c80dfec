"""Self-tests of the benchmark's generator, gate and trace arithmetic.

    python3 bench/selftest.py

Run from the root of the checkout.  The file name keeps pytest from
collecting it with the package's own suite.
"""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import oracles  # noqa: E402
from minmod import cli, exact  # noqa: E402

import gen  # noqa: E402
import tracing  # noqa: E402
from gate import Gate  # noqa: E402


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    return rc, out.getvalue(), err.getvalue()


class GeneratorTest(unittest.TestCase):
    def rounds(self, workload, seed, count=2):
        it = gen.cli_rounds(workload, seed, oracles)
        return [next(it) for _ in range(count)]

    def test_same_seed_same_argv(self):
        self.assertEqual(self.rounds("model-sweep", 7), self.rounds("model-sweep", 7))
        self.assertNotEqual(self.rounds("model-sweep", 7), self.rounds("model-sweep", 8))

    def test_same_seed_same_calls(self):
        self.assertEqual(gen.ring_calls(3, oracles, 1), gen.ring_calls(3, oracles, 1))
        self.assertNotEqual(gen.ring_calls(3, oracles, 1), gen.ring_calls(4, oracles, 1))

    def test_deck_deals_every_item_once_per_shuffle(self):
        decks, rng = {}, random.Random(5)
        dealt = [gen._deal(decks, "k", rng, "abcd") for _ in range(8)]
        self.assertEqual(sorted(dealt[:4]), list("abcd"))
        self.assertEqual(sorted(dealt[4:]), list("abcd"))

    def test_verify_ignores_seed(self):
        self.assertEqual(self.rounds("verify-paper", 1), self.rounds("verify-paper", 2))

    def test_round_fills_every_slot(self):
        (ops,) = self.rounds("model-sweep", 11, 1)
        kinds = [kind for kind, _argv, _meta in ops]
        self.assertEqual(kinds.count("info"), len(gen.INFO_P))
        self.assertEqual(kinds.count("braid") + kinds.count("braid-refused"),
                         len(gen.BRAID_SLOTS))
        self.assertEqual(kinds.count("braid-refused"), 1)
        for kind, _argv, meta in ops:
            if kind.startswith("braid"):
                channels = gen.braid_channels(oracles, meta["p"], meta["ext"])
                self.assertLessEqual(len(channels), gen.MAX_CHANNELS)
                refused = gen.oracle_braid(oracles, meta["p"], meta["ext"]) is None
                self.assertEqual(refused, kind == "braid-refused")


class GateTest(unittest.TestCase):
    def setUp(self):
        self.gate = Gate(oracles, exact)
        self.meta = {"p": 11, "q": 12, "label": (1, 7)}
        self.argv = ("qdim", "--p", "11", "--q", "12", "--label", "1,7", "--format", "json")

    def qdim_report(self):
        rc, out, err = run_cli(self.argv)
        self.assertEqual(rc, 0)
        return json.loads(out)

    def verdict(self, report, rc=0, err=""):
        return self.gate.cli_op("qdim", self.meta, rc, json.dumps(report), err)

    def test_true_output_passes(self):
        self.assertIsNone(self.verdict(self.qdim_report()))

    def test_value_in_a_larger_field_passes(self):
        report = self.qdim_report()
        check = report["checks"][0]
        value = exact.parse_exact(check["exact"])
        check["exact"] = value.promote(value.order * 3).to_string()
        self.assertIsNone(self.verdict(report))

    def test_corrupted_exact_value_fails(self):
        report = self.qdim_report()
        check = report["checks"][0]
        check["exact"] = (exact.parse_exact(check["exact"]) + 1).to_string()
        self.assertIn("embedding", self.verdict(report))
        check["exact"] = "3*q7"
        self.assertIn("does not parse", self.verdict(report))

    def test_traceback_fails(self):
        err = 'Traceback (most recent call last):\n  File "x"\nKeyError: 1\n'
        self.assertIn("traceback", self.verdict(self.qdim_report(), rc=1, err=err))

    def test_wrong_exit_code_fails(self):
        self.assertIn("exit code", self.verdict(self.qdim_report(), rc=3))
        self.assertIn("exit 1", self.verdict(self.qdim_report(), rc=1))

    def test_refused_draw(self):
        meta = {"p": 7, "ext": ((2, 3), (2, 3), (3, 3), (2, 7))}
        ok = self.gate.cli_op("braid-refused", meta, 2, "", "error: sign exponent\n")
        self.assertIsNone(ok)
        err = "Traceback (most recent call last):\nNonIntegerExponent: -5/2\n"
        self.assertIn("traceback", self.gate.cli_op("braid-refused", meta, 1, "", err))
        self.assertIn("error: line",
                      self.gate.cli_op("braid-refused", meta, 2, "", "a\nb\n"))

    def test_first_minor_reference(self):
        rc, out, err = run_cli(("verify", "lemma-5a", "--format", "json"))
        report = json.loads(out)
        for check in report["checks"]:
            check["name"] = "lemma-5a: " + check["name"]
        report["checks"].append({"name": "lemma-3c: B21 nonzero", "status": "pass",
                                 "exact": "", "approx": ""})
        verdict = self.gate.cli_op("verify", {}, rc, json.dumps(report), err)
        self.assertIsNone(verdict)
        minor = report["checks"][0]
        minor["exact"] = (-exact.parse_exact(minor["exact"])).to_string()
        minor["approx"] = ""
        verdict = self.gate.cli_op("verify", {}, rc, json.dumps(report), err)
        self.assertIn("first 5A minor", verdict)


class SelfTimeTest(unittest.TestCase):
    def test_self_time_subtracts_covered_children(self):
        # root [0, 10] holds a [1, 3] (bookkeeping to 3.5) and b [4, 8]
        # (to 8.5); b holds c [5, 6] (to 6.25).
        spans = [
            (0, -1, 0, 0.0, 10.0, 10.0, 0, 0),
            (1, 0, 1, 1.0, 3.0, 3.5, 96, 5),
            (2, 0, 1, 4.0, 8.0, 8.5, 288, 9),
            (3, 2, 2, 5.0, 6.0, 6.25, 0, 0),
        ]
        self.assertEqual(tracing.self_times(spans), [3.0, 2.0, 2.75, 1.0])
        stats = tracing.layer_stats(["cli.main", "exact.mul", "exact.inv"], spans)
        mul = stats["exact.mul"]
        self.assertEqual((mul["calls"], mul["self_s"]), (2, 4.75))
        self.assertEqual((mul["phi_le256"], mul["phi_gt256"]), (2.0, 2.75))
        self.assertEqual((mul["phi_sum"], mul["bits_max"]), (384, 9))
        self.assertEqual(stats["cli.main"]["wall_s"], 10.0)

    def test_merge_adds_and_keeps_maxima(self):
        a = {"exact.mul": {"calls": 2, "self_s": 1.0, "bits_max": 7}}
        b = {"exact.mul": {"calls": 3, "self_s": 0.5, "bits_max": 4}}
        merged = tracing.merge_stats(tracing.merge_stats({}, a), b)
        self.assertEqual(merged["exact.mul"], {"calls": 5, "self_s": 1.5, "bits_max": 7})

    def test_launcher_traces_every_binding(self):
        spans = BENCH / "out" / f"selftest-spans-{os.getpid()}.json"
        spans.parent.mkdir(exist_ok=True)
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        argv = [sys.executable, str(BENCH / "launch.py"), str(spans),
                "fusion", "--p", "7", "--q", "8", "--a", "1,3", "--b", "1,3"]
        try:
            done = subprocess.run(argv, env=env, capture_output=True, timeout=60)
            self.assertEqual(done.returncode, 0, done.stderr)
            stats, meta = tracing.load(str(spans))
        finally:
            spans.unlink(missing_ok=True)
        # cli's `from .minimal import fuse, qdim` copies are wrapped too
        self.assertEqual(stats["minimal.fuse"]["calls"], 1)
        self.assertGreaterEqual(stats["minimal.qdim"]["calls"], 1)
        self.assertEqual(stats["cli.main"]["calls"], 1)
        self.assertGreater(meta["bindings"], len(tracing.TRACED))


if __name__ == "__main__":
    unittest.main()
