#!/usr/bin/env python3
"""Self-test of the benchmark: each workload at a tiny size, and the correctness gate.

    python3 perfbench/selftest.py

Takes about a minute. It is kept out of the tier-1 pytest run on purpose
(the file name does not match test_*.py): it starts benchmark processes.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import unittest
from fractions import Fraction

import run

SEED = 5


def bench() -> dict:
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


def run_tiny(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        capture_output=True, text=True, timeout=300, cwd=run.ROOT)
    if proc.returncode != 0:
        raise AssertionError(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


class TinyRuns(unittest.TestCase):
    def test_untraced_runs_report_every_end_to_end_metric(self):
        names = {m["name"] for m in bench()["end_to_end"]}
        for w in bench()["workloads"]:
            with self.subTest(workload=w["name"]):
                res = run_tiny(w["name"], 0)
                self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                self.assertGreaterEqual(res["attempted"], 1)
                self.assertEqual(set(res["metrics"]), names)
                self.assertTrue(all(m["value"] > 0 for m in res["metrics"].values()))

    def test_traced_runs_report_every_per_layer_metric(self):
        names = {m["name"] for m in bench()["per_layer"]}
        for w in bench()["workloads"]:
            with self.subTest(workload=w["name"]):
                res = run_tiny(w["name"], 1)
                self.assertTrue(res["correct"])
                self.assertEqual(set(res["metrics"]), names)


class Gate(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.load_hdx()
        import workloads

        cls.workloads = workloads
        cls.tmp = run.ROOT / ".bench_work" / f"selftest-{os.getpid()}"
        cls.tmp.mkdir(parents=True)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def one_pass(self, name, tracer=None):
        wl = self.workloads.WORKLOADS[name]
        workdir = self.tmp / f"{name}-{'traced' if tracer else 'plain'}"
        workdir.mkdir(exist_ok=True)
        gen = wl.generate(SEED, "tiny", str(workdir))
        calls = wl.calls(gen, wl.build(gen))
        if tracer:
            tracer.install()
        try:
            records, _ = run.run_pass(calls)
        finally:
            if tracer:
                tracer.uninstall()
        return records

    def replace_result(self, records, index, result):
        call, _, _, dt = records[index]
        return records[:index] + [(call, result, None, dt)] + records[index + 1:]

    def test_clean_passes_have_no_failures(self):
        for name in self.workloads.WORKLOADS:
            with self.subTest(workload=name):
                failed, digests, elements, problems = run.gate(self.one_pass(name), None)
                self.assertEqual(failed, 0, problems)
                self.assertGreater(elements, 0)

    def test_flipped_witness_bit_is_a_failure(self):
        records = self.one_pass("enum-large")
        golden = run.gate(records, None)[1]
        rep = records[0][1]  # expansion(lm, 1, coboundary)
        flipped = rep.witness.complex.cochain_from_bits(1, rep.witness.bits ^ 1)
        bad = dataclasses.replace(rep, witness=flipped)
        failed, _, _, problems = run.gate(self.replace_result(records, 0, bad), golden)
        self.assertEqual(failed, 1, problems)

    def test_perturbed_value_fails_the_certificate(self):
        records = self.one_pass("enum-large")
        for i in (0, 4):  # an expansion and a cosystole
            rep = records[i][1]
            bad = dataclasses.replace(rep, value=rep.value + Fraction(1, 1000))
            failed, _, _, problems = run.gate(self.replace_result(records, i, bad), None)
            self.assertEqual(failed, 1)
            self.assertIn("value", problems[0])

    def test_golden_digest_mismatch_is_a_failure(self):
        records = self.one_pass("spectral")
        _, digests, _, _ = run.gate(records, None)
        golden = list(digests)
        golden[-1] = "0" * 16
        failed, _, _, problems = run.gate(records, golden)
        self.assertEqual(failed, 1)
        self.assertIn("golden", problems[0])

    def test_cli_exit_1_and_exceptions_are_failures(self):
        records = self.one_pass("sweep-small")
        res = records[1][1]
        bad = self.workloads.CliResult(1, res.out, "hdx: error: injected")
        failed, _, _, _ = run.gate(self.replace_result(records, 1, bad), None)
        self.assertEqual(failed, 1)
        call, _, _, dt = records[2]
        crashed = records[:2] + [(call, None, RuntimeError("injected"), dt)] + records[3:]
        self.assertEqual(run.gate(crashed, None)[0], 1)

    def test_tracing_changes_no_result_and_restores_hdx(self):
        from tracer import Tracer

        import hdx

        original = hdx.cohomology.expansion
        for name in self.workloads.WORKLOADS:
            with self.subTest(workload=name):
                plain = run.gate(self.one_pass(name), None)[1]
                tracer = Tracer()
                traced = run.gate(self.one_pass(name, tracer), None)[1]
                self.assertEqual(plain, traced)
                self.assertGreater(sum(tracer.calls.values()), 0)
        self.assertIs(hdx.cohomology.expansion, original)
        self.assertIs(hdx.cli.expansion, original)


if __name__ == "__main__":
    unittest.main()
