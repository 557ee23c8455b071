#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/selftest.py

Takes about a minute: the tracing test runs every job of input set 0
twice.  Uses the checkout's ``.perfbench_work`` directory, so do not run
it while a benchmark run is in progress.
"""

import hashlib
import os
import shutil
import subprocess
import sys
import unittest

import inputs
import runner

HERE = os.path.dirname(os.path.abspath(__file__))


def _digests(workload: str, seed: int):
    """Build a workload; return its jobs, their arguments and file digests."""
    wl = inputs.build(runner.ROOT, workload, seed)
    folder = os.path.join(runner.ROOT, inputs.WORK_DIR, workload)
    files = {}
    for name in sorted(os.listdir(folder)):
        with open(os.path.join(folder, name), "rb") as fh:
            files[name] = hashlib.sha256(fh.read()).hexdigest()
    return [(j.name, j.kind) for j in wl.jobs], [j.argv for j in wl.jobs], files


class Inputs(unittest.TestCase):
    def test_one_seed_gives_byte_identical_files(self):
        for workload in inputs.WORKLOADS:
            self.assertEqual(_digests(workload, 5), _digests(workload, 5), workload)

    def test_another_seed_changes_inputs_not_jobs(self):
        for workload in inputs.WORKLOADS:
            jobs1, argv1, files1 = _digests(workload, 1)
            jobs2, argv2, files2 = _digests(workload, 2)
            self.assertEqual(jobs1, jobs2, workload)
            # same commands and options; a value such as --delta may follow the input
            flags = [[[tok for tok in argv if tok.startswith("--")] for argv in a]
                     for a in (argv1, argv2)]
            self.assertEqual(flags[0], flags[1], workload)
            self.assertEqual(sorted(files1), sorted(files2), workload)
            self.assertNotEqual(files1, files2, workload)

    def test_no_job_asks_for_more_workers_than_cores(self):
        for workload in inputs.WORKLOADS:
            wl = inputs.build(runner.ROOT, workload, 0)
            self.assertLessEqual(wl.threads, inputs.nproc())
            for job in wl.jobs:
                if job.kind == "agree":
                    self.assertLessEqual(int(job.argv[1]), inputs.nproc())


class Gate(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        runner.warm_up()
        cls.refs = runner.load_references()

    def test_corrupted_stdout_fails(self):
        wl = inputs.build(runner.ROOT, "spaces-z1", 0)
        job = next(j for j in wl.jobs if j.name == "delta-tree12")
        expected = self.refs["workloads"]["spaces-z1"]["0"][job.name]
        res = runner.run_job(wl, job, False, 120)
        self.assertEqual(runner.gate(res, expected, self.refs), [])
        bad = res.stdout.replace(b"delta_4pt", b"delta_4pT")
        corrupted = res._replace(stdout=bad, sha256=hashlib.sha256(bad).hexdigest())
        self.assertTrue(runner.gate(corrupted, expected, self.refs))
        self.assertTrue(runner.gate(res._replace(exit=1), expected, self.refs))
        self.assertTrue(runner.gate(res._replace(exit=None), expected, self.refs))

    def test_wrong_graph_count_fails_the_sweep(self):
        stdout = b"".join(
            b"n=%d graphs=%d failures=0 max_point=%s max_thin=%s max_rips=%s\n"
            % ((n, c) + tuple(w.encode() for w in trio.split()))
            for n, (c, trio) in enumerate(zip(runner.GRAPH_COUNTS,
                                              self.refs["sweep_worst"]), 1))
        self.assertEqual(runner.sweep_problems(stdout, self.refs["sweep_worst"]), [])
        bad = stdout.replace(b"graphs=853", b"graphs=852")
        self.assertTrue(runner.sweep_problems(bad, self.refs["sweep_worst"]))
        bad = stdout.replace(b"n=3 graphs=2 failures=0", b"n=3 graphs=2 failures=1")
        self.assertTrue(runner.sweep_problems(bad, self.refs["sweep_worst"]))

    def test_tracing_changes_no_result(self):
        for workload in inputs.WORKLOADS:
            wl = inputs.build(runner.ROOT, workload, 0)
            expected = self.refs["workloads"][workload]["0"]
            for job in wl.jobs:
                plain = runner.run_job(wl, job, False, 120)
                traced = runner.run_job(wl, job, True, 120)
                self.assertEqual((plain.exit, plain.sha256),
                                 (traced.exit, traced.sha256), job.name)
                self.assertEqual(runner.gate(traced, expected[job.name], self.refs), [])
                self.assertTrue(traced.record["self_s"], job.name)


class BareDirectory(unittest.TestCase):
    def test_fails_without_the_program(self):
        bare = os.path.join(runner.ROOT, inputs.WORK_DIR, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(runner.ROOT, "BENCHMARK.json"), bare)
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "groups",
                 "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, timeout=180)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn(b'"correct"', proc.stdout)
        self.assertIn(b"error:", proc.stderr)


if __name__ == "__main__":
    unittest.main()
