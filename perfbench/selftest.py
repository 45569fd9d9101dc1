"""Self-tests of the benchmark: its checks catch corrupted outputs, and the
one command prints every metric BENCHMARK.json names, with its unit.

    python3 perfbench/selftest.py

Run from the root of a checkout; takes a few minutes (it runs the benchmark
once per workload in each mode, with one-second runs).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import worker  # noqa: E402  (puts src/ on sys.path)
import workloads as wl  # noqa: E402


def _flip_byte(path: str, offset: int = -2) -> None:
    with open(path, "r+b") as fh:
        fh.seek(offset, os.SEEK_END)
        byte = fh.read(1)
        fh.seek(-1, os.SEEK_CUR)
        fh.write(bytes([byte[0] ^ 0x01]))


class CorruptionIsCaught(unittest.TestCase):
    def setUp(self):
        self.work = os.path.join(ROOT, ".perfbench_work", "selftest")
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.ctx = wl.Context(ROOT, self.work)

    def tearDown(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def _run(self, workload):
        jobs = wl.cycle(workload, self.ctx, 7, "c0", warmup=True)
        for job in jobs:
            wl.run_job(job)
        self.assertEqual(worker.tally(jobs, self.ctx)["failed"], 0)
        return jobs

    def test_flipped_byte_in_output(self):
        (job,) = self._run("clt_bulk")
        _flip_byte(os.path.join(job.out, "samples.csv"))
        t = worker.tally([job], self.ctx)
        self.assertGreater(t["failed"], 0)
        self.assertTrue(any("hash mismatch: samples.csv" in e for e in t["errors"]))

    def test_perturbed_sample_value(self):
        (job,) = self._run("clt_bulk")
        path = os.path.join(job.out, "samples.jsonl")
        with open(path, encoding="utf-8") as fh:
            rows = [json.loads(line) for line in fh]
        rows[-1]["value"] += 1e-3
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(r, sort_keys=True) + "\n" for r in rows)
        # re-hash, so only the recomputation through the reference path can notice
        manifest_path = os.path.join(job.out, "manifest.json")
        with open(manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
        manifest["files"]["samples.jsonl"] = wl.sha256_file(path)
        with open(manifest_path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh)
        t = worker.tally([job], self.ctx)
        self.assertEqual(t["failed"], 1)
        self.assertTrue(any("reference" in e for e in t["errors"]), t["errors"])

    def test_flipped_byte_in_binary_matrix(self):
        jobs = {job.kind: job for job in wl.cycle("cli_batch", self.ctx, 7, "c0")}
        gen, read = jobs["generate"], jobs["read"]
        wl.run_job(gen)
        _flip_byte(os.path.join(gen.out, "X.bin"), offset=-9)
        wl.run_job(read)
        t = worker.tally([gen, read], self.ctx)
        self.assertEqual(t["failed"], 2)
        self.assertTrue(any("X.bin differs" in e for e in t["errors"]), t["errors"])


class EveryMetricIsPrinted(unittest.TestCase):
    def test_names_and_units(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            bench = json.load(fh)
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in bench[key]}
            for w in bench["workloads"]:
                with self.subTest(workload=w["name"], trace=trace):
                    proc = subprocess.run(
                        [sys.executable, *bench["command"][1:], "--workload", w["name"],
                         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
                        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180, check=True,
                    )
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for v in result["metrics"].values():
                        self.assertIsInstance(v["value"], float)


if __name__ == "__main__":
    unittest.main()
