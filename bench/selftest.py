"""Self-tests of the benchmark itself (not of the program).

    python3 bench/selftest.py

They check that tracing changes no output, that the CLI session leaves its
warm cache byte-identical, that the tracer survives a missing function, that
every malformed CLI line exits 1 or 2, that an injected fault is caught, and
that the benchmark refuses to run without the program's source.
"""

import json
import os
import shutil
import subprocess
import sys
import types
import unittest

import run

run.import_program()
import child  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

WORKDIR = os.path.join(run.ROOT, ".bench_work", f"selftest-{os.getpid()}")


def run_child(fn):
    return child.run(fn, run.UNIT_TIMEOUT_S)


def outputs(units, traced: bool) -> dict:
    out = {}
    for unit in units:
        payload, error, _ = run_child(lambda: run.unit_body(unit, 7, traced, None))
        if unit.cold:
            shutil.rmtree(unit.cold, ignore_errors=True)
        out[unit.id] = error or payload["items"]
    return out


def bench(*args):
    proc = subprocess.run([sys.executable, os.path.join(run.BENCH, "run.py"), *args],
                          capture_output=True, text=True, timeout=170, cwd=run.ROOT)
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    return proc.returncode, json.loads(last) if last.startswith("{\"correct\"") else None


class SelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        os.makedirs(WORKDIR)
        cls.stdin_of, _ = run.prepare_cli(WORKDIR, run_child)
        with open(os.path.join(run.BENCH, "golden.json")) as fh:
            cls.golden = json.load(fh)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(WORKDIR, ignore_errors=True)

    def units(self, name):
        return workloads.build(name, WORKDIR, self.stdin_of)

    def test_traced_and_untraced_outputs_identical(self):
        for name in workloads.WORKLOADS:
            units = self.units(name)
            plain = outputs(units, traced=False)
            self.assertEqual(plain, outputs(units, traced=True), name)
            self.assertEqual(plain, self.golden[name], name)

    def test_cli_session_leaves_warm_cache_identical(self):
        warm = os.path.join(WORKDIR, "warm-cache")
        before = run.dir_digest(warm)
        outputs(self.units("cli-session"), traced=True)
        self.assertEqual(run.dir_digest(warm), before)

    def test_tracer_survives_missing_attribute(self):
        tr = tracer.Tracer()
        tr.wrap(types.SimpleNamespace(), "gone", "qcanon.key_stat")
        tr.count_yields(types.SimpleNamespace(), "gone", "qcanon.weight_keys", len)
        values = tracer.layer_values(tr.stats, tr.missing, {"qbinom": None, "qfact": [3, 1]})
        for name in ("qcanon.key_stat.calls", "qcanon.key_stat.self_s", "qcanon.weight_keys.kept",
                     "qcanon.weight_keys.yield", "laurent.qbinom.hit_ratio"):
            self.assertIsNone(values[name], name)
        self.assertEqual(values["laurent.qfact.hit_ratio"], 0.75)

        def without_memo_cache():
            # the program's memo caches replaced by plain functions
            from wblocks import blockan, laurent

            blockan.qbinom = laurent.qbinom = laurent.qbinom.__wrapped__
            unit = [u for u in self.units("closed-forms") if u.id.startswith("graded/")][0]
            return unit.id, run.unit_body(unit, 0, True, None)

        (uid, payload), error, _ = run_child(without_memo_cache)
        self.assertIsNone(error)
        self.assertEqual(payload["items"], self.golden["closed-forms"][uid])
        self.assertIsNone(payload["trace"]["hits"]["qbinom"])

    def test_malformed_lines_exit_1_or_2(self):
        bad = [u for u in self.units("cli-session") if u.id.startswith(("bad/", "recover/bad"))]
        self.assertGreaterEqual(len(bad), 20)
        for unit in bad:
            (code, out, err), error, _ = run_child(lambda: unit.call(0))
            self.assertIsNone(error)
            self.assertIn(code, (1, 2), unit.id)
            self.assertNotIn("Traceback", err, unit.id)

    def test_injected_fault_fails_the_run(self):
        for workload, fault in (("closed-forms", "graded_cartan"), ("cb-families", "psi_star")):
            code, result = bench("--workload", workload, "--seed", "1", "--seconds", "1",
                                 "--trace", "0", "--inject-fault", fault)
            self.assertNotEqual(code, 0, fault)
            self.assertGreater(result["failed"], 0, fault)
            self.assertFalse(result["correct"], fault)
        code, result = bench("--workload", "closed-forms", "--seed", "1", "--seconds", "1", "--trace", "0")
        self.assertEqual((code, result["failed"], result["correct"]), (0, 0, True))

    def test_refuses_to_run_without_program(self):
        bare = os.path.join(WORKDIR, "bare")
        shutil.copytree(run.BENCH, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "cb-families", "--seed",
                               "1", "--seconds", "1", "--trace", "0"], cwd=bare,
                              capture_output=True, text=True, timeout=170)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("correct", proc.stdout)


if __name__ == "__main__":
    unittest.main()
