#!/usr/bin/env python3
"""Self-tests of the benchmark itself. Run from the repository root:

    python3 perfbench/selftest.py

Checks BENCHMARK.json against the benchmark contract and layers.json, the
output checks against mutated tables, and -- building the driver if needed,
about a minute -- end-to-end runs: every printed metric is named and carries
a unit, a held-out seed changes the inputs yet passes the thread-identity
and golden checks, and a failed output check makes the command exit
non-zero.
"""

import copy
import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.dont_write_bytecode = True

import checks  # noqa: E402
import run  # noqa: E402

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_json(path):
    with open(path) as f:
        return json.load(f)


SPEC = load_json(ROOT / "BENCHMARK.json")
LAYERS = load_json(BENCH_DIR / "layers.json")["metrics"]
REFERENCE = load_json(run.REFERENCE_FILE)


def run_bench(workload, seed, trace, seconds=1, reference=None):
    """Runs the benchmark command; returns (exit code, stdout lines, stderr).
    `reference` swaps in another reference-table file."""
    code = ("import sys; sys.path.insert(0, 'perfbench'); import run; "
            + (f"run.REFERENCE_FILE = run.Path({str(reference)!r}); "
               if reference else "")
            + "sys.exit(run.main())")
    proc = subprocess.run(
        [sys.executable, "-c", code, "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout.strip().splitlines(), proc.stderr


class SpecTest(unittest.TestCase):
    def test_benchmark_json_contract(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertEqual(SPEC["paths"], ["perfbench"])
        self.assertEqual([w["name"] for w in SPEC["workloads"]],
                         list(run.WORKLOADS))
        names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        names += [w["name"] for w in SPEC["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        for m in SPEC["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(m["name"], NAME_RE)
            self.assertRegex(m["unit"], UNIT_RE)
            self.assertIn(m["better"], ("lower", "higher"))
        setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"],
                         max(m["bound"] for m in SPEC["end_to_end"]))

    def test_every_per_layer_metric_says_what_it_moves(self):
        end_to_end = {m["name"] for m in SPEC["end_to_end"]}
        own = {s: w for w, names in run.WORKLOADS.items() for s in names}
        for m in SPEC["per_layer"]:
            name = m["name"]
            key = name
            match = re.fullmatch(r"scenario\.(\w+)\.s\.(t\d)", name)
            if match and match.group(1) in own:
                key = f"scenario.<name>.s.{match.group(2)}"
            self.assertIn(key, LAYERS, name)
            entry = LAYERS[key]
            self.assertTrue(set(entry["moves"]) <= end_to_end, name)
            for w in entry["workloads"] + entry.get("no_change_on", []):
                self.assertIn(w, set(run.WORKLOADS) | {"<own>"}, name)
        self.assertEqual(
            {k for k in LAYERS if "<name>" not in k},
            {m["name"] for m in SPEC["per_layer"]
             if not m["name"].startswith("scenario.") or "sweep" in m["name"]})

    def test_workloads_partition_the_registry(self):
        driver = run.build_driver(ROOT)
        registry = subprocess.run([str(driver), "--list"], capture_output=True,
                                  text=True, check=True).stdout.split()
        listed = [s for names in run.WORKLOADS.values() for s in names]
        self.assertEqual(len(listed), len(set(listed)))
        self.assertEqual(sorted(listed), sorted(registry))


class OutputCheckTest(unittest.TestCase):
    def test_reference_matches_itself(self):
        self.assertEqual(
            checks.compare_reference(REFERENCE, REFERENCE, sorted(REFERENCE)),
            [])

    def test_flipped_cell_is_caught(self):
        got = copy.deepcopy(REFERENCE)
        rows = got["read_disturb_vs_pulse"]["disturb_vs_pulse"]["rows"]
        value = rows[2][1][0]
        rows[2][1][0] = value * (1 + 1e-13)  # a reordered sum: admitted
        self.assertEqual(checks.compare_reference(
            REFERENCE, got, ["read_disturb_vs_pulse"]), [])
        rows[2][1][0] = value + 1 / 240  # one of 240 trials flipped
        problems = checks.compare_reference(REFERENCE, got,
                                            ["read_disturb_vs_pulse"])
        self.assertEqual(len(problems), 1)
        self.assertIn("read_disturb_vs_pulse/disturb_vs_pulse row 2 col "
                      "'disturb rate'", problems[0])

    def test_missing_table_is_caught(self):
        got = copy.deepcopy(REFERENCE)
        del got["sense_margin_ir_drop"][sorted(got["sense_margin_ir_drop"])[0]]
        problems = checks.compare_reference(REFERENCE, got,
                                            ["sense_margin_ir_drop"])
        self.assertEqual(len(problems), 1)
        self.assertIn("missing table", problems[0])

    def test_golden_drift_is_caught(self):
        self.assertEqual(checks.check_goldens(REFERENCE, ROOT / "data"), [])
        got = copy.deepcopy(REFERENCE)
        cell = got["fig5_tw"]["tw_vs_vp"]["rows"][0][3]
        cell[1] = f"{float(cell[1]) * 1.01:.2f}"
        problems = checks.check_goldens(got, ROOT / "data")
        self.assertEqual(len(problems), 1)
        self.assertIn("fig5_tw/tw_vs_vp row 0", problems[0])

    def test_thread_identity_diff_names_the_cell(self):
        expected = "# s/t\na,b\n1,2\n3,4\n# s/u\nc\n5\n"
        self.assertEqual(checks.first_difference(
            expected, expected.replace("3,4", "3,5")),
            "s/t row 1 col 'b': got 5, expected 4")
        self.assertEqual(checks.first_difference(
            expected, "# s/t\na,b\n1,2\n3,4\n"), "s/u: missing table")


class EndToEndTest(unittest.TestCase):
    def check_result(self, lines, trace):
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(lines[-2].startswith("host {"))
        declared = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for name, metric in result["metrics"].items():
            self.assertRegex(name, NAME_RE)
            self.assertRegex(metric["unit"], UNIT_RE)
            self.assertIsInstance(metric["value"], (int, float))
        return result

    def test_metrics_named_with_units(self):
        for trace in (0, 1):
            code, lines, err = run_bench("rare_readout", 3, trace)
            self.assertEqual(code, 0, err)
            result = self.check_result(lines, trace)
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)

    def test_held_out_seed_changes_inputs_and_passes(self):
        outputs = {}
        for seed in (2020, 77):
            code, lines, err = run_bench("coupling_yield", seed, 0)
            self.assertEqual(code, 0, err)
            self.assertTrue(self.check_result(lines, 0)["correct"])
            out = (run.build_root(ROOT) / "work" / "coupling_yield-trace0" /
                   "outputs" / "yield_vs_pitch.csv")
            outputs[seed] = out.read_text()
        self.assertNotEqual(outputs[2020], outputs[77])

    def test_failed_check_exits_nonzero(self):
        bad = copy.deepcopy(REFERENCE)
        rows = bad["yield_vs_pitch"]["yield_vs_pitch"]["rows"]
        rows[0][4][0] += 1.0
        path = run.build_root(ROOT) / "work" / "selftest_reference.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(bad))
        code, lines, err = run_bench("coupling_yield", 5, 0, reference=path)
        self.assertEqual(code, 1)
        result = self.check_result(lines, 0)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertLess(result["metrics"]["ok_frac"]["value"], 1.0)
        self.assertIn("yield_vs_pitch/yield_vs_pitch row 0 col 'yield (%)'",
                      err)


if __name__ == "__main__":
    unittest.main(verbosity=2)
