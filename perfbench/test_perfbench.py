"""Self-tests for perfbench's statistics, report checks and metric lists.

Run from the repository root: python3 perfbench/test_perfbench.py
"""

import copy
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402


class StatsTest(unittest.TestCase):
    def test_median(self):
        self.assertEqual(stats.median([3.0]), 3.0)
        self.assertEqual(stats.median([4.0, 1.0, 3.0]), 3.0)
        self.assertEqual(stats.median([1.0, 2.0, 3.0, 4.0]), 2.5)
        with self.assertRaises(ValueError):
            stats.median([])

    def test_quartiles_match_statistics_quantiles(self):
        values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0]
        self.assertEqual(stats.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))
        q1, q2, q3 = stats.quartiles(values)
        self.assertAlmostEqual(stats.spread(values), (q3 - q1) / q2)
        with self.assertRaises(ValueError):
            stats.quartiles([1.0])

    def test_tail_percentile_needs_ten_beyond(self):
        self.assertIsNone(stats.tail_percentile(list(range(10))))
        # 11 samples: only the lowest value has ten above it.
        self.assertEqual(stats.tail_percentile(list(range(11))), (9, 0))
        # 20 samples: p50 is rank 10, with exactly ten beyond.
        self.assertEqual(stats.tail_percentile([float(v) for v in range(20, 0, -1)]),
                         (50, 10.0))
        # 100 samples: p90 is rank 90.
        self.assertEqual(stats.tail_percentile(list(range(1, 101))), (90, 90))
        for n in (11, 31, 57, 250):
            p, v = stats.tail_percentile(list(range(n)))
            self.assertGreaterEqual(sum(1 for x in range(n) if x > v), 10)

    def test_describe_states_sample_count(self):
        self.assertEqual(stats.describe([2.0]), "median 2, n=1")
        self.assertEqual(stats.describe([1.0, 2.0, 3.0]), "median 2 (q1 1, q3 3), n=3")
        self.assertIn("p50", stats.describe([float(v) for v in range(20)]))


def campaign_doc(runs=3):
    row = {"seed": 42, "schedule": "0@0", "fired": "0@0", "outcome": "completed",
           "power_failures": 1, "digest": "ab", "hits": [1, 2], "violations": []}
    return {
        "scenario": "health", "total_runs": runs, "total_violations": 0,
        "coverage": "12/24",
        "baseline": dict(row, schedule="-", fired="-", power_failures=0),
        "runs": [copy.deepcopy(row) for _ in range(runs)],
    }


def fleet_doc(devices=4):
    return {
        "devices": devices, "outcomes": {"completed": devices},
        "verdicts": {"skipPath": 2}, "energyPercentilesUj": {"p50": 1.5},
        "groups": [
            {"scenario": "health", "harvester": "default", "backend": "immortal",
             "devices": devices // 2, "completed": devices // 2,
             "powerFailures": 0, "energyUj": 10.0},
            {"scenario": "quickstart", "harvester": "default", "backend": "immortal",
             "devices": devices // 2, "completed": devices // 2,
             "powerFailures": 3, "energyUj": 2.5},
        ],
    }


class ChecksTest(unittest.TestCase):
    def test_parse(self):
        doc, problems = checks.parse_report(b'{"a": 1}')
        self.assertEqual((doc, problems), ({"a": 1}, []))
        doc, problems = checks.parse_report(b'{"a": 1')
        self.assertIsNone(doc)
        self.assertEqual(len(problems), 1)
        doc, problems = checks.parse_report(b"")
        self.assertIsNone(doc)

    def test_clean_campaign_passes(self):
        self.assertEqual(checks.check_campaign(campaign_doc(), expect_runs=3), [])

    def test_campaign_violations_fail(self):
        doc = campaign_doc()
        doc["runs"][1]["violations"] = [{"oracle": "task-atomicity", "detail": "x"}]
        self.assertTrue(checks.check_campaign(doc))
        doc = campaign_doc()
        doc["total_violations"] = 2
        self.assertTrue(checks.check_campaign(doc))
        doc = campaign_doc()
        doc["baseline"]["violations"] = [{"oracle": "golden", "detail": "y"}]
        self.assertTrue(checks.check_campaign(doc))

    def test_campaign_size_and_coverage(self):
        self.assertTrue(checks.check_campaign(campaign_doc(), expect_runs=4))
        doc = campaign_doc()
        doc["coverage"] = "11/24"
        self.assertTrue(checks.check_campaign(doc))
        self.assertEqual(checks.check_campaign(doc, expect_coverage=None), [])
        doc = campaign_doc()
        doc["runs"].pop()
        self.assertTrue(checks.check_campaign(doc))
        self.assertTrue(checks.check_campaign({"runs": []}))
        self.assertTrue(checks.check_campaign([1, 2]))

    def test_fleet(self):
        self.assertEqual(checks.check_fleet(fleet_doc(), 4), [])
        self.assertTrue(checks.check_fleet(fleet_doc(), 6))
        doc = fleet_doc()
        doc["outcomes"] = {"completed": 3, "dnf:horizon": 1}
        doc["groups"][0]["completed"] = 1
        self.assertEqual(len(checks.check_fleet(doc, 4)), 2)
        doc = fleet_doc()
        doc["groups"].pop()
        self.assertTrue(checks.check_fleet(doc, 4))
        self.assertTrue(checks.check_fleet(None, 4))

    def test_fingerprints(self):
        fp = checks.campaign_fingerprint(campaign_doc())
        self.assertEqual(fp["power_failures"], 3)
        self.assertEqual(fp["site_hits"], 12)
        self.assertEqual(fp["outcomes"], {"completed": 4})
        doc = campaign_doc()
        doc["runs"][2]["digest"] = "cd"
        self.assertNotEqual(checks.campaign_fingerprint(doc)["trace_digests_sha256"],
                            fp["trace_digests_sha256"])
        ffp = checks.fleet_fingerprint(fleet_doc())
        self.assertEqual((ffp["power_failures"], ffp["energy_uj"]), (3, 12.5))


class BenchmarkDefinitionTest(unittest.TestCase):
    def test_workload_commands(self):
        health = run.WORKLOADS["campaign-health"]
        self.assertEqual(health.argv(None)[1:],
                         ["--scenario", "health", "--depth", "1", "--seed", "42",
                          "--json", "--jobs", "2"])
        self.assertIn("--random", health.argv(7, setup=True))
        fleet = run.WORKLOADS["fleet-mixed"]
        argv = fleet.argv(None)
        self.assertEqual(argv[argv.index("--seed-first") + 1], "0")
        self.assertEqual(argv[argv.index("--seeds") + 1], "1000")
        self.assertEqual(fleet.cells(), 30)

    def test_benchmark_json_matches(self):
        path = os.path.join(HERE, "..", "BENCHMARK.json")
        if not os.path.exists(path):
            self.skipTest("no BENCHMARK.json beside perfbench")
        with open(path) as f:
            bench = json.load(f)
        self.assertEqual([w["name"] for w in bench["workloads"]], list(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in bench["end_to_end"]],
                         run.E2E_METRICS)
        self.assertEqual([(m["name"], m["unit"]) for m in bench["per_layer"]],
                         run.PER_LAYER_METRICS)

    def test_layer_map_covers_per_layer_metrics(self):
        with open(os.path.join(HERE, "layer_map.json")) as f:
            layer_map = json.load(f)
        mapped = {m for layer in layer_map["layers"] for m in layer["metrics"]}
        self.assertEqual(mapped, {name for name, _ in run.PER_LAYER_METRICS})

    def test_layer_shares_phases_sum_to_one(self):
        m = {name: 0.0 for name, _ in run.PER_LAYER_METRICS}
        m.update({"trace.wall.s": 10.0, "faultsim.campaign.s": 2.0,
                  "faultsim.replay.s": 7.5, "faultsim.report.s": 0.4, "other.s": 0.1,
                  "faultsim.run_schedule.us": 100.0, "scenario.build.us": 10.0,
                  "runtime.run.us": 20.0, "export.log_digest.us": 5.0})
        shares = run.layer_shares(m)
        phases = ("faultsim.campaign", "faultsim.replay", "faultsim.report", "other")
        self.assertAlmostEqual(sum(shares[p] for p in phases), 1.0)
        self.assertAlmostEqual(shares["faultsim.oracles"], 0.65 * 0.95)

    def test_refuses_without_the_program(self):
        # A directory holding only the benchmark: exit non-zero, print no result.
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            r = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "fleet-mixed",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(r.returncode, 0)
        self.assertNotIn('"correct"', r.stdout)


if __name__ == "__main__":
    unittest.main()
