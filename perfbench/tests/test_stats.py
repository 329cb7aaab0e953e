"""Tests of the benchmark's arithmetic (perfbench/stats.py) and of the
harness's output digest.

    python3 -m unittest discover -s perfbench/tests -v

The digest test runs the built harness; it is skipped until run.py has
built it once.
"""

import json
import statistics
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import run  # noqa: E402
import stats  # noqa: E402


class SampleStatistics(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(stats.median([3, 1, 2]), 2.0)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_median_of_nothing_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.median([])

    def test_quartiles_match_statistics_quantiles(self):
        values = [float(v) for v in range(1, 11)]
        # Exclusive method: positions (n + 1) p -> 2.75, 5.5, 8.25.
        self.assertEqual(stats.quartiles(values), (2.75, 5.5, 8.25))
        self.assertEqual(stats.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))

    def test_quartiles_of_one_sample(self):
        self.assertEqual(stats.quartiles([7.0]), (7.0, 7.0, 7.0))

    def test_summarize(self):
        s = stats.summarize([float(v) for v in range(1, 11)])
        self.assertEqual((s["n"], s["median"]), (10, 5.5))
        self.assertEqual((s["q1"], s["q3"]), (2.75, 8.25))
        self.assertAlmostEqual(s["spread"], (8.25 - 2.75) / 5.5)
        self.assertEqual((s["min"], s["max"]), (1.0, 10.0))


def episode(minutes, digest, ok=True, scenario=0):
    return {"scenario": scenario, "minutes": minutes,
            "digest": digest if ok else "", "ok": int(ok), "traced": 0,
            "error": "" if ok else "boom"}


class FailureAccounting(unittest.TestCase):
    GOLDEN = {"seed": stats.DEFAULT_SEED, "digests": {"paper_2k": "aa"}}

    def raw(self, seed, episodes):
        return {"workload": "paper_2k", "seed": seed, "episodes": episodes}

    def test_all_good(self):
        raw = self.raw(stats.DEFAULT_SEED, [episode(60, "aa"), episode(60, "aa")])
        self.assertEqual(stats.check_episodes(raw, self.GOLDEN), (120, 0))

    def test_thrown_episode_fails_its_minutes(self):
        raw = self.raw(5, [episode(60, "bb"), episode(60, "", ok=False)])
        self.assertEqual(stats.check_episodes(raw, self.GOLDEN), (120, 60))

    def test_golden_mismatch_at_pinned_seed(self):
        raw = self.raw(stats.DEFAULT_SEED, [episode(60, "bb"), episode(60, "bb")])
        self.assertEqual(stats.check_episodes(raw, self.GOLDEN), (120, 120))

    def test_unpinned_seed_needs_repeatable_digests(self):
        raw = self.raw(5, [episode(40, "cc"), episode(40, "cc"), episode(40, "dd")])
        self.assertEqual(stats.check_episodes(raw, self.GOLDEN), (120, 40))

    def test_each_scenario_checked_against_its_own_digest(self):
        # At the pinned seed only scenario 0 runs the pinned seed; the
        # derived scenarios must each repeat their own digest.
        raw = self.raw(stats.DEFAULT_SEED, [
            episode(60, "aa"), episode(60, "ee", scenario=1),
            episode(60, "ff", scenario=2), episode(60, "aa"),
            episode(60, "ee", scenario=1), episode(60, "gg", scenario=2),
            episode(60, "ff", scenario=2)])
        self.assertEqual(stats.check_episodes(raw, self.GOLDEN), (420, 60))

    def test_sock_failures(self):
        raw = {"peers": 4, "attackers_uncut": 1, "honest_cut": 2}
        self.assertEqual(stats.sock_failures(raw), (4, 3))


class SpanSelfTime(unittest.TestCase):
    def span(self, i, name, start, end, parent=-1):
        return {"id": i, "name": name, "start_ns": start, "end_ns": end,
                "parent": parent}

    def test_self_time_subtracts_children_only(self):
        spans = [
            self.span(0, "episode", 0, 100),
            self.span(1, "run_to_minute", 10, 30, 0),
            self.span(2, "run_to_minute", 40, 70, 0),
            self.span(3, "save", 45, 50, 2),
        ]
        self.assertEqual(stats.self_times(spans), {
            "episode": 100 - 20 - 30,
            "run_to_minute": 20 + (30 - 5),
            "save": 5,
        })

    def test_self_times_sum_to_root_duration(self):
        spans = [
            self.span(0, "mesh_setup", 0, 50),
            self.span(1, "Node::start", 0, 10, 0),
            self.span(2, "links_up", 10, 48, 0),
        ]
        self.assertEqual(sum(stats.self_times(spans).values()), 50)


class MetricTables(unittest.TestCase):
    def test_at_ref_scales_by_the_gauge(self):
        # A host running at half speed doubles both the call and the gauge.
        self.assertAlmostEqual(stats.at_ref(0.08, 2e-3, 1e-3), 0.04)
        self.assertAlmostEqual(stats.at_ref(0.04, 1e-3, 1e-3), 0.04)

    def test_sim_end_to_end_uses_untraced_good_episodes(self):
        def ep(walls, gauges, scenario=0, ok=1, traced=0):
            return {"ok": ok, "traced": traced, "scenario": scenario,
                    "minutes": len(walls), "step_wall_s": walls,
                    "step_cpu_s": [w / 2 for w in walls],
                    "step_gauge_s": gauges,
                    "step_ticks": [1e5] * len(walls)}
        quiet, slow = [1e-3, 1e-3], [2e-3, 2e-3]
        raw = {"kind": "sim", "gauge_ref_s": 1e-3,
               "setup_s": [0.03, 0.10, 0.04], "setup_gauge_s": [1e-3, 2e-3, 1e-3],
               "peak_rss_kib": 2048.0,
               "episodes": [
                   # Scenario 0: the same minutes on a quiet and a slow host.
                   ep([0.1, 0.3], quiet), ep([0.2, 0.6], slow),
                   # Scenario 1 costs twice as much; its minutes are 0.2, 0.6.
                   ep([0.2, 0.6], quiet, scenario=1),
                   ep([9.0, 9.0], quiet, traced=1), ep([9.0, 9.0], quiet, ok=0)]}
        values = stats.end_to_end(raw)
        self.assertEqual(set(values), set(stats.END_TO_END_UNITS))
        # Constructions at reference speed: 0.03, 0.05, 0.04.
        self.assertAlmostEqual(values["setup_s"], 0.04)
        # Mean over scenarios of (0.2, 0.4) per simulated minute.
        self.assertAlmostEqual(values["s_per_sim_min"], 0.3)
        # Mean over scenarios of the minute medians (0.2, 0.4).
        self.assertAlmostEqual(values["minute_s_p50"], 0.3)
        self.assertAlmostEqual(values["peak_rss_mib"], 2.0)
        # CPU is half the wall time: (0.2 + 0.4) s / 2e5 ticks = 1.0, 2.0 us.
        self.assertAlmostEqual(values["cpu_us_per_msg"], 1.5)

    def test_sock_end_to_end_counts_the_steady_minutes(self):
        raw = {"kind": "sock", "gauge_ref_s": 1e-3, "peak_rss_kib": 1024.0,
               "setup_s": [3e-4, 4e-4, 5e-4], "setup_gauge_s": [1e-3] * 3,
               "proto_minutes": 4.0, "steady_minutes": 2.0,
               "minute_cpu_s": [0.5, 0.5, 0.02, 0.04],
               "minute_gauge_s": [1e-3, 1e-3, 2e-3],
               "cpu_s": 1.06, "msgs": 1000.0,
               "steady_cpu_s": 0.06, "steady_msgs": 30000.0}
        values = stats.end_to_end(raw)
        self.assertAlmostEqual(values["setup_s"], 4e-4)
        # The gauge at the start of the two steady minutes read 1e-3 and
        # 2e-3 (median 1.5e-3), so 0.06 s of CPU is 0.04 s at reference.
        self.assertAlmostEqual(values["s_per_sim_min"], 0.02)
        self.assertAlmostEqual(values["cpu_us_per_msg"], 0.04 * 1e6 / 30000.0)

    def test_sock_per_layer_emits_every_metric(self):
        raw = {"kind": "sock", "proto_minutes": 30.0, "detect_min": 2.0,
               "minute_gauge_s": [1e-3, 3e-3], "setup_gauge_s": [1e-3],
               "layers": {"poll_cpu_s": 0.6, "msgs": 1000.0, "bytes": 40000.0,
                          "forwarded": 300.0, "duplicates": 100.0,
                          "echo_revocations": 7.0, "local_cuts": 3.0,
                          "suspicions": 9.0, "rounds": 6.0,
                          "wire": {"codec_ns_per_msg": 300.0,
                                   "stream_ns_per_byte": 4.0,
                                   "guid_ns_per_op": 20.0}}}
        values = stats.per_layer(raw)
        self.assertEqual(set(values), set(stats.PER_LAYER_UNITS))
        self.assertEqual(values["p2p.dup_ratio"], 0.25)
        self.assertEqual(values["netengine.cpu_ms_per_proto_min"], 20.0)
        self.assertEqual(values["netengine.bytes_per_msg"], 40.0)
        self.assertEqual(values["flow.tick_ms_per_min"], 0.0)
        self.assertAlmostEqual(values["host.gauge_ms"], 2.0)


@unittest.skipUnless((run.build_dir() / "ddp_perfbench").is_file(),
                     "harness not built (run perfbench/run.py once)")
class DigestStability(unittest.TestCase):
    def digest(self):
        cmd = [str(run.build_dir() / "ddp_perfbench"), "--workload",
               "paper_2k", "--seed", "7", "--seconds", "0", "--trace", "0"]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True)
        raw = json.loads(out.stdout.strip().splitlines()[-1])
        first = [e for e in raw["episodes"] if e["scenario"] == 0]
        self.assertEqual(len(first), 1)
        self.assertTrue(first[0]["ok"], first[0]["error"])
        return first[0]["digest"]

    def test_same_seed_same_digest_across_processes(self):
        self.assertEqual(self.digest(), self.digest())


if __name__ == "__main__":
    unittest.main()
