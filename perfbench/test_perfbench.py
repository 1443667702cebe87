"""Tests of the benchmark's own arithmetic and checks.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import subprocess
import tempfile
import unittest

import metrics as M
import oracles
import run
import workloads


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(M.percentile(values, 50), 50)
        self.assertEqual(M.percentile(values, 90), 90)
        self.assertEqual(M.percentile([7], 90), 7)

    def test_ten_samples_beyond(self):
        self.assertEqual(M.min_samples_for(90), 100)
        self.assertEqual(M.min_samples_for(50), 20)
        self.assertEqual(M.samples_beyond(100, 90), 10)
        self.assertEqual(M.tail_percentile(list(range(100)), 90), 89)
        self.assertIsNone(M.tail_percentile(list(range(99)), 90))
        self.assertIsNone(M.tail_percentile([], 50))

    def test_min_samples_reaches_the_rule(self):
        for p in (50, 90, 99):
            n = M.min_samples_for(p)
            self.assertIsNotNone(M.tail_percentile([1.0] * n, p))
            self.assertIsNone(M.tail_percentile([1.0] * (n - 1), p))


class DueTimeLatency(unittest.TestCase):
    def test_latency_counts_from_due_time(self):
        due = [0.0, 1.0, 2.0]
        sent = [0.0, 1.5, 2.5]  # the generator stalled for 0.5 s
        received = [0.5, 2.0, 3.0]
        self.assertEqual(M.due_time_latencies(due, received), [0.5, 1.0, 1.0])
        self.assertEqual(M.lateness(due, sent), [0.0, 0.5, 0.5])

    def test_early_send_is_not_negative_lateness(self):
        self.assertEqual(M.lateness([1.0], [0.9]), [0.0])

    def test_backlog_trend(self):
        self.assertFalse(M.backlog_grew([0, 1, 0, 1, 0, 1, 0, 1, 0]))
        self.assertTrue(M.backlog_grew([0, 1, 2, 4, 6, 8, 10, 12, 14]))


def span_events(sid, parent, name, start, end, thread=1):
    """The span_begin/span_end pair of one span, as trace lines."""
    fields = {"span": sid, "parent": parent, "thread": thread, "name": name}
    return ([start, 1, dict(fields, event="span_begin", ts_ns=start)],
            [end, 0, dict(fields, event="span_end", ts_ns=end,
                          dur_ns=end - start)])


def trace_lines(*spans):
    """Trace lines of `spans` ((sid, parent, name, start, end[, thread])),
    in time order with an end before a begin at the same instant."""
    events = [e for s in spans for e in span_events(*s)]
    return [e[2] for e in sorted(events, key=lambda e: (e[0], e[1]))]


class TraceReport(unittest.TestCase):
    """Span self-time arithmetic of the engine's trace report as the
    benchmark reads it: JSONL fixtures through `hotg-bench-replay
    --trace-report` (built on first use, as the benchmark builds it)."""

    # search.run [0,100] > candidate [10,90] > validity.check [20,80]
    #   > solver.check [25,45] and [50,70]; search.test [90,98]
    #   > vm.exec [91,97]; and a worker tree on another thread.
    NESTED = [
        (1, 0, "search.run", 0, 100),
        (2, 1, "search.candidate", 10, 90),
        (3, 2, "validity.check", 20, 80),
        (4, 3, "solver.check", 25, 45),
        (5, 3, "solver.check", 50, 70),
        (6, 1, "search.test", 90, 98),
        (7, 6, "vm.exec", 91, 97),
        (8, 0, "search.worker_job", 0, 50, 2),
        (9, 8, "solver.check", 5, 45, 2),
    ]

    @classmethod
    def setUpClass(cls):
        cls.exe = run.build(run.build_dir())["hotg-bench-replay"]
        cls.tmp = tempfile.TemporaryDirectory()

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def report(self, lines):
        trace = os.path.join(self.tmp.name, "trace.jsonl")
        result = os.path.join(self.tmp.name, "report.json")
        with open(trace, "w") as f:
            f.write("".join(json.dumps(x) + "\n" for x in lines))
        subprocess.run([self.exe, "--trace-report", trace, result],
                       check=True)
        with open(result) as f:
            return json.load(f)

    def test_nested_validity_and_solver(self):
        r = self.report(trace_lines(*self.NESTED))
        self.assertEqual(r["trace_errors"], 0)
        self.assertEqual(r["nesting_errors"], 0)
        selfs = {n: row["self_ns"] for n, row in r["phases"].items()}
        self.assertEqual(selfs, {
            "search.run": 100 - 80 - 8, "search.candidate": 80 - 60,
            "validity.check": 60 - 40, "solver.check": 40 + 40,
            "search.test": 8 - 6, "vm.exec": 6, "search.worker_job": 10})
        self.assertEqual(sum(selfs.values()), 100 + 50)
        self.assertEqual(r["roots"], {
            "search.run": {"count": 1, "total_ns": 100},
            "search.worker_job": {"count": 1, "total_ns": 50}})
        self.assertEqual(sorted(r["solver_check_ns"]), [20, 20, 40])
        # one validity query plus the worker's check outside validity
        self.assertEqual(r["solved_queries"], 2)

        layers = run.span_layers(r, searches=1, jobs=1, wall_ns=110)
        self.assertAlmostEqual(layers["smt.check_ms"], 80e-6)
        self.assertAlmostEqual(layers["validity.self_ms"], 20e-6)
        self.assertAlmostEqual(layers["exec.ms"], 6e-6)
        self.assertAlmostEqual(layers["search.self_ms"], 44e-6)
        self.assertAlmostEqual(layers["smt.check_ms.p90"], 40e-6)
        self.assertAlmostEqual(layers["harness.ms"], 10e-6)

    def test_bad_nesting_is_caught(self):
        def begin(sid, parent, name, ts):
            return {"event": "span_begin", "span": sid, "parent": parent,
                    "thread": 1, "name": name, "ts_ns": ts}

        def end(sid, parent, name, ts, dur):
            return {"event": "span_end", "span": sid, "parent": parent,
                    "thread": 1, "name": name, "ts_ns": ts, "dur_ns": dur}

        # A child stamped before its parent began.
        escaped = [begin(1, 0, "search.run", 10), begin(2, 1, "vm.exec", 5),
                   end(2, 1, "vm.exec", 8, 3), end(1, 0, "search.run", 20, 10)]
        # Overlapping children cover more than their parent: buildReport
        # clamps the parent's self time at zero.
        overlap = [begin(1, 0, "search.run", 0), begin(2, 1, "vm.exec", 0),
                   end(2, 1, "vm.exec", 8, 8), begin(3, 1, "vm.exec", 2),
                   end(3, 1, "vm.exec", 9, 7), end(1, 0, "search.run", 10, 10)]
        for lines in (escaped, overlap):
            r = self.report(lines)
            self.assertEqual(r["trace_errors"], 0)
            self.assertGreater(r["nesting_errors"], 0)
            with self.assertRaises(run.RunError):
                run.span_layers(r, searches=1, jobs=1, wall_ns=100)

    def test_trees_must_match_searches_and_fit_the_wall(self):
        r = self.report(trace_lines(*self.NESTED))
        with self.assertRaises(run.RunError):
            run.span_layers(r, searches=2, jobs=2, wall_ns=1000)
        with self.assertRaises(run.RunError):
            run.span_layers(r, searches=1, jobs=1, wall_ns=99)

    def test_malformed_trace(self):
        r = self.report(trace_lines(*self.NESTED)[:-1])  # one span unclosed
        self.assertGreater(r["trace_errors"], 0)
        with self.assertRaises(run.RunError):
            run.span_layers(r, searches=1, jobs=1, wall_ns=1000)


class RatioBases(unittest.TestCase):
    REG = {"counters": {
        "search.tests": 120, "validity.groundings_tried": 30,
        "validity.groundings_pruned": 90, "validity.queries": 40,
        "validity.strategy_found": 30, "solver.checks": 50,
        "solver.unsat": 20, "solver.prefix_literals_reused": 25,
        "solver.scope_pushes": 75, "search.worker_busy_ns": 600,
        "solver.cache_hits": 3, "solver.cache_misses": 1,
        "search.speculation_discarded": 2,
        "search.speculative_dispatches": 8}}

    def test_empty_base_reads_zero(self):
        self.assertEqual(M.ratio(5, 0), 0.0)

    def test_registry_ratio_bases(self):
        r = run.registry_layers(self.REG, jobs=4, workers=3, wall_ns=1000)
        self.assertEqual(r["search.tests"], 30)
        self.assertEqual(r["validity.prune_frac"], 90 / 120)
        self.assertEqual(r["validity.strategy_frac"], 30 / 40)
        self.assertEqual(r["smt.unsat_frac"], 20 / 50)
        self.assertEqual(r["smt.prefix_reuse_frac"], 25 / 100)
        self.assertEqual(r["par.worker_busy_frac"], 600 / 3000)
        self.assertEqual(r["par.cache_hit_frac"], 3 / 4)
        self.assertEqual(r["par.discarded_frac"], 2 / 8)

    def test_median_rate_base(self):
        # Two jobs of 10 and 30 tests; job 0 has one stalled sample. The
        # base is the sum of the per-job median walls (1 s + 3 s), so the
        # stall does not count.
        work = [10, 30, 10, 30, 10]
        ns = [1e9, 3e9, 1e9, 3e9, 9e9]
        keys = [0, 1, 0, 1, 0]
        self.assertEqual(M.median_rate(work, ns, keys), 40 / 4)
        self.assertEqual(M.median_rate([], [], []), 0.0)

    def test_serial_run_reads_zero_parallel_work(self):
        r = run.registry_layers({"counters": {}}, jobs=1,
                                workers=1, wall_ns=1000)
        self.assertEqual(r["par.worker_busy_frac"], 0.0)
        self.assertEqual(r["validity.prune_frac"], 0.0)


class Oracles(unittest.TestCase):
    EXPECT = {"kind": "lexer", "keywords": ["whil", "done"], "productions": [
        {"message": "production t0-t1: parsed 'whil done'",
         "chunks": [0, 1], "ids": [1, 2], "words": ["whil", "done"]}]}

    def report(self, cells, message="production t0-t1: parsed 'whil done'"):
        return ('policy higher-order: 20 tests, 18/18 branch directions '
                'covered, 0 divergences\nBUG [error] "%s" input (%s) '
                '(test #9)\n' % (message, ", ".join(map(str, cells))))

    def test_planted_production_found(self):
        cells = [ord(c) for c in "whildone"]
        bugs = oracles.bugs_from_report(self.report(cells))
        self.assertEqual(bugs[0]["input"], cells)
        self.assertEqual(oracles.check_lexer(bugs, self.EXPECT), [])

    def test_wrong_spelling_is_caught(self):
        bugs = oracles.bugs_from_report(
            self.report([ord(c) for c in "whilxone"]))
        self.assertTrue(oracles.check_lexer(bugs, self.EXPECT))

    def test_missed_and_unplanted(self):
        self.assertTrue(oracles.check_lexer([], self.EXPECT))
        bugs = oracles.bugs_from_report(
            self.report([97] * 8, message="something else"))
        self.assertEqual(len(oracles.check_lexer(bugs, self.EXPECT)), 2)

    def test_known_bugs(self):
        expect = {"kind": "known-bugs", "known": ["a", "b"],
                  "required": ["a"]}
        self.assertEqual(oracles.check_known_bugs(
            [{"message": "a"}], expect), [])
        self.assertTrue(oracles.check_known_bugs([{"message": "b"}], expect))
        self.assertTrue(oracles.check_known_bugs(
            [{"message": "a"}, {"message": "c"}], expect))
        self.assertEqual(oracles.found_bug_count([{"message": "a"}], expect),
                         1)
        self.assertEqual(oracles.known_bug_count(expect), 2)


class Generators(unittest.TestCase):
    def test_same_seed_same_jobs(self):
        self.assertEqual(workloads.lexer_jobs(3), workloads.lexer_jobs(3))
        self.assertNotEqual(workloads.lexer_jobs(3), workloads.lexer_jobs(4))
        self.assertEqual(workloads.serve_jobs(3, 2), workloads.serve_jobs(3, 2))

    def test_lexer_grid_is_seed_invariant(self):
        ids = lambda s: sorted(j["id"] for j in workloads.lexer_jobs(s)[1])
        self.assertEqual(ids(1), ids(2))

    def test_csv_mix_puts_the_p90_in_the_checksum_jobs(self):
        # A fifth of the jobs are checksum jobs, the larger size: the p90
        # rank of a pass falls at their middle, the p50 among the csv jobs.
        _, jobs = workloads.csv_jobs(2)
        programs = [j["program"] for j in jobs]
        self.assertEqual(programs.count(1) * 5, len(jobs))
        self.assertTrue(all(j["jobs"] == workloads.CSV_DART_WORKERS > 1
                            for j in jobs))
        self.assertEqual({j["max_tests"] for j in jobs if j["program"] == 0},
                         {workloads.CSV_DART_BUDGET})

    def test_serve_arrivals_are_ordered_and_fixed_rate(self):
        _, jobs = workloads.serve_jobs(5, 10)
        due = [j["due_s"] for j in jobs]
        self.assertEqual(due, sorted(due))
        self.assertEqual(len(jobs), 10 * workloads.SERVE_RATE)
        self.assertTrue(any(j["repeat"] for j in jobs))


if __name__ == "__main__":
    unittest.main()
