"""Self-tests for the perfbench checker.

    python3 perfbench/test_checker.py

Each kind of failure the benchmark must count is fed through the same
functions ``run.py`` uses: a report with one changed field, a nonzero
exit, and a truncated trace. The statistics are checked on fixed inputs.
"""

import json
import os
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import checker  # noqa: E402

REPORT = {
    "system": "Token-TransPIM",
    "arch": "TransPim",
    "dataflow": "Token",
    "workload": "LM",
    "stats": {"latency_ns": 1234567.5, "bytes_moved": 4096.0},
    "scoped": {},
    "total_ops": 1000,
    "batch": 1,
}


class FailureCounting(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)

    def write(self, name, text):
        path = os.path.join(self.dir.name, name)
        with open(path, "w") as f:
            f.write(text)
        return path

    def tally_one(self, exit_code, outputs, expected):
        tally = checker.Tally()
        tally.record("request", checker.invocation_problems(exit_code, outputs, expected))
        return tally

    def test_identical_report_passes(self):
        ref = checker.sha256_file(self.write("oracle.json", json.dumps(REPORT, indent=2)))
        got = checker.sha256_file(self.write("cli.json", json.dumps(REPORT, indent=2)))
        tally = self.tally_one(0, {"report": got}, {"report": ref})
        self.assertEqual((tally.attempted, tally.failed), (1, 0))

    def test_report_with_one_changed_field_is_a_failure(self):
        ref = checker.sha256_file(self.write("oracle.json", json.dumps(REPORT, indent=2)))
        changed = json.loads(json.dumps(REPORT))
        changed["stats"]["latency_ns"] = 1234567.25
        got = checker.sha256_file(self.write("cli.json", json.dumps(changed, indent=2)))
        tally = self.tally_one(0, {"report": got}, {"report": ref})
        self.assertEqual((tally.attempted, tally.failed), (1, 1))
        self.assertIn("differs from the reference", tally.reasons[0])

    def test_nonzero_exit_is_a_failure(self):
        ref = checker.sha256_file(self.write("oracle.json", json.dumps(REPORT)))
        tally = self.tally_one(2, {"report": ref}, {"report": ref})
        self.assertEqual((tally.attempted, tally.failed), (1, 1))
        self.assertIn("exit code 2", tally.reasons[0])

    def test_missing_output_and_missing_reference_are_failures(self):
        ref = checker.sha256_file(self.write("oracle.json", json.dumps(REPORT)))
        self.assertEqual(self.tally_one(0, {"report": None}, {"report": ref}).failed, 1)
        self.assertEqual(self.tally_one(0, {"report": ref}, {"report": None}).failed, 1)

    def test_truncated_trace_is_a_failure(self):
        events = [{"name": "gemm", "ph": "X", "ts": i, "dur": 1} for i in range(50)]
        text = json.dumps(events)
        whole = self.write("trace.json", text)
        cut = self.write("cut.json", text[: len(text) // 2])
        self.assertIsNone(checker.check_document(whole, "trace"))
        self.assertIsNotNone(checker.check_document(cut, "trace"))
        self.assertIsNotNone(checker.check_document(self.write("empty.json", "[]"), "trace"))
        # A truncated trace written by a later invocation of the same
        # request differs from the verified one and is counted.
        tally = self.tally_one(
            0, {"trace": checker.sha256_file(cut)}, {"trace": checker.sha256_file(whole)}
        )
        self.assertEqual(tally.failed, 1)

    def test_metrics_document_must_be_a_non_empty_object_of_numbers(self):
        self.assertIsNone(checker.check_document(self.write("m.json", '{"a": 1.5}'), "metrics"))
        self.assertIsNotNone(checker.check_document(self.write("e.json", "{}"), "metrics"))
        self.assertIsNotNone(checker.check_document(self.write("s.json", '{"a": "x"}'), "metrics"))


    def test_grid_layout_must_match_csv_rows(self):
        csv = self.write("sweep.csv", "model,seq_len,stacks,dataflow,arch,latency_ms\n"
                         "roberta,512,8,Layer,OriginalPIM,1.5\n"
                         "roberta,512,8,Token,OriginalPIM,2.5\n")
        cells = ["512,8,Layer,OriginalPIM", "512,8,Token,OriginalPIM"]
        self.assertIsNone(checker.grid_layout_problem(csv, cells))
        self.assertIsNotNone(checker.grid_layout_problem(csv, cells[:1]))
        self.assertIsNotNone(checker.grid_layout_problem(csv, cells[::-1]))
        self.assertIsNotNone(checker.grid_layout_problem(csv, None))


class Statistics(unittest.TestCase):
    def test_tail_leaves_exactly_ten_samples_beyond(self):
        samples = list(range(1, 101))  # 1..100
        value, pct, n = checker.tail(samples)
        self.assertEqual((value, pct, n), (90, 90.0, 100))
        self.assertEqual(sum(1 for s in samples if s > value), 10)

    def test_tail_ignores_sample_order(self):
        samples = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0, 11.0, 12.0]
        self.assertEqual(checker.tail(samples), (2.0, 100.0 * 2 / 12, 12))

    def test_tail_with_too_few_samples_is_the_maximum(self):
        self.assertEqual(checker.tail([3.0, 1.0, 2.0]), (3.0, 100.0, 3))

    def test_digest_depends_on_outputs_not_on_order(self):
        a = checker.digest([("r1", "report", "aa"), ("r2", "report", "bb")])
        b = checker.digest([("r2", "report", "bb"), ("r1", "report", "aa")])
        c = checker.digest([("r1", "report", "aa"), ("r2", "report", "bc")])
        self.assertEqual(a, b)
        self.assertNotEqual(a, c)

    def test_result_line_holds_exactly_the_declared_metrics(self):
        line = checker.result_line(True, 3, 0, {"x_ms": 1.5}, {"x_ms": "ms"})
        self.assertEqual(
            json.loads(line),
            {"correct": True, "attempted": 3, "failed": 0,
             "metrics": {"x_ms": {"value": 1.5, "unit": "ms"}}},
        )
        with self.assertRaises(ValueError):
            checker.result_line(True, 1, 0, {"x_ms": 1.0}, {"x_ms": "ms", "y_s": "s"})


if __name__ == "__main__":
    unittest.main()
