"""Tests of run.py's metric declaration checks: python3 perfbench/test_run.py"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class DeclarationTest(unittest.TestCase):
    def setUp(self):
        self.bench, self.decl = run.load_declarations()

    def test_committed_declarations_agree(self):
        run.check_declarations(self.bench, self.decl)

    def test_every_per_layer_metric_is_measured_somewhere(self):
        for name, d in self.decl["per_layer"].items():
            self.assertTrue(d["workloads"], name)

    def test_end_to_end_runs_emit_the_end_to_end_list(self):
        for w in self.bench["workloads"]:
            emitted, idle = run.expected_metrics(self.bench, self.decl,
                                                 w["name"], 0)
            names = sorted(m["name"] for m in self.bench["end_to_end"])
            self.assertEqual(sorted(emitted), names)
            self.assertEqual(idle, {})

    def test_traced_runs_cover_every_per_layer_metric(self):
        for w in self.bench["workloads"]:
            emitted, idle = run.expected_metrics(self.bench, self.decl,
                                                 w["name"], 1)
            self.assertFalse(set(emitted) & set(idle))
            self.assertEqual(sorted(set(emitted) | set(idle)),
                             sorted(m["name"] for m in self.bench["per_layer"]))

    def result(self, emitted):
        return {"metrics": {n: {"value": 1.0, "unit": u}
                            for n, u in emitted.items()}}

    def test_missing_extra_and_wrong_unit_are_refused(self):
        emitted, _ = run.expected_metrics(self.bench, self.decl,
                                          "static-file", 1)
        run.check_emitted(self.result(emitted), emitted)

        missing = dict(emitted)
        missing.pop("graph.dedup_s")
        with self.assertRaises(run.DeclarationError):
            run.check_emitted(self.result(missing), emitted)

        extra = dict(emitted, **{"serve.lo.p99_ms": "ms"})
        with self.assertRaises(run.DeclarationError):
            run.check_emitted(self.result(extra), emitted)

        wrong = dict(emitted, **{"graph.dedup_s": "ms"})
        with self.assertRaises(run.DeclarationError):
            run.check_emitted(self.result(wrong), emitted)

    def test_a_metric_moving_an_unknown_name_is_refused(self):
        self.decl["per_layer"]["graph.read_s"]["moves"]["nope"] = []
        with self.assertRaises(run.DeclarationError):
            run.check_declarations(self.bench, self.decl)


if __name__ == "__main__":
    unittest.main()
