#!/usr/bin/env python3
"""Self-tests for tools/pimtc_lint.py (stdlib unittest; registered in ctest
as `pimtc_lint_selftest`).

Each rule is exercised both ways: a seeded violation must fire, the
idiomatic alternative must not, and a justified waiver must silence it.
The last test runs the real linter over the real tree — the repo itself
must stay clean.
"""

import pathlib
import sys
import tempfile
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import pimtc_lint  # noqa: E402


def lint_source(text: str, rel: str = "src/serve/foo.cpp"):
    """Lints one in-memory file; returns the fired rule names."""
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "file.cpp"
        path.write_text(text)
        return [rule for _, _, rule, _ in pimtc_lint.lint_file(path, rel)]


class DeterminismRule(unittest.TestCase):
    def test_raw_thread_fires(self):
        self.assertIn("determinism",
                      lint_source("std::thread t([] {});\n"))

    def test_detach_fires(self):
        self.assertIn("determinism", lint_source("worker.detach();\n"))

    def test_rand_and_time_fire(self):
        self.assertIn("determinism", lint_source("int x = rand();\n"))
        self.assertIn("determinism", lint_source("auto t = time(nullptr);\n"))
        self.assertIn("determinism", lint_source("std::random_device rd;\n"))

    def test_wrappers_and_lookalikes_clean(self):
        self.assertEqual([], lint_source("pool.submit(task);\n"))
        self.assertEqual([], lint_source("double runtime(int n);\n"))
        self.assertEqual([], lint_source("SplitMix64 prng(seed);\n"))

    def test_thread_pool_implementation_is_exempt(self):
        self.assertEqual([], lint_source("std::thread worker;\n",
                                         rel="src/common/thread_pool.hpp"))

    def test_comments_and_strings_ignored(self):
        self.assertEqual([], lint_source("// std::thread is banned here\n"))
        self.assertEqual(
            [], lint_source('const char* m = "no std::thread";\n'))


class NoStdoutRule(unittest.TestCase):
    def test_cout_and_printf_fire(self):
        self.assertIn("no-stdout", lint_source('std::cout << "hi";\n'))
        self.assertIn("no-stdout", lint_source('printf("%d", x);\n'))
        self.assertIn("no-stdout", lint_source('std::printf("%d", x);\n'))

    def test_fprintf_snprintf_clean(self):
        self.assertEqual([], lint_source('fprintf(stderr, "%d", x);\n'))
        self.assertEqual([], lint_source("std::snprintf(b, n, \"%x\", f);\n"))


class NamedPhaseRule(unittest.TestCase):
    def test_nullptr_phase_fires_in_pim(self):
        src = "sys.charge_host(0.5, nullptr);\n"
        self.assertIn("named-phase", lint_source(src, rel="src/pim/dpu.cpp"))

    def test_named_phase_clean(self):
        src = "sys.charge_host(0.5, &PimPhaseTimes::kernel);\n"
        self.assertEqual([], lint_source(src, rel="src/pim/dpu.cpp"))

    def test_rule_scoped_to_pim(self):
        src = "sys.charge_host(0.5, nullptr);\n"
        self.assertEqual([], lint_source(src, rel="src/engine/foo.cpp"))


class MemoryBudgetRule(unittest.TestCase):
    def test_budget_literals_fire(self):
        self.assertIn("memory-budget",
                      lint_source("auto m = 64ull << 20;\n"))
        self.assertIn("memory-budget", lint_source("auto w = 64u << 10;\n"))
        self.assertIn("memory-budget", lint_source("auto i = 24u << 10;\n"))
        self.assertIn("memory-budget", lint_source("auto m = 67108864;\n"))

    def test_config_hpp_is_exempt(self):
        self.assertEqual([], lint_source("std::uint64_t mram = 64ull << 20;\n",
                                         rel="src/pim/config.hpp"))

    def test_other_shifts_clean(self):
        self.assertEqual([], lint_source("auto chunk = 1u << 20;\n"))
        self.assertEqual([], lint_source("auto block = 32u << 10;\n"))


class ExactReserveRule(unittest.TestCase):
    def test_size_plus_batch_fires(self):
        self.assertIn("exact-reserve", lint_source(
            "edges_.reserve(edges_.size() + batch.size());\n"))
        self.assertIn("exact-reserve", lint_source(
            "out->reserve(self.items.size() + 1);\n"))
        self.assertIn("exact-reserve", lint_source(
            "reserve( size ( ) + extra);\n"))

    def test_final_size_reserves_clean(self):
        self.assertEqual([], lint_source("v.reserve(batch.size());\n"))
        self.assertEqual([], lint_source("v.reserve(n * 2);\n"))
        self.assertEqual([], lint_source("v.reserve(kFlush + 64);\n"))
        self.assertEqual([], lint_source(
            "v.reserve(2 * (a.size() + b.size()));\n"))

    def test_justified_waiver_silences(self):
        src = ("v.reserve(v.size() + n);  // pimtc-lint: allow(exact-reserve)"
               " -- called once, right before a single bulk append\n")
        self.assertEqual([], lint_source(src))


class OneEdgeSetRule(unittest.TestCase):
    def test_edge_and_key_sets_fire(self):
        self.assertIn("one-edge-set", lint_source(
            "std::unordered_set<Edge> seen;\n"))
        self.assertIn("one-edge-set", lint_source(
            "std::unordered_set<pimtc::Edge> seen;\n"))
        self.assertIn("one-edge-set", lint_source(
            "std::unordered_set<std::uint64_t> live_;\n"))
        self.assertIn("one-edge-set", lint_source(
            "unordered_set< uint64_t > keys;\n"))

    def test_flat_set_and_other_sets_clean(self):
        self.assertEqual([], lint_source("EdgeKeySet seen;\n"))
        self.assertEqual([], lint_source(
            "std::unordered_set<NodeId> targets;\n"))
        self.assertEqual([], lint_source(
            "std::unordered_set<std::uint32_t> ids;\n"))
        self.assertEqual([], lint_source(
            "std::unordered_map<std::uint64_t, int> counts;\n"))

    def test_justified_waiver_silences(self):
        src = ("std::unordered_set<Edge> seen;  // pimtc-lint: "
               "allow(one-edge-set) -- differential oracle of the flat set\n")
        self.assertEqual([], lint_source(src))


class Waivers(unittest.TestCase):
    VIOLATION = "std::thread t([] {});\n"

    def test_same_line_waiver(self):
        src = ("std::thread t([] {});  "
               "// pimtc-lint: allow(determinism) -- test fixture thread\n")
        self.assertEqual([], lint_source(src))

    def test_previous_line_waiver(self):
        src = ("// pimtc-lint: allow(determinism) -- test fixture thread\n" +
               self.VIOLATION)
        self.assertEqual([], lint_source(src))

    def test_waiver_requires_justification(self):
        src = "// pimtc-lint: allow(determinism)\n" + self.VIOLATION
        self.assertEqual(["determinism"], lint_source(src))

    def test_waiver_is_rule_specific(self):
        src = ("// pimtc-lint: allow(no-stdout) -- wrong rule named\n" +
               self.VIOLATION)
        self.assertEqual(["determinism"], lint_source(src))

    def test_waiver_covers_multiple_rules(self):
        src = ("// pimtc-lint: allow(determinism, no-stdout) -- fixture\n"
               'std::thread t; std::cout << "x";\n')
        self.assertEqual([], lint_source(src))


class WholeTree(unittest.TestCase):
    def test_repo_is_clean(self):
        root = pathlib.Path(__file__).resolve().parent.parent
        findings = pimtc_lint.lint_tree(root)
        self.assertEqual(
            [], findings,
            "\n".join(f"{f}:{l}: [{r}] {m}" for f, l, r, m in findings))


if __name__ == "__main__":
    unittest.main()
