#!/usr/bin/env python3
"""Meta-test for cat_lint: every check class must flag its seeded-violation
fixture AND stay quiet on the matching waived/compliant fixture.

A lint whose checks silently stop firing is worse than no lint — the tree
looks clean while the invariant rots. This suite is the detectability
proof, in the same spirit as the verification catalog's seeded-defect
tests: each fixture under tests/lint_fixtures/ carries exactly one known
violation (or its waived twin), and we assert the finding appears (or does
not) with the right check id.

Runs under ctest as `lint.meta`; needs only the Python interpreter.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LINT = os.path.join(HERE, "cat_lint.py")
FIXTURES = os.path.join(ROOT, "tests", "lint_fixtures")


def run_lint(*args):
    proc = subprocess.run(
        [sys.executable, LINT, "--root", ROOT, *args],
        capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


def fixture(name):
    return os.path.join(FIXTURES, name)


class CheckFiresOnSeededViolation(unittest.TestCase):
    """Each check must flag its violation fixture with its own id."""

    def assert_flags(self, output_check, *args):
        code, out = run_lint(*args)
        self.assertEqual(code, 1, f"expected findings, got:\n{out}")
        self.assertIn(f"[{output_check}]", out)

    def test_convergence_loop(self):
        self.assert_flags("convergence-loop", "--check", "convergence-loop",
                          fixture("convergence_loop_violation.cpp"))

    def test_convergence_loop_throw_in_next_function(self):
        # The post-loop throw window ends with the enclosing block.
        self.assert_flags("convergence-loop", "--check", "convergence-loop",
                          fixture("convergence_loop_next_function_throw.cpp"))

    def test_hot_path_alloc(self):
        f = fixture("hot_path_alloc_violation.cpp")
        self.assert_flags("hot-path-alloc", "--check", "hot-path-alloc",
                          "--alloc-free-tu", f, f)

    def test_catch_all(self):
        self.assert_flags("catch-all", "--check", "catch-all",
                          fixture("catch_all_violation.cpp"))

    def test_unit_suffix(self):
        f = fixture("unit_suffix_violation.hpp")
        self.assert_flags("unit-suffix", "--check", "unit-suffix",
                          "--unit-suffix-file", f, f)
        # The violation must name the offending field, not a neighbour.
        _, out = run_lint("--check", "unit-suffix",
                          "--unit-suffix-file", f, f)
        self.assertIn("wall_temperature", out)
        self.assertNotIn("nose_radius_m'", out)

    def test_format(self):
        code, out = run_lint("--format-only",
                             fixture("format_violation.cpp"))
        self.assertEqual(code, 1, out)
        self.assertIn("trailing whitespace", out)
        self.assertIn("tab in indentation", out)
        self.assertIn("missing newline at end of file", out)

    def test_unknown_waiver_token(self):
        self.assert_flags("waiver", "--check", "waiver",
                          fixture("waiver_violation.cpp"))

    def test_untrusted_input(self):
        f = fixture("untrusted_input_violation.cpp")
        self.assert_flags("untrusted-input", "--check", "untrusted-input",
                          "--parsing-tu", f, f)
        # All four seeded constructs must be flagged individually.
        _, out = run_lint("--check", "untrusted-input", "--parsing-tu", f, f)
        self.assertIn("std::stoi", out)
        self.assertIn("atof", out)
        self.assertIn("strtoul", out)
        self.assertIn("wire count", out)
        self.assertIn("reinterpret_cast", out)

    def test_untrusted_input_raw_parse_fires_outside_parsing_tus(self):
        # sto*/ato*/strto* and wire-count allocations are global; only the
        # reinterpret_cast leg is scoped to the parsing-TU list.
        f = fixture("untrusted_input_violation.cpp")
        code, out = run_lint("--check", "untrusted-input",
                             "--parsing-tu", fixture("catch_all_violation.cpp"),
                             f)
        self.assertEqual(code, 1, out)
        self.assertIn("std::stoi", out)
        self.assertIn("wire count", out)
        self.assertNotIn("reinterpret_cast", out)


class CheckRespectsWaiversAndCompliantCode(unittest.TestCase):
    """The waived/compliant twin of each fixture must lint clean."""

    def assert_clean(self, *args):
        code, out = run_lint(*args)
        self.assertEqual(code, 0, f"expected clean, got:\n{out}")

    def test_convergence_loop_waived(self):
        self.assert_clean("--check", "convergence-loop,waiver",
                          fixture("convergence_loop_waived.cpp"))

    def test_convergence_loop_resolved_by_throw(self):
        self.assert_clean("--check", "convergence-loop",
                          fixture("convergence_loop_throws.cpp"))

    def test_hot_path_alloc_waived(self):
        f = fixture("hot_path_alloc_waived.cpp")
        self.assert_clean("--check", "hot-path-alloc,waiver",
                          "--alloc-free-tu", f, f)

    def test_catch_all_compliant(self):
        self.assert_clean("--check", "catch-all,waiver",
                          fixture("catch_all_compliant.cpp"))

    def test_unit_suffix_waived(self):
        f = fixture("unit_suffix_waived.hpp")
        self.assert_clean("--check", "unit-suffix,waiver",
                          "--unit-suffix-file", f, f)

    def test_untrusted_input_waived(self):
        f = fixture("untrusted_input_waived.cpp")
        self.assert_clean("--check", "untrusted-input,waiver",
                          "--parsing-tu", f, f)

    def test_alloc_free_tu_not_flagged_when_out_of_scope(self):
        # The same allocating file is fine when it is NOT declared an
        # allocation-free TU: the check is scoped, not global.
        f = fixture("hot_path_alloc_violation.cpp")
        self.assert_clean("--check", "hot-path-alloc",
                          "--alloc-free-tu", fixture("catch_all_violation.cpp"),
                          f)


class FixFormatRoundTrip(unittest.TestCase):
    def test_fix_format_repairs_the_fixture_copy(self):
        with tempfile.TemporaryDirectory() as tmp:
            dst = os.path.join(tmp, "format_violation.cpp")
            shutil.copy(fixture("format_violation.cpp"), dst)
            code, out = run_lint("--fix-format", dst)
            self.assertEqual(code, 0, out)
            code, out = run_lint("--format-only", dst)
            self.assertEqual(code, 0,
                             f"file still dirty after --fix-format:\n{out}")
            with open(dst) as f:
                text = f.read()
            self.assertIn("return 42;", text)  # content preserved
            self.assertTrue(text.endswith("\n"))

    def test_fix_format_is_idempotent_on_clean_input(self):
        with tempfile.TemporaryDirectory() as tmp:
            dst = os.path.join(tmp, "clean.cpp")
            original = "int main() {\n  return 0;\n}\n"
            with open(dst, "w") as f:
                f.write(original)
            run_lint("--fix-format", dst)
            with open(dst) as f:
                self.assertEqual(f.read(), original)


class TreeIsClean(unittest.TestCase):
    """The real tree must lint clean — the gate the CI job enforces."""

    def test_default_scope_lints_clean(self):
        code, out = run_lint()
        self.assertEqual(code, 0, f"tree has lint findings:\n{out}")


if __name__ == "__main__":
    unittest.main(verbosity=2)
