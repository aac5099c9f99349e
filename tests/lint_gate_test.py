#!/usr/bin/env python3
"""Pins allocsim_lint's command-line contract: exit codes (0 = every input
clean, 1 = findings reported, 2 = usage or IO error) and the shape of the
allocsim-lint-v1 JSON report. CI and editor integrations match on rule ids,
file:line:column prefixes, and the schema string — changing any of those is
a breaking change this test is meant to catch.

Registered in tests/CMakeLists.txt with the allocsim_lint binary path as
argv[1] (a CMake generator expression); run through ctest.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

LINT_BIN = None  # set from argv[1] in __main__

CLEAN_SCRIPT = "m 1 100\nt 1 25 r\nm 2 64\nf 1\nt 2 4 w\nf 2\n"
DOUBLE_FREE_SCRIPT = "m 1 16\nf 1\nf 1\n"
LEAK_SCRIPT = "m 1 16\nm 2 32\nf 1\n"
USE_AFTER_FREE_SCRIPT = "m 1 16\nf 1\nt 1 2 w\n"


def run_lint(*args):
    proc = subprocess.run(
        [LINT_BIN, *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        check=False,
    )
    return proc.returncode, proc.stdout


class LintGateTestCase(unittest.TestCase):
    def setUp(self):
        self.tmpdir = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmpdir.cleanup)

    def script(self, name, text):
        path = os.path.join(self.tmpdir.name, name)
        with open(path, "w") as handle:
            handle.write(text)
        return path


class ExitCodeTest(LintGateTestCase):
    def test_clean_script_exits_zero(self):
        code, out = run_lint(self.script("ok.events", CLEAN_SCRIPT))
        self.assertEqual(code, 0, out)
        self.assertIn("clean", out)

    def test_findings_exit_one(self):
        code, out = run_lint(self.script("bad.events", DOUBLE_FREE_SCRIPT))
        self.assertEqual(code, 1, out)

    def test_warnings_alone_exit_one(self):
        code, out = run_lint(self.script("leak.events", LEAK_SCRIPT))
        self.assertEqual(code, 1, out)
        self.assertIn("trace-leak", out)

    def test_no_inputs_is_usage_error(self):
        code, _ = run_lint()
        self.assertEqual(code, 2)

    def test_unreadable_file_is_io_error(self):
        code, _ = run_lint(os.path.join(self.tmpdir.name, "absent.events"))
        self.assertEqual(code, 2)

    def test_mixed_inputs_exit_one_if_any_dirty(self):
        code, _ = run_lint(
            self.script("ok.events", CLEAN_SCRIPT),
            self.script("bad.events", DOUBLE_FREE_SCRIPT),
        )
        self.assertEqual(code, 1)


class DiagnosticFormatTest(LintGateTestCase):
    def test_double_free_rule_and_location(self):
        path = self.script("bad.events", DOUBLE_FREE_SCRIPT)
        code, out = run_lint(path)
        self.assertEqual(code, 1)
        self.assertIn("%s:3:1: error:" % path, out)
        self.assertIn("[trace-double-free]", out)

    def test_use_after_free_rule_and_location(self):
        path = self.script("uaf.events", USE_AFTER_FREE_SCRIPT)
        code, out = run_lint(path)
        self.assertEqual(code, 1)
        self.assertIn("%s:3:1: error:" % path, out)
        self.assertIn("[trace-touch-dead]", out)

    def test_leak_reported_at_malloc_line(self):
        path = self.script("leak.events", LEAK_SCRIPT)
        code, out = run_lint(path)
        self.assertEqual(code, 1)
        self.assertIn("%s:2:1: warning:" % path, out)
        self.assertIn("[trace-leak]", out)

    def test_matrix_spec_lint(self):
        code, out = run_lint(
            "--matrix", "workloads=gs;allocators=BSD;workloads=es"
        )
        self.assertEqual(code, 1)
        self.assertIn("[spec-duplicate-axis]", out)
        code, out = run_lint("--matrix", "workloads=gs;allocators=BSD")
        self.assertEqual(code, 0, out)

    def test_spec_that_would_fail_every_cell_lints_dirty(self):
        code, out = run_lint(
            "--matrix", "workloads=gs;allocators=BSD;caches=16,16"
        )
        self.assertEqual(code, 1, out)
        self.assertIn("--matrix:1:36: error:", out)
        self.assertIn("[spec-duplicate-cache]", out)
        code, out = run_lint(
            "--matrix",
            "workloads=gs;allocators=BSD;caches=16,32;engine=stackdist",
        )
        self.assertEqual(code, 1, out)
        self.assertIn("[spec-unknown-axis]", out)

    def test_bad_boolean_flag_is_a_usage_error(self):
        code, out = run_lint(
            "--json", "maybe", "--matrix", "workloads=gs;allocators=BSD"
        )
        self.assertEqual(code, 2, out)
        self.assertIn("error: flag --json expects a boolean, got 'maybe'", out)


class JsonReportTest(LintGateTestCase):
    def lint_json(self, *args):
        code, out = run_lint("--json=true", *args)
        return code, json.loads(out)

    def test_schema_and_totals(self):
        code, report = self.lint_json(
            self.script("ok.events", CLEAN_SCRIPT),
            self.script("bad.events", DOUBLE_FREE_SCRIPT),
        )
        self.assertEqual(code, 1)
        self.assertEqual(report["schema"], "allocsim-lint-v1")
        self.assertEqual(len(report["inputs"]), 2)
        self.assertEqual(report["errors"], 1)
        self.assertFalse(report["clean"])

    def test_diagnostic_object_shape(self):
        code, report = self.lint_json(
            self.script("bad.events", DOUBLE_FREE_SCRIPT)
        )
        self.assertEqual(code, 1)
        (entry,) = report["inputs"]
        self.assertEqual(entry["kind"], "trace")
        (diag,) = entry["diagnostics"]
        self.assertEqual(diag["rule"], "trace-double-free")
        self.assertEqual(diag["severity"], "error")
        self.assertEqual(diag["line"], 3)
        self.assertEqual(diag["column"], 1)
        self.assertIn("message", diag)
        self.assertNotIn("predictions", entry)

    def test_clean_trace_carries_predictions(self):
        code, report = self.lint_json(self.script("ok.events", CLEAN_SCRIPT))
        self.assertEqual(code, 0)
        (entry,) = report["inputs"]
        self.assertTrue(report["clean"])
        predictions = entry["predictions"]
        self.assertEqual(predictions["events"], 6)
        self.assertEqual(predictions["mallocs"], 2)
        self.assertEqual(predictions["frees"], 2)
        self.assertEqual(predictions["bytes_requested"], 164)
        self.assertEqual(predictions["max_live_bytes"], 164)
        self.assertEqual(predictions["final_live_bytes"], 0)
        self.assertEqual(predictions["max_live_objects"], 2)
        self.assertEqual(predictions["app_refs"], 29)
        self.assertEqual(predictions["request_bytes"]["count"], 2)
        self.assertEqual(predictions["obj_lifetime"]["count"], 2)

    def test_matrix_input_kind(self):
        code, report = self.lint_json("--matrix", "workloads=gs")
        self.assertEqual(code, 1)
        (entry,) = report["inputs"]
        self.assertEqual(entry["kind"], "matrix-spec")
        self.assertEqual(entry["name"], "--matrix")
        rules = {diag["rule"] for diag in entry["diagnostics"]}
        self.assertIn("spec-missing-allocators", rules)


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit("usage: lint_gate_test.py <path-to-allocsim_lint> [...]")
    LINT_BIN = sys.argv.pop(1)
    unittest.main(verbosity=2)
