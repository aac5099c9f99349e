#!/usr/bin/env python3
"""Pins allocsim_trace_tool's output on a small captured trace.

tests/golden/trace_tool/espresso.trace is the complete binary reference
trace of espresso under GnuLocal at scale 32000 (live-heap clamp off, seed
0x5EEDBA5E): 20,621 references, long enough to cross one of the reader's
64 KiB chunks. `stats` and `sim` must print the committed text byte for
byte, `dump` must print the text whose SHA-256 is pinned below, `pack` must
turn that text back into the same binary bytes, and malformed traces must
die with the reader's fatal messages.

Registered in tests/CMakeLists.txt with the allocsim_trace_tool binary
path as argv[1] (a CMake generator expression); run through ctest.
"""

import hashlib
import os
import subprocess
import sys
import tempfile
import unittest

TOOL = None  # set from argv[1] in __main__

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                      "trace_tool")
TRACE = os.path.join(GOLDEN, "espresso.trace")
REFS = 20621
DUMP_SHA256 = (
    "e6ec38f6c802f296a061b716a8647086b507227fa7d52e948c6fce544f0fd1ea")
RECORD_BYTES = 6
MAGIC_BYTES = 4


def run_tool(*args):
    proc = subprocess.run([TOOL, *args], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, check=False)
    return proc.returncode, proc.stdout, proc.stderr.decode()


def golden(name):
    with open(os.path.join(GOLDEN, name), "rb") as handle:
        return handle.read()


class TraceToolTestCase(unittest.TestCase):
    def setUp(self):
        self.tmpdir = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmpdir.cleanup)

    def path(self, name):
        return os.path.join(self.tmpdir.name, name)

    def write(self, name, data):
        with open(self.path(name), "wb") as handle:
            handle.write(data)
        return self.path(name)


class OutputTest(TraceToolTestCase):
    def test_stats(self):
        code, out, err = run_tool("stats", TRACE)
        self.assertEqual(code, 0, err)
        self.assertEqual(out, golden("stats.txt"))

    def test_sim_default_caches(self):
        code, out, err = run_tool("sim", TRACE)
        self.assertEqual(code, 0, err)
        self.assertEqual(out, golden("sim.txt"))

    def test_sim_listed_caches(self):
        code, out, err = run_tool("sim", TRACE, "1", "4", "16")
        self.assertEqual(code, 0, err)
        self.assertEqual(out, golden("sim_1_4_16.txt"))

    def test_dump_then_pack_round_trips(self):
        code, dump, err = run_tool("dump", TRACE)
        self.assertEqual(code, 0, err)
        self.assertEqual(dump.count(b"\n"), REFS)
        self.assertEqual(hashlib.sha256(dump).hexdigest(), DUMP_SHA256)
        text = self.write("espresso.txt", dump)
        packed = self.path("espresso.packed")
        code, out, err = run_tool("pack", text, packed)
        self.assertEqual(code, 0, err)
        self.assertEqual(out, b"")
        self.assertEqual(err, f"packed {REFS} records\n")
        with open(packed, "rb") as handle:
            self.assertEqual(handle.read(), golden("espresso.trace"))


class MalformedTraceTest(TraceToolTestCase):
    def assert_dies(self, trace, message):
        for command in ("stats", "dump", "sim"):
            code, _, err = run_tool(command, trace)
            self.assertNotEqual(code, 0, command)
            self.assertIn("allocsim fatal error: " + message, err, command)

    def test_bad_magic(self):
        self.assert_dies(self.write("bad.trace", b"XXXX" + golden(
            "espresso.trace")[MAGIC_BYTES:]), "binary trace: bad or missing magic")

    def test_truncated_record_past_the_first_chunk(self):
        data = golden("espresso.trace")[:MAGIC_BYTES + 11666 * RECORD_BYTES + 3]
        self.assert_dies(self.write("short.trace", data),
                         "binary trace: truncated record")

    def test_corrupt_kind_source_byte(self):
        data = bytearray(golden("espresso.trace"))
        data[MAGIC_BYTES + 15000 * RECORD_BYTES + 5] = 0x3F
        self.assert_dies(self.write("corrupt.trace", bytes(data)),
                         "binary trace: corrupt kind/source byte")


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit("usage: trace_tool_test.py <allocsim_trace_tool> [unittest args]")
    TOOL = sys.argv.pop(1)
    unittest.main()
