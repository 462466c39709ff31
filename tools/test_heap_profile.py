#!/usr/bin/env python3
"""Smoke test for the heap profiler (tools/heap_profile.cc and .py).

    python3 tools/test_heap_profile.py build/libheap_profile.so build/quickstart

Preloads the profiler into a small binary, symbolizes the dump and checks
that the ledger's entry storage (DagLedger::AppendFor) and the
multi-versioned stores (MvStore::Put) are live at the heap's peak. The
other cases need neither argument's file.
"""

import glob
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import heap_profile  # noqa: E402

LIB = None
BINARY = None


class QualifiedNameTest(unittest.TestCase):
    def test_strips_return_type_templates_and_parameters(self):
        self.assertEqual(
            heap_profile.qualified_name(
                "void std::deque<qanaat::DagLedger::Entry, "
                "std::allocator<qanaat::DagLedger::Entry> >::"
                "_M_push_back_aux<qanaat::DagLedger::Entry>"
                "(qanaat::DagLedger::Entry&&)"),
            "std::deque::_M_push_back_aux")
        self.assertEqual(
            heap_profile.qualified_name(
                "qanaat::MvStore::Put(unsigned long, long, unsigned long)"),
            "qanaat::MvStore::Put")
        self.assertEqual(
            heap_profile.qualified_name(
                "qanaat::(anonymous namespace)::Grow(int)"),
            "qanaat::{anon}::Grow")


class UnresolvedModuleTest(unittest.TestCase):
    def test_missing_module_is_named_by_file_and_offset(self):
        # A module file addr2line cannot open, such as a binary deleted
        # since the run, still names its frames.
        with tempfile.TemporaryDirectory() as d:
            dump = os.path.join(d, "heap_profile.1.txt")
            with open(dump, "w") as f:
                f.write("# heap_profile v1\n"
                        "peak_live_bytes 300\n"
                        "stack 200 2 0:1a2b 0:40 ?\n"
                        "stack 100 1 ? 0:40\n"
                        "module 0 0 %s\n" % os.path.join(d, "qbench"))
            _, stacks, modules = heap_profile.parse_dump(dump)
        groups = heap_profile.group_stacks(stacks, modules)
        self.assertEqual(dict(groups), {"qbench+0x1a2b": [200, 2],
                                        "qbench+0x40": [100, 1]})


class ProfileRunTest(unittest.TestCase):
    def test_known_sites_are_live_at_peak(self):
        with tempfile.TemporaryDirectory() as d:
            env = dict(os.environ, LD_PRELOAD=LIB)
            run = subprocess.run([BINARY], cwd=d, env=env,
                                 stdout=subprocess.DEVNULL)
            self.assertEqual(run.returncode, 0)
            dumps = glob.glob(os.path.join(d, "heap_profile.*.txt"))
            self.assertEqual(len(dumps), 1, dumps)
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "heap_profile.py"),
                 dumps[0]],
                capture_output=True, text=True, check=True).stdout
        print(out)
        groups = {}
        for line in out.splitlines()[2:]:
            mb, _, blocks, key = line.split(None, 3)
            groups[key] = (float(mb), int(blocks))
        for site in ("qanaat::DagLedger::AppendFor", "qanaat::MvStore::Put"):
            self.assertIn(site, groups)
            self.assertGreater(groups[site][1], 0, site)


if __name__ == "__main__":
    if len(sys.argv) < 3:
        sys.exit(__doc__)
    LIB = os.path.abspath(sys.argv[1])
    BINARY = os.path.abspath(sys.argv[2])
    unittest.main(argv=sys.argv[:1])
