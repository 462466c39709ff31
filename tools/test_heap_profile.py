#!/usr/bin/env python3
"""Smoke test for the heap profiler (tools/heap_profile.cc and .py).

    python3 tools/test_heap_profile.py build/libheap_profile.so build/quickstart

Preloads the profiler into a small binary, symbolizes the dump and checks
that the ledger's entry storage (DagLedger::AppendFor) and the
multi-versioned stores (MvStore::Put) are live at the heap's peak, and
that the dedup windows (RequestTable), which hold only uncommitted
requests, take at most 2% of it. The other cases, on synthetic dumps,
need neither argument's file.
"""

import glob
import os
import subprocess
import sys
import tempfile
import unittest
from unittest import mock

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


class DetailTest(unittest.TestCase):
    # One module whose offsets symbolize to these functions, innermost
    # first (0x30 has an inlined frame).
    NAMES = {
        0x10: ["std::vector<int, std::allocator<int> >::"
               "_M_realloc_insert<int>(int&&)"],
        0x20: ["qanaat::OrderingNode::RetireFinished()"],
        0x30: ["qanaat::OrderingNode::HandleTimer(unsigned long, "
               "unsigned long)",
               "qanaat::OrderingNode::OnTimer(unsigned long, unsigned long)"],
        0x40: ["qanaat::OrderingNode::OnMessage(unsigned int, "
               "std::shared_ptr<qanaat::Message const> const&)"],
        0x50: ["std::_Hashtable<int, int>::_M_insert_unique_node(int)"],
    }

    def dump(self, d):
        path = os.path.join(d, "heap_profile.1.txt")
        with open(path, "w") as f:
            f.write("# heap_profile v1\n"
                    "peak_live_bytes 720\n"
                    "stack 300 3 0:10 0:20 0:40\n"
                    "stack 200 2 0:10 0:20 0:30\n"
                    "stack 100 1 0:50 0:20 0:40\n"
                    "stack 70 1 0:20\n"
                    "stack 50 1 0:10 0:40\n"
                    "module 0 0 %s\n" % os.path.join(d, "qbench"))
        return path

    def test_group_splits_by_the_frames_around_its_own(self):
        with tempfile.TemporaryDirectory() as d:
            _, stacks, modules = heap_profile.parse_dump(self.dump(d))
        names = {(0, off): fns for off, fns in self.NAMES.items()}
        with mock.patch.object(heap_profile, "symbolize",
                               lambda modules, wanted: names):
            filed = heap_profile.filed_stacks(stacks, modules)
        detail = heap_profile.group_detail(
            filed, "qanaat::OrderingNode::RetireFinished")
        self.assertEqual(dict(detail), {
            ("std::vector::_M_realloc_insert",
             "qanaat::OrderingNode::OnMessage"): [300, 3],
            ("std::vector::_M_realloc_insert",
             "qanaat::OrderingNode::HandleTimer"): [200, 2],
            ("std::_Hashtable::_M_insert_unique_node",
             "qanaat::OrderingNode::OnMessage"): [100, 1],
            ("-", "-"): [70, 1],
        })

    def test_command_line_prints_a_group_largest_context_first(self):
        # Unresolved frames are named by file and offset, and a stack
        # without a qanaat:: frame is filed under its first: the three
        # filed under 0x10 split by the frame outside it.
        with tempfile.TemporaryDirectory() as d:
            run = subprocess.run(
                [sys.executable, os.path.join(HERE, "heap_profile.py"),
                 "--detail", "qbench+0x10", self.dump(d)],
                capture_output=True, text=True, check=True)
            missing = subprocess.run(
                [sys.executable, os.path.join(HERE, "heap_profile.py"),
                 "--detail", "qanaat::Nothing", self.dump(d)],
                capture_output=True, text=True)
        lines = run.stdout.splitlines()
        self.assertEqual(lines[0], "qbench+0x10: 0.00 MB in 6 blocks")
        self.assertEqual([line.split(None, 3)[3] for line in lines[2:]],
                         ["- / qbench+0x20", "- / qbench+0x40"])
        self.assertNotEqual(missing.returncode, 0)


class DiffTest(unittest.TestCase):
    def dump(self, d, name, peak, stacks):
        path = os.path.join(d, name)
        with open(path, "w") as f:
            f.write("# heap_profile v1\npeak_live_bytes %d\n" % peak)
            for nbytes, off in stacks:
                f.write("stack %d 1 0:%x\n" % (nbytes, off))
            f.write("module 0 0 %s\n" % os.path.join(d, "qbench"))
        return path

    def test_groups_are_listed_largest_change_first(self):
        # 0x10 shrinks by 3 MB, 0x20 is gone (2 MB), 0x30 is new (1 MB)
        # and 0x40 does not change; unresolved frames name the groups.
        with tempfile.TemporaryDirectory() as d:
            before = self.dump(d, "before.txt", 9000000,
                               [(5000000, 0x10), (2000000, 0x20),
                                (2000000, 0x40)])
            after = self.dump(d, "after.txt", 5000000,
                              [(2000000, 0x10), (1000000, 0x30),
                               (2000000, 0x40)])
            run = subprocess.run(
                [sys.executable, os.path.join(HERE, "heap_profile.py"),
                 "--diff", before, after],
                capture_output=True, text=True, check=True)
        lines = run.stdout.splitlines()
        self.assertEqual(lines[0], "peak live heap 9.0 MB -> 5.0 MB")
        self.assertEqual(lines[3:], [
            "| `qbench+0x10` | 5.00 | 2.00 | -3.00 |",
            "| `qbench+0x20` | 2.00 | 0.00 | -2.00 |",
            "| `qbench+0x30` | 0.00 | 1.00 | +1.00 |",
            "| `qbench+0x40` | 2.00 | 2.00 | +0.00 |",
        ])


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
        windows = sum(mb for key, (mb, _) in groups.items()
                      if key.startswith("qanaat::RequestTable::"))
        total = sum(mb for mb, _ in groups.values())
        self.assertLessEqual(windows, 0.02 * total,
                             "dedup windows hold %.2f of %.2f MB" %
                             (windows, total))


if __name__ == "__main__":
    if len(sys.argv) < 3:
        sys.exit(__doc__)
    LIB = os.path.abspath(sys.argv[1])
    BINARY = os.path.abspath(sys.argv[2])
    unittest.main(argv=sys.argv[:1])
