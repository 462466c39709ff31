#!/usr/bin/env python3
"""Symbolizes a heap_profile dump and groups its stacks by the code that
asked for the memory.

    LD_PRELOAD=build/libheap_profile.so ./build/quickstart
    python3 tools/heap_profile.py heap_profile.<pid>.txt

The dump (written by tools/heap_profile.cc at exit) lists every stack
live at the heap's peak with its bytes and blocks; each frame is a module
and an offset. This script runs addr2line once per module with inlined
frames expanded, drops the profiler's own frames, and files each stack
under its first qanaat:: function, innermost first: the replica
structure that grew, whichever std:: container did the allocating. A
stack without a qanaat:: frame is filed under its first frame. It prints
every group, largest first.
"""

import argparse
import collections
import os
import signal
import subprocess
import sys

ET_EXEC = 2  # ELF type of a non-PIE executable: offsets need the base


def parse_dump(path):
    """Returns (header dict, stacks [(bytes, blocks, [(module, off)])],
    modules {id: (base, path)})."""
    header, stacks, modules = {}, [], {}
    with open(path) as f:
        for line in f:
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            if parts[0] == "stack":
                frames = []
                for tok in parts[3:]:
                    if tok == "?":
                        frames.append(None)
                        continue
                    mod, off = tok.split(":")
                    frames.append((int(mod), int(off, 16)))
                stacks.append((int(parts[1]), int(parts[2]), frames))
            elif parts[0] == "module":
                modules[int(parts[1])] = (int(parts[2], 16),
                                          line.split(None, 3)[3].rstrip("\n"))
            else:
                header[parts[0]] = int(parts[1])
    return header, stacks, modules


def elf_type(path):
    try:
        with open(path, "rb") as f:
            head = f.read(18)
    except OSError:
        return None
    if len(head) < 18 or head[:4] != b"\x7fELF":
        return None
    return int.from_bytes(head[16:18], "little")


def symbolize(modules, wanted):
    """Maps (module, offset) to its function names, innermost first. An
    offset addr2line does not resolve, in a module it cannot open
    included, is named by its module file and offset."""
    names = {}
    for mod, offsets in wanted.items():
        base, path = modules[mod]
        exec_base = base if elf_type(path) == ET_EXEC else 0
        offsets = sorted(offsets)
        for off in offsets:
            names[(mod, off)] = ["%s+0x%x" % (os.path.basename(path), off)]
        # Return addresses point past the call; step back into it.
        query = "\n".join(hex(exec_base + off - 1) for off in offsets)
        try:
            out = subprocess.run(
                ["addr2line", "-e", path, "-a", "-f", "-C", "-i"],
                input=query, capture_output=True, text=True,
                check=True).stdout.splitlines()
        except (OSError, subprocess.CalledProcessError):
            out = []
        # Output: an address line, then (function, file:line) per inline
        # level.
        groups, cur = [], None
        for i, line in enumerate(out):
            if line.startswith("0x") and (i == 0 or cur is None or
                                          len(cur) % 2 == 0):
                cur = []
                groups.append(cur)
            elif cur is not None:
                cur.append(line)
        for off, g in zip(offsets, groups):
            funcs = [fn for fn in g[0::2] if fn and fn != "??"]
            if funcs:
                names[(mod, off)] = funcs
    return names


def qualified_name(fn):
    """Drops return type, template arguments and parameters:
    'void std::deque<qanaat::X>::push_back(T&&)' -> 'std::deque::push_back'.
    """
    fn = fn.replace("(anonymous namespace)", "{anon}")
    out, depth = [], 0
    for ch in fn:
        if ch == "<":
            depth += 1
        elif ch == ">":
            depth = max(0, depth - 1)
        elif depth == 0:
            out.append(ch)
    head = "".join(out).split("(")[0].split()
    return head[-1] if head else fn


def group_stacks(stacks, modules):
    """Returns {group: [bytes, blocks]}, each stack filed under its first
    qanaat:: function (or its first frame if it has none)."""
    profiler = {m for m, (_, p) in modules.items()
                if os.path.basename(p).startswith("libheap_profile")}
    wanted = collections.defaultdict(set)
    for _, _, frames in stacks:
        for fr in frames:
            if fr is not None:
                wanted[fr[0]].add(fr[1])
    names = symbolize(modules, wanted)

    groups = collections.defaultdict(lambda: [0, 0])
    for nbytes, blocks, frames in stacks:
        funcs = []
        for fr in frames:
            if fr is None:
                continue
            if fr[0] in profiler and not funcs:
                continue  # operator new and the profiler itself
            funcs.extend(qualified_name(fn) for fn in names[fr])
        ours = [fn for fn in funcs if fn.startswith("qanaat::")]
        key = ours[0] if ours else (funcs[0] if funcs else "?")
        groups[key][0] += nbytes
        groups[key][1] += blocks
    return groups


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("dump")
    args = ap.parse_args()

    header, stacks, modules = parse_dump(args.dump)
    groups = group_stacks(stacks, modules)
    total = sum(g[0] for g in groups.values())
    print("peak live heap %.1f MB (snapshot %.1f MB, %d stacks, %d news)" %
          (header.get("peak_live_bytes", 0) / 1e6, total / 1e6,
           len(stacks), header.get("news", 0)))
    print("%9s %7s %10s  %s" % ("MB", "share", "blocks", "group"))
    for key, (nbytes, blocks) in sorted(groups.items(),
                                        key=lambda kv: -kv[1][0]):
        print("%9.2f %6.1f%% %10d  %s" % (nbytes / 1e6,
                                         100.0 * nbytes / max(total, 1),
                                         blocks, key))
    return 0


if __name__ == "__main__":
    # Output piped into head ends early; stop without a traceback.
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())
