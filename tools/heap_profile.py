#!/usr/bin/env python3
"""Symbolizes a heap_profile dump and groups its stacks by the code that
asked for the memory.

    LD_PRELOAD=build/libheap_profile.so ./build/quickstart
    python3 tools/heap_profile.py heap_profile.<pid>.txt
    python3 tools/heap_profile.py --detail GROUP heap_profile.<pid>.txt

The dump (written by tools/heap_profile.cc at exit) lists every stack
live at the heap's peak with its bytes and blocks; each frame is a module
and an offset. This script runs addr2line once per module with inlined
frames expanded, drops the profiler's own frames, and files each stack
under its first qanaat:: function, innermost first: the replica
structure that grew, whichever std:: container did the allocating. A
stack without a qanaat:: frame is filed under its first frame. It prints
every group, largest first.

--detail GROUP prints one group split by call context instead: the
frame just inside the one the group is named after (the container or
helper that allocated) and the frame just outside it (the caller), each
context largest first. A group that holds too much names its function;
its contexts name the structure. Repeat --detail for several groups.

    python3 tools/heap_profile.py --diff BEFORE AFTER

compares two dumps instead, say of a change and of its parent: a
Markdown table of each group's MB in BEFORE and in AFTER and the change,
largest change first.
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
        kind = elf_type(path)
        exec_base = base if kind == ET_EXEC else 0
        offsets = sorted(offsets)
        for off in offsets:
            names[(mod, off)] = ["%s+0x%x" % (os.path.basename(path), off)]
        if kind is None:
            # Not a readable ELF file: addr2line would exit before reading
            # its input, and the write would raise SIGPIPE, which main
            # leaves fatal.
            continue
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


def filed_stacks(stacks, modules):
    """Returns [(bytes, blocks, funcs, at)]: each stack's function names,
    innermost first without the profiler's own frames, and the index in
    funcs of the frame the stack is filed under, its first qanaat::
    function or else its first frame (None when it has no frame)."""
    profiler = {m for m, (_, p) in modules.items()
                if os.path.basename(p).startswith("libheap_profile")}
    wanted = collections.defaultdict(set)
    for _, _, frames in stacks:
        for fr in frames:
            if fr is not None:
                wanted[fr[0]].add(fr[1])
    names = symbolize(modules, wanted)

    filed = []
    for nbytes, blocks, frames in stacks:
        funcs = []
        for fr in frames:
            if fr is None:
                continue
            if fr[0] in profiler and not funcs:
                continue  # operator new and the profiler itself
            funcs.extend(qualified_name(fn) for fn in names[fr])
        at = next((i for i, fn in enumerate(funcs)
                   if fn.startswith("qanaat::")), 0 if funcs else None)
        filed.append((nbytes, blocks, funcs, at))
    return filed


def group_stacks(stacks, modules):
    """Returns {group: [bytes, blocks]}, each stack filed under its first
    qanaat:: function (or its first frame if it has none)."""
    groups = collections.defaultdict(lambda: [0, 0])
    for nbytes, blocks, funcs, at in filed_stacks(stacks, modules):
        key = funcs[at] if at is not None else "?"
        groups[key][0] += nbytes
        groups[key][1] += blocks
    return groups


def group_detail(filed, group):
    """Returns {(inside, outside): [bytes, blocks]} over the stacks of
    `filed` (from filed_stacks) filed under `group`: the frames just
    inside and just outside the one it is named after, "-" where the
    stack has none."""
    contexts = collections.defaultdict(lambda: [0, 0])
    for nbytes, blocks, funcs, at in filed:
        if at is None or funcs[at] != group:
            continue
        inside = funcs[at - 1] if at > 0 else "-"
        outside = funcs[at + 1] if at + 1 < len(funcs) else "-"
        contexts[(inside, outside)][0] += nbytes
        contexts[(inside, outside)][1] += blocks
    return contexts


def print_rows(rows, total, column):
    """Prints (label, [bytes, blocks]) rows largest first, with each one's
    share of `total` bytes, under a header naming the label `column`."""
    print("%9s %7s %10s  %s" % ("MB", "share", "blocks", column))
    for label, (nbytes, blocks) in sorted(rows, key=lambda kv: -kv[1][0]):
        print("%9.2f %6.1f%% %10d  %s" % (nbytes / 1e6,
                                         100.0 * nbytes / max(total, 1),
                                         blocks, label))


def diff_groups(before, after):
    """Returns [(group, bytes before, bytes after)] over the groups of
    either {group: [bytes, blocks]} map, largest change first."""
    rows = [(g, before.get(g, [0, 0])[0], after.get(g, [0, 0])[0])
            for g in set(before) | set(after)]
    rows.sort(key=lambda r: (-abs(r[2] - r[1]), r[0]))
    return rows


def print_diff(before_path, after_path):
    sides = []
    for path in (before_path, after_path):
        header, stacks, modules = parse_dump(path)
        sides.append((header.get("peak_live_bytes", 0),
                      group_stacks(stacks, modules)))
    print("peak live heap %.1f MB -> %.1f MB" %
          (sides[0][0] / 1e6, sides[1][0] / 1e6))
    print("| group | before (MB) | after (MB) | change (MB) |")
    print("|---|---:|---:|---:|")
    for group, before, after in diff_groups(sides[0][1], sides[1][1]):
        print("| `%s` | %.2f | %.2f | %+.2f |" %
              (group, before / 1e6, after / 1e6, (after - before) / 1e6))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("dump", nargs="?")
    ap.add_argument("--detail", metavar="GROUP", action="append",
                    help="split GROUP by the frames around its own "
                    "(repeatable; the dump is symbolized once)")
    ap.add_argument("--diff", nargs=2, metavar=("BEFORE", "AFTER"),
                    help="compare two dumps group by group")
    args = ap.parse_args()
    if args.diff:
        print_diff(*args.diff)
        return 0
    if args.dump is None:
        ap.error("a dump, or --diff BEFORE AFTER, is required")

    header, stacks, modules = parse_dump(args.dump)
    if args.detail:
        filed = filed_stacks(stacks, modules)
        for i, group in enumerate(args.detail):
            contexts = group_detail(filed, group)
            if not contexts:
                print("no stack is filed under %s" % group, file=sys.stderr)
                return 1
            total = sum(c[0] for c in contexts.values())
            print("%s%s: %.2f MB in %d blocks" %
                  ("\n" if i else "", group, total / 1e6,
                   sum(c[1] for c in contexts.values())))
            print_rows((("%s / %s" % key, c) for key, c in contexts.items()),
                       total, "inside / outside")
        return 0
    groups = group_stacks(stacks, modules)
    total = sum(g[0] for g in groups.values())
    print("peak live heap %.1f MB (snapshot %.1f MB, %d stacks, %d news)" %
          (header.get("peak_live_bytes", 0) / 1e6, total / 1e6,
           len(stacks), header.get("news", 0)))
    print_rows(groups.items(), total, "group")
    return 0


if __name__ == "__main__":
    # Output piped into head ends early; stop without a traceback.
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())
