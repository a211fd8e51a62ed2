#!/usr/bin/env python3
"""Symbolize a ci/wallprof.c capture: self and inclusive shares, callers-of.

    python3 ci/wallprof.py PROF_OUT [--top N] [--callers SUBSTRING]
                                    [--owners A,B,... [--scale X]]

--top 0 prints every row. The header gives the share of one-frame stacks
per image: samples whose walk stopped inside code without frame pointers.
--owners prints one more table: each sample goes to the first owner of the
list (a symbol substring) that any frame of its stack contains, or to
"other"; --scale X also prints each share times X (for an allocation
capture, pass the benchmark's allocs_per_fault to read allocations per
fault).
"""
import argparse, bisect, collections, os, subprocess


def symbols(path, dynamic):
    """Sorted (address, name) pairs of `path`'s defined symbols, via nm."""
    cmd = ["nm", "-C", "-n", "--defined-only"] + (["-D"] if dynamic else []) + [path]
    out = subprocess.run(cmd, capture_output=True, text=True).stdout
    syms = []
    for line in out.splitlines():
        addr, kind, name = (line.split(" ", 2) + ["", ""])[:3]
        if kind in tuple("TtWwiV") and name:
            syms.append((int(addr, 16), name))
    return syms


class Images:
    """The executable mappings of the capture, each with its symbol table."""

    def __init__(self, maps):
        self.spans, self.tables, base = [], {}, {}
        for line in maps:
            f = line.split()
            if len(f) < 6 or not f[5].startswith("/"):
                continue
            lo, hi = (int(x, 16) for x in f[0].split("-"))
            base.setdefault(f[5], lo)  # the lowest mapping is the load base
            if "x" in f[1]:
                self.spans.append((lo, hi, f[5], base[f[5]]))
        self.exe = os.path.realpath(self.spans[0][2]) if self.spans else ""

    def span(self, pc):
        """The (lo, hi, path, base) mapping holding `pc`, or None."""
        return next((s for s in self.spans if s[0] <= pc < s[1]), None)

    def name(self, pc):
        if not (span := self.span(pc)):
            return "[unmapped]"
        _, _, path, base = span
        if path not in self.tables:
            with open(path, "rb") as elf:  # ET_EXEC is linked at absolute addresses
                absolute = elf.read(18)[16] == 2
            # A shared object gives up its exported names only, so a static
            # function in it reads as the export before it: tag those.
            shared = os.path.realpath(path) != self.exe
            tag = f" [{os.path.basename(path)}]" if shared else ""
            table = [(addr, name + tag) for addr, name in symbols(path, dynamic=shared)]
            self.tables[path] = (table, absolute)
        table, absolute = self.tables[path]
        at = bisect.bisect_right(table, (pc if absolute else pc - base, "\U0010ffff")) - 1
        return table[at][1] if at >= 0 else f"[{os.path.basename(path)}]"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("capture")
    ap.add_argument("--top", type=int, default=20, help="rows per table; 0 prints every row")
    ap.add_argument("--callers", help="show who calls the symbols containing this")
    ap.add_argument("--owners", help="comma-separated symbol substrings, in priority order")
    ap.add_argument("--scale", type=float, help="with --owners: also print share times this")
    args = ap.parse_args()
    owners = args.owners.split(",") if args.owners else []
    lines = open(args.capture).read().splitlines()
    split = lines.index("STACKS")
    images, cache = Images(lines[:split]), {}
    self_, incl, callers, owned = (collections.Counter() for _ in range(4))
    stacks = [s.split() for s in lines[split + 1 :] if s]
    for stack in stacks:
        # Frames past the first hold return addresses: look up the call itself.
        pcs = [int(pc, 16) - (i > 0) for i, pc in enumerate(stack)]
        names = [cache.setdefault(pc, images.name(pc)) for pc in pcs]
        self_[names[0]] += 1
        incl.update(set(names))
        if owners:
            owned[next((o for o in owners if any(o in n for n in names)), "other")] += 1
        if args.callers:
            hits = [i for i, n in enumerate(names) if args.callers in n]
            if hits:
                callers[names[hits[-1] + 1] if hits[-1] + 1 < len(names) else "[root]"] += 1
    total = len(stacks) or 1
    # A one-frame stack is a walk that stopped at once: code built without
    # frame pointers (glibc), where the sample names no caller and its
    # symbol is only the nearest export. Say how much of the capture that
    # is, per image, before any table.
    single = collections.Counter()
    for stack in stacks:
        if len(stack) == 1:
            span = images.span(int(stack[0], 16))
            single[os.path.basename(span[2]) if span else "[unmapped]"] += 1
    parts = ", ".join(f"{img} {100 * n / total:.1f} %" for img, n in single.most_common())
    print(f"{len(stacks)} samples; one-frame stacks {100 * sum(single.values()) / total:.1f} %"
          + (f" ({parts})" if parts else ""))
    for title, counts in (("self", self_), ("inclusive", incl), (f"callers of *{args.callers}*", callers)):
        if counts:
            print(f"\n{title} ({len(stacks)} samples)")
            for name, n in counts.most_common(args.top or None):
                print(f"  {100 * n / total:6.2f} %  {n:>8}  {name[:110]}")
    if owners:
        print(f"\nowners ({len(stacks)} samples" + (f"; share x {args.scale:g}" if args.scale else "") + ")")
        for name in owners + ["other"]:
            n = owned[name]
            scaled = f"  {n / total * args.scale:8.3f}" if args.scale else ""
            print(f"  {100 * n / total:6.2f} %  {n:>8}{scaled}  {name}")


if __name__ == "__main__":
    main()
