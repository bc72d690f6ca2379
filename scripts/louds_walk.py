#!/usr/bin/env python3
"""Encode a tree file and walk every node through the LOUDS navigation.

Prints a table of node positions, child counts and parents, each entry
cross-checked against the inductive tree, then a line of summary stats.
Useful for eyeballing how the bit offsets line up with the tree.
"""

import argparse
import sys

from succinct import Louds, format_bits, parse_tree, with_super_root
from succinct.louds import number_of_nodes
from succinct.spec import louds_position, subtree
from succinct.verify import all_paths


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("tree_file")
    parser.add_argument("--super-root", action="store_true")
    args = parser.parse_args()

    with open(args.tree_file, encoding="utf-8") as fh:
        tree = parse_tree(fh.read())
    if args.super_root:
        tree = with_super_root(tree)

    nav = Louds.encode(tree)
    print(f"encoding ({len(nav)} bits): {format_bits(nav.bits)}")
    print(f"{'path':>16}  {'pos':>4}  {'kids':>4}  {'parent':>6}  label")

    positions = {p: louds_position([tree], p) for p in all_paths(tree)}
    mismatches = 0
    for path, pos in sorted(positions.items(), key=lambda kv: kv[1]):
        node = subtree(tree, path)
        kids = nav.children(pos)
        parent = nav.parent(pos) if path else None
        if kids != len(node.children):
            mismatches += 1
        if path and parent != positions[path[:-1]]:
            mismatches += 1
        for i in range(kids):
            if nav.child(pos, i) != positions[path + (i,)]:
                mismatches += 1
        shown = ",".join(map(str, path)) or "(root)"
        parent_str = "-" if parent is None else str(parent)
        print(f"{shown:>16}  {pos:>4}  {kids:>4}  {parent_str:>6}  {node.label}")

    n = number_of_nodes(tree)
    print(f"{n} nodes, {2 * n - 1} bits, mismatches: {mismatches}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
