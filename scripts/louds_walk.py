#!/usr/bin/env python3
"""Encode a tree file and walk every node through the LOUDS navigation.

Prints a table of the nodes in level order with their positions, child
counts and parents, each entry cross-checked against the tree's
level-order table, then a line of summary stats.  Useful for eyeballing
how the bit offsets line up with the tree.
"""

import argparse
import sys

from succinct import Louds, format_bits, parse_tree, with_super_root
from succinct.verify import level_order


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
    print(f"{'node':>6}  {'pos':>4}  {'kids':>4}  {'parent':>6}  label")

    nodes, positions, parents = level_order(tree)
    mismatches, first = 0, 1
    for k, (node, pos) in enumerate(zip(nodes, positions)):
        kids = nav.children(pos)
        parent = nav.parent(pos) if k else None
        mismatches += kids != len(node.children)
        mismatches += k > 0 and parent != positions[parents[k]]
        for i in range(min(kids, len(node.children))):
            mismatches += nav.child(pos, i) != positions[first + i]
        first += len(node.children)
        parent_str = "-" if parent is None else str(parent)
        print(f"{k:>6}  {pos:>4}  {kids:>4}  {parent_str:>6}  {node.label}")

    n = len(nodes)
    print(f"{n} nodes, {2 * n - 1} bits, mismatches: {mismatches}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
