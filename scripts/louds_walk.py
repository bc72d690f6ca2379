#!/usr/bin/env python3
"""Encode a tree file and walk every node through the LOUDS navigation.

Prints a table of the nodes in level order with their positions, child
counts and parents, then cross-checks every node with
``verify.check_navigation`` and prints a line of summary stats; a
mismatch is printed to stderr instead, with exit code 1.  Useful for
eyeballing how the bit offsets line up with the tree.
"""

import argparse
import sys

from succinct import Louds, format_bits, parse_tree, with_super_root
from succinct.verify import VerifyError, check_navigation, level_order


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

    nodes, positions, _ = level_order(tree)
    for k, (node, pos) in enumerate(zip(nodes, positions)):
        parent = nav.parent(pos) if k else "-"
        print(f"{k:>6}  {pos:>4}  {nav.children(pos):>4}  {parent:>6}  {node.label}")

    try:
        check_navigation(tree)
    except VerifyError as e:
        print(e, file=sys.stderr)
        return 1
    n = len(nodes)
    print(f"{n} nodes, {2 * n - 1} bits, mismatches: 0")
    return 0


if __name__ == "__main__":
    sys.exit(main())
