"""Succinct data structures.

Three layers, each validated against a naive reference oracle:

- ``bitvec``: ``BitVector``, static rank/select/succ/pred over packed
  words with a rank9 directory of 1- and 0-counts in 80 bytes per 512
  bits: O(1) rank, key-free select, in-word succ/pred.
- ``louds``: pointerless level-order tree encoding with rank/select
  navigation (child count, i-th child, parent) on a ``BitVector``.
- ``dynamic``: dynamic bit vectors as red-black trees over packed
  leaf words, with insert/delete/set/clear, tree-steered queries and
  an O(n) bulk build.

This package exports the public API of the three layers.  Everything
else is imported from its own module: the tree internals and free
``d*`` functions from ``dynamic``, the paper's traversal formulations
from ``spec``, the reference implementations from ``oracle`` and the
randomized cross-checks from ``verify``.
"""

from .bitvec import BitVector, format_bits, parse_bits
from .dynamic import DynamicBitVector, SizeBounds, dump, from_bits, parse_dump
from .louds import (
    Louds, Tree, TreeParseError, format_tree, louds_encode, parse_tree, with_super_root
)

__all__ = [
    "BitVector", "parse_bits", "format_bits",
    "Tree", "Louds", "TreeParseError", "parse_tree", "format_tree", "louds_encode",
    "with_super_root",
    "DynamicBitVector", "SizeBounds", "from_bits", "dump", "parse_dump",
]

__version__ = "0.1.0"
