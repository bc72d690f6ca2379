"""Succinct data structures.

Three layers, each validated against a naive reference oracle:

- ``bitvec``: static rank/select/succ/pred over flat bit sequences,
  plus ``BitVector``, packed words with a 1- and 0-count directory in
  16 bytes per 64 bits: O(1) rank, key-free select, in-word succ/pred.
- ``louds``: pointerless level-order tree encoding with rank/select
  navigation (child count, i-th child, parent) on a ``BitVector``.
- ``dynamic``: dynamic bit vectors as red-black trees over packed
  leaf words, with insert/delete/set/clear, tree-steered queries and
  an O(n) bulk build.
"""

from .bitvec import (
    Bit,
    BitSeq,
    BitVector,
    format_bits,
    parse_bits,
    pred,
    rank,
    select,
    succ,
)
from .dynamic import (
    BLACK,
    RED,
    Color,
    DTree,
    DynamicBitVector,
    Leaf,
    Node,
    SizeBounds,
    daccess,
    dclear,
    ddelete,
    dflatten,
    dinsert,
    drank,
    dselect0,
    dselect1,
    dset,
    dsize,
    dump,
    from_bits,
    parse_dump,
    redblack_check,
    wf_check,
)
from .louds import (
    Forest,
    Louds,
    Path,
    Tree,
    TreeParseError,
    children,
    children_of_forest,
    format_tree,
    height,
    level_traversal,
    lo_fringe,
    lo_index,
    lo_traversal,
    lo_traversal_lt,
    lo_traversal_st,
    louds_child,
    louds_children,
    louds_encode,
    louds_lt,
    louds_parent,
    louds_position,
    mzip,
    node_description,
    number_of_nodes,
    parse_tree,
    subtree,
    valid_position,
    with_super_root,
)

__version__ = "0.1.0"
