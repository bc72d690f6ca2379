"""LOUDS encoding of ordered trees and rank/select-based navigation.

The encoding writes, for each node in breadth-first order, as many 1s as
the node has children followed by a single 0 (the node's description).
An n-node tree therefore takes exactly 2n - 1 bits.  No "10" prefix is
prepended for an artificial root; wrap the tree with ``with_super_root``
to get the classic layout, since "10" is just the description of a
one-child node.

Navigation (child count, i-th child, parent) is pure rank/select
arithmetic on the bit sequence; ``bitvec`` documents the index
conventions the formulas rely on.  ``Louds`` keeps the bits in a
``BitVector``, applies the formulas with its methods and validates
positions.

One queue pass writes the encoding as 0/1 bytes, which ``Louds.encode``
hands to ``BitVector`` and ``louds_encode`` lists.  The paper's other
traversal formulations and ``louds_position`` (path <-> bit offset) are
specifications in ``spec``, which the tests check this module against.
"""

from __future__ import annotations

import gc
import re
from dataclasses import dataclass
from functools import wraps
from itertools import accumulate, chain, islice
from operator import indexOf, length_hint
from typing import Any, Iterable, Sequence

from .bitvec import BitVector

Path = Sequence[int]

__all__ = [
    "Louds",
    "Path",
    "Tree",
    "TreeParseError",
    "format_tree",
    "height",
    "louds_encode",
    "number_of_nodes",
    "parse_tree",
    "with_super_root",
]


@dataclass(frozen=True, eq=False, repr=False, init=False)
class Tree:
    """Arbitrarily-branching ordered tree; a leaf has no children.  Equal,
    hashed, shown, pickled and copied by the level-order (label, child
    count) list, so any depth is safe."""

    __slots__ = ("label", "children")
    label: Any
    children: tuple["Tree", ...]

    def __init__(self, label: Any = None, children: Iterable["Tree"] = ()):
        # the slots' own setters, as in dynamic.Node: cheaper than the generated __init__
        _set_label(self, label)
        _set_children(self, tuple(children))

    def _shape(self) -> tuple[tuple[Any, int], ...]:
        queue = [self]
        for node in queue:  # the loop walks the queue while it grows
            queue += node.children
        return tuple((node.label, len(node.children)) for node in queue)

    def __eq__(self, other):
        return self._shape() == other._shape() if isinstance(other, Tree) else NotImplemented

    def __hash__(self):
        return hash(self._shape())

    def __repr__(self):
        return f"<Tree in level order: {self._shape()!r}>"

    def __reduce__(self):
        return _tree_of_shape, (self._shape(),)


_set_label, _set_children = Tree.label.__set__, Tree.children.__set__


def _gc_paused(build):
    """build, run with the cyclic collector paused and then left as found.
    The builds make one ``Tree`` and tuple per node, bottom-up and with no
    cycles, so a pass finds nothing, yet CPython would rescan the growing
    tree: at 10^6 nodes ``parse_tree`` took 0.85 s, not 3.76, and
    ``pickle.loads`` 0.74 s, not 1.61 (CPython 3.11).  The switch is
    process-wide: a thread that toggles it meanwhile can find it
    re-enabled early, which costs only speed."""

    @wraps(build)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return build(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return paused


@_gc_paused
def _tree_of_shape(shape: tuple[tuple[Any, int], ...]) -> Tree:
    """The tree whose ``Tree._shape`` is shape, built from the last node
    back: the children of node k follow those of every earlier node."""
    nodes: list[Tree | None] = [None] * len(shape)
    first = len(shape)  # where the children of node k start
    for k in reversed(range(len(shape))):
        label, count = shape[k]
        first -= count
        nodes[k] = Tree(label, nodes[first : first + count])
    return nodes[0]


def height(t: Tree) -> int:
    """Length of the longest root-to-leaf chain; a lone leaf has height 1."""
    best = 0
    stack = [(t, 1)]
    while stack:
        node, depth = stack.pop()
        if depth > best:
            best = depth
        for c in node.children:
            stack.append((c, depth + 1))
    return best


def number_of_nodes(t: Tree) -> int:
    return len(t._shape())


def _louds_bytes(t: Tree) -> bytes:
    """The encoding as 0/1 bytes, one breadth-first pass without
    recursion: per node, a 1 per child, then a 0."""
    runs, queue = [], [t]
    for node in queue:  # the loop walks the queue while it grows
        queue += (kids := node.children)
        runs.append(b"\1" * len(kids))
    return b"\0".join(runs) + b"\0"


def louds_encode(t: Tree) -> list[int]:
    """Level-order concatenation of node descriptions, 2n - 1 bits: the
    list of ``_louds_bytes``, equal to flattening ``spec.lo_traversal_st``
    of each node's ``spec.node_description``."""
    return list(_louds_bytes(t))


def with_super_root(t: Tree) -> Tree:
    """Wrap t under a one-child root labelled None, reproducing the
    classic "10"-prefixed layout."""
    return Tree(None, (t,))


@dataclass(frozen=True)
class Louds:
    """A LOUDS bit sequence with validity-checked navigation.

    Built from a ``BitVector``, trusted as given, or from any bit
    sequence, which must encode some tree or ``ValueError`` is raised;
    the bits are kept only in the vector.  For the node at bit position
    v, the child count is ``succ(0, v + 1) - (v + 1)``, the i-th child
    is at ``select(0, rank(1, v + i) + 1)`` and the parent at
    ``pred(0, select(1, rank(0, v)))``, each through the vector's
    methods: a few word operations per step, plus one O(log n)
    bisection of the block counts per select.  The formulas are total
    and answer garbage for bit indices that do not start a node
    description; the methods reject those loudly instead.
    """

    vector: BitVector

    def __post_init__(self):
        if not isinstance(self.vector, BitVector):
            vector = BitVector(self.vector)
            # nodes found but not yet described, before each bit and after the
            # last: the first time none is left must be after the last bit
            pending = accumulate((2 * bit - 1 for bit in vector), initial=1)
            if indexOf(chain(pending, [0]), 0) != len(vector):
                raise ValueError("the bits are not the LOUDS encoding of a tree")
            object.__setattr__(self, "vector", vector)

    @classmethod
    def encode(cls, t: Tree) -> "Louds":
        """t's encoding, its 0/1 bytes passed to ``BitVector`` as they are."""
        return cls(BitVector(_louds_bytes(t)))

    @property
    def bits(self) -> tuple[int, ...]:
        return tuple(self.vector)

    def __len__(self) -> int:
        return len(self.vector)

    def is_position(self, v: int) -> bool:
        """True when v is the first bit of some node's description."""
        if not 0 <= v < len(self.vector):
            return False
        return v == 0 or self.vector[v - 1] == 0

    def _require_position(self, v: int) -> None:
        if not self.is_position(v):
            raise ValueError(f"{v} is not a node position in this encoding")

    def _children(self, v: int) -> int:
        return self.vector.succ(0, v + 1) - (v + 1)

    def children(self, v: int) -> int:
        self._require_position(v)
        return self._children(v)

    def child(self, v: int, i: int) -> int:
        self._require_position(v)
        k = self._children(v)
        if not 0 <= i < k:
            raise ValueError(f"child index {i} out of range for node with {k} children")
        vec = self.vector
        return vec.select(0, vec.rank(1, v + i) + 1)

    def parent(self, v: int) -> int:
        self._require_position(v)
        if v == 0:
            raise ValueError("the root has no parent")
        vec = self.vector
        return vec.pred(0, vec.select(1, vec.rank(0, v)))


class TreeParseError(ValueError):
    """Tree text did not parse; carries 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


# a label is a run of anything but whitespace and parentheses, and one
# token is a parenthesis or a maximal such run
_LABEL = re.compile(r"[^\s()]+")
_TREE_TOKEN = re.compile(r"[()]|" + _LABEL.pattern)
# the fault a token stands for when it is not where the grammar allows it
_FAULTS = {"(": "expected a label after '('", ")": "unbalanced ')'"}


def _parse_error(text: str, k: int, message: str) -> TreeParseError:
    """The error at the k-th token of text, located by line and column."""
    at = next(islice(_TREE_TOKEN.finditer(text), k, None)).start()
    return TreeParseError(message, text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at))


def _tree_tokens(text: str) -> list[str]:
    """``_TREE_TOKEN.findall(text)`` in one C-level pass: ``str.split`` splits on ``\\s``."""
    return text.replace("(", " ( ").replace(")", " ) ").split()


@_gc_paused
def parse_tree(text: str) -> Tree:
    """Parse the parenthesized form ``(label child*)``; labels are
    arbitrary non-whitespace tokens and become string node labels."""
    tokens = _tree_tokens(text)
    if not tokens:
        raise TreeParseError("empty input", 1, 1)
    end, rest = len(tokens), iter(tokens)
    labels, outer, kids = [], [], []  # open labels, their parents' kids, the innermost's kids
    for token in rest:
        if token == "(" and (label := next(rest, ")")) not in "()":
            labels.append(label)
            outer.append(kids)
            kids = []
        elif token == ")" and labels:
            node = Tree(labels.pop(), kids)
            if not labels:
                if length_hint(rest):
                    raise _parse_error(text, end - length_hint(rest), "trailing content after tree")
                return node
            kids = outer.pop()
            kids.append(node)
        else:  # the last token taken is at fault; a label missing at the end reads as ")"
            why = _FAULTS.get(token, f"unexpected token {token!r}")
            raise _parse_error(text, end - length_hint(rest) - 1, why)
    raise _parse_error(text, end - 1, "unexpected end of input")


def format_tree(t: Tree) -> str:
    """The parenthesized form ``parse_tree`` reads, ``_`` for a None
    label; a label that would not read back as one token, empty or with
    whitespace or a parenthesis, raises ValueError.  Walks an explicit
    stack of nodes and pending separators, so any depth is safe."""
    parts: list[str] = []
    stack: list[Tree | str] = [t]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
            continue
        label = "_" if item.label is None else str(item.label)
        if not _LABEL.fullmatch(label):
            raise ValueError(f"label {item.label!r} cannot be written as tree text")
        parts.append("(" + label)
        stack.append(")")
        for child in reversed(item.children):
            stack += (child, " ")
    return "".join(parts)
